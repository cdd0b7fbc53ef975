import robocache


def test_star_import_resolves_every_public_name():
    namespace: dict = {}
    exec("from robocache import *", namespace)
    missing = [name for name in robocache.__all__ if name not in namespace]
    assert missing == []
    assert len(set(robocache.__all__)) == len(robocache.__all__)
