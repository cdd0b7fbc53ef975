import robocache


def test_star_import_resolves_every_public_name():
    namespace: dict = {}
    exec("from robocache import *", namespace)
    missing = [name for name in robocache.__all__ if name not in namespace]
    assert missing == []
    assert len(set(robocache.__all__)) == len(robocache.__all__)


def test_the_knowledge_base_is_an_index_with_no_writer():
    # generate writes the record file; a loaded knowledge base holds only its keys.
    assert "save_kb" not in robocache.__all__
    assert not hasattr(robocache.KnowledgeBase, "export")
