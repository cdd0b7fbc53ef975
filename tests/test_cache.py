import random

import pytest

from robocache.cache import HitOrderedCache, barcode_keys, validate_barcode
from robocache.errors import ConfigError, ValidationError

from reference import ReferenceCache


def key(n: int) -> str:
    return str(10_000_000_000_000 + n)


A, B, C = key(1), key(2), key(3)


def comparisons(slot: int) -> int:
    """The probes behind one ``replay`` slot: slot + 1 for a hit, every row for a miss."""
    return slot + 1 if slot >= 0 else ~slot


def test_a_scan_of_an_empty_cache_is_a_zero_comparison_miss():
    cache = HitOrderedCache(capacity=4)
    assert cache.replay([A]) == [~0]
    assert cache.snapshot() == ((A, 1),)


def test_validate_barcode_refuses_malformed_keys():
    for bad in ("", "123", "1234567890123x", "123456789012345", "1234567890123", "10000000000000\n", 42, None):
        with pytest.raises(ValidationError):
            validate_barcode(bad)
    assert validate_barcode(A) == A


@pytest.mark.parametrize(
    "malformed",
    [
        ["1234567890123"],
        ["123456789012345"],
        ["1234567890123x"],
        ["１２３４５６７８９０１２３４"],
        ["1234567 901234"],
        [""],
        # Joined, these hold 28 digits, as two good barcodes would.
        ["1234567890123", "412345678901234"],
        [12345678901234],
        [None],
    ],
)
def test_barcode_keys_refuses_a_malformed_barcode_by_name(malformed):
    with pytest.raises(ValidationError) as exc_info:
        barcode_keys(["12345678901234", *malformed])
    assert repr(malformed[0]) in str(exc_info.value)


def test_hit_below_larger_counter_does_not_reorder():
    # [A(3), B(1)]: hitting B makes it B(2), still below A(3)
    cache = HitOrderedCache(capacity=4)
    cache.replay([A, B, A, A])
    assert cache.replay([B]) == [1]  # a hit after 2 comparisons
    assert cache.snapshot() == ((A, 3), (B, 2))


def test_hit_overtakes_strictly_smaller_counters_only():
    # [A(2), B(2)]: hitting B makes it B(3) and it passes A
    cache = HitOrderedCache(capacity=4)
    cache.replay([A, B, A, B])  # both at 2, order [A, B]
    assert cache.snapshot() == ((A, 2), (B, 2))
    assert cache.replay([B]) == [1]
    assert cache.snapshot() == ((B, 3), (A, 2))


def test_a_miss_under_capacity_enters_at_the_bottom():
    cache = HitOrderedCache(capacity=2)
    assert cache.replay([A, B]) == [~0, ~1]
    assert cache.snapshot() == ((A, 1), (B, 1))


def test_a_miss_at_capacity_evicts_the_bottom_row():
    cache = HitOrderedCache(capacity=2)
    cache.replay([A, B, A])  # [A(2), B(1)]
    assert cache.snapshot()[-1] == (B, 1)
    assert cache.replay([C]) == [~2]
    assert cache.snapshot() == ((A, 2), (C, 1))


def test_capacity_must_be_a_positive_integer():
    for bad in (0, -1, 1.5, "4", True):
        with pytest.raises(ConfigError):
            HitOrderedCache(bad)


def test_hand_traced_sequence_a_b_a_c_a():
    # Every miss is admitted into a capacity-2 cache.
    cache = HitOrderedCache(capacity=2)
    slots = cache.replay([A, B, A, C, A])
    assert list(map(comparisons, slots)) == [0, 1, 1, 2, 1]
    assert sum(map(comparisons, slots)) == 5
    assert sum(slot >= 0 for slot in slots) == 2  # hits
    assert sum(slot < 0 for slot in slots) == 3  # station resolutions
    assert cache.snapshot() == ((A, 3), (C, 1))


def test_snapshot_reflects_order_and_is_pure():
    cache = HitOrderedCache(capacity=2)
    assert cache.snapshot() == ()
    cache.replay([A, B, A, C, A])
    snap = cache.snapshot()
    assert snap == ((A, 3), (C, 1))
    assert cache.snapshot() == snap  # repeated read, no mutation


def test_equal_hit_runs_keep_ascending_seq_order():
    rng = random.Random(7)
    cache = HitOrderedCache(capacity=8)
    keys = [key(n) for n in range(12)]
    seq = {}  # barcode -> the step at which its hit count last changed
    for step in range(2000):
        barcode = rng.choice(keys)
        cache.replay([barcode])
        seq[barcode] = step  # every step either hits or admits this key
        rows = cache.snapshot()
        for (left, left_hits), (right, right_hits) in zip(rows, rows[1:]):
            assert left_hits >= right_hits
            if left_hits == right_hits:
                assert seq[left] < seq[right]


def test_matches_brute_force_reference_on_random_traces():
    rng = random.Random(99)
    for _ in range(300):
        capacity = rng.randint(1, 8)
        keyspace = [key(n) for n in range(rng.randint(1, 24))]
        cache = HitOrderedCache(capacity)
        ref = ReferenceCache(capacity)
        for _ in range(rng.randint(1, 120)):
            barcode = rng.choice(keyspace)
            rows = cache.snapshot()
            (slot,) = cache.replay([barcode])
            ref_hit, ref_comparisons = ref.lookup(barcode)
            assert (slot >= 0) == ref_hit
            assert comparisons(slot) == ref_comparisons
            if not ref_hit:
                evicted = rows[-1][0] if len(rows) == capacity else None
                assert evicted == ref.insert(barcode)
            assert list(cache.snapshot()) == ref.rows()
