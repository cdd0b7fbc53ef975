import random

import pytest

from robocache.cache import HitOrderedCache, barcode_keys
from robocache.errors import ConfigError, DuplicateKeyError, ValidationError

from reference import ReferenceCache


def key(n: int) -> str:
    return str(10_000_000_000_000 + n)


A, B, C = key(1), key(2), key(3)


def test_lookup_on_empty_cache_is_a_zero_comparison_miss():
    cache = HitOrderedCache(capacity=4)
    result = cache.lookup(A)
    assert not result.hit
    assert result.comparisons == 0


def test_malformed_keys_are_rejected_not_treated_as_misses():
    cache = HitOrderedCache(capacity=4)
    for bad in ("", "123", "1234567890123x", "123456789012345", "1234567890123", "10000000000000\n", 42, None):
        with pytest.raises(ValidationError):
            cache.lookup(bad)
        with pytest.raises(ValidationError):
            cache.insert(bad)
    assert len(cache) == 0


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
    cache.insert(A)
    cache.insert(B)
    cache.lookup(A)
    cache.lookup(A)  # A now at 3
    result = cache.lookup(B)
    assert result.hit
    assert result.comparisons == 2
    assert cache.snapshot() == ((A, 3), (B, 2))


def test_hit_overtakes_strictly_smaller_counters_only():
    # [A(2), B(2)]: hitting B makes it B(3) and it passes A
    cache = HitOrderedCache(capacity=4)
    cache.insert(A)
    cache.insert(B)
    cache.lookup(A)
    cache.lookup(B)  # both at 2, order [A, B]
    assert cache.snapshot() == ((A, 2), (B, 2))
    result = cache.lookup(B)
    assert result.hit
    assert result.comparisons == 2
    assert cache.snapshot() == ((B, 3), (A, 2))


def test_insert_under_capacity_appends_at_the_bottom():
    cache = HitOrderedCache(capacity=2)
    assert cache.insert(A) is None
    assert cache.insert(B) is None
    assert cache.snapshot() == ((A, 1), (B, 1))


def test_insert_at_capacity_evicts_the_bottom_entry():
    cache = HitOrderedCache(capacity=2)
    cache.insert(A)
    cache.insert(B)
    cache.lookup(A)  # [A(2), B(1)]
    evicted = cache.insert(C)
    assert evicted == B
    assert cache.snapshot() == ((A, 2), (C, 1))


def test_duplicate_insert_is_a_contract_violation():
    cache = HitOrderedCache(capacity=2)
    cache.insert(A)
    with pytest.raises(DuplicateKeyError):
        cache.insert(A)


def test_capacity_must_be_a_positive_integer():
    for bad in (0, -1, 1.5, "4", True):
        with pytest.raises(ConfigError):
            HitOrderedCache(bad)


def test_hand_traced_sequence_a_b_a_c_a():
    # Lookup-then-insert-on-miss through a capacity-2 cache.
    cache = HitOrderedCache(capacity=2)
    comparisons = []
    hits = 0
    resolutions = 0
    for barcode in (A, B, A, C, A):
        result = cache.lookup(barcode)
        comparisons.append(result.comparisons)
        if result.hit:
            hits += 1
        else:
            resolutions += 1
            cache.insert(barcode)
    assert comparisons == [0, 1, 1, 2, 1]
    assert sum(comparisons) == 5
    assert hits == 2
    assert resolutions == 3
    assert cache.snapshot() == ((A, 3), (C, 1))


def test_snapshot_reflects_order_and_is_pure():
    cache = HitOrderedCache(capacity=2)
    assert cache.snapshot() == ()
    for barcode in (A, B, A, C, A):
        if not cache.lookup(barcode).hit:
            cache.insert(barcode)
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
        if not cache.lookup(barcode).hit:
            cache.insert(barcode)
        seq[barcode] = step  # every step either hits or inserts this key
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
            result = cache.lookup(barcode)
            ref_hit, ref_comparisons = ref.lookup(barcode)
            assert result.hit == ref_hit
            assert result.comparisons == ref_comparisons
            if not result.hit:
                assert cache.insert(barcode) == ref.insert(barcode)
            assert list(cache.snapshot()) == ref.rows()
