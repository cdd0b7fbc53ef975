"""Stateful property test: HitOrderedCache against the brute-force ReferenceCache.

Hypothesis drives one cache through random mixes of the checked path
(lookup, insert) and whole key lists replayed in one ``replay`` call, and
mirrors every step on a ReferenceCache: a replayed miss is a reference
insert. After each step the rows must agree, the resident set must hold
exactly the barcodes of the rows, and rows with equal hits must keep the
order in which their counts were earned (tracked here by the test's own
per-key stamps).
"""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from robocache.cache import HitOrderedCache
from robocache.errors import DuplicateKeyError

from reference import ReferenceCache

keys = st.integers(min_value=0, max_value=9).map(lambda n: str(10_000_000_000_000 + n))


class CacheAgainstReference(RuleBasedStateMachine):
    @initialize(capacity=st.integers(min_value=1, max_value=6))
    def make(self, capacity):
        self.cache = HitOrderedCache(capacity)
        self.ref = ReferenceCache(capacity)
        self.seq = {}  # barcode -> the step at which its hit count last changed
        self.step = 0

    def counted(self, barcode):
        """Stamp ``barcode``: it was just hit or inserted."""
        self.step += 1
        self.seq[barcode] = self.step

    @rule(barcode=keys)
    def lookup_then_insert(self, barcode):
        found = self.cache.lookup(barcode)
        hit, comparisons = self.ref.lookup(barcode)
        assert (found.hit, found.comparisons) == (hit, comparisons)
        if not hit:
            assert self.cache.insert(barcode) == self.ref.insert(barcode)
        self.counted(barcode)

    @rule(barcodes=st.lists(keys, max_size=12))
    def replay(self, barcodes):
        slots = self.cache.replay(barcodes)
        assert len(slots) == len(barcodes)
        for barcode, slot in zip(barcodes, slots):
            hit, comparisons = self.ref.lookup(barcode)
            if hit:
                assert slot + 1 == comparisons
            else:
                assert ~slot == comparisons == len(self.ref.entries)
                self.ref.insert(barcode)
            self.counted(barcode)

    @rule(barcode=keys)
    def lookup_without_insert(self, barcode):
        found = self.cache.lookup(barcode)
        assert (found.hit, found.comparisons) == self.ref.lookup(barcode)
        if found.hit:
            self.counted(barcode)

    @precondition(lambda self: len(self.cache) > 0)
    @rule(data=st.data())
    def insert_of_a_resident_key_is_rejected(self, data):
        barcode = data.draw(st.sampled_from(self.ref.rows()))[0]
        with pytest.raises(DuplicateKeyError):
            self.cache.insert(barcode)

    @invariant()
    def state_agrees(self):
        rows = self.cache.snapshot()
        assert list(rows) == self.ref.rows()
        assert self.cache._resident == {barcode for barcode, _ in rows}
        for (upper, upper_hits), (lower, lower_hits) in zip(rows, rows[1:]):
            assert upper_hits >= lower_hits
            if upper_hits == lower_hits:
                assert self.seq[upper] < self.seq[lower]


CacheAgainstReference.TestCase.settings = settings(
    max_examples=100, stateful_step_count=40, derandomize=True, database=None, deadline=None
)
TestCacheAgainstReference = CacheAgainstReference.TestCase
