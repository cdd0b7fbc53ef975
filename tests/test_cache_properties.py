"""Stateful property test: HitOrderedCache against the brute-force ReferenceCache.

Hypothesis drives one cache through random mixes of the checked path
(lookup, insert) and the unchecked path (probe, admit) and mirrors every
step on a ReferenceCache. After each step the rows, the parallel key
list and the equal-hits seq order must all agree.
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

    @rule(barcode=keys)
    def lookup_then_insert(self, barcode):
        found = self.cache.lookup(barcode)
        hit, payload, comparisons = self.ref.lookup(barcode)
        assert (found.hit, found.payload, found.comparisons) == (hit, payload, comparisons)
        if not hit:
            assert self.cache.insert(barcode, "p" + barcode) == self.ref.insert(barcode, "p" + barcode)

    @rule(barcode=keys)
    def probe_then_admit(self, barcode):
        slot = self.cache.probe(barcode)
        hit, _, comparisons = self.ref.lookup(barcode)
        if hit:
            assert slot + 1 == comparisons
        else:
            assert slot == -1
            assert len(self.cache) == comparisons
            assert self.cache.admit(barcode, "p" + barcode) == self.ref.insert(barcode, "p" + barcode)

    @rule(barcode=keys)
    def lookup_without_insert(self, barcode):
        found = self.cache.lookup(barcode)
        assert (found.hit, found.payload, found.comparisons) == self.ref.lookup(barcode)

    @precondition(lambda self: len(self.cache) > 0)
    @rule(data=st.data())
    def insert_of_a_resident_key_is_rejected(self, data):
        barcode = data.draw(st.sampled_from(self.ref.rows()))[0]
        with pytest.raises(DuplicateKeyError):
            self.cache.insert(barcode, "again")

    @invariant()
    def state_agrees(self):
        entries = self.cache.entries
        assert [(e.barcode, e.hits) for e in entries] == self.ref.rows()
        assert [e.payload for e in entries] == [entry[1] for entry in self.ref.entries]
        assert self.cache._keys == [e.barcode for e in entries]
        for upper, lower in zip(entries, entries[1:]):
            assert upper.hits >= lower.hits
            if upper.hits == lower.hits:
                assert upper.seq < lower.seq


CacheAgainstReference.TestCase.settings = settings(
    max_examples=100, stateful_step_count=40, derandomize=True, database=None, deadline=None
)
TestCacheAgainstReference = CacheAgainstReference.TestCase
