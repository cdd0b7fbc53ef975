"""Stateful property test: HitOrderedCache against the brute-force ReferenceCache.

Hypothesis drives one cache through random mixes of one-key ``replay``
calls and whole key lists replayed in one call, and mirrors every step
on a ReferenceCache: a replayed miss is a reference insert, and a miss
in a full cache must evict the reference's bottom row. After each step
the rows must agree, the resident set must hold exactly the barcodes of
the rows, and rows with equal hits must keep the order in which their
counts were earned (tracked here by the test's own per-key stamps).
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from robocache.cache import HitOrderedCache

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
        """Stamp ``barcode``: it was just hit or admitted."""
        self.step += 1
        self.seq[barcode] = self.step

    @rule(barcode=keys)
    def replay_one(self, barcode):
        rows = self.cache.snapshot()
        (slot,) = self.cache.replay([barcode])
        hit, comparisons = self.ref.lookup(barcode)
        if hit:
            assert slot + 1 == comparisons
        else:
            assert ~slot == comparisons
            # A miss in a full cache evicts the bottom row.
            evicted = rows[-1][0] if len(rows) == self.cache.capacity else None
            assert evicted == self.ref.insert(barcode)
            assert evicted not in self.cache._resident
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
