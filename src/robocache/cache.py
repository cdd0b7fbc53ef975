"""Capacity-bounded cache ordered by per-entry hit counters.

Entries are kept sorted from most-hit to least-hit, so a top-down linear
scan finds popular keys in one or two probes. A successful lookup
increments the matched entry's counter and lets the entry bubble up past
neighbours with strictly smaller counters; it never overtakes an entry
with an equal counter, which keeps equal-counter runs in the order the
counts were earned. New entries always start with one hit at the bottom
of the list, and when the cache is full the bottom entry is evicted to
make room. Every probe is counted so callers can account for search
cost.

``lookup`` and ``insert`` validate their key. ``probe`` and ``admit`` are
the unchecked path underneath them, for a caller (the simulator) that has
validated every key once up front; both paths share one promote/evict rule.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Tuple

from .errors import ConfigError, DuplicateKeyError, ValidationError

_BARCODE_RE = re.compile(r"^[0-9]{14}$")


def validate_barcode(barcode: str) -> str:
    """Return the barcode unchanged if it is exactly 14 decimal digits.

    Raises ValidationError otherwise; a malformed key is never treated
    as a plain miss.
    """
    if not isinstance(barcode, str) or _BARCODE_RE.match(barcode) is None:
        raise ValidationError(
            f"malformed barcode key {barcode!r}: expected exactly 14 decimal digits"
        )
    return barcode


@dataclass(slots=True)
class CacheEntry:
    """One cached routing decision.

    ``hits`` is at least 1 for any resident entry (an entry exists only
    after one successful resolution). ``seq`` is a monotone stamp
    refreshed whenever ``hits`` changes; within a group of equal
    counters the older stamp sits higher, which makes the order total
    and deterministic.
    """

    barcode: str
    payload: object
    hits: int
    seq: int


@dataclass(frozen=True)
class LookupResult:
    hit: bool
    payload: Optional[object]
    comparisons: int


class HitOrderedCache:
    """Fixed-capacity store sorted by descending hit counter.

    Not safe for concurrent mutation: confine each instance to the one
    simulated robot (and thread) that owns it.
    """

    def __init__(self, capacity: int):
        if not isinstance(capacity, int) or isinstance(capacity, bool) or capacity < 1:
            raise ConfigError(f"cache capacity must be a positive integer, got {capacity!r}")
        self.capacity = capacity
        self._entries: list[CacheEntry] = []
        # _keys[i] == _entries[i].barcode: a probe is a C-level list scan.
        self._keys: list[str] = []
        self._next_seq = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def entries(self) -> Tuple[CacheEntry, ...]:
        """Current entries, most hits first. Treat as read-only."""
        return tuple(self._entries)

    def lookup(self, barcode: str) -> LookupResult:
        """Scan top-down for ``barcode``, counting one comparison per probe.

        On a hit the entry's counter is incremented and the entry moves
        up past strictly smaller counters; the result reports the probe
        count before the move (position + 1). On a miss the whole list
        has been scanned and the cache is left unchanged.
        """
        validate_barcode(barcode)
        slot = self.probe(barcode)
        if slot < 0:
            return LookupResult(hit=False, payload=None, comparisons=len(self._entries))
        entry = self._entries[self._keys.index(barcode)]
        return LookupResult(hit=True, payload=entry.payload, comparisons=slot + 1)

    def insert(self, barcode: str, payload: object) -> Optional[str]:
        """Add a fresh entry with one hit at the bottom of the list.

        Callers look up first, so inserting a barcode that is already
        resident raises DuplicateKeyError. If the cache is full the
        bottom entry is removed first and its barcode returned;
        otherwise returns None.
        """
        validate_barcode(barcode)
        if barcode in self._keys:
            raise DuplicateKeyError(f"barcode {barcode} already cached; look up before inserting")
        return self.admit(barcode, payload)

    def probe(self, barcode: str) -> int:
        """Unchecked lookup: the 0-based hit slot, or -1 on a miss.

        A hit costs slot + 1 comparisons and a miss ``len(self)``; a hit
        is counted and promoted exactly as in ``lookup``. ``barcode`` must
        already be validated.
        """
        keys = self._keys
        if barcode not in keys:
            return -1
        slot = keys.index(barcode)
        entries = self._entries
        entry = entries[slot]
        entry.hits += 1
        hits = entry.hits
        entry.seq = self._next_seq
        self._next_seq += 1
        # Bubble past strictly smaller counters only; overtaking an equal
        # counter would reorder entries whose counts tie.
        dest = slot
        while dest > 0 and entries[dest - 1].hits < hits:
            dest -= 1
        if dest != slot:
            entries.insert(dest, entries.pop(slot))
            keys.insert(dest, keys.pop(slot))
        return slot

    def admit(self, barcode: str, payload: object) -> Optional[str]:
        """Unchecked insert right after ``probe`` missed ``barcode``.

        Same effect and return value as ``insert``, without validating the
        key or rescanning for a duplicate.
        """
        evicted = None
        if len(self._entries) == self.capacity:
            self._entries.pop()
            evicted = self._keys.pop()
        self._entries.append(CacheEntry(barcode, payload, 1, self._next_seq))
        self._keys.append(barcode)
        self._next_seq += 1
        return evicted

    def snapshot(self) -> Tuple[Tuple[str, int], ...]:
        """Copy the current (barcode, hits) rows, top first, without touching the cache."""
        return tuple((entry.barcode, entry.hits) for entry in self._entries)
