"""Capacity-bounded cache ordered by per-row hit counters.

Rows are kept sorted from most-hit to least-hit, so a top-down linear
scan finds popular keys in one or two probes. A successful lookup
increments the matched row's counter and lets the row bubble up past
neighbours with strictly smaller counters; it never overtakes a row
with an equal counter, which keeps equal-counter runs in the order the
counts were earned. New rows always start with one hit at the bottom
of the list, and when the cache is full the bottom row is evicted to
make room. Every probe is counted so callers can account for search
cost.

``lookup`` and ``insert`` validate their key. ``probe`` and ``admit`` are
the unchecked path underneath them, for a caller (the simulator) that has
validated every key once up front; both paths share one promote/evict rule.
``validate_barcode`` checks one key and ``barcode_keys`` a batch at once;
both hold the same barcode rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import ConfigError, DuplicateKeyError, ValidationError

BARCODE_WIDTH = 14


def validate_barcode(barcode: str) -> str:
    """Return the barcode unchanged if it is exactly 14 ASCII decimal digits.

    Raises ValidationError otherwise; a malformed key is never treated
    as a plain miss.
    """
    if not (isinstance(barcode, str) and len(barcode) == BARCODE_WIDTH and barcode.isascii() and barcode.isdigit()):
        raise ValidationError(
            f"malformed barcode key {barcode!r}: expected exactly 14 decimal digits"
        )
    return barcode


def ascii_rows(text: str, width: int) -> np.ndarray:
    """ASCII ``text`` of whole ``width``-character rows as a uint8 array, one row each."""
    return np.frombuffer(text.encode("ascii"), np.uint8).reshape(-1, width)


def digit_keys(columns: np.ndarray) -> Optional[np.ndarray]:
    """The int64 value of each row of ASCII barcode characters, or None if one is not a digit."""
    digits = columns - ord("0")  # below "0" wraps round to 10 or more
    if not (digits < 10).all():
        return None
    keys = np.zeros(len(digits), np.int64)
    for column in digits.T:
        keys *= 10
        keys += column
    return keys


def barcode_keys(barcodes: list[str]) -> np.ndarray:
    """The int64 value of each barcode; ValidationError names the first that is not 14 ASCII digits."""
    try:
        text = "".join(barcodes)
    except TypeError:  # a barcode that is not a str, which validate_barcode names
        pass
    else:
        if set(map(len, barcodes)) <= {BARCODE_WIDTH} and text.isascii():
            keys = digit_keys(ascii_rows(text, BARCODE_WIDTH))
            if keys is not None:
                return keys
    for barcode in barcodes:
        validate_barcode(barcode)
    raise AssertionError("every barcode passed validate_barcode but not the bulk check")


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
        # Row i is (_keys[i], _hits[i]), top row first: a probe is a C-level
        # list scan. A row's position alone records the equal-counter order.
        self._keys: list[str] = []
        self._hits: list[int] = []
        self._payloads: dict[str, object] = {}

    def __len__(self) -> int:
        return len(self._keys)

    def lookup(self, barcode: str) -> LookupResult:
        """Scan top-down for ``barcode``, counting one comparison per probe.

        On a hit the row's counter is incremented and the row moves up
        past strictly smaller counters; the result reports the probe
        count before the move (position + 1). On a miss the whole list
        has been scanned and the cache is left unchanged.
        """
        validate_barcode(barcode)
        slot = self.probe(barcode)
        if slot < 0:
            return LookupResult(hit=False, payload=None, comparisons=len(self._keys))
        return LookupResult(hit=True, payload=self._payloads[barcode], comparisons=slot + 1)

    def insert(self, barcode: str, payload: object) -> Optional[str]:
        """Add a fresh row with one hit at the bottom of the list.

        Callers look up first, so inserting a barcode that is already
        resident raises DuplicateKeyError. If the cache is full the
        bottom row is removed first and its barcode returned;
        otherwise returns None.
        """
        validate_barcode(barcode)
        if barcode in self._payloads:
            raise DuplicateKeyError(f"barcode {barcode} already cached; look up before inserting")
        return self.admit(barcode, payload)

    def probe(self, barcode: str) -> int:
        """Unchecked lookup: the 0-based hit slot, or -1 on a miss.

        A hit costs slot + 1 comparisons and a miss ``len(self)``; a hit
        is counted and promoted exactly as in ``lookup``. ``barcode`` must
        already be validated.
        """
        if barcode not in self._payloads:
            return -1
        keys = self._keys
        counts = self._hits
        slot = keys.index(barcode)
        hits = counts[slot] + 1
        # Bubble past strictly smaller counters only; overtaking an equal
        # counter would reorder rows whose counts tie.
        dest = slot
        while dest > 0 and counts[dest - 1] < hits:
            dest -= 1
        if dest == slot:
            counts[slot] = hits
        else:
            del keys[slot], counts[slot]
            keys.insert(dest, barcode)
            counts.insert(dest, hits)
        return slot

    def admit(self, barcode: str, payload: object) -> Optional[str]:
        """Unchecked insert right after ``probe`` missed ``barcode``.

        Same effect and return value as ``insert``, without validating the
        key or checking for a duplicate.
        """
        evicted = None
        if len(self._keys) == self.capacity:
            evicted = self._keys.pop()
            self._hits.pop()
            del self._payloads[evicted]
        self._keys.append(barcode)
        self._hits.append(1)
        self._payloads[barcode] = payload
        return evicted

    def snapshot(self) -> Tuple[Tuple[str, int], ...]:
        """Copy the current (barcode, hits) rows, top first, without touching the cache."""
        return tuple(zip(self._keys, self._hits))
