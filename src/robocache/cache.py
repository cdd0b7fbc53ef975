"""Capacity-bounded cache ordered by per-row hit counters.

Rows are kept sorted from most-hit to least-hit, so a top-down linear
scan finds popular keys in one or two probes. A hit increments the
matched row's counter and lets the row bubble up past neighbours with
strictly smaller counters; it never overtakes a row with an equal
counter, which keeps equal-counter runs in the order the counts were
earned. New rows always start with one hit at the bottom
of the list, and when the cache is full the bottom row is evicted to
make room. Every probe is counted so callers can account for search
cost.

The cache holds keys and counters only, no record: a hit saves the
robot its trip to the station, and nothing reads what the station
would have sent. ``replay`` runs one robot's scans through the cache in
one call: every hit is promoted and every miss admitted. It holds the
one promote/evict rule and does not validate its keys, for a caller
(the simulator) that has validated every key once up front; the
simulator replays each barcode as its int key and names a row by
``barcode_text`` of it. ``validate_barcode`` checks one key and
``barcode_keys`` a batch at once; both hold the same barcode rule.
``digit_keys`` is the byte-column helper that the readers of the trace
and record files share.
"""

from __future__ import annotations

from typing import Hashable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigError, ValidationError

BARCODE_WIDTH = 14
# The text of a barcode's int key.
BARCODE_FORMAT = f"%0{BARCODE_WIDTH}d"


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


def barcode_text(key: int) -> str:
    """The barcode whose int key is ``key`` (0 <= key < 10**14): 14 digits, zero-padded."""
    return BARCODE_FORMAT % key


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


def barcode_keys(barcodes: Sequence[str]) -> np.ndarray:
    """The int64 value of each barcode; ValidationError names the first that is not 14 ASCII digits."""
    try:
        text = "".join(barcodes)
    except TypeError:  # a barcode that is not a str, which validate_barcode names
        pass
    else:
        if set(map(len, barcodes)) <= {BARCODE_WIDTH} and text.isascii():
            keys = digit_keys(np.frombuffer(text.encode("ascii"), np.uint8).reshape(-1, BARCODE_WIDTH))
            if keys is not None:
                return keys
    for barcode in barcodes:
        validate_barcode(barcode)
    raise AssertionError("every barcode passed validate_barcode but not the bulk check")


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
        self._keys: list = []
        self._hits: list[int] = []
        # The key of every row.
        self._resident: set = set()

    def __len__(self) -> int:
        return len(self._keys)

    def replay(self, keys: Iterable[Hashable]) -> List[int]:
        """Look each of ``keys`` up in turn, admitting every miss; the one promote/evict rule.

        Returns each scan's 0-based hit slot (slot + 1 comparisons), or
        ~rows for a miss that compared all ``rows`` rows. Hits and misses
        follow the rule at module top. No key is validated.
        """
        row_keys = self._keys
        counts = self._hits
        resident = self._resident
        capacity = self.capacity
        rows = len(row_keys)
        slots: List[int] = []
        record = slots.append
        for key in keys:
            if key in resident:
                slot = row_keys.index(key)
                hits = counts[slot] + 1
                # Bubble past strictly smaller counters only; overtaking an
                # equal counter would reorder rows whose counts tie.
                dest = slot
                while dest and counts[dest - 1] < hits:
                    dest -= 1
                if dest == slot:
                    counts[slot] = hits
                else:
                    del row_keys[slot], counts[slot]
                    row_keys.insert(dest, key)
                    counts.insert(dest, hits)
                record(slot)
            else:
                record(~rows)
                if rows == capacity:  # the new row takes the evicted bottom row's place
                    resident.remove(row_keys[-1])
                    row_keys[-1] = key
                    counts[-1] = 1
                else:
                    row_keys.append(key)
                    counts.append(1)
                    rows += 1
                resident.add(key)
        return slots

    def snapshot(self) -> Tuple[Tuple[str, int], ...]:
        """Copy the current (barcode, hits) rows, top first, without touching the cache."""
        return tuple(zip(self._keys, self._hits))
