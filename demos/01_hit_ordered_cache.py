#!/usr/bin/env python3
"""Walk through the hit-ordered cache one scan at a time.

Replays the scan sequence A, B, A, C, A through a two-slot cache, one
``replay`` call per scan, and prints the internal state after every step: the slot each hit was found
in, probe counts, hit counters, the eviction, and the final
holding-area snapshot. The cache holds barcodes and hit counters only;
a hit saves the robot its trip to the station's knowledge base.
"""

from robocache import HitOrderedCache

A = "10000000000001"
B = "10000000000002"
C = "10000000000003"
NAMES = {A: "A", B: "B", C: "C"}
SCANS = (A, B, A, C, A)


def show(cache):
    rows = ", ".join(f"{NAMES[barcode]}(hits={hits})" for barcode, hits in cache.snapshot())
    return f"[{rows}]" if rows else "[empty]"


def main():
    cache = HitOrderedCache(capacity=2)
    print(f"cache capacity 2, start {show(cache)}\n")

    hits = comparisons = 0
    for barcode in SCANS:
        before = cache.snapshot()
        # One scan through the cache: its 0-based hit slot, or ~rows for a miss.
        (slot,) = cache.replay((barcode,))
        name = NAMES[barcode]
        if slot >= 0:
            hits += 1
            comparisons += slot + 1
            print(f"scan {name}: HIT in slot {slot + 1} ({slot + 1} comparison(s))")
        else:
            comparisons += ~slot
            # A miss in a full cache takes the bottom row's place.
            evicted = before[-1][0] if len(before) == cache.capacity else None
            note = f", evicted {NAMES[evicted]}" if evicted else ""
            print(f"scan {name}: miss after {~slot} comparison(s), inserted at the bottom{note}")
        print(f"         state {show(cache)}")

    print("\nholding-area snapshot (barcode, hits), top of cache first:")
    for slot, (barcode, count) in enumerate(cache.snapshot(), start=1):
        print(f"  slot {slot}  {NAMES[barcode]}  {barcode}  {count}")
    trips = len(SCANS) - hits
    print(f"\ntotals: {len(SCANS)} scans, {hits} hits, {trips} knowledge-base trips, {comparisons} cache comparisons")


if __name__ == "__main__":
    main()
