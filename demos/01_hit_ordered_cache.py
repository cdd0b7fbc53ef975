#!/usr/bin/env python3
"""Walk through the hit-ordered cache one operation at a time.

Replays the scan sequence A, B, A, C, A through a two-slot cache and
prints the internal state after every step: probe counts, hit counters,
the eviction, and the final holding-area snapshot.
"""

from robocache import HitOrderedCache

A = "10000000000001"
B = "10000000000002"
C = "10000000000003"
NAMES = {A: "A", B: "B", C: "C"}


def show(cache):
    rows = ", ".join(f"{NAMES[barcode]}(hits={hits})" for barcode, hits in cache.snapshot())
    return f"[{rows}]" if rows else "[empty]"


def main():
    cache = HitOrderedCache(capacity=2)
    print(f"cache capacity 2, start {show(cache)}\n")

    for barcode in (A, B, A, C, A):
        result = cache.lookup(barcode)
        name = NAMES[barcode]
        if result.hit:
            print(f"scan {name}: HIT after {result.comparisons} comparison(s)")
        else:
            evicted = cache.insert(barcode, payload=f"route-for-{name}")
            note = f", evicted {NAMES[evicted]}" if evicted else ""
            print(f"scan {name}: miss after {result.comparisons} comparison(s), inserted{note}")
        print(f"         state {show(cache)}")

    print("\nholding-area snapshot (barcode, hits), top of cache first:")
    for barcode, hits in cache.snapshot():
        print(f"  {NAMES[barcode]}  {barcode}  {hits}")
    print("\ntotals: 5 scans, 2 hits, 3 knowledge-base trips, 5 cache comparisons")


if __name__ == "__main__":
    main()
