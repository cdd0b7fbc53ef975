#!/usr/bin/env python3
"""Show how the workload generator shapes barcode popularity.

Generates the same 200k-scan trace at three skew settings and compares
the observed mass of the hottest ranks with the analytic Zipf masses.
Higher skew concentrates scans on fewer barcodes, which is exactly the
regime where a per-robot cache pays off. A generated Trace keeps its
barcodes as one int64 key column (rank r has the key of
barcode_for_rank(r)), so counting them is one np.unique over an array.
"""

import numpy as np

from robocache import WorkloadConfig, barcode_for_rank, generate

UNIQUE = 5000
SCANS = 200_000


def analytic_mass(top, skew):
    weights = [rank ** -skew for rank in range(1, UNIQUE + 1)]
    return sum(weights[:top]) / sum(weights)


def main():
    print(f"{SCANS} scans over {UNIQUE} distinct barcodes\n")
    print(f"{'skew':>6} {'ranks':>10} {'observed':>10} {'analytic':>10}")
    for skew in (0.0, 0.9, 1.4):
        config = WorkloadConfig(
            total_scans=SCANS,
            unique_barcodes=UNIQUE,
            skew=skew,
            robots=4,
            inter_arrival_ms=1.0,
            seed=2026,
        )
        keys, counts = np.unique(generate(config).keys, return_counts=True)
        ranks = keys - int(barcode_for_rank(0))
        for top in (10, 100):
            observed = counts[ranks < top].sum() / SCANS
            print(f"{skew:>6.1f} {f'top {top}':>10} {observed:>10.4f} {analytic_mass(top, skew):>10.4f}")
        distinct_seen = len(keys)
        print(f"{'':>6} {'seen':>10} {distinct_seen:>10} distinct barcodes actually drawn\n")


if __name__ == "__main__":
    main()
