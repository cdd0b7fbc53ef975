#!/usr/bin/env python3
"""Run the shipped desk-scale preset end to end and print the report.

Replays the same 300k-scan trace under both methods: every scan to the
station (baseline) versus a three-slot hit-ordered cache per robot
(cached). generate() fills a Trace's numpy columns (int64 barcode keys,
float64 issue times, robot numbers) straight from its draws, checked once
when it is built, and run() replays them a chunk of array slices at a
time. The closing table mirrors the four report rows and their
cached/baseline ratios.
"""

import time

from robocache import MethodKind, check_alert, compare, load_config, run, summarize
from robocache.knowledge_base import build_kb_for_workload
from robocache.metrics import AlertPolicy, format_comparison
from robocache.presets import desk_scale_path
from robocache.workload import generate


def main():
    config = load_config(desk_scale_path())
    print(f"preset: {desk_scale_path()}")
    print(
        f"workload: {config.workload.total_scans} scans, "
        f"{config.workload.unique_barcodes} distinct barcodes, "
        f"skew {config.workload.skew}, {config.workload.robots} robots, "
        f"cache capacity {config.cache_capacity}\n"
    )

    trace = generate(config.workload)
    print(f"trace: {len(trace)} scans from {len(trace.robot_ids)} robots\n")
    kb = build_kb_for_workload(config.workload.unique_barcodes)

    reports = {}
    for method in (MethodKind.BASELINE, MethodKind.CACHED):
        started = time.perf_counter()
        result = run(method, trace, kb, config)
        reports[method] = summarize(result)
        counters = result.counters
        print(
            f"{method.value:>8}: {counters.scans} scans, "
            f"{counters.cache_hits} cache hits, "
            f"{counters.station_messages} station messages, "
            f"{counters.link_stats.retransmissions} retransmissions "
            f"({time.perf_counter() - started:.1f}s host time)"
        )

    print()
    print(format_comparison(compare(reports[MethodKind.BASELINE], reports[MethodKind.CACHED])))

    policy = AlertPolicy(config.alert_threshold_minutes)
    for method, report in reports.items():
        alert = check_alert(report, policy)
        state = f"ALERT, over by {alert.overrun_minutes:.1f} min" if alert.raised else "ok"
        print(f"\n{method.value}: {report.processing_time_minutes:.1f} min total processing vs {policy.threshold_minutes:.0f} min threshold: {state}")


if __name__ == "__main__":
    main()
