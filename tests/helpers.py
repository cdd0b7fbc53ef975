"""Shared builders for simulator-level tests."""

from __future__ import annotations

import tracemalloc

from robocache.cache import barcode_text
from robocache.config import SimConfig
from robocache.knowledge_base import KnowledgeBase, format_record_line, ingest_bytes
from robocache.netlink import LinkConfig
from robocache.workload import Trace, WorkloadConfig


def make_sim_config(**overrides) -> SimConfig:
    workload = overrides.pop(
        "workload",
        WorkloadConfig(
            total_scans=10,
            unique_barcodes=5,
            skew=1.0,
            robots=1,
            inter_arrival_ms=5.0,
            seed=overrides.get("seed", 1),
        ),
    )
    link = overrides.pop(
        "link",
        LinkConfig(
            one_way_latency_ms=250.0,
            loss_probability=0.0,
            lock_probability=0.0,
            lock_stall_ms=40.0,
            retransmit_timeout_ms=600.0,
        ),
    )
    values = dict(
        workload=workload,
        link=link,
        cache_capacity=2,
        cache_probe_time_ms=0.01,
        db_probe_time_ms=10.0,
        kb_path="unused.dat",
        trace_path="unused.csv",
        alert_threshold_minutes=20.0,
        seed=1,
        output_dir="out",
    )
    values.update(overrides)
    return SimConfig(**values)


def make_trace(rows) -> Trace:
    """A Trace from (robot_id, barcode, issued_at) rows."""
    rows = list(rows)
    return Trace(*zip(*rows)) if rows else Trace((), (), ())


def rows_of(trace: Trace) -> list:
    """The (robot_id, barcode, issued_at) rows of a Trace, in trace order, each barcode as its text."""
    return [
        (trace.robot_ids[number], barcode_text(key), issued_at)
        for number, key, issued_at in zip(trace.robots.tolist(), trace.keys.tolist(), trace.issued_at.tolist())
    ]


def barcodes_of(trace: Trace) -> list:
    """The barcode text of each scan of a Trace, in trace order."""
    return [barcode for _, barcode, _ in rows_of(trace)]


def make_kb(barcodes) -> KnowledgeBase:
    return ingest_bytes(
        "".join(
            format_record_line(
                barcode,
                shipper_number=f"SHIP{index:05d}",
                service_type="GRND",
                destination_terminal=f"T{barcode[0:4]}00D",
                delivery_exceptions="FRAGILE" if index % 3 == 0 else "",
            )
            + "\n"
            for index, barcode in enumerate(barcodes)
        ).encode("ascii")
    )


def traced_memory(call):
    """``call()``, the memory its result still holds and the most it held at once, in bytes beyond what was held before it.

    tracemalloc counts numpy's buffers too, so the figures do not depend
    on the host.
    """
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        kept, peak = tracemalloc.get_traced_memory()
        return result, kept - before, peak - before
    finally:
        tracemalloc.stop()


def traced_peak(call) -> int:
    """The most memory ``call()`` held at once, in bytes beyond what was held before it."""
    return traced_memory(call)[2]
