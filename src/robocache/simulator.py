"""Trace-driven engine comparing station-only and cache-first scanning.

Each scan is processed in trace order and two time aggregates are kept:

* decision latency, per scan: simulated time from the scan's issue to
  its routing decision, including cache probes, the satellite round
  trip with any retransmissions, station service and lock stalls.
  In-flight scans overlap freely on this axis; one scan's round trip
  never delays another's.

* the processing clock: compute work the fleet and station actually
  perform, scan after scan (probe time, station service, lock stalls).
  Link transit is waiting, not work, so it never advances this clock.
  The clock starts at the first issue time, only moves forward, and its
  final reading minus the start is the run's total processing time.

A hit costs only its cache probes on both axes. A miss pays the round
trip on the latency axis and the station work on the processing axis,
which is why a warm cache compresses total processing less sharply than
it compresses decision latency.

Runs are deterministic: all randomness flows from the run seed through
the link.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import asdict, dataclass, field
from enum import Enum
from typing import List, Tuple

from .cache import HitOrderedCache
from .errors import ValidationError
from .knowledge_base import KnowledgeBase, index_probe_cost
from .netlink import LinkStats, SatelliteLink
from .workload import Trace


class MethodKind(str, Enum):
    BASELINE = "baseline"
    CACHED = "cached"


@dataclass
class RunCounters:
    scans: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_comparisons: int = 0
    db_comparisons: int = 0
    station_messages: int = 0
    per_scan_latencies: List[float] = field(default_factory=list)
    link_stats: LinkStats = field(default_factory=LinkStats)
    first_issued_at: float = 0.0
    final_clock: float = 0.0
    max_decided_at: float = 0.0

    @property
    def total_processing_ms(self) -> float:
        return self.final_clock - self.first_issued_at

    def to_dict(self) -> dict:
        """The counters under their output names: the raw report's block, hashed by result_digest."""
        return {
            "scans": self.scans,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_comparisons": self.cache_comparisons,
            "db_comparisons": self.db_comparisons,
            "station_messages": self.station_messages,
            "first_issued_at_ms": self.first_issued_at,
            "final_clock_ms": self.final_clock,
            "total_processing_ms": self.total_processing_ms,
            "max_decided_at_ms": self.max_decided_at,
            "link": asdict(self.link_stats),
        }


@dataclass
class RunResult:
    method: MethodKind
    counters: RunCounters
    # Per robot, in robot-id order: the final (barcode, hits) cache rows.
    snapshots: List[Tuple[Tuple[str, int], ...]]


def run(method, trace: Trace, kb: KnowledgeBase, sim_config) -> RunResult:
    """Replay ``trace`` under one method and return counters and snapshots.

    ``sim_config`` supplies the link config, the run seed, cache
    capacity and the per-probe costs (see config.SimConfig). The Trace
    checked its own values when it was built; every barcode must also
    resolve in ``kb``, checked by one bulk lookup of the distinct
    barcodes before the replay starts. A key the KB lacks raises
    MissingRecordError naming the first such key in trace order (a data
    error, not a modeled outcome).
    """
    method = MethodKind(method)
    if not trace:
        raise ValidationError("trace is empty; nothing to simulate")

    # Every station resolution costs the same indexed search.
    db_comparisons_per_resolve = index_probe_cost(len(kb))
    # One bulk lookup of the distinct barcodes raises MissingRecordError
    # for a barcode without a record. Every barcode is trusted from here
    # on, so the loop drives the caches through their unchecked path; the
    # cached replay admits record lines from the small dict it returns.
    distinct_barcodes = dict.fromkeys(trace.barcodes)
    cached = method is MethodKind.CACHED
    if cached:
        line_of = kb.record_lines(distinct_barcodes)
    else:
        kb.require(distinct_barcodes)
    robot_ids = dict.fromkeys(trace.robot_ids) if cached else ()
    caches = {robot_id: HitOrderedCache(sim_config.cache_capacity) for robot_id in robot_ids}

    link = SatelliteLink(sim_config.link, random.Random(sim_config.seed))
    round_trip = link.round_trip
    cache_probe_ms = sim_config.cache_probe_time_ms
    service_ms = db_comparisons_per_resolve * sim_config.db_probe_time_ms
    latencies: List[float] = []
    record_latency = latencies.append
    cache_hits = cache_comparisons = 0

    first_issued = trace.issued_at[0]
    clock = first_issued
    max_decided = first_issued

    for robot_id, barcode, issued in zip(trace.robot_ids, trace.barcodes, trace.issued_at):
        if cached:
            cache = caches[robot_id]
            slot = cache.probe(barcode)
            if slot >= 0:
                cache_hits += 1
                comparisons = slot + 1
                probe_ms = comparisons * cache_probe_ms
                decided_at = issued + probe_ms
                work_ms = probe_ms
            else:
                comparisons = len(cache)
                probe_ms = comparisons * cache_probe_ms
                delivered_at, _, stall = round_trip(issued + probe_ms)
                decided_at = delivered_at + service_ms
                work_ms = probe_ms + service_ms + stall
                cache.admit(barcode, line_of[barcode])
            cache_comparisons += comparisons
        else:
            delivered_at, _, stall = round_trip(issued)
            decided_at = delivered_at + service_ms
            work_ms = service_ms + stall
        record_latency(decided_at - issued)
        clock += work_ms
        if decided_at > max_decided:
            max_decided = decided_at

    scans = len(trace)
    station_messages = scans - cache_hits
    counters = RunCounters(
        scans=scans,
        cache_hits=cache_hits,
        cache_misses=station_messages if cached else 0,
        cache_comparisons=cache_comparisons,
        db_comparisons=station_messages * db_comparisons_per_resolve,
        station_messages=station_messages,
        per_scan_latencies=latencies,
        link_stats=link.stats,
        first_issued_at=first_issued,
        final_clock=clock,
        max_decided_at=max_decided,
    )

    snapshots = [caches[robot_id].snapshot() for robot_id in sorted(caches)]
    return RunResult(method=method, counters=counters, snapshots=snapshots)


def result_digest(result: RunResult) -> str:
    """SHA-256 of the run's deterministic record.

    Hashes the method, ``RunCounters.to_dict()``, every per-scan latency
    and the final cache rows, so it can be recomputed from the
    ``method``, ``counters`` and ``per_scan_latencies_ms`` of the raw
    report plus the snapshot files that ``run --snapshots`` writes.
    Host time is no part of a run's result.
    """
    record = {
        "method": result.method.value,
        "counters": result.counters.to_dict(),
        "per_scan_latencies_ms": result.counters.per_scan_latencies,
        "snapshots": result.snapshots,
    }
    blob = json.dumps(record, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()
