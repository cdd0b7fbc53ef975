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

A run walks the trace's numpy columns in chunks of ``_CHUNK_SCANS``
scans, so its arrays stay small at any trace length; a chunk is a slice
of each column, with no copy. In each chunk the cached method groups the
scans by robot number (one cache per robot, numbered in id order),
keeping each robot's in trace order, replays each robot's int keys
through its cache in one ``HitOrderedCache.replay`` call and scatters
each scan's hit slot or, for a miss, how many rows it compared back to
the scan's place; the baseline is every scan a miss that compared none. Then one array pass sends the chunk's misses over the
link in one ``SatelliteLink.round_trip`` call and does the arithmetic
in the float order of one scan at a time:

* a miss is decided at ``((((issued + probe) + losses * timeout) +
  2 * one_way) + stall) + service`` and a hit at ``issued + probe``; the
  latency is the decision time minus ``issued``;
* a miss's work is ``(probe + service) + stall``, a hit's ``probe``;
* the clock is the sequential sum of the works from the first issue
  time (``np.add.accumulate``, carried from chunk to chunk, never the
  pairwise ``np.sum``).

The replay reads no record text: the knowledge base is asked only
whether each key has a record (``KnowledgeBase.require_keys``), and a
cached miss admits its key alone. A key becomes barcode text again only
in the final cache rows and in MissingRecordError. Runs
are deterministic: all randomness flows from the run seed through the
link.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from enum import Enum
from typing import List, Tuple

import numpy as np

from .cache import HitOrderedCache, barcode_text
from .errors import MissingRecordError, ValidationError
from .knowledge_base import KnowledgeBase, index_probe_cost
from .netlink import LinkStats, SatelliteLink
from .workload import Trace

# Scans per array pass: the pass's arrays stay a few MB however long the trace.
_CHUNK_SCANS = 1 << 13
# The key of the per-scan latency list in the raw report and the digest record.
LATENCIES_KEY = "per_scan_latencies_ms"


class MethodKind(str, Enum):
    BASELINE = "baseline"
    CACHED = "cached"


@dataclass(eq=False)
class RunCounters:
    scans: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_comparisons: int = 0
    db_comparisons: int = 0
    station_messages: int = 0
    # float64, one latency per scan in trace order
    per_scan_latencies: np.ndarray = field(default_factory=lambda: np.empty(0))
    link_stats: LinkStats = field(default_factory=LinkStats)
    first_issued_at: float = 0.0
    final_clock: float = 0.0
    max_decided_at: float = 0.0

    @property
    def total_processing_ms(self) -> float:
        return self.final_clock - self.first_issued_at

    def __eq__(self, other) -> bool:
        if not isinstance(other, RunCounters):
            return NotImplemented
        return self.to_dict() == other.to_dict() and np.array_equal(self.per_scan_latencies, other.per_scan_latencies)

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


def _cache_outcomes(caches, robots, keys) -> np.ndarray:
    """Replay each robot's scans, in trace order, through its cache in one call.

    Scan i is key ``keys[i]`` on robot number ``robots[i]``, whose cache is
    ``caches[robots[i]]``. Returns each scan's hit slot, or ~rows (below 0)
    for a miss that compared all ``rows`` rows of its robot's cache and
    then admitted the key.
    """
    # A stable sort groups the scans by robot and keeps each robot's in trace order.
    order = np.argsort(robots, kind="stable")
    grouped = robots[order]
    bounds = [0, *(np.flatnonzero(grouped[1:] != grouped[:-1]) + 1).tolist(), len(order)]
    grouped_keys = keys[order].tolist()
    slots: List[int] = []
    for start, stop in zip(bounds, bounds[1:]):
        slots += caches[grouped[start]].replay(grouped_keys[start:stop])
    outcomes = np.empty(len(order), np.int64)
    outcomes[order] = slots
    return outcomes


# Overflow gives inf silently, as Python float arithmetic does; the CLI
# refuses a non-finite result.
@np.errstate(over="ignore", invalid="ignore")
def run(method, trace: Trace, kb: KnowledgeBase, sim_config) -> RunResult:
    """Replay ``trace`` under one method and return counters and snapshots.

    ``sim_config`` supplies the link config, the run seed, cache
    capacity and the per-probe costs (see config.SimConfig). The Trace
    checked its own values when it was built; every key must also
    resolve in ``kb``, checked by one bulk search of its distinct keys
    before the replay starts. A key the KB lacks raises
    MissingRecordError naming the first such barcode in trace order (a
    data error, not a modeled outcome).
    """
    method = MethodKind(method)
    if not trace:
        raise ValidationError("trace is empty; nothing to simulate")

    # Every station resolution costs the same indexed search.
    db_comparisons_per_resolve = index_probe_cost(len(kb))
    # One bulk search of the trace's distinct keys, ascending, raises
    # MissingRecordError for a barcode without a record; a second over
    # every scan's key names the first such barcode in trace order. Every
    # key is trusted from here on, so the caches replay it unchecked; no
    # record text is needed, since no output reads it.
    ascending = np.sort(trace.keys)
    try:
        kb.require_keys(ascending[np.append(True, ascending[1:] != ascending[:-1])])
    except MissingRecordError:
        kb.require_keys(trace.keys)
    cached = method is MethodKind.CACHED
    # Robot number k, in id order, owns caches[k].
    caches = [HitOrderedCache(sim_config.cache_capacity) for _ in trace.robot_ids] if cached else []

    service_ms = db_comparisons_per_resolve * sim_config.db_probe_time_ms
    link = SatelliteLink(sim_config.link, sim_config.seed)
    latencies = np.empty(len(trace))
    cache_hits = cache_comparisons = 0
    first_issued = float(trace.issued_at[0])
    clock = max_decided = first_issued
    # Chunks keep the arrays of a long trace small beside its latency column.
    for start in range(0, len(trace), _CHUNK_SCANS):
        stop = start + _CHUNK_SCANS
        issued = trace.issued_at[start:stop]
        if cached:
            slots = _cache_outcomes(caches, trace.robots[start:stop], trace.keys[start:stop])
        else:
            slots = np.full(len(issued), ~0)  # every scan a miss that compared no rows
        hit = slots >= 0
        miss = ~hit
        comparisons = np.where(hit, slots + 1, ~slots)
        work = comparisons * sim_config.cache_probe_time_ms  # the probes; a miss adds its station work
        decided = issued + work
        delivered, _, stall = link.round_trip(decided[miss])
        decided[miss] = delivered + service_ms
        work[miss] = work[miss] + service_ms + stall
        cache_hits += int(np.count_nonzero(hit))
        cache_comparisons += int(comparisons.sum())
        clock = float(np.add.accumulate(np.append(clock, work))[-1])
        max_decided = max(max_decided, float(decided.max()))
        np.subtract(decided, issued, out=latencies[start:stop])

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

    # Rows name their barcodes as text; the caches are in robot-id order.
    snapshots = [tuple((barcode_text(key), hits) for key, hits in cache.snapshot()) for cache in caches]
    return RunResult(method=method, counters=counters, snapshots=snapshots)


def _latencies_json(latencies, separator: str) -> str:
    """The JSON array text of the floats ``latencies``, items joined by ``separator``.

    Each distinct value is formatted once, by ``float.__repr__`` as
    ``json.dumps`` formats it. Values are told apart by their float64
    bits, so 0.0 and -0.0 each keep their own text. A non-finite value
    raises ValueError, as ``json.dumps(..., allow_nan=False)`` does.
    """
    bits = np.asarray(latencies, np.float64).view(np.int64)
    distinct, index = np.unique(bits, return_inverse=True)
    values = distinct.view(np.float64)
    finite = np.isfinite(values)
    if not finite.all():
        raise ValueError(f"Out of range float values are not JSON compliant: {float(values[~finite][0])!r}")
    texts = list(map(float.__repr__, values.tolist()))
    return "[" + separator.join(map(texts.__getitem__, index.tolist())) + "]"


def dumps_record(record: dict, separators: Tuple[str, str]) -> str:
    """``json.dumps(record, sort_keys=True, separators=separators, allow_nan=False)``.

    ``record[LATENCIES_KEY]`` holds floats, an array or a list; the record
    is dumped with ``[]`` there and their text, formatted once per distinct
    value, is spliced in at that one key. The bytes are json.dumps's.
    """
    item_separator, key_separator = separators
    text = json.dumps({**record, LATENCIES_KEY: []}, sort_keys=True, separators=separators, allow_nan=False)
    key = f'"{LATENCIES_KEY}"{key_separator}'
    if text.count(key) != 1:
        raise AssertionError(f"{key!r} does not occur exactly once in the record")
    head, _, tail = text.partition(key + "[]")
    return head + key + _latencies_json(record[LATENCIES_KEY], item_separator) + tail


def result_digest(result: RunResult) -> str:
    """SHA-256 of the run's deterministic record.

    Hashes the method, ``RunCounters.to_dict()``, every per-scan latency
    and the final cache rows, so it can be recomputed from the
    ``method``, ``counters`` and ``per_scan_latencies_ms`` of the raw
    report plus the snapshot files that ``run --snapshots`` writes.
    The record is encoded by ``dumps_record``, as the raw report is, so
    the latency list is formatted once per distinct value and a
    non-finite value raises ValueError (such a run writes no report).
    Host time is no part of a run's result.
    """
    record = {
        "method": result.method.value,
        "counters": result.counters.to_dict(),
        LATENCIES_KEY: result.counters.per_scan_latencies,
        "snapshots": result.snapshots,
    }
    blob = dumps_record(record, (",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()
