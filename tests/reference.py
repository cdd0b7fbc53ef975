"""Independent brute-force references the test suite uses as oracles.

ReferenceCache keeps a plain operation-ordered list and recomputes the
order with a full stable sort by descending hits after every operation;
no bubbling, no sequence bookkeeping. reference_run replays a trace with
straight-line arithmetic, its own ReferenceCache instances and its own
random stream. Neither touches the production implementations beyond
shared dataclasses for inputs.

synth_record_line formats one synthetic knowledge-base line per rank, the
way the knowledge-base writer formatted them before the record file was
filled a field at a time. reference_load_trace is the trace-file line walk as it stood before
the whole-input parse, narrowed since to robot ids of at most 18 digits
and times of at most 24 bytes, with a bad header named by at most its
first 40 characters, and with a negative robot id found without int(). reference_save_trace is the trace
writer as it stood while each row was formatted by ``"%s,%s,%r\n"``,
kept verbatim: 8,192 rows a write, each distinct key formatted once a
write. reference_ingest is the
knowledge-base ingest as it stood while the database was a dict of lines,
kept verbatim with its line check; it returns the text that the
database's export wrote, whose lines' barcodes the tests compare with
the key index.

ReferenceLink and reference_replay are the satellite link and the replay
loop as they stood while the link answered one request per call, kept
verbatim: one ``random()`` loss run and one lock draw per round trip, and
the latency, clock and stall sums in scan order. The changes since are
that each robot's cache is a ReferenceCache driven one scan at a time,
so the oracle shares no cache code with the engine, and that the loop
checks the distinct barcodes through ``require_keys`` and caches no
record line. They hold the engine to every output bit, where
reference_run holds it to the counts.

reference_raw_text and reference_result_digest are the raw report's
encoding and result_digest as they stood while each was one
``json.dumps`` of the whole record, kept verbatim. reference_mean_latency
is the report's mean latency as it stood while the latencies were a list:
one Python float addition at a time, left to right from 0.0.

reference_run and reference_replay read a trace's scans as
(robot_id, barcode text, issued_at) rows through ``helpers.rows_of`` and
handle one row per request.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from functools import reduce
from math import isfinite
from operator import add
from typing import List

import numpy as np

from robocache.cache import BARCODE_FORMAT, barcode_keys, validate_barcode
from robocache.errors import IngestError, TraceFormatError, ValidationError
from robocache.knowledge_base import BARCODE_WIDTH, LINE_WIDTH, KnowledgeBase, format_record_line, index_probe_cost
from robocache.netlink import LinkConfig, LinkStats
from robocache.simulator import MethodKind, RunCounters, RunResult
from robocache.workload import TRACE_HEADER, Trace, barcode_for_rank

from helpers import rows_of

_SERVICE_TYPES = ("GRND", "EXPR", "AIR1", "FRGT")


class ReferenceCache:
    """Naive hit-ordered cache: full stable re-sort after every operation."""

    def __init__(self, capacity: int):
        assert capacity >= 1
        self.capacity = capacity
        self.entries = []  # [barcode, hits], top first

    def _resort(self):
        self.entries.sort(key=lambda entry: -entry[1])  # stable

    def lookup(self, barcode):
        """(hit, comparisons) of one top-down scan; a hit is counted and re-sorted."""
        for position, entry in enumerate(self.entries):
            if entry[0] == barcode:
                entry[1] += 1
                self._resort()
                return True, position + 1
        return False, len(self.entries)

    def insert(self, barcode):
        assert all(entry[0] != barcode for entry in self.entries)
        evicted = None
        if len(self.entries) == self.capacity:
            evicted = self.entries.pop()[0]
        self.entries.append([barcode, 1])
        self._resort()
        return evicted

    def rows(self):
        return [(entry[0], entry[1]) for entry in self.entries]


def reference_db_cost(record_count: int) -> int:
    if record_count < 1:
        raise ValueError("empty knowledge base")
    return max(1, math.ceil(math.log2(record_count)))


class ReferenceCounters:
    def __init__(self):
        self.scans = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_comparisons = 0
        self.db_comparisons = 0
        self.station_messages = 0
        self.latencies = []
        self.total_work_ms = 0.0
        self.messages_sent = 0
        self.messages_lost = 0
        self.lock_events = 0
        self.total_stall_ms = 0.0
        self.decisions = 0
        self.final_rows = {}


def reference_run(method, trace, db_size, sim_config) -> ReferenceCounters:
    """Straight-line replay with the same randomness contract as the engine.

    Per station message: one uniform draw per loss (while < loss
    probability), then exactly one lock draw. Seeded from the run seed.
    """
    rng = random.Random(sim_config.seed)
    link = sim_config.link
    out = ReferenceCounters()
    caches = {}
    db_cost = reference_db_cost(db_size)

    def transmit():
        losses = 0
        while rng.random() < link.loss_probability:
            losses += 1
        stall = 0.0
        if rng.random() < link.lock_probability:
            stall = link.lock_stall_ms
            out.lock_events += 1
        out.messages_sent += 1 + losses
        out.messages_lost += losses
        out.total_stall_ms += stall
        round_trip = losses * link.retransmit_timeout_ms + 2 * link.one_way_latency_ms + stall
        return round_trip, stall

    for robot_id, barcode, _ in rows_of(trace):
        out.scans += 1
        if method == "cached":
            cache = caches.setdefault(robot_id, ReferenceCache(sim_config.cache_capacity))
            hit, comparisons = cache.lookup(barcode)
            out.cache_comparisons += comparisons
            probe_ms = comparisons * sim_config.cache_probe_time_ms
            if hit:
                out.cache_hits += 1
                out.latencies.append(probe_ms)
                out.total_work_ms += probe_ms
            else:
                out.cache_misses += 1
                out.station_messages += 1
                round_trip, stall = transmit()
                out.db_comparisons += db_cost
                service_ms = db_cost * sim_config.db_probe_time_ms
                out.latencies.append(probe_ms + round_trip + service_ms)
                out.total_work_ms += probe_ms + service_ms + stall
                cache.insert(barcode)
        else:
            out.station_messages += 1
            round_trip, stall = transmit()
            out.db_comparisons += db_cost
            service_ms = db_cost * sim_config.db_probe_time_ms
            out.latencies.append(round_trip + service_ms)
            out.total_work_ms += service_ms + stall
        out.decisions += 1

    out.final_rows = {robot_id: cache.rows() for robot_id, cache in caches.items()}
    return out


def synth_record_line(rank: int) -> str:
    """Deterministic knowledge-base record line for one workload rank."""
    barcode = barcode_for_rank(rank)
    return format_record_line(
        barcode,
        f"SHIP{rank % 100000:05d}",
        _SERVICE_TYPES[rank % len(_SERVICE_TYPES)],
        f"T{barcode[0:4]}{barcode[12:14]}D",
        "HOLD FOR INSPECTION" if rank % 13 == 0 else "",
    )


def reference_load_trace(stream) -> Trace:
    """Parse a trace CSV, enforcing field shape and non-decreasing time.

    A zero-byte source yields an empty trace; any content must start
    with the standard header line.
    """
    robot_ids, barcodes, times = [], [], []
    for line_no, raw in enumerate(stream, start=1):
        line = raw[:-1] if raw.endswith("\n") else raw
        if line_no == 1:
            if line != TRACE_HEADER:
                got = repr(line) if len(line) <= 40 else f"{len(line)} characters starting {line[:40]!r}"
                raise TraceFormatError(line_no, f"expected header {TRACE_HEADER!r}, got {got}")
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise TraceFormatError(line_no, f"expected 3 comma-separated fields, got {len(parts)}")
        robot_field, barcode, time_field = parts
        # ASCII digits only: int() would also take "1_0", " 1" or full-width digits.
        if not (robot_field.isascii() and robot_field.isdigit()):
            sign, unsigned = robot_field[:1], robot_field[1:]
            if sign in ("-", "+") and unsigned.isascii() and unsigned.isdigit():
                if sign == "-" and unsigned.strip("0"):
                    raise TraceFormatError(line_no, f"robot_id {robot_field} is negative")
                raise TraceFormatError(line_no, f"robot_id {robot_field!r} has a sign")
            raise TraceFormatError(line_no, f"robot_id {robot_field!r} is not an integer")
        if len(robot_field) > 18:
            raise TraceFormatError(line_no, f"robot_id of {len(robot_field)} digits is too long")
        robot_id = int(robot_field)
        try:
            validate_barcode(barcode)
        except ValidationError as exc:
            raise TraceFormatError(line_no, str(exc)) from None
        # float() would also take "1_0", " 5", "5\r" or full-width digits.
        if not time_field.isascii() or "_" in time_field or time_field != time_field.strip():
            raise TraceFormatError(line_no, f"issued_at_ms {time_field!r} is not a plain ASCII number")
        if len(time_field) > 24:
            raise TraceFormatError(line_no, f"issued_at_ms of {len(time_field)} bytes is too long")
        try:
            issued_at = float(time_field)
        except ValueError:
            raise TraceFormatError(line_no, f"issued_at_ms {time_field!r} is not a number") from None
        if not isfinite(issued_at) or issued_at < 0:
            raise TraceFormatError(line_no, f"issued_at_ms {time_field} is not a finite non-negative time")
        if time_field[:1] in ("+", "-"):
            raise TraceFormatError(line_no, f"issued_at_ms {time_field!r} has a sign")
        if times and issued_at < times[-1]:
            raise TraceFormatError(line_no, f"issued_at_ms decreased ({issued_at!r} after {times[-1]!r})")
        robot_ids.append(robot_id)
        barcodes.append(barcode)
        times.append(issued_at)
    return Trace(robot_ids, barcodes, times)


def reference_save_trace(trace: Trace, stream) -> None:
    """Write ``trace`` as trace CSV, 8,192 rows per write; each block formats each distinct key once."""
    robot_texts = np.array(list(map(str, trace.robot_ids)), object)
    stream.write(TRACE_HEADER + "\n")
    for start in range(0, len(trace), 8192):
        stop = start + 8192
        distinct, index = np.unique(trace.keys[start:stop], return_inverse=True)
        key_texts = np.array(list(map(BARCODE_FORMAT.__mod__, distinct.tolist())), object)
        robots = robot_texts[trace.robots[start:stop]].tolist()
        rows = zip(robots, key_texts[index].tolist(), trace.issued_at[start:stop].tolist())
        stream.write("".join(map("%s,%s,%r\n".__mod__, rows)))


def reference_check_line(line: str, line_no: int) -> str:
    """The barcode of one fixed-width line (newline already stripped).

    Raises IngestError with ``line_no`` and the reason the line is bad.
    """
    if len(line) != LINE_WIDTH:
        raise IngestError(line_no, f"expected {LINE_WIDTH} characters, got {len(line)}")
    barcode = line[0:BARCODE_WIDTH]
    try:
        validate_barcode(barcode)
    except ValidationError:
        raise IngestError(line_no, f"barcode field {barcode!r} is not 14 decimal digits") from None
    if not line.isascii():
        raise IngestError(line_no, f"non-ASCII character in {line!r}")
    return barcode


def reference_ingest(source) -> str:
    """Ingest fixed-width record lines and return the text export writes.

    ``source`` yields lines with or without their trailing "\n" (an open
    text file does). Raises IngestError at the first bad line.
    """
    lines = [raw[:-1] if raw.endswith("\n") else raw for raw in source]
    barcodes = [line[0:BARCODE_WIDTH] for line in lines]
    by_barcode = dict(zip(barcodes, lines))
    if not (
        set(map(len, lines)) == {LINE_WIDTH}
        and all(map(str.isascii, lines))
        and "".join(barcodes).isdigit()
        and len(by_barcode) == len(lines)
    ):
        # Some line is bad (or there are none): the first bad line raises
        # with its number and reason.
        seen: set[str] = set()
        for line_no, line in enumerate(lines, start=1):
            barcode = reference_check_line(line, line_no)
            if barcode in seen:
                raise IngestError(line_no, f"duplicate barcode {barcode}")
            seen.add(barcode)
    return "\n".join(by_barcode.values()) + "\n" if by_barcode else ""


def reference_load_kb(path: str) -> str:
    """reference_ingest of a record file, read as the file reader read it."""
    with open(path, "r", encoding="ascii", errors="surrogateescape", newline="") as fh:
        return reference_ingest(fh)


class ReferenceLink:
    """One request/response channel; owned by a single simulation run."""

    def __init__(self, config: LinkConfig, rng: random.Random):
        self.config = config
        self._rng = rng
        self._requests = self._losses = self._lock_events = 0
        self._stall_ms = 0.0

    @property
    def stats(self) -> LinkStats:
        """The counts so far; each lost copy was sent again, so losses are also retransmissions."""
        losses = self._losses
        return LinkStats(self._requests + losses, losses, losses, self._lock_events, self._stall_ms)

    def round_trip(self, now: float) -> tuple[float, int, float]:
        """Send one request at ``now``; return (delivered_at, losses, stall).

        The response lands after any retransmissions and any lock stall at
        the station: now + losses * retransmit_timeout + 2 * one_way_latency + stall.
        """
        cfg = self.config
        losses = 0
        while self._rng.random() < cfg.loss_probability:
            losses += 1
        stall = 0.0
        if self._rng.random() < cfg.lock_probability:
            stall = cfg.lock_stall_ms
            self._lock_events += 1
            self._stall_ms += stall
        self._requests += 1
        self._losses += losses
        delivered_at = now + losses * cfg.retransmit_timeout_ms + 2 * cfg.one_way_latency_ms + stall
        return delivered_at, losses, stall


def reference_replay(method, trace: Trace, kb: KnowledgeBase, sim_config) -> RunResult:
    """The replay with one ReferenceLink call per station request."""
    method = MethodKind(method)
    if not trace:
        raise ValidationError("trace is empty; nothing to simulate")

    # Every station resolution costs the same indexed search.
    db_comparisons_per_resolve = index_probe_cost(len(kb))
    # One bulk check of the distinct barcodes, in order of first scan,
    # raises MissingRecordError for the first without a record.
    rows = rows_of(trace)
    kb.require_keys(barcode_keys(list(dict.fromkeys(barcode for _, barcode, _ in rows))))
    cached = method is MethodKind.CACHED
    robot_ids = dict.fromkeys(robot_id for robot_id, _, _ in rows) if cached else ()
    caches = {robot_id: ReferenceCache(sim_config.cache_capacity) for robot_id in robot_ids}

    link = ReferenceLink(sim_config.link, random.Random(sim_config.seed))
    round_trip = link.round_trip
    cache_probe_ms = sim_config.cache_probe_time_ms
    service_ms = db_comparisons_per_resolve * sim_config.db_probe_time_ms
    latencies: List[float] = []
    record_latency = latencies.append
    cache_hits = cache_comparisons = 0

    first_issued = rows[0][2]
    clock = first_issued
    max_decided = first_issued

    for robot_id, barcode, issued in rows:
        if cached:
            cache = caches[robot_id]
            hit, comparisons = cache.lookup(barcode)
            if hit:
                cache_hits += 1
                probe_ms = comparisons * cache_probe_ms
                decided_at = issued + probe_ms
                work_ms = probe_ms
            else:
                probe_ms = comparisons * cache_probe_ms
                delivered_at, _, stall = round_trip(issued + probe_ms)
                decided_at = delivered_at + service_ms
                work_ms = probe_ms + service_ms + stall
                cache.insert(barcode)
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

    snapshots = [tuple(caches[robot_id].rows()) for robot_id in sorted(caches)]
    return RunResult(method=method, counters=counters, snapshots=snapshots)


def reference_raw_text(payload: dict) -> str:
    """The text of a raw run report, without its final newline."""
    return json.dumps(payload, sort_keys=True, allow_nan=False)


def reference_result_digest(result: RunResult) -> str:
    """SHA-256 of the run's deterministic record."""
    record = {
        "method": result.method.value,
        "counters": result.counters.to_dict(),
        "per_scan_latencies_ms": result.counters.per_scan_latencies,
        "snapshots": result.snapshots,
    }
    blob = json.dumps(record, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def reference_mean_latency(latencies) -> float:
    """The mean of the float ``latencies``, summed left to right from 0.0."""
    return reduce(add, latencies, 0.0) / len(latencies)
