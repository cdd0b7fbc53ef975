"""Layer-boundary tracing for one benchmark pipeline, installed from outside.

The tracer wraps, in the benchmark's own process, the public functions at
each layer boundary of the program: the names bound in ``robocache.cli``,
the methods of ``HitOrderedCache``, ``KnowledgeBase`` and ``SatelliteLink``,
and each module's own ``validate_barcode`` binding. No program file changes.

Two kinds of span are recorded:

* stage spans (one per CLI command and one per call of a name bound in
  ``robocache.cli``) are kept in full: id, name, layer, parent, start, end,
  self time and the time covered by their children;
* per-call spans (class methods and ``validate_barcode``, called up to a
  million times per pipeline) are aggregated per (enclosing stage span,
  call path) into count, total, self total, p50 and p99.

A span's self time is its duration minus the time its direct children
cover. Spans live in memory and are written out once the pipeline ends.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import Counter

# Names bound in robocache.cli that cross into another layer, with the layer
# each belongs to. Their calls become stage spans named "<layer>.<name>".
CLI_STAGES = {
    "generate": "workload",
    "write_trace": "workload",
    "read_trace": "workload",
    "build_kb_for_workload": "knowledge_base",
    "save_kb": "knowledge_base",
    "load_kb": "knowledge_base",
    "run_simulation": "simulator",
    "summarize": "metrics",
    "check_alert": "metrics",
    "report_csv": "metrics",
    "compare": "metrics",
    "comparison_csv": "metrics",
    "format_report": "metrics",
    "format_comparison": "metrics",
    "_file_digest": "cli",
    "_raw_payload": "cli",
    "_load_raw": "cli",
    "_report_from_raw": "cli",
}

LAYERS = ("workload", "knowledge_base", "cache", "netlink", "simulator", "metrics", "cli")


class _Calls:
    __slots__ = ("layer", "durations", "self_total")

    def __init__(self, layer: str):
        self.layer = layer
        self.durations = array("d")
        self.self_total = 0.0


def _quantile(sorted_values, q: float) -> float:
    if not sorted_values:
        return 0.0
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


class Tracer:
    """Collects stage spans, per-call aggregates and layer counts in memory."""

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        self.spans: list[dict] = []
        self.calls: dict[tuple, _Calls] = {}
        self.layer_self = dict.fromkeys(LAYERS, 0.0)
        self.counts: Counter = Counter()
        self.hit_slots: Counter = Counter()
        # Frames are [child seconds, enclosing stage id, per-call path]; the
        # root frame stands for "outside any traced call".
        self._stack: list[list] = [[0.0, None, ""]]

    def stage(self, name: str, layer: str, fn):
        """Wrap ``fn`` so each call records a full stage span."""
        stack, spans, layer_self, clock = self._stack, self.spans, self.layer_self, time.perf_counter
        origin = self.origin

        def traced(*args, **kwargs):
            parent = stack[-1]
            span = {"id": len(spans), "name": name, "layer": layer, "parent": parent[1]}
            spans.append(span)
            frame = [0.0, span["id"], ""]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                parent[0] += duration
                span.update(start=start - origin, end=end - origin, self=duration - frame[0], children=frame[0])
                layer_self[layer] += duration - frame[0]

        return traced

    def per_call(self, name: str, layer: str, fn, observe=None):
        """Wrap ``fn`` so each call adds to its (stage, path) aggregate."""
        stack, calls, layer_self, clock = self._stack, self.calls, self.layer_self, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1]
            path = parent[2] + "/" + name if parent[2] else name
            frame = [0.0, parent[1], path]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
            parent[0] += duration
            key = (parent[1], path)
            agg = calls.get(key)
            if agg is None:
                agg = calls[key] = _Calls(layer)
            agg.durations.append(duration)
            agg.self_total += duration - frame[0]
            layer_self[layer] += duration - frame[0]
            if observe is not None:
                observe(result)
            return result

        return traced

    # -- observers: counts taken from return values at the boundary --------

    def _observe_lookup(self, found) -> None:
        self.counts["lookup_comparisons"] += found.comparisons
        if found.hit:
            self.counts["hits"] += 1
            self.hit_slots[found.comparisons] += 1

    def _observe_insert(self, evicted) -> None:
        if evicted is not None:
            self.counts["evictions"] += 1

    def _observe_resolve(self, resolved) -> None:
        self.counts["db_comparisons"] += resolved.db_comparisons

    def _observe_transmit(self, outcome) -> None:
        self.counts["losses"] += outcome.losses
        self.counts["stall_ms"] += outcome.lock_stall_applied
        if outcome.lock_stall_applied > 0:
            self.counts["lock_events"] += 1

    def install(self) -> None:
        """Wrap every layer boundary of the imported ``robocache`` package."""
        from robocache import cache, cli, knowledge_base, netlink, workload

        # A boundary the program no longer has is skipped; its metrics read 0.
        for name, layer in CLI_STAGES.items():
            if hasattr(cli, name):
                setattr(cli, name, self.stage(f"{layer}.{name}", layer, getattr(cli, name)))
        methods = (
            (cache.HitOrderedCache, "cache", {"lookup": self._observe_lookup, "insert": self._observe_insert, "snapshot": None}),
            (knowledge_base.KnowledgeBase, "knowledge_base", {"add": None, "export": None, "resolve": self._observe_resolve}),
            (netlink.SatelliteLink, "netlink", {"transmit": self._observe_transmit}),
        )
        for cls, layer, observers in methods:
            for method, observe in observers.items():
                if hasattr(cls, method):
                    setattr(cls, method, self.per_call(f"{cls.__name__}.{method}", layer, getattr(cls, method), observe))
        for module, layer in ((cache, "cache"), (knowledge_base, "knowledge_base"), (workload, "workload")):
            if hasattr(module, "validate_barcode"):
                module.validate_barcode = self.per_call(f"{layer}.validate_barcode", layer, module.validate_barcode)

    # -- reduction ----------------------------------------------------------

    def _stage_seconds(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def _call_seconds(self, path: str) -> tuple[int, float]:
        count, total = 0, 0.0
        for (_, call_path), agg in self.calls.items():
            if call_path == path:
                count += len(agg.durations)
                total += sum(agg.durations)
        return count, total

    def run_span(self, method: str) -> dict:
        """The ``run_simulation`` stage span of the ``run --method <method>`` command."""
        command = next(s for s in self.spans if s["name"] == f"command.run_{method}")
        return next(s for s in self.spans if s["name"] == "simulator.run_simulation" and s["parent"] == command["id"])

    def layer_metrics(self, scans: int, trace_bytes: int, digest_seconds: float) -> dict:
        """Per-layer metrics for one traced pipeline (times in host seconds)."""
        lookups, lookup_s = self._call_seconds("HitOrderedCache.lookup")
        inserts, insert_s = self._call_seconds("HitOrderedCache.insert")
        resolves, resolve_s = self._call_seconds("KnowledgeBase.resolve")
        transmits, transmit_s = self._call_seconds("SatelliteLink.transmit")
        baseline, cached = self.run_span("baseline"), self.run_span("cached")
        validates = sum(
            len(agg.durations)
            for (stage, path), agg in self.calls.items()
            if stage == cached["id"] and path.endswith("validate_barcode")
        )
        slots = sorted(self.hit_slots.elements())
        hits = self.counts["hits"]
        metrics = {
            "workload.generate_s": self._stage_seconds("workload.generate"),
            "workload.save_trace_s": self._stage_seconds("workload.write_trace"),
            "workload.load_trace_s": self._stage_seconds("workload.read_trace"),
            "workload.trace_mb": trace_bytes / 1e6,
            "knowledge_base.build_s": self._stage_seconds("knowledge_base.build_kb_for_workload"),
            "knowledge_base.save_s": self._stage_seconds("knowledge_base.save_kb"),
            "knowledge_base.ingest_s": self._stage_seconds("knowledge_base.load_kb"),
            "knowledge_base.resolve_calls": resolves,
            "knowledge_base.resolve_s": resolve_s,
            "knowledge_base.db_comparisons": self.counts["db_comparisons"],
            "cache.lookup_calls": lookups,
            "cache.lookup_s": lookup_s,
            "cache.insert_calls": inserts,
            "cache.insert_s": insert_s,
            "cache.hit_ratio": hits / lookups if lookups else 0.0,
            "cache.comparisons_per_lookup": self.counts["lookup_comparisons"] / lookups if lookups else 0.0,
            "cache.hit_slot_p50": _quantile(slots, 0.50),
            "cache.hit_slot_p90": _quantile(slots, 0.90),
            "cache.evictions": self.counts["evictions"],
            "cache.validate_calls_per_scan": validates / scans,
            "netlink.transmit_calls": transmits,
            "netlink.transmit_s": transmit_s,
            "netlink.retransmissions": self.counts["losses"],
            "netlink.lock_events": self.counts["lock_events"],
            "netlink.delivered_ratio": transmits / (transmits + self.counts["losses"]) if transmits else 0.0,
            "netlink.stall_ms": self.counts["stall_ms"],
            "simulator.run_baseline_s": baseline["end"] - baseline["start"],
            "simulator.run_cached_s": cached["end"] - cached["start"],
            "simulator.self_baseline_s": baseline["self"],
            "simulator.self_cached_s": cached["self"],
            "simulator.digest_s": digest_seconds,
            "metrics.summarize_s": self._stage_seconds("metrics.summarize"),
            "metrics.compare_s": self._stage_seconds("metrics.compare"),
            "cli.run_overhead_s": sum(s["self"] for s in self.spans if s["name"].startswith("command.run_")),
        }
        for layer in LAYERS:
            if layer != "simulator":
                metrics[f"{layer}.self_s"] = self.layer_self[layer]
        return metrics

    def dump(self, path: str) -> None:
        """Write stage spans and per-call aggregates (count, total, self, p50, p99) as JSON."""
        calls = []
        for (stage, call_path), agg in self.calls.items():
            ordered = sorted(agg.durations)
            calls.append({
                "stage": stage,
                "path": call_path,
                "layer": agg.layer,
                "count": len(ordered),
                "total": sum(ordered),
                "self": agg.self_total,
                "p50": _quantile(ordered, 0.50),
                "p99": _quantile(ordered, 0.99),
            })
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "calls": calls, "layer_self": self.layer_self}, fh, indent=1)
            fh.write("\n")
