"""Correctness checks on one pipeline's output files.

Every check is a named pass/fail; their failure share is the benchmark's
``check_fail_ratio``. The checks read only the files the CLI wrote:

* at any seed: each command exited 0; hits + misses = scans (0 for the
  baseline, which has no cache); station messages equal misses (cached)
  or scans (baseline); link messages sent minus lost equal station
  messages; ``comparison.csv`` recomputes from the two raw JSONs; both
  runs saw the same trace digest;
* on ``desk``: the four ratios lie within the acceptance gate's 15% of
  the paper's {0.65, 0.833, 0.556, 0.771};
* where ``pins.json`` pins the workload at this seed and trace length:
  the sha256 of ``report_*.csv`` and ``comparison.csv`` and the
  fingerprint.

The fingerprint is a sha256 over named fields only (counters, link stats,
per-scan latencies and the cached run's snapshot rows), so fields added to
the raw JSON later do not move it; it does not use ``result_digest``.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

PINS_PATH = Path(__file__).resolve().parent / "pins.json"

METRIC_NAMES = (
    "decision_latency_minutes",
    "processing_time_minutes",
    "disruption_per_million_scans",
    "total_comparisons",
)
DESK_RATIO_TARGETS = (0.65, 0.833, 0.556, 0.771)
RATIO_TOLERANCE = 0.15

COUNTER_FIELDS = (
    "scans",
    "cache_hits",
    "cache_misses",
    "cache_comparisons",
    "db_comparisons",
    "station_messages",
    "first_issued_at_ms",
    "final_clock_ms",
    "max_decided_at_ms",
)
LINK_FIELDS = ("messages_sent", "messages_lost", "retransmissions", "lock_events", "total_stall_time_ms")
PINNED_FILES = ("report_baseline.csv", "report_cached.csv", "comparison.csv")


def load_pins(path=PINS_PATH) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def file_sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def fingerprint(out_dir: str, raws: dict) -> str:
    """sha256 over the deterministic content of both runs."""
    content = {}
    for method, raw in raws.items():
        counters = raw["counters"]
        content[method] = {
            "counters": {name: counters[name] for name in COUNTER_FIELDS},
            "link": {name: counters["link"][name] for name in LINK_FIELDS},
            "per_scan_latencies_ms": raw["per_scan_latencies_ms"],
        }
    snapshots = []
    robot = 0
    while os.path.exists(path := os.path.join(out_dir, f"snapshot_cached_robot{robot}.csv")):
        with open(path, "r", encoding="utf-8") as fh:
            snapshots.append([line.rstrip("\n").split(",") for line in fh])
        robot += 1
    content["cached"]["snapshots"] = snapshots
    blob = json.dumps(content, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def check_pipeline(out_dir: str, workload: str, seed: int, scans: int, exit_codes: dict, pins: dict):
    """Run every check on one pipeline's outputs.

    Returns ``(checks, digests)``: a list of ``(name, passed)`` pairs and
    the sha256 values of the pinned files and the fingerprint.
    """
    checks = [(f"exit_code.{name}", exit_codes.get(name) == 0) for name in ("generate", "run_baseline", "run_cached", "compare")]
    if not all(passed for _, passed in checks):
        return checks, {}

    raws = {}
    for method in ("baseline", "cached"):
        with open(os.path.join(out_dir, f"raw_{method}.json"), "r", encoding="utf-8") as fh:
            raws[method] = json.load(fh)
        counters = raws[method]["counters"]
        misses = counters["cache_misses"]
        checks += [
            (f"{method}.scans", counters["scans"] == scans),
            # The baseline never consults a cache.
            (f"{method}.hits_plus_misses", counters["cache_hits"] + misses == (scans if method == "cached" else 0)),
            (f"{method}.station_messages", counters["station_messages"] == (misses if method == "cached" else scans)),
            (f"{method}.link_delivered", counters["link"]["messages_sent"] - counters["link"]["messages_lost"] == counters["station_messages"]),
        ]
    checks.append(("trace_digest_match", raws["baseline"]["trace_digest"] == raws["cached"]["trace_digest"]))

    with open(os.path.join(out_dir, "comparison.csv"), "r", encoding="utf-8") as fh:
        rows = [line.rstrip("\n").split(",") for line in fh][1:]
    ratios = []
    for name, row in zip(METRIC_NAMES, rows + [[]] * (len(METRIC_NAMES) - len(rows))):
        base = raws["baseline"]["metrics"][name]
        cached = raws["cached"]["metrics"][name]
        ratio = cached / base if base > 0 else None
        expected = [name, repr(base), repr(cached), repr(ratio) if ratio is not None else ""]
        checks.append((f"comparison.{name}", row == expected))
        ratios.append(ratio)

    if workload == "desk":
        for name, ratio, target in zip(METRIC_NAMES, ratios, DESK_RATIO_TARGETS):
            checks.append((f"desk_ratio.{name}", ratio is not None and abs(ratio - target) / target <= RATIO_TOLERANCE))

    digests = {name: file_sha256(os.path.join(out_dir, name)) for name in PINNED_FILES}
    digests["fingerprint"] = fingerprint(out_dir, raws)
    pinned = pins.get(workload)
    if pinned and pinned["seed"] == seed and pinned["scans"] == scans:
        checks += [(f"pinned.{name}", pinned[name] == value) for name, value in digests.items()]
    return checks, digests
