"""Command-line pipeline: generate workloads, run methods, compare reports.

Subcommands
-----------
generate   write the trace CSV and the fixed-width knowledge-base file
run        replay the trace under --method baseline or cached
compare    join two raw run outputs into the four-row comparison table
report     pretty-print previously written raw run outputs

Exit codes: 0 success, 1 usage or input error, 2 success with the
processing-time alert raised (distinguishable for scripting). Given
identical inputs and seed every subcommand writes byte-identical output
files.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from typing import Optional

from .config import SimConfig, load_config
from .errors import SimulationError
from .knowledge_base import BarcodeRecord, KnowledgeBase, load_kb, save_kb
from .metrics import (
    AlertPolicy,
    MethodKind,
    MetricsReport,
    check_alert,
    compare,
    comparison_csv,
    format_comparison,
    format_report,
    report_csv,
    summarize,
)
from .simulator import run as run_simulation
from .workload import barcode_for_rank, generate, read_trace, write_trace

_SERVICE_TYPES = ("GRND", "EXPR", "AIR1", "FRGT")


def _synth_record(rank: int) -> BarcodeRecord:
    """Deterministic knowledge-base row for one workload rank."""
    barcode = barcode_for_rank(rank)
    exceptions = "HOLD FOR INSPECTION" if rank % 13 == 0 else ""
    return BarcodeRecord.build(
        barcode=barcode,
        shipper_number=f"SHIP{rank % 100000:05d}",
        service_type=_SERVICE_TYPES[rank % len(_SERVICE_TYPES)],
        destination_terminal=f"T{barcode[0:4]}{barcode[12:14]}D",
        delivery_exceptions=exceptions,
    )


def build_kb_for_workload(unique_barcodes: int) -> KnowledgeBase:
    kb = KnowledgeBase()
    for rank in range(unique_barcodes):
        kb.add(_synth_record(rank))
    return kb


def _file_digest(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _ensure_parent(path: str) -> None:
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)


def cmd_generate(config: SimConfig) -> int:
    events = generate(config.workload)
    _ensure_parent(config.trace_path)
    write_trace(events, config.trace_path)
    kb = build_kb_for_workload(config.workload.unique_barcodes)
    _ensure_parent(config.kb_path)
    save_kb(kb, config.kb_path)
    print(f"trace: {config.trace_path} ({len(events)} scans)")
    print(f"kb:    {config.kb_path} ({kb.size} records)")
    return 0


def _raw_payload(config: SimConfig, method: MethodKind, result, report: MetricsReport, alert, trace_digest: str, kb_digest: str) -> dict:
    counters = result.counters
    stats = counters.link_stats
    return {
        "method": method.value,
        "seed": config.seed,
        "trace_digest": trace_digest,
        "kb_digest": kb_digest,
        "metrics": {
            "decision_latency_minutes": report.decision_latency_minutes,
            "processing_time_minutes": report.processing_time_minutes,
            "disruption_per_million_scans": report.disruption_per_million_scans,
            "total_comparisons": report.total_comparisons,
            "first_decision_latency_minutes": report.first_decision_latency_minutes,
        },
        "alert": {
            "threshold_minutes": config.alert_threshold_minutes,
            "raised": alert.raised,
            "overrun_minutes": alert.overrun_minutes,
        },
        "counters": {
            "scans": counters.scans,
            "cache_hits": counters.cache_hits,
            "cache_misses": counters.cache_misses,
            "cache_comparisons": counters.cache_comparisons,
            "db_comparisons": counters.db_comparisons,
            "station_messages": counters.station_messages,
            "first_issued_at_ms": counters.first_issued_at,
            "final_clock_ms": counters.final_clock,
            "total_processing_ms": counters.total_processing_ms,
            "max_decided_at_ms": counters.max_decided_at,
            "link": {
                "messages_sent": stats.messages_sent,
                "messages_lost": stats.messages_lost,
                "retransmissions": stats.retransmissions,
                "lock_events": stats.lock_events,
                "total_stall_time_ms": stats.total_stall_time_ms,
            },
        },
        "per_scan_latencies_ms": counters.per_scan_latencies,
    }


def _run_one(config: SimConfig, method: MethodKind, suffix: str = "", write_snapshots: bool = False) -> int:
    for path, what in ((config.trace_path, "trace"), (config.kb_path, "knowledge base")):
        if not os.path.exists(path):
            print(f"error: {what} file not found: {path} (run `generate` first)", file=sys.stderr)
            return 1
    trace = read_trace(config.trace_path)
    kb = load_kb(config.kb_path)
    trace_digest = _file_digest(config.trace_path)
    kb_digest = _file_digest(config.kb_path)

    result = run_simulation(method, trace, kb, config)
    report = summarize(result.counters, method, config)
    alert = check_alert(report, AlertPolicy(config.alert_threshold_minutes))

    # Finite config values can still overflow simulated time to inf; encode
    # the raw report before writing any file so such a run leaves none.
    try:
        raw = json.dumps(_raw_payload(config, method, result, report, alert, trace_digest, kb_digest), sort_keys=True, allow_nan=False)
    except ValueError:
        raise SimulationError("the run produced a non-finite value (simulated time overflowed); no report written") from None

    os.makedirs(config.output_dir, exist_ok=True)
    csv_path = os.path.join(config.output_dir, f"report_{method.value}{suffix}.csv")
    raw_path = os.path.join(config.output_dir, f"raw_{method.value}{suffix}.json")
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(report_csv(report))
    with open(raw_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(raw + "\n")
    if write_snapshots:
        for index, snap in enumerate(result.snapshots):
            snap_path = os.path.join(config.output_dir, f"snapshot_{method.value}{suffix}_robot{index}.csv")
            with open(snap_path, "w", encoding="utf-8", newline="") as fh:
                for barcode, hits in snap.rows:
                    fh.write(f"{barcode},{hits}\n")

    print(format_report(report))
    print(f"report: {csv_path}")
    print(f"raw:    {raw_path}")
    print(f"host wall clock: {result.counters.wall_clock_of_run:.0f} ms", file=sys.stderr)
    if alert.raised:
        print(f"ALERT overrun_minutes={alert.overrun_minutes!r}", file=sys.stderr)
        return 2
    return 0


def _run_seed_job(args) -> int:
    config_path, seed_override, output_dir, method_value, suffix, snapshots = args
    config = load_config(config_path, output_dir_override=output_dir).with_seed(seed_override)
    return _run_one(config, MethodKind(method_value), suffix=suffix, write_snapshots=snapshots)


def cmd_run(config_path: str, config: SimConfig, method: MethodKind, jobs: int, write_snapshots: bool) -> int:
    if jobs <= 1:
        return _run_one(config, method, write_snapshots=write_snapshots)
    # Seed sweep: seeds seed..seed+jobs-1, one independent run each.
    job_args = [
        (config_path, config.seed + offset, config.output_dir, method.value, f"_seed{config.seed + offset}", write_snapshots)
        for offset in range(jobs)
    ]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        codes = list(pool.map(_run_seed_job, job_args))
    if any(code == 1 for code in codes):
        return 1
    return 2 if any(code == 2 for code in codes) else 0


def _load_raw(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _report_from_raw(raw: dict) -> MetricsReport:
    metrics = raw["metrics"]
    return MetricsReport(
        method=MethodKind(raw["method"]),
        decision_latency_minutes=metrics["decision_latency_minutes"],
        processing_time_minutes=metrics["processing_time_minutes"],
        disruption_per_million_scans=metrics["disruption_per_million_scans"],
        total_comparisons=metrics["total_comparisons"],
        first_decision_latency_minutes=metrics["first_decision_latency_minutes"],
    )


def cmd_compare(baseline_path: str, cached_path: str, out_path: Optional[str]) -> int:
    for path in (baseline_path, cached_path):
        if not os.path.exists(path):
            print(f"error: raw report not found: {path}", file=sys.stderr)
            return 1
    base_raw = _load_raw(baseline_path)
    cached_raw = _load_raw(cached_path)
    for field, inputs in (("trace_digest", "traces"), ("kb_digest", "knowledge bases")):
        if base_raw[field] != cached_raw[field]:
            print(f"error: reports come from different {inputs} ({field} mismatch); not comparable", file=sys.stderr)
            return 1
    table = compare(_report_from_raw(base_raw), _report_from_raw(cached_raw))
    out_path = out_path or os.path.join(os.path.dirname(os.path.abspath(baseline_path)), "comparison.csv")
    _ensure_parent(out_path)
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(comparison_csv(table))
    print(format_comparison(table))
    print(f"comparison: {out_path}")
    return 0


def cmd_report(paths: list[str]) -> int:
    for path in paths:
        if not os.path.exists(path):
            print(f"error: raw report not found: {path}", file=sys.stderr)
            return 1
    for path in paths:
        raw = _load_raw(path)
        print(format_report(_report_from_raw(raw)))
        alert = raw["alert"]
        if alert["raised"]:
            print(f"ALERT overrun_minutes={alert['overrun_minutes']!r}", file=sys.stderr)
        print()
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="robocache", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write the trace CSV and knowledge-base file for a config")
    run_p = sub.add_parser("run", help="simulate one method over the generated trace")
    cmp_p = sub.add_parser("compare", help="join a baseline and a cached raw report")
    rep = sub.add_parser("report", help="pretty-print raw run reports")

    for p in (gen, run_p):
        p.add_argument("--config", required=True, help="INI config path")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="override the config output directory")
    run_p.add_argument("--method", required=True, choices=[m.value for m in MethodKind])
    run_p.add_argument("--jobs", type=int, default=1, help="run this many consecutive seeds in parallel")
    run_p.add_argument("--snapshots", action="store_true", help="also write per-robot cache snapshots")

    cmp_p.add_argument("baseline", help="raw_baseline.json from `run --method baseline`")
    cmp_p.add_argument("cached", help="raw_cached.json from `run --method cached`")
    cmp_p.add_argument("--out", default=None, help="comparison CSV path")

    rep.add_argument("raw", nargs="+", help="raw .json report files")
    return parser


def run_cli(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "generate":
            config = load_config(args.config, seed_override=args.seed, output_dir_override=args.out)
            return cmd_generate(config)
        if args.command == "run":
            config = load_config(args.config, seed_override=args.seed, output_dir_override=args.out)
            if args.jobs < 1:
                print("error: --jobs must be >= 1", file=sys.stderr)
                return 1
            return cmd_run(args.config, config, MethodKind(args.method), args.jobs, args.snapshots)
        if args.command == "compare":
            return cmd_compare(args.baseline, args.cached, args.out)
        if args.command == "report":
            return cmd_report(args.raw)
        raise AssertionError(f"unhandled command {args.command}")
    except SimulationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
