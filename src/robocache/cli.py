"""Command-line pipeline: generate workloads, run methods, compare reports.

Subcommands
-----------
generate   write the trace CSV and the fixed-width knowledge-base file
run        replay the trace under --method baseline or cached
compare    join two raw run outputs into the four-row comparison table
report     pretty-print previously written raw run outputs

This module holds the commands only: ``workload`` writes and reads the
trace file and ``knowledge_base`` the record file, and each reader
returns the SHA-256 hex of the file's bytes for the raw report.

Exit codes: 0 success, 1 usage or input error, 2 success with the
processing-time alert raised (distinguishable for scripting). Given
identical inputs and seed every subcommand writes byte-identical output
files. ``run`` removes its method's snapshot files of any earlier run
from the output directory, and refuses an input file that it would
write or remove; ``compare`` refuses to write its table over either
input report or over any existing file that is not a comparison table.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import re
import sys
import time
from dataclasses import asdict
from typing import NoReturn, Optional

from .config import SimConfig, load_config
from .errors import ConfigError, LineError, SimulationError
from .knowledge_base import load_kb, write_kb_for_workload
from .metrics import (
    COMPARISON_HEADER,
    METRIC_NAMES,
    AlertPolicy,
    AlertResult,
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
from .simulator import LATENCIES_KEY, dumps_record
from .simulator import run as run_simulation
from .workload import generate, read_trace, write_trace


def _ensure_parent(path: str) -> None:
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)


def cmd_generate(config: SimConfig) -> int:
    events = generate(config.workload)
    _ensure_parent(config.trace_path)
    write_trace(events, config.trace_path)
    _ensure_parent(config.kb_path)
    with open(config.kb_path, "wb") as fh:
        write_kb_for_workload(config.workload.unique_barcodes, fh)
    print(f"trace: {config.trace_path} ({len(events)} scans)")
    print(f"kb:    {config.kb_path} ({config.workload.unique_barcodes} records)")
    return 0


def _raw_payload(config: SimConfig, result, report: MetricsReport, alert, trace_digest: str, kb_digest: str) -> dict:
    return {
        "method": result.method.value,
        "seed": config.seed,
        "trace_digest": trace_digest,
        "kb_digest": kb_digest,
        # The run terms both methods share; `compare` refuses reports that
        # differ here. Cache capacity and probe time are the cached run's own.
        "config": {**asdict(config.link), "db_probe_time_ms": config.db_probe_time_ms},
        "metrics": dict(zip(METRIC_NAMES, report.row_values())),
        "alert": {
            "threshold_minutes": config.alert_threshold_minutes,
            "raised": alert.raised,
            "overrun_minutes": alert.overrun_minutes,
        },
        "counters": result.counters.to_dict(),
        LATENCIES_KEY: result.counters.per_scan_latencies,
    }


@contextlib.contextmanager
def _naming_bad_lines(path: str):
    """Report a malformed line of the input file at ``path`` as ``<path>: line N: ...``."""
    try:
        yield
    except LineError as exc:
        raise SimulationError(f"{path}: {exc}") from None


def cmd_run(config: SimConfig, method: MethodKind, write_snapshots: bool) -> int:
    inputs = ((config.trace_path, "trace"), (config.kb_path, "knowledge base"))
    # The files this run writes, and the snapshots it removes, must not be its inputs.
    out_dir = os.path.realpath(config.output_dir)
    written = {os.path.realpath(os.path.join(out_dir, name)) for name in (f"report_{method.value}.csv", f"raw_{method.value}.json")}
    snapshot = re.compile(f"snapshot_{method.value}_robot[0-9]+\\.csv")
    for path, what in inputs:
        real = os.path.realpath(path)
        if real in written or (os.path.dirname(real) == out_dir and snapshot.fullmatch(os.path.basename(real))):
            raise SimulationError(f"{what} file {path} is one that `run --method {method.value}` writes or removes; give another --out")
    for path, what in inputs:
        if not os.path.exists(path):
            print(f"error: {what} file not found: {path} (run `generate` first)", file=sys.stderr)
            return 1
    with _naming_bad_lines(config.trace_path):
        trace, trace_digest = read_trace(config.trace_path)
    with _naming_bad_lines(config.kb_path):
        kb, kb_digest = load_kb(config.kb_path)

    started = time.perf_counter()
    result = run_simulation(method, trace, kb, config)
    wall_clock_ms = (time.perf_counter() - started) * 1000.0
    report = summarize(result)
    alert = check_alert(report, AlertPolicy(config.alert_threshold_minutes))

    # Finite config values can still overflow simulated time to inf; encode
    # the raw report before writing any file so such a run leaves none.
    try:
        raw = dumps_record(_raw_payload(config, result, report, alert, trace_digest, kb_digest), (", ", ": "))
    except ValueError:
        raise SimulationError("the run produced a non-finite value (simulated time overflowed); no report written") from None

    os.makedirs(config.output_dir, exist_ok=True)
    csv_path = os.path.join(config.output_dir, f"report_{method.value}.csv")
    raw_path = os.path.join(config.output_dir, f"raw_{method.value}.json")
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(report_csv(report))
    with open(raw_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(raw + "\n")
    # Snapshots of an earlier run beside the new raw report would not recompute its digest.
    for name in os.listdir(config.output_dir):
        if snapshot.fullmatch(name):
            os.remove(os.path.join(config.output_dir, name))
    if write_snapshots:
        for index, rows in enumerate(result.snapshots):
            snap_path = os.path.join(config.output_dir, f"snapshot_{method.value}_robot{index}.csv")
            with open(snap_path, "w", encoding="utf-8", newline="") as fh:
                for barcode, hits in rows:
                    fh.write(f"{barcode},{hits}\n")

    print(format_report(report))
    print(f"report: {csv_path}")
    print(f"raw:    {raw_path}")
    print(f"host wall clock: {wall_clock_ms:.0f} ms", file=sys.stderr)
    if alert.raised:
        print(f"ALERT overrun_minutes={alert.overrun_minutes!r}", file=sys.stderr)
        return 2
    return 0


def _number(name: str, value) -> float:
    """``value`` if it is a finite JSON number >= 0.

    TypeError for a non-number (a bool included), ValueError below 0 or
    for a literal that overflowed to inf (such as ``1e400``), and
    OverflowError for an integer too large for a float.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{name} is {value!r}, not a number")
    if not math.isfinite(value):
        raise ValueError(f"{name} is {value!r}, not a finite number")
    if value < 0:
        raise ValueError(f"{name} is {value!r}, below 0")
    return value


def _report_from_raw(raw: dict) -> MetricsReport:
    metrics = {name: _number(f"metric {name}", raw["metrics"][name]) for name in METRIC_NAMES}
    if not isinstance(metrics["total_comparisons"], int):
        raise TypeError(f"metric total_comparisons is {metrics['total_comparisons']!r}, not an integer")
    return MetricsReport(MethodKind(raw["method"]), **metrics)


def _refuse_constant(name: str):
    raise ValueError(f"{name} is not a finite number")


def _load_raw(path: str) -> tuple[dict, MetricsReport, AlertResult]:
    """Read one raw run report; an unreadable, truncated or incomplete file is an input error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            # The writer refuses NaN and Infinity (allow_nan=False); so does the reader.
            # A run repeats few distinct latencies, so each distinct number text
            # is parsed once per file; float of the same text is the same value.
            raw = json.load(fh, parse_constant=_refuse_constant, parse_float=functools.cache(float))
        report = _report_from_raw(raw)
        stored = raw["alert"]
        if not isinstance(stored["raised"], bool):
            raise TypeError(f"alert raised is {stored['raised']!r}, not a bool")
        # `run` derives the alert from the metrics; a stored one that does not follow is refused.
        alert = check_alert(report, AlertPolicy(_number("alert threshold_minutes", stored["threshold_minutes"])))
        if AlertResult(stored["raised"], _number("alert overrun_minutes", stored["overrun_minutes"])) != alert:
            raise ValueError(f"alert raised={stored['raised']!r}, overrun_minutes={stored['overrun_minutes']!r} does not follow from the metrics and threshold")
    except (OSError, ValueError, OverflowError, KeyError, TypeError, ConfigError) as exc:
        raise SimulationError(f"{path}: not a readable raw run report ({type(exc).__name__}: {exc})") from None
    return raw, report, alert


def cmd_compare(baseline_path: str, cached_path: str, out_path: Optional[str]) -> int:
    out_path = out_path or os.path.join(os.path.dirname(os.path.abspath(baseline_path)), "comparison.csv")
    if os.path.realpath(out_path) in (os.path.realpath(baseline_path), os.path.realpath(cached_path)):
        raise SimulationError(f"comparison path {out_path} is an input report; give another --out")
    if os.path.isfile(out_path):
        # A trace, a record file or a report given as --out would be lost.
        with open(out_path, "rb") as fh:
            first_line = fh.readline(len(COMPARISON_HEADER) + 1)
        if first_line != (COMPARISON_HEADER + "\n").encode():
            raise SimulationError(f"comparison path {out_path} holds a file that is not a comparison table; give another --out")
    base_raw, base_report, _ = _load_raw(baseline_path)
    cached_raw, cached_report, _ = _load_raw(cached_path)
    refusals = (
        ("trace_digest", "traces"),
        ("kb_digest", "knowledge bases"),
        ("config", "link or station terms"),
        ("seed", "run seeds"),
    )
    for field, inputs in refusals:
        # .get: a raw report written before the config block existed is refused, not a crash.
        if base_raw.get(field) != cached_raw.get(field):
            print(f"error: reports come from different {inputs} ({field} mismatch); not comparable", file=sys.stderr)
            return 1
    table = compare(base_report, cached_report)
    _ensure_parent(out_path)
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(comparison_csv(table))
    print(format_comparison(table))
    print(f"comparison: {out_path}")
    return 0


def cmd_report(paths: list[str]) -> int:
    # Every file is read before anything is printed.
    loaded = [_load_raw(path) for path in paths]
    for _, report, alert in loaded:
        print(format_report(report))
        if alert.raised:
            print(f"ALERT overrun_minutes={alert.overrun_minutes!r}", file=sys.stderr)
        print()
    return 2 if any(alert.raised for _, _, alert in loaded) else 0


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 1, not argparse's 2, the alert code; its subparsers inherit it."""

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="robocache", description=__doc__.splitlines()[0])
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
            return cmd_run(config, MethodKind(args.method), args.snapshots)
        if args.command == "compare":
            return cmd_compare(args.baseline, args.cached, args.out)
        if args.command == "report":
            return cmd_report(args.raw)
        raise AssertionError(f"unhandled command {args.command}")
    except SimulationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        # open and makedirs name their path; a failed write does not.
        print(f"error: {exc.filename}: {exc.strerror}" if exc.filename is not None else f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy refuses an array the host cannot hold
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
