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
import contextlib
import functools
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import asdict
from typing import BinaryIO, Optional

import numpy as np

from .config import SimConfig, load_config
from .errors import ConfigError, LineError, SimulationError
from .knowledge_base import (
    BARCODE_WIDTH,
    RECORD_WIDTH,
    SERVICE_WIDTH,
    SHIPPER_WIDTH,
    KnowledgeBase,
    format_record_line,
    load_kb,
)
from .metrics import (
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
from .workload import barcode_for_rank, generate, parse_trace_bytes, write_trace

_SERVICE_TYPES = ("GRND", "EXPR", "AIR1", "FRGT")
# Rank r's service type is _SERVICE_TYPES[r % 4] and it is held for
# inspection when r % 13 == 0, so every field but the digits repeats every
# 52 ranks.
_FIELD_PERIOD = 52
# barcode_for_rank(r) is the digits of barcode_for_rank(0) + r, and
# barcode_for_rank(0), 10**13, is a multiple of 10,000; the shipper digits
# are those of r % 100000. So over each run of 10,000 ranks from a
# multiple of 10,000 the last four digits of both count 0000 to 9999 and
# every other digit stays the same.
_DIGIT_PERIOD = 10000


def write_kb_for_workload(unique_barcodes: int, stream: BinaryIO) -> None:
    """Write the record file of the workload's knowledge base: one record per rank, in rank order.

    Rank r has barcode_for_rank(r), shipper SHIP + r % 100000 in five
    digits, service type _SERVICE_TYPES[r % 4], terminal T + barcode
    digits 1-4 and 13-14 + D, and the exception HOLD FOR INSPECTION when
    r % 13 == 0; every line ends in "\n".

    The records are written _DIGIT_PERIOD at a time from one buffer that
    each run of ranks refills in place. A run first copies the formatted
    lines of its ranks modulo 52, with zero digits, from a tile that
    repeats the 52 of them: the run of ranks from ``start`` takes the
    tile's rows from ``start % 52``. Then a structured view of the buffer
    writes the digit fields from tables of zero-padded digit texts: the
    four-digit groups that count through a run are the "0000" to "9999"
    table itself, and each other field is one table entry for the whole
    run. No array per rank is made.
    """
    shipper_digits = BARCODE_WIDTH + len("SHIP")
    terminal_digits = BARCODE_WIDTH + SHIPPER_WIDTH + SERVICE_WIDTH + len("T")
    templates = "".join(
        format_record_line(
            "0" * BARCODE_WIDTH,
            "SHIP00000",
            _SERVICE_TYPES[rank % len(_SERVICE_TYPES)],
            "T000000D",
            "HOLD FOR INSPECTION" if rank % 13 == 0 else "",
        )
        + "\n"
        for rank in range(_FIELD_PERIOD)
    )
    template_rows = np.frombuffer(templates.encode("ascii"), np.uint8).reshape(_FIELD_PERIOD, -1)
    # Row i of the tile is the template of rank i % 52, for the longest
    # run from any of the 52 offsets.
    run_length = min(unique_barcodes, _DIGIT_PERIOD)
    tile = np.resize(template_rows, (run_length + _FIELD_PERIOD - 1, RECORD_WIDTH))
    # The texts "0"-"9", "00"-"99" and "0000"-"9999", each indexed by its value.
    singles = np.frombuffer(b"0123456789", "S1")
    pairs = np.array([b"%02d" % value for value in range(100)], "S2")
    quads = np.empty(_DIGIT_PERIOD, "S4")
    quad_halves = quads.view("S2").reshape(100, 100, 2)
    quad_halves[:, :, 0] = pairs[:, np.newaxis]
    quad_halves[:, :, 1] = pairs
    # A view of the last two digits of each value 0 to 9999.
    low_pairs = quads.view("S2")[1::2]
    # The digit fields of a record, named by their first digit: barcode
    # digits 1-2, 3-6, 7-10 and 11-14, shipper digit 1 and digits 2-5, and
    # the terminal's copies of barcode digits 1-4 and 13-14.
    fields = np.dtype(
        {
            "names": [
                "barcode_1", "barcode_3", "barcode_7", "barcode_11", "shipper_1", "shipper_2", "terminal_1", "terminal_13"
            ],
            "formats": ["S2", "S4", "S4", "S4", "S1", "S4", "S4", "S2"],
            "offsets": [0, 2, 6, 10, shipper_digits, shipper_digits + 1, terminal_digits, terminal_digits + 4],
            "itemsize": RECORD_WIDTH,
        }
    )
    first_barcode = int(barcode_for_rank(0))
    block = bytearray(run_length * RECORD_WIDTH)
    records = np.frombuffer(block, np.uint8).reshape(-1, RECORD_WIDTH)
    digits = np.frombuffer(block, fields)
    for start in range(0, unique_barcodes, _DIGIT_PERIOD):
        count = min(_DIGIT_PERIOD, unique_barcodes - start)
        offset = start % _FIELD_PERIOD
        records[:count] = tile[offset : offset + count]
        run = digits[:count]
        # Barcode digits 1-10 of every rank in the run, as one number.
        high = (first_barcode + start) // _DIGIT_PERIOD
        run["barcode_1"] = pairs[high // 10**8]
        run["barcode_3"] = quads[high // 10**4 % 10**4]
        run["barcode_7"] = quads[high % 10**4]
        run["barcode_11"] = quads[:count]
        run["shipper_1"] = singles[start // _DIGIT_PERIOD % 10]
        run["shipper_2"] = quads[:count]
        run["terminal_1"] = quads[high // 10**6]
        run["terminal_13"] = low_pairs[:count]
        stream.write(memoryview(block)[: count * RECORD_WIDTH])


def build_kb_for_workload(unique_barcodes: int) -> KnowledgeBase:
    """The knowledge base of the record file that write_kb_for_workload writes."""
    # Rank r's barcode is rank 0's plus r, so the keys need no parse of the records.
    return KnowledgeBase(int(barcode_for_rank(0)) + np.arange(unique_barcodes, dtype=np.int64))


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


def _read_input(path: str, parse):
    """``parse`` of the bytes of the file at ``path`` and their SHA-256 hex, read once.

    ``parse`` is the byte parser that the trace reader (``read_trace``)
    hands the same bytes to. The knowledge-base file is not read whole:
    ``load_kb`` reads it a block of records at a time and hashes the
    blocks as it goes.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    with _naming_bad_lines(path):
        return parse(data), hashlib.sha256(data).hexdigest()


def cmd_run(config: SimConfig, method: MethodKind, write_snapshots: bool) -> int:
    for path, what in ((config.trace_path, "trace"), (config.kb_path, "knowledge base")):
        if not os.path.exists(path):
            print(f"error: {what} file not found: {path} (run `generate` first)", file=sys.stderr)
            return 1
    trace, trace_digest = _read_input(config.trace_path, parse_trace_bytes)
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
    out_path = out_path or os.path.join(os.path.dirname(os.path.abspath(baseline_path)), "comparison.csv")
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
