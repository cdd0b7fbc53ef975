"""robocache benchmark: host time and memory of the CLI pipeline, per workload.

    python3 perfbench/run.py --workload desk --seed 20260808 --seconds 40 --trace 0

Each pipeline (``generate -> run baseline -> run cached -> compare``) runs
as a batch job in a fresh child process (``job.py``), one child at a time.
Pipelines repeat until the next one would end past ``--seconds``, with at
least two per run. ``--trace 0`` reports the end-to-end metrics, each the
median over the run's pipelines, in calibrated seconds: host seconds
scaled by the speed of a fixed calibration loop timed every 50 ms while
the commands run (see ``_seconds``). ``--trace 1`` alternates untraced and traced
pipelines and reports the per-layer metrics of the traced ones plus the
tracing overhead. Every pipeline's outputs are checked (``checks.py``).

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. Everything else (environment, fingerprints, every sample,
uncalibrated host times and the failed checks) goes to
``perfbench/.work/<workload>/result.json``; the last traced pipeline's
spans go to ``spans.json`` beside it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 20260808
# Every run ends before this many seconds, however slow the host.
RUN_LIMIT_S = 170.0
MIN_PIPELINES = 2
# Calibrated seconds are host seconds on a host where one calibration loop
# (job.calibrate) takes CALIBRATION_S; it took 0.7-3 ms, median 1.35 ms, on
# a shared 2-core host. A window with fewer loops inside is calibrated by its nearest ones.
CALIBRATION_S = 0.0015
CALIBRATION_NEAREST = 5

# The shipped desk-scale preset (2,000 keys, 4 robots, 3 slots) with its
# trace cut from 300k to 20k scans, so that a run holds many pipelines.
DESK = {
    "workload": {"total_scans": 20000, "unique_barcodes": 2000, "skew": 1.40, "robots": 4, "inter_arrival_ms": 1.0},
    "link": {
        "one_way_latency_ms": 3.2,
        "loss_probability": 0.02,
        "lock_probability": 0.02,
        "lock_stall_ms": 15.0,
        "retransmit_timeout_ms": 35.0,
    },
    "cache": {"capacity": 3, "probe_time_ms": 0.44},
    "station": {"db_probe_time_ms": 0.30},
    "alert": {"threshold_minutes": 20},
}
# Changes to DESK per workload (why each exists: README.md). The alert
# threshold is raised where the cached run's simulated processing time
# passes 20 minutes by design, so every command exits 0.
WORKLOADS = {
    "desk": {},
    "wide-cache": {
        "cache": {"capacity": 64},
        "workload": {"unique_barcodes": 20000, "skew": 1.0},
        "alert": {"threshold_minutes": 240},
    },
    "churn": {
        "workload": {"unique_barcodes": 200000, "skew": 0.0},
        "link": {"loss_probability": 0.30},
        "alert": {"threshold_minutes": 240},
    },
}

END_TO_END_UNITS = {
    "pipeline_s": "s",
    "generate_s": "s",
    "setup_s": "s",
    "baseline_scans_per_s": "scans/s",
    "cached_scans_per_s": "scans/s",
    "report_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "workload.generate_s": "s",
    "workload.save_trace_s": "s",
    "workload.load_trace_s": "s",
    "workload.trace_mb": "MB",
    "knowledge_base.build_s": "s",
    "knowledge_base.save_s": "s",
    "knowledge_base.ingest_s": "s",
    "knowledge_base.resolve_calls": "count",
    "knowledge_base.resolve_s": "s",
    "knowledge_base.db_comparisons": "count",
    "cache.lookup_calls": "count",
    "cache.lookup_s": "s",
    "cache.insert_calls": "count",
    "cache.insert_s": "s",
    "cache.hit_ratio": "ratio",
    "cache.comparisons_per_lookup": "count",
    "cache.hit_slot_p50": "slot",
    "cache.hit_slot_p90": "slot",
    "cache.evictions": "count",
    "cache.validate_calls_per_scan": "1/scan",
    "netlink.transmit_calls": "count",
    "netlink.transmit_s": "s",
    "netlink.retransmissions": "count",
    "netlink.lock_events": "count",
    "netlink.delivered_ratio": "ratio",
    "netlink.stall_ms": "ms",
    "simulator.run_baseline_s": "s",
    "simulator.run_cached_s": "s",
    "simulator.self_baseline_s": "s",
    "simulator.self_cached_s": "s",
    "simulator.digest_s": "s",
    "metrics.summarize_s": "s",
    "metrics.compare_s": "s",
    "cli.run_overhead_s": "s",
    "workload.self_s": "s",
    "knowledge_base.self_s": "s",
    "cache.self_s": "s",
    "netlink.self_s": "s",
    "metrics.self_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


class HarnessError(Exception):
    """The benchmark could not produce a result."""


def write_config(path: Path, workload: str, scans: int | None) -> int:
    """Write the workload's INI file; returns its trace length."""
    sections = {name: dict(values) for name, values in DESK.items()}
    for name, values in WORKLOADS[workload].items():
        sections[name].update(values)
    if scans is not None:
        sections["workload"]["total_scans"] = scans
    # seed and output_dir are given on the command line of every command.
    lines = ["[run]", f"seed = {DEFAULT_SEED}", "output_dir = out"]
    for name, values in sections.items():
        lines += ["", f"[{name}]", *(f"{key} = {value}" for key, value in values.items())]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return sections["workload"]["total_scans"]


def run_job(config: Path, out: Path, seed: int, traced: bool, deadline: float) -> dict:
    """Run one pipeline in a fresh child process and return its record."""
    result = out.with_suffix(".json")
    command = [sys.executable, str(HERE / "job.py"), "--config", str(config), "--out", str(out),
               "--seed", str(seed), "--result", str(result)] + (["--traced"] if traced else [])
    # A fixed hash seed keeps dict and set layout, and so host time, the
    # same from run to run; no output of the program depends on it.
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, env=env)
    try:
        _, stderr = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise HarnessError("pipeline did not finish within the run's time limit") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0 or not result.exists():
        raise HarnessError(f"pipeline job exited with code {proc.returncode}:\n{stderr}")
    with open(result, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _seconds(start: float, end: float, loops: list, calibrated: bool) -> float:
    """Host seconds in [start, end) outside the calibration loops.

    Calibrated, they are multiplied by CALIBRATION_S over the mean time of
    the loops in the window, or of the CALIBRATION_NEAREST loops nearest to
    it if fewer ran inside. The host's speed changes by up to 1.6x within
    seconds as other tenants load it; the loop slows with it, so the ratio
    keeps what the program itself costs.
    """
    inside = [seconds for began, seconds in loops if start <= began < end]
    host = end - start - sum(inside)
    if not calibrated:
        return host
    nearest = sorted(loops, key=lambda loop: max(start - loop[0], loop[0] - end, 0.0))
    reference = statistics.mean(seconds for _, seconds in nearest[: max(len(inside), CALIBRATION_NEAREST)])
    return host * CALIBRATION_S / reference


def end_to_end(record: dict, scans: int, calibrated: bool = True) -> dict:
    """End-to-end samples of one complete untraced pipeline."""
    def seconds(start: float, end: float) -> float:
        return _seconds(start, end, record["calibrations"], calibrated)

    commands = record["commands"]
    (base_start, base_end), (cached_start, cached_end) = record["replays"]
    return {
        "pipeline_s": sum(seconds(start, end) for start, end in commands.values()),
        "generate_s": seconds(*commands["generate"]),
        # Both run commands do the same set-up; each is one sample.
        "setup_s": [seconds(commands["run_baseline"][0], base_start), seconds(commands["run_cached"][0], cached_start)],
        "baseline_scans_per_s": scans / seconds(base_start, base_end),
        "cached_scans_per_s": scans / seconds(cached_start, cached_end),
        "report_s": seconds(base_end, commands["run_baseline"][1]) + seconds(cached_end, commands["run_cached"][1])
        + seconds(*commands["compare"]),
        "peak_rss_mb": record["peak_rss_mb"],
    }


def _median_of(samples: list[dict], name: str) -> tuple[float, int]:
    values = []
    for sample in samples:
        value = sample[name]
        values += value if isinstance(value, list) else [value]
    return statistics.median(values), len(values)


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() or "unknown"


def benchmark(workload: str, seed: int, seconds: float, trace: bool, scans: int | None, pins: dict) -> dict:
    """Run pipelines for ``seconds`` and reduce them to metrics and checks."""
    started = time.perf_counter()
    deadline = started + RUN_LIMIT_S
    workdir = HERE / ".work" / workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    config = workdir / "config.ini"
    scans = write_config(config, workload, scans)

    records, durations, all_checks, fingerprints = [], [], [], []
    while True:
        traced = trace and len(records) % 2 == 1
        if len(records) >= MIN_PIPELINES:
            remaining = started + seconds - time.perf_counter()
            if statistics.mean(durations) > remaining:
                break
        out = workdir / f"pipeline{len(records)}"
        began = time.perf_counter()
        record = run_job(config, out, seed, traced, deadline)
        durations.append(time.perf_counter() - began)
        try:
            checked, digests = checks.check_pipeline(str(out), workload, seed, scans, record["exit_codes"], pins)
        except (OSError, LookupError, TypeError, ValueError):
            checked, digests = [("outputs_readable", False)], {}
        all_checks += [(len(records), name, passed) for name, passed in checked]
        fingerprints.append(digests.get("fingerprint"))
        record["digests"] = digests
        records.append(record)
        if traced and (out / "spans.json").exists():
            shutil.copyfile(out / "spans.json", workdir / "spans.json")
        shutil.rmtree(out)

    # Every pipeline of a run replays the same inputs, so all must agree.
    all_checks += [
        (index, "fingerprint_repeats", fingerprint is not None and fingerprint == fingerprints[0])
        for index, fingerprint in enumerate(fingerprints)
    ]
    complete = [r for r in records if len(r["replays"]) == 2 and all(code == 0 for code in r["exit_codes"].values())]
    plain = [end_to_end(r, scans) for r in complete if not r["traced"]]
    uncalibrated = [end_to_end(r, scans, calibrated=False) for r in complete if not r["traced"]]
    traced_layers = [r["layers"] for r in complete if r["traced"]]
    if not plain or (trace and not traced_layers):
        raise HarnessError("no pipeline completed; see the failed checks in result.json")

    metrics, samples = {}, {}
    if trace:
        for name, unit in PER_LAYER_UNITS.items():
            if name != "trace.overhead_s":
                metrics[name] = {"value": statistics.median(layers[name] for layers in traced_layers), "unit": unit}
        traced_pipeline = statistics.median(end_to_end(r, scans)["pipeline_s"] for r in complete if r["traced"])
        overhead = traced_pipeline - _median_of(plain, "pipeline_s")[0]
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        samples = {name: len(traced_layers) for name in metrics}
    else:
        for name, unit in END_TO_END_UNITS.items():
            value, count = _median_of(plain, name)
            metrics[name] = {"value": value, "unit": unit}
            samples[name] = count

    failed = [f"pipeline{index}:{name}" for index, name, passed in all_checks if not passed]
    first = records[0]
    return {
        "workload": workload,
        "seed": seed,
        "scans": scans,
        "traced": trace,
        "nproc": os.cpu_count(),
        "python": first["python"],
        "numpy": first["numpy"],
        "git_sha": git_sha(),
        "pipelines": len(records),
        "fingerprints": fingerprints,
        "digests": [r["digests"] for r in records],
        "attempted": len(all_checks),
        "failed_checks": failed,
        "metrics": metrics,
        "samples": samples,
        "end_to_end_samples": plain,
        "uncalibrated_samples": uncalibrated,
        "uncalibrated_medians": {name: _median_of(uncalibrated, name)[0] for name in END_TO_END_UNITS},
        "calibration_s": [r["calibrations"] for r in records],
        "layer_samples": traced_layers,
        "elapsed_s": time.perf_counter() - started,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # For the self-test only: a shorter trace and another pins file.
    parser.add_argument("--scans", type=int, default=None, help=argparse.SUPPRESS)
    parser.add_argument("--pins", default=str(checks.PINS_PATH), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so the running child is killed and waited for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "robocache" / "cli.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'robocache'}; run from a full checkout", file=sys.stderr)
        return 2
    try:
        summary = benchmark(args.workload, args.seed, args.seconds, bool(args.trace), args.scans, checks.load_pins(args.pins)["workloads"])
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    with open(HERE / ".work" / args.workload / "result.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
        fh.write("\n")

    failed = len(summary["failed_checks"])
    print(
        f"workload={summary['workload']} seed={summary['seed']} scans={summary['scans']} "
        f"{'traced' if args.trace else 'untraced'} pipelines={summary['pipelines']} nproc={summary['nproc']} "
        f"python={summary['python']} numpy={summary['numpy']} git={summary['git_sha']}"
    )
    distinct = sorted(set(f or "-" for f in summary["fingerprints"]))
    print(f"fingerprints ({len(distinct)} distinct over {summary['pipelines']} pipelines)={','.join(distinct)}")
    loops = sorted(seconds for r in summary["calibration_s"] for _, seconds in r)
    print(
        f"calibration loop: {len(loops)} timed, median {statistics.median(loops) * 1e3:.3f} ms, range {loops[0] * 1e3:.3f}-{loops[-1] * 1e3:.3f} ms "
        f"(reference {CALIBRATION_S * 1e3:g} ms); uncalibrated pipeline_s {summary['uncalibrated_medians']['pipeline_s']:.6g} s"
    )
    for name, metric in summary["metrics"].items():
        print(f"{name:<34}{metric['value']:>16.6g} {metric['unit']:<8} median of {summary['samples'][name]}")
    print(f"{'check_fail_ratio':<34}{failed / summary['attempted']:>16.6g} {'ratio':<8} {failed} of {summary['attempted']} checks failed")
    for name in summary["failed_checks"]:
        print(f"FAILED {name}")
    print(json.dumps({"correct": failed == 0, "attempted": summary["attempted"], "failed": failed, "metrics": summary["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
