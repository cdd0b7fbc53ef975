"""One benchmark pipeline as a single-process batch job.

Drives the user path ``robocache.cli.run_cli`` through
``generate -> run --method baseline -> run --method cached -> compare`` on
a config written by ``run.py``, timing each command with ``perf_counter``.
Untraced, only ``run_simulation`` is wrapped, to mark where set-up ends and
where the replay returns. Traced (``--traced``), every layer boundary is
wrapped (see ``tracer.py``) and the per-layer metrics are added.

While the commands run, a fixed pure-Python calibration loop is timed
every 50 ms of real time, from a ``SIGALRM`` handler (``Calibrator``).
``run.py`` removes the loops' own time from every window it measures and
scales the rest by the loop's speed in that window, so that the host's own
changes of speed, which the program does not cause, cancel out.

The program is imported from ``src/`` of the checkout holding this file.
The timings and environment are written as JSON to ``--result``; the
program's own outputs go to ``--out`` and are checked by ``run.py``.

    python3 perfbench/job.py --config C.ini --out DIR --seed N --result R.json [--traced]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def calibrate(iterations: int = 1000) -> None:
    """A fixed loop of the program's kind of work, and no program code.

    String keys, dict updates, a sliding list window and float arithmetic,
    as in the replay loop. About 1.2 ms on a 2-core host when it is idle.
    """
    counts: dict[str, int] = {}
    window: list[tuple[str, float]] = []
    total = 0.0
    for i in range(iterations):
        key = "K%06d" % (i * 7919 % 100003)
        counts[key] = counts.get(key, 0) + 1
        total += (i % 97) * 0.5
        window.append((key, total))
        if len(window) > 64:
            window.pop(0)


class Calibrator:
    """Times ``calibrate`` every ``interval`` seconds of real time.

    The loop runs in a ``SIGALRM`` handler, so between two bytecodes of
    whatever the program is doing; each sample is ``(start, seconds)``.
    """

    def __init__(self, interval: float = 0.05) -> None:
        self.interval = interval
        self.samples: list[tuple[float, float]] = []

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        calibrate()
        self.samples.append((start, time.perf_counter() - start))

    def __enter__(self) -> "Calibrator":
        calibrate()  # warm-up
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def _import_program():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import robocache.cli

    if not Path(robocache.cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"robocache was imported from {robocache.cli.__file__}, not from {src}")
    return robocache.cli


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)

    cli = _import_program()
    import numpy

    tracer = None
    if args.traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    replays: list[tuple[float, float]] = []
    results = []
    simulate = cli.run_simulation

    def timed_simulation(*call_args, **call_kwargs):
        start = time.perf_counter()
        try:
            result = simulate(*call_args, **call_kwargs)
        finally:
            replays.append((start, time.perf_counter()))
        if tracer is not None:
            results.append(result)
        return result

    cli.run_simulation = timed_simulation

    out = args.out
    common = ["--config", args.config, "--seed", args.seed, "--out", out]
    steps = (
        ("generate", ["generate", *common]),
        ("run_baseline", ["run", *common, "--method", "baseline"]),
        ("run_cached", ["run", *common, "--method", "cached", "--snapshots"]),
        ("compare", ["compare", os.path.join(out, "raw_baseline.json"), os.path.join(out, "raw_cached.json")]),
    )
    commands, exit_codes = {}, {}
    with Calibrator() as calibrator:
        for name, command_argv in steps:
            entry = cli.run_cli if tracer is None else tracer.stage(f"command.{name}", "cli", cli.run_cli)
            # The CLI's printed tables are not part of the measurement's output.
            with contextlib.redirect_stdout(io.StringIO()):
                start = time.perf_counter()
                exit_codes[name] = entry(command_argv)
                commands[name] = (start, time.perf_counter())
            if exit_codes[name] != 0:
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    record = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "traced": tracer is not None,
        "exit_codes": exit_codes,
        "commands": commands,
        "replays": replays,
        "calibrations": calibrator.samples,
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None and len(replays) == 2:
        from robocache.simulator import result_digest

        start = time.perf_counter()
        for result in results:
            result_digest(result)
        digest_seconds = time.perf_counter() - start
        scans = results[0].counters.scans
        trace_bytes = os.path.getsize(os.path.join(out, "trace.csv"))
        record["layers"] = tracer.layer_metrics(scans, trace_bytes, digest_seconds)
        tracer.dump(os.path.join(out, "spans.json"))
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
