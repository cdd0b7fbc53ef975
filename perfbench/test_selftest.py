"""Self-test of the benchmark harness at a tiny trace size.

    python3 -m pytest -q perfbench/test_selftest.py

Checks that every metric named in BENCHMARK.json is emitted with its unit,
that calibration cancels a uniform change of host speed, that the traced
run's self times plus child times account for each run span, that a
corrupted pinned value makes the checks fail, and that the harness
refuses to run without the program's source.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCANS = "4000"


def _bench(*args: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    done = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", "desk", "--seconds", "1", "--scans", SCANS, *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return done.returncode, done.stdout.splitlines()


def _result() -> dict:
    return json.loads((HERE / ".work" / "desk" / "result.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace, group", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_metric_is_emitted_with_its_unit(trace, group):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))[group]
    code, lines = _bench("--trace", trace)
    assert code == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    for metric in declared:
        assert any(line.startswith(metric["name"] + " ") and f" {metric['unit']} " in line for line in lines)
    assert any(line.startswith("check_fail_ratio ") for line in lines)
    assert all(loops and min(seconds for _, seconds in loops) > 0 for loops in _result()["calibration_s"])


def test_calibration_cancels_a_uniform_slowdown():
    import run

    def record(slowdown: float) -> dict:
        windows = {"generate": (0.0, 1.0), "run_baseline": (1.0, 3.0), "run_cached": (3.0, 5.0), "compare": (5.0, 5.5)}
        return {
            "commands": {name: [t * slowdown for t in window] for name, window in windows.items()},
            "replays": [[1.5 * slowdown, 2.5 * slowdown], [3.5 * slowdown, 4.5 * slowdown]],
            "calibrations": [[i * 0.05 * slowdown, run.CALIBRATION_S * 0.9 * slowdown] for i in range(110)],
            "peak_rss_mb": 50.0,
        }

    fast, slow = run.end_to_end(record(1.0), 20000), run.end_to_end(record(1.6), 20000)
    for name, value in fast.items():
        assert slow[name] == pytest.approx(value), name
    uncalibrated = run.end_to_end(record(1.6), 20000, calibrated=False)
    assert uncalibrated["pipeline_s"] == pytest.approx(1.6 * (5.5 - 110 * run.CALIBRATION_S * 0.9))
    assert uncalibrated["pipeline_s"] / slow["pipeline_s"] == pytest.approx(1.6 * 0.9)


def test_self_times_and_children_account_for_each_run_span():
    code, _ = _bench("--trace", "1")
    assert code == 0
    trace = json.loads((HERE / ".work" / "desk" / "spans.json").read_text(encoding="utf-8"))
    spans, calls = trace["spans"], trace["calls"]
    run_spans = [s for s in spans if s["name"].startswith("command.run_") or s["name"] == "simulator.run_simulation"]
    assert len(run_spans) == 4
    for span in run_spans:
        children = sum(s["end"] - s["start"] for s in spans if s["parent"] == span["id"])
        children += sum(c["total"] for c in calls if c["stage"] == span["id"] and "/" not in c["path"])
        assert span["self"] >= 0
        assert span["self"] + children == pytest.approx(span["end"] - span["start"], abs=1e-6)
    replay = next(s for s in run_spans if s["name"] == "simulator.run_simulation")
    assert any(c["stage"] == replay["id"] and c["path"] == "KnowledgeBase.resolve" for c in calls)


def test_a_corrupted_pin_makes_check_fail_ratio_nonzero(tmp_path):
    code, _ = _bench("--trace", "0")
    assert code == 0
    digests = _result()["digests"][0]
    pins = {"workloads": {"desk": {"seed": 20260808, "scans": int(SCANS), **digests}}}
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(json.dumps(pins), encoding="utf-8")
    pins["workloads"]["desk"]["comparison.csv"] = "0" * 64
    bad.write_text(json.dumps(pins), encoding="utf-8")

    code, lines = _bench("--trace", "0", "--pins", str(good))
    assert code == 0 and json.loads(lines[-1])["failed"] == 0
    assert _result()["attempted"] > 0 and not _result()["failed_checks"]

    code, lines = _bench("--trace", "0", "--pins", str(bad))
    result = json.loads(lines[-1])
    assert code == 0 and not result["correct"] and result["failed"] >= 1
    ratio_line = next(line for line in lines if line.startswith("check_fail_ratio "))
    assert float(ratio_line.split()[1]) > 0
    assert all(name.endswith("pinned.comparison.csv") for name in _result()["failed_checks"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    code, lines = _bench("--trace", "0", cwd=tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)
