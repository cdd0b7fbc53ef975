import errno
import hashlib
import json
import os
from pathlib import Path

import pytest

import robocache.knowledge_base
from robocache.cli import _load_raw, run_cli
from robocache.config import load_config
from robocache.knowledge_base import RECORD_WIDTH, format_record_line, load_kb
from robocache.simulator import result_digest, run
from robocache.workload import barcode_for_rank, read_trace

from helpers import os_reporting_records_more
from reference import TIME_FORM, reference_replay, reference_time_text, synth_record_line

CONFIG_TEMPLATE = """\
[run]
seed = 1234
output_dir = {out}

[workload]
total_scans = 1500
unique_barcodes = 40
skew = 1.2
robots = 2
inter_arrival_ms = 1.0

[link]
one_way_latency_ms = 20
loss_probability = 0.05
lock_probability = 0.01
lock_stall_ms = 15
retransmit_timeout_ms = 50

[cache]
capacity = 6
probe_time_ms = 0.05

[station]
db_probe_time_ms = 0.4

[alert]
threshold_minutes = 20
"""


@pytest.fixture()
def config_path(tmp_path):
    out_dir = tmp_path / "out"
    path = tmp_path / "sim.ini"
    path.write_text(CONFIG_TEMPLATE.format(out=out_dir))
    return str(path)


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def test_full_pipeline_generate_run_compare_report(config_path, capsys, tmp_path):
    out = str(tmp_path / "out")
    assert run_cli(["generate", "--config", config_path]) == 0

    trace_path = os.path.join(out, "trace.csv")
    kb_path = os.path.join(out, "kb.dat")
    assert os.path.exists(trace_path)
    assert os.path.exists(kb_path)
    with open(trace_path) as fh:
        assert sum(1 for _ in fh) == 1500 + 1  # data lines plus header
    with open(kb_path) as fh:
        assert sum(1 for _ in fh) == 40

    assert run_cli(["run", "--config", config_path, "--method", "baseline"]) == 0
    assert run_cli(["run", "--config", config_path, "--method", "cached"]) == 0
    base_raw = os.path.join(out, "raw_baseline.json")
    cached_raw = os.path.join(out, "raw_cached.json")
    assert os.path.exists(os.path.join(out, "report_baseline.csv"))
    assert os.path.exists(cached_raw)

    assert run_cli(["compare", base_raw, cached_raw]) == 0
    comparison = os.path.join(out, "comparison.csv")
    assert os.path.exists(comparison)
    with open(comparison) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "metric,baseline,cached,ratio"
    assert len(lines) == 5

    assert run_cli(["report", base_raw, cached_raw]) == 0
    captured = capsys.readouterr()
    assert "decision_latency_minutes" in captured.out


def test_rerun_with_same_seed_is_byte_identical(config_path, tmp_path):
    first = str(tmp_path / "first")
    second = str(tmp_path / "second")
    for out in (first, second):
        assert run_cli(["generate", "--config", config_path, "--out", out]) == 0
        for method in ("baseline", "cached"):
            assert run_cli(["run", "--config", config_path, "--out", out, "--method", method]) == 0
    for name in ("trace.csv", "kb.dat", "report_baseline.csv", "report_cached.csv", "raw_baseline.json", "raw_cached.json"):
        assert read_bytes(os.path.join(first, name)) == read_bytes(os.path.join(second, name)), name


def test_seed_override_changes_outputs(config_path, tmp_path):
    first = str(tmp_path / "first")
    second = str(tmp_path / "second")
    for out, seed in ((first, "1234"), (second, "99")):
        assert run_cli(["generate", "--config", config_path, "--out", out, "--seed", seed]) == 0
    assert read_bytes(os.path.join(first, "trace.csv")) != read_bytes(os.path.join(second, "trace.csv"))


def test_run_without_generate_fails_cleanly(config_path, tmp_path, capsys):
    assert run_cli(["run", "--config", config_path, "--out", str(tmp_path / "nothing"), "--method", "cached"]) == 1
    assert "generate" in capsys.readouterr().err


def test_method_flag_is_validated(config_path, capsys):
    with pytest.raises(SystemExit) as exc_info:
        run_cli(["run", "--config", config_path, "--method", "hybrid"])
    assert exc_info.value.code == 1
    assert "argument --method: invalid choice: 'hybrid'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,reason",
    [
        pytest.param(["run", "--config", "x"], "the following arguments are required: --method", id="run-without-method"),
        pytest.param(["report"], "the following arguments are required: raw", id="report-without-files"),
        pytest.param([], "the following arguments are required: command", id="no-command"),
        pytest.param(["bogus"], "argument command: invalid choice: 'bogus'", id="unknown-command"),
    ],
)
def test_a_usage_error_exits_1_not_the_alert_code(argv, reason, capsys):
    with pytest.raises(SystemExit) as exc_info:
        run_cli(argv)
    assert exc_info.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: robocache")
    assert reason in err


@pytest.mark.parametrize("argv", [["--help"], ["run", "--help"]], ids=["top-level", "subcommand"])
def test_help_still_exits_0(argv, capsys):
    with pytest.raises(SystemExit) as exc_info:
        run_cli(argv)
    assert exc_info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: robocache")


def test_empty_workload_config_is_rejected(config_path, tmp_path, capsys):
    broken = str(tmp_path / "broken.ini")
    with open(config_path) as fh:
        body = fh.read().replace("total_scans = 1500", "total_scans = 0")
    with open(broken, "w") as fh:
        fh.write(body)
    assert run_cli(["generate", "--config", broken]) == 1
    assert "total_scans" in capsys.readouterr().err


@pytest.mark.parametrize(
    "old,new,reason",
    [
        # More scans than a numpy array can hold: refused by the config check.
        pytest.param("total_scans = 1500", "total_scans = 100000000000000000000", "invalid workload config: total_scans", id="total-scans"),
        # 9e13 float64 popularities, 655 TiB: numpy refuses the array at once.
        pytest.param("unique_barcodes = 40", "unique_barcodes = 90000000000000", "out of memory: Unable to allocate", id="unique-barcodes"),
    ],
)
def test_an_oversized_workload_is_one_error_line(old, new, reason, config_path, tmp_path, capsys):
    config = tmp_path / "oversized.ini"
    with open(config_path) as fh:
        config.write_text(fh.read().replace(old, new))
    out = tmp_path / "oversized"
    assert run_cli(["generate", "--config", str(config), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {reason}") and err.count("\n") == 1, err
    assert not out.exists()


def test_generate_takes_more_robots_than_an_int64_holds(config_path, tmp_path, capsys):
    # Only the first total_scans robots scan, round robin, so the trace is
    # the one with a robot per scan.
    traces = []
    for robots in ("100000000000000000000", "1500"):
        config = tmp_path / f"robots_{robots}.ini"
        with open(config_path) as fh:
            config.write_text(fh.read().replace("robots = 2", f"robots = {robots}"))
        out = tmp_path / robots
        assert run_cli(["generate", "--config", str(config), "--out", str(out)]) == 0
        traces.append(read_bytes(out / "trace.csv"))
    assert traces[0] == traces[1]
    assert capsys.readouterr().err == ""


def test_generate_refuses_a_config_whose_trace_and_knowledge_base_share_a_path(config_path, tmp_path, capsys):
    shared = tmp_path / "inputs.dat"
    with open(config_path) as fh:
        body = fh.read()
    body = body.replace("[workload]\n", f"[workload]\ntrace_path = {shared}\n")
    body = body.replace("[station]\n", f"[station]\nkb_path = {tmp_path}/./inputs.dat\n")
    with open(config_path, "w") as fh:
        fh.write(body)
    assert run_cli(["generate", "--config", config_path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: [workload] trace_path ") and err.count("\n") == 1, err
    assert not shared.exists()


@pytest.mark.parametrize("command", [["generate"], ["run", "--method", "baseline"]])
@pytest.mark.parametrize("section,key", [("run", "output_dir"), ("workload", "trace_path"), ("station", "kb_path")])
def test_an_empty_path_key_is_one_error_line_and_writes_nothing(section, key, command, config_path, tmp_path, capsys, monkeypatch):
    # An empty output_dir once put trace.csv and kb.dat in the working directory.
    monkeypatch.chdir(tmp_path)
    config = config_variant(config_path, tmp_path, f"[{section}]\n", f"[{section}]\n{key} =\n")
    if section == "run":
        config = config_variant(config, tmp_path, f"output_dir = {tmp_path / 'out'}\n", "")
    before = sorted(os.listdir(tmp_path))
    assert run_cli([*command, "--config", config]) == 1
    assert capsys.readouterr().err == f"error: config key [{section}] {key} is empty\n"
    assert sorted(os.listdir(tmp_path)) == before


@pytest.mark.parametrize("command", [["generate"], ["run", "--method", "baseline"]])
@pytest.mark.parametrize("config", ["latin-1", "directory"])
def test_a_config_that_cannot_be_read_is_one_error_line(command, config, tmp_path, capsys):
    path = tmp_path / "config"
    if config == "directory":
        path.mkdir()
        expected = f"config path is not a file: {path}"
    else:
        path.write_bytes("[run]\nseed = 1\n; café\n".encode("latin-1"))
        expected = f"config {path} is not UTF-8 text: byte 0xe9 cannot be decoded"
    assert run_cli([*command, "--config", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {expected}\n"


def test_compare_rejects_mismatched_traces(config_path, tmp_path, capsys):
    first = str(tmp_path / "first")
    second = str(tmp_path / "second")
    for out, seed in ((first, "1234"), (second, "99")):
        assert run_cli(["generate", "--config", config_path, "--out", out, "--seed", seed]) == 0
        assert run_cli(["run", "--config", config_path, "--out", out, "--seed", seed, "--method", "baseline"]) == 0
        assert run_cli(["run", "--config", config_path, "--out", out, "--seed", seed, "--method", "cached"]) == 0
    code = run_cli(["compare", os.path.join(first, "raw_baseline.json"), os.path.join(second, "raw_cached.json")])
    assert code == 1
    assert "digest" in capsys.readouterr().err


def config_variant(config_path, tmp_path, old, new):
    """A copy of the config at ``config_path`` with one line changed."""
    with open(config_path) as fh:
        body = fh.read()
    assert old in body
    path = str(tmp_path / "variant.ini")
    with open(path, "w") as fh:
        fh.write(body.replace(old, new))
    return path


@pytest.mark.parametrize(
    "change,message",
    [
        ("kb_record", "knowledge bases (kb_digest mismatch)"),
        ("loss_probability = 0.05|loss_probability = 0.1", "link or station terms (config mismatch)"),
        ("db_probe_time_ms = 0.4|db_probe_time_ms = 0.8", "link or station terms (config mismatch)"),
        ("baseline_without_config", "link or station terms (config mismatch)"),
        # Same trace, KB and config block, but the link drew from another seed.
        ("cached_seed", "run seeds (seed mismatch)"),
    ],
)
def test_compare_rejects_mismatched_knowledge_bases(change, message, config_path, tmp_path, capsys):
    out = str(tmp_path / "out")
    assert run_cli(["generate", "--config", config_path, "--out", out]) == 0
    assert run_cli(["run", "--config", config_path, "--out", out, "--method", "baseline"]) == 0
    cached_config, cached_seed = config_path, []
    if change == "kb_record":
        # Same trace, but the cached run resolves against a knowledge base with one more record.
        with open(os.path.join(out, "kb.dat"), "a", encoding="ascii", newline="") as fh:
            fh.write(format_record_line("99999999999999", "SHIP99999", "GRND", "T9999D", "") + "\n")
    elif change == "baseline_without_config":
        # A raw report written before the config block existed.
        raw_path = os.path.join(out, "raw_baseline.json")
        raw = read_json(raw_path)
        del raw["config"]
        with open(raw_path, "w") as fh:
            json.dump(raw, fh)
    elif change == "cached_seed":
        cached_seed = ["--seed", "7"]
    else:
        cached_config = config_variant(config_path, tmp_path, *change.split("|"))
    assert run_cli(["run", "--config", cached_config, "--out", out, "--method", "cached", *cached_seed]) == 0
    capsys.readouterr()
    code = run_cli(["compare", os.path.join(out, "raw_baseline.json"), os.path.join(out, "raw_cached.json")])
    assert code == 1
    assert message in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "comparison.csv"))


def test_compare_accepts_a_cache_sweep_against_one_baseline(config_path, tmp_path):
    # Capacity and cache probe time belong to the cached run alone.
    out = str(tmp_path / "out")
    assert run_cli(["generate", "--config", config_path, "--out", out]) == 0
    assert run_cli(["run", "--config", config_path, "--out", out, "--method", "baseline"]) == 0
    sweep = config_variant(config_path, tmp_path, "capacity = 6\nprobe_time_ms = 0.05", "capacity = 2\nprobe_time_ms = 0.07")
    assert run_cli(["run", "--config", sweep, "--out", out, "--method", "cached"]) == 0
    assert run_cli(["compare", os.path.join(out, "raw_baseline.json"), os.path.join(out, "raw_cached.json")]) == 0


@pytest.mark.parametrize("what", ["trace", "knowledge base"])
@pytest.mark.parametrize("name", ["report_cached.csv", "raw_cached.json", "snapshot_cached_robot0.csv", "raw_cached.json->input"])
def test_run_refuses_an_input_file_that_it_writes_or_removes(what, name, config_path, tmp_path, capsys):
    # A raw report written over the trace, or a snapshot-named trace removed,
    # would leave the next run nothing to read.
    out = tmp_path / "out"
    assert run_cli(["generate", "--config", config_path, "--out", str(out)]) == 0
    source = out / ("trace.csv" if what == "trace" else "kb.dat")
    if name == "raw_cached.json->input":
        # The report path itself is a link to the input.
        os.symlink(source, out / "raw_cached.json")
        path = source
    else:
        path = out / name
        os.rename(source, path)
    section, key = ("[workload]\n", "trace_path") if what == "trace" else ("[station]\n", "kb_path")
    config = config_variant(config_path, tmp_path, section, f"{section}{key} = {path}\n")
    before = {entry: read_bytes(out / entry) for entry in os.listdir(out)}
    capsys.readouterr()
    assert run_cli(["run", "--config", config, "--method", "cached", "--snapshots"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {what} file {path} is one that `run --method cached` writes or removes; give another --out\n"
    assert {entry: read_bytes(out / entry) for entry in os.listdir(out)} == before
    # The other method's file names are not this run's.
    assert run_cli(["run", "--config", config, "--method", "baseline"]) == 0


@pytest.mark.parametrize("case", ["baseline", "cached", "cached_through_a_symlink", "default_out_is_the_baseline"])
def test_compare_refuses_to_write_over_an_input_report(case, config_path, tmp_path, capsys):
    out = str(tmp_path / "out")
    assert run_cli(["generate", "--config", config_path, "--out", out]) == 0
    for method in ("baseline", "cached"):
        assert run_cli(["run", "--config", config_path, "--out", out, "--method", method]) == 0
    baseline, cached = (os.path.join(out, f"raw_{method}.json") for method in ("baseline", "cached"))
    if case == "default_out_is_the_baseline":
        # With no --out the table goes to comparison.csv beside the baseline report.
        os.rename(baseline, os.path.join(out, "comparison.csv"))
        argv = ["compare", os.path.join(out, "comparison.csv"), cached]
    elif case == "cached_through_a_symlink":
        os.symlink(cached, tmp_path / "link.json")
        argv = ["compare", baseline, cached, "--out", str(tmp_path / "link.json")]
    else:
        argv = ["compare", baseline, cached, "--out", os.path.join(out, ".", f"raw_{case}.json")]
    before = {name: read_bytes(os.path.join(out, name)) for name in os.listdir(out)}
    capsys.readouterr()
    assert run_cli(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert {name: read_bytes(os.path.join(out, name)) for name in os.listdir(out)} == before


@pytest.mark.parametrize("name", ["trace.csv", "kb.dat"])
def test_compare_refuses_to_write_over_a_file_that_is_not_a_comparison_table(name, config_path, tmp_path, capsys):
    out = str(tmp_path / "out")
    assert run_cli(["generate", "--config", config_path, "--out", out]) == 0
    for method in ("baseline", "cached"):
        assert run_cli(["run", "--config", config_path, "--out", out, "--method", method]) == 0
    path = os.path.join(out, name)
    before = {entry: read_bytes(os.path.join(out, entry)) for entry in os.listdir(out)}
    capsys.readouterr()
    assert run_cli(["compare", os.path.join(out, "raw_baseline.json"), os.path.join(out, "raw_cached.json"), "--out", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: comparison path {path} holds a file that is not a comparison table; give another --out\n"
    assert {entry: read_bytes(os.path.join(out, entry)) for entry in os.listdir(out)} == before
    # The next run still reads its inputs.
    assert run_cli(["run", "--config", config_path, "--out", out, "--method", "cached"]) == 0


def test_compare_rewrites_its_own_comparison_table(config_path, tmp_path):
    out = str(tmp_path / "out")
    assert run_cli(["generate", "--config", config_path, "--out", out]) == 0
    for method in ("baseline", "cached"):
        assert run_cli(["run", "--config", config_path, "--out", out, "--method", method]) == 0
    argv = ["compare", os.path.join(out, "raw_baseline.json"), os.path.join(out, "raw_cached.json")]
    assert run_cli(argv) == 0
    path = os.path.join(out, "comparison.csv")
    table = read_bytes(path)
    # A table of another run, cut short, is written over whole.
    with open(path, "wb") as fh:
        fh.write(table.split(b"\n")[0] + b"\nstale,1.0,2.0,2.0\n")
    assert run_cli(argv) == 0
    assert read_bytes(path) == table
    assert run_cli(argv + ["--out", path]) == 0
    assert read_bytes(path) == table


def test_run_on_a_knowledge_base_cut_short_while_it_is_read_exits_one_naming_it(config_path, tmp_path, capsys, monkeypatch):
    out = str(tmp_path / "out")
    assert run_cli(["generate", "--config", config_path, "--out", out]) == 0
    monkeypatch.setattr(robocache.knowledge_base, "os", os_reporting_records_more(10))
    capsys.readouterr()
    assert run_cli(["run", "--config", config_path, "--out", out, "--method", "baseline"]) == 1
    captured = capsys.readouterr()
    kb_path = os.path.join(out, "kb.dat")
    read, size = 40 * RECORD_WIDTH, 50 * RECORD_WIDTH
    assert captured.err == f"error: {kb_path}: read {read} of {size} bytes; the file was cut short while it was read\n"
    assert not os.path.exists(os.path.join(out, "raw_baseline.json"))


def test_compare_missing_file_exits_one(config_path, tmp_path, capsys):
    assert run_cli(["compare", str(tmp_path / "a.json"), str(tmp_path / "b.json")]) == 1


def test_alert_overrun_exits_two(config_path, tmp_path, capsys):
    # shrink the threshold until the run must overrun it
    strict = str(tmp_path / "strict.ini")
    with open(config_path) as fh:
        body = fh.read().replace("threshold_minutes = 20", "threshold_minutes = 0.0001")
    with open(strict, "w") as fh:
        fh.write(body)
    out = str(tmp_path / "out")
    assert run_cli(["generate", "--config", strict, "--out", out]) == 0
    code = run_cli(["run", "--config", strict, "--out", out, "--method", "baseline"])
    assert code == 2
    err = capsys.readouterr().err
    assert "ALERT overrun_minutes=" in err
    raw = read_json(os.path.join(out, "raw_baseline.json"))
    assert raw["alert"]["raised"] is True


def test_report_exits_two_when_a_report_it_prints_raised_the_alert(config_path, tmp_path, capsys):
    # The cached run keeps the 20-minute threshold; the baseline run's is one
    # that it overruns.
    strict = tmp_path / "strict.ini"
    with open(config_path) as fh:
        strict.write_text(fh.read().replace("threshold_minutes = 20", "threshold_minutes = 0.0001"))
    out = str(tmp_path / "out")
    assert run_cli(["generate", "--config", config_path, "--out", out]) == 0
    assert run_cli(["run", "--config", config_path, "--out", out, "--method", "cached"]) == 0
    assert run_cli(["run", "--config", str(strict), "--out", out, "--method", "baseline"]) == 2
    cached_raw, base_raw = (os.path.join(out, f"raw_{method}.json") for method in ("cached", "baseline"))
    capsys.readouterr()
    assert run_cli(["report", cached_raw]) == 0
    capsys.readouterr()
    assert run_cli(["report", cached_raw, base_raw]) == 2
    captured = capsys.readouterr()
    # Every table is printed, the raised one last.
    assert captured.out.count("decision_latency_minutes") == 2
    assert captured.err.count("ALERT overrun_minutes=") == 1


def test_run_whose_simulated_time_overflows_exits_one_and_writes_nothing(config_path, tmp_path, capsys):
    # Every config value is finite, but 1e308 ms per probe overflows to inf.
    huge = str(tmp_path / "huge.ini")
    with open(config_path) as fh:
        body = fh.read().replace("probe_time_ms = 0.05", "probe_time_ms = 1e308")
    with open(huge, "w") as fh:
        fh.write(body)
    out = str(tmp_path / "out")
    assert run_cli(["generate", "--config", huge, "--out", out]) == 0
    capsys.readouterr()
    assert run_cli(["run", "--config", huge, "--out", out, "--method", "cached"]) == 1
    assert "non-finite" in capsys.readouterr().err
    assert sorted(os.listdir(out)) == ["kb.dat", "trace.csv"]


def test_snapshots_flag_writes_per_robot_files(config_path, tmp_path):
    out = str(tmp_path / "out")
    assert run_cli(["generate", "--config", config_path, "--out", out]) == 0
    assert run_cli(["run", "--config", config_path, "--out", out, "--method", "cached", "--snapshots"]) == 0
    snap0 = os.path.join(out, "snapshot_cached_robot0.csv")
    snap1 = os.path.join(out, "snapshot_cached_robot1.csv")
    assert os.path.exists(snap0) and os.path.exists(snap1)
    with open(snap0) as fh:
        lines = fh.read().splitlines()
    assert 0 < len(lines) <= 6
    for line in lines:
        barcode, hits = line.split(",")
        assert len(barcode) == 14 and barcode.isdigit()
        assert int(hits) >= 1
    hits_column = [int(line.split(",")[1]) for line in lines]
    assert hits_column == sorted(hits_column, reverse=True)


def test_snapshots_of_robots_first_scanning_9_2_5_are_written_in_id_order(config_path, tmp_path):
    out = str(tmp_path / "out")
    assert run_cli(["generate", "--config", config_path, "--out", out]) == 0
    # (robot id, barcode rank) per scan: robot 9 scans first, then 2, then 5.
    scans = [(9, 0), (2, 1), (5, 2), (2, 1), (9, 3), (5, 2), (2, 4), (9, 0)]
    with open(os.path.join(out, "trace.csv"), "w") as fh:
        fh.write("robot_id,barcode,issued_at_ms\n")
        fh.writelines(f"{robot},{barcode_for_rank(rank)},{reference_time_text(index * 2.5)}\n" for index, (robot, rank) in enumerate(scans))
    config = load_config(config_path, output_dir_override=out)
    (trace, _), (kb, _) = read_trace(config.trace_path), load_kb(config.kb_path)
    for method in ("baseline", "cached"):
        assert run_cli(["run", "--config", config_path, "--out", out, "--method", method, "--snapshots"]) == 0
        raw = read_json(os.path.join(out, f"raw_{method}.json"))
        ref = reference_replay(method, trace, kb, config)
        assert raw["counters"] == ref.counters.to_dict(), method
        assert [value.hex() for value in raw["per_scan_latencies_ms"]] == [value.hex() for value in ref.counters.per_scan_latencies], method
    snapshots = []
    for robot in range(3):
        with open(os.path.join(out, f"snapshot_cached_robot{robot}.csv")) as fh:
            snapshots.append(tuple((barcode, int(hits)) for barcode, hits in (line.split(",") for line in fh.read().splitlines())))
    # Robot 2, the lowest id, scanned rank 1 twice and rank 4 once.
    assert snapshots[0] == ((barcode_for_rank(1), 2), (barcode_for_rank(4), 1))
    assert snapshots == ref.snapshots
    assert not os.path.exists(os.path.join(out, "snapshot_cached_robot3.csv"))


def test_raw_report_carries_counters_and_digest(config_path, tmp_path):
    out = str(tmp_path / "out")
    assert run_cli(["generate", "--config", config_path, "--out", out]) == 0
    assert run_cli(["run", "--config", config_path, "--out", out, "--method", "cached", "--snapshots"]) == 0
    raw = read_json(os.path.join(out, "raw_cached.json"))
    assert raw["method"] == "cached"
    assert len(raw["trace_digest"]) == 64
    counters = raw["counters"]
    assert counters["scans"] == 1500
    assert counters["scans"] == counters["cache_hits"] + counters["cache_misses"]
    assert counters["station_messages"] == counters["cache_misses"]
    assert len(raw["per_scan_latencies_ms"]) == 1500
    assert "wall_clock" not in json.dumps(raw)  # host time never lands in reports

    # The same run in process: its counters are the raw block, and its digest
    # can be recomputed from the raw report plus the snapshot files.
    config = load_config(config_path, output_dir_override=out)
    trace, trace_digest = read_trace(config.trace_path)
    assert trace_digest == raw["trace_digest"]
    result = run("cached", trace, load_kb(config.kb_path)[0], config)
    assert counters == result.counters.to_dict()
    assert result_digest(result) == digest_from_directory(out, "cached")


def digest_from_directory(out, method):
    """``result_digest`` recomputed from the raw report and every snapshot file of ``method`` in ``out``."""
    raw = read_json(os.path.join(out, f"raw_{method}.json"))
    prefix = f"snapshot_{method}_robot"
    robots = sorted(int(name[len(prefix) : -len(".csv")]) for name in os.listdir(out) if name.startswith(prefix))
    snapshots = []
    for robot in robots:
        with open(os.path.join(out, f"{prefix}{robot}.csv")) as fh:
            snapshots.append([[barcode, int(hits)] for barcode, hits in (line.split(",") for line in fh.read().splitlines())])
    record = {name: raw[name] for name in ("method", "counters", "per_scan_latencies_ms")}
    blob = json.dumps({**record, "snapshots": snapshots}, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def test_a_run_removes_the_snapshots_of_its_method_that_it_did_not_write(config_path, tmp_path, capsys):
    out = str(tmp_path / "out")

    def snapshot_files():
        return sorted(name for name in os.listdir(out) if name.startswith("snapshot_"))

    six = config_variant(config_path, tmp_path, "robots = 2", "robots = 6")
    assert run_cli(["generate", "--config", six, "--out", out]) == 0
    assert run_cli(["run", "--config", six, "--out", out, "--method", "cached", "--snapshots"]) == 0
    assert snapshot_files() == [f"snapshot_cached_robot{robot}.csv" for robot in range(6)]

    # A run that overflows writes no report, so it leaves the directory as it was.
    huge = tmp_path / "huge.ini"
    huge.write_text(Path(six).read_text().replace("probe_time_ms = 0.05", "probe_time_ms = 1e308"))
    before = {name: read_bytes(os.path.join(out, name)) for name in os.listdir(out)}
    assert run_cli(["run", "--config", str(huge), "--out", out, "--method", "cached"]) == 1
    assert {name: read_bytes(os.path.join(out, name)) for name in os.listdir(out)} == before

    four = config_variant(config_path, tmp_path, "robots = 2", "robots = 4")
    assert run_cli(["generate", "--config", four, "--out", out]) == 0
    assert run_cli(["run", "--config", four, "--out", out, "--method", "cached", "--snapshots"]) == 0
    assert snapshot_files() == [f"snapshot_cached_robot{robot}.csv" for robot in range(4)]
    config = load_config(four, output_dir_override=out)
    result = run("cached", read_trace(config.trace_path)[0], load_kb(config.kb_path)[0], config)
    assert result_digest(result) == digest_from_directory(out, "cached")

    # A baseline run leaves the cached snapshots; a cached run without --snapshots removes them.
    assert run_cli(["run", "--config", four, "--out", out, "--method", "baseline"]) == 0
    assert snapshot_files() == [f"snapshot_cached_robot{robot}.csv" for robot in range(4)]
    assert run_cli(["run", "--config", four, "--out", out, "--method", "cached"]) == 0
    assert snapshot_files() == []


def test_raw_report_digests_are_the_sha256_of_the_input_files(config_path, tmp_path):
    out = str(tmp_path / "out")
    assert run_cli(["generate", "--config", config_path, "--out", out]) == 0
    config = load_config(config_path, output_dir_override=out)
    for method in ("baseline", "cached"):
        assert run_cli(["run", "--config", config_path, "--out", out, "--method", method]) == 0
        raw = read_json(os.path.join(out, f"raw_{method}.json"))
        assert raw["trace_digest"] == hashlib.sha256(read_bytes(config.trace_path)).hexdigest()
        assert raw["kb_digest"] == hashlib.sha256(read_bytes(config.kb_path)).hexdigest()


# A damaged field of a raw report: (block, key, value written in its place).
BAD_FIELDS = {
    "string_metric": ("metrics", "processing_time_minutes", "x"),
    "null_metric": ("metrics", "processing_time_minutes", None),
    "bool_metric": ("metrics", "processing_time_minutes", True),
    "nan_metric": ("metrics", "processing_time_minutes", float("nan")),
    "infinity_metric": ("metrics", "decision_latency_minutes", float("inf")),
    "minus_infinity_metric": ("metrics", "decision_latency_minutes", float("-inf")),
    "string_alert_raised": ("alert", "raised", "no"),
    "int_alert_raised": ("alert", "raised", 0),
    "string_alert_overrun": ("alert", "overrun_minutes", "0"),
    "bool_alert_overrun": ("alert", "overrun_minutes", False),
    "negative_metric": ("metrics", "processing_time_minutes", -5),
    "fractional_total_comparisons": ("metrics", "total_comparisons", 1.5),
    "alert_raised_below_threshold": ("alert", "raised", True),
    "overrun_below_threshold": ("alert", "overrun_minutes", 3.0),
    "zero_threshold": ("alert", "threshold_minutes", 0),
}
# A number literal too large for a float, written into the file text
# (json.dumps would write Infinity, which the reader refuses as a constant).
TOO_LARGE = {
    "overflowing_metric": ("metrics", "decision_latency_minutes", "1e400"),
    "overflowing_alert_overrun": ("alert", "overrun_minutes", "1e400"),
    "overflowing_alert_threshold": ("alert", "threshold_minutes", "1e400"),
    "integer_past_float_range": ("metrics", "total_comparisons", "1" + "0" * 400),
}


@pytest.mark.parametrize("damage", ["truncated_json", "incomplete_metrics", "directory", *BAD_FIELDS, *TOO_LARGE])
def test_compare_and_report_reject_a_bad_raw_report(damage, config_path, tmp_path, capsys):
    out = str(tmp_path / "out")
    assert run_cli(["generate", "--config", config_path, "--out", out]) == 0
    assert run_cli(["run", "--config", config_path, "--out", out, "--method", "baseline"]) == 0
    baseline = os.path.join(out, "raw_baseline.json")
    bad = tmp_path / "raw_cached.json"
    if damage == "truncated_json":
        text = Path(baseline).read_text()
        bad.write_text(text[: len(text) // 2])
    elif damage == "incomplete_metrics":
        raw = read_json(baseline)
        del raw["metrics"]["processing_time_minutes"]
        bad.write_text(json.dumps(raw))
    elif damage in BAD_FIELDS:
        block, key, value = BAD_FIELDS[damage]
        raw = read_json(baseline)
        raw[block][key] = value
        bad.write_text(json.dumps(raw))  # json.dumps writes NaN and Infinity as bare constants
    elif damage in TOO_LARGE:
        block, key, literal = TOO_LARGE[damage]
        raw = read_json(baseline)
        raw[block][key] = "@"
        bad.write_text(json.dumps(raw).replace('"@"', literal))
    else:
        bad.mkdir()
    capsys.readouterr()
    for argv in (["compare", baseline, str(bad)], ["report", str(bad)]):
        assert run_cli(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {bad}: ")
        assert captured.out == ""
    assert not os.path.exists(os.path.join(out, "comparison.csv"))


def test_a_raw_report_loads_as_json_load_reads_it(config_path, tmp_path):
    out = str(tmp_path / "out")
    assert run_cli(["generate", "--config", config_path, "--out", out]) == 0
    assert run_cli(["run", "--config", config_path, "--out", out, "--method", "cached"]) == 0
    path = os.path.join(out, "raw_cached.json")
    loaded = _load_raw(path)[0]
    expected = read_json(path)
    assert loaded == expected
    # == takes -0.0 for 0.0; the hex of each latency does not.
    assert [value.hex() for value in loaded["per_scan_latencies_ms"]] == [value.hex() for value in expected["per_scan_latencies_ms"]]


def test_a_number_text_repeated_in_a_raw_report_loads_as_equal_floats(config_path, tmp_path):
    out = str(tmp_path / "out")
    assert run_cli(["generate", "--config", config_path, "--out", out]) == 0
    assert run_cli(["run", "--config", config_path, "--out", out, "--method", "baseline"]) == 0
    path = os.path.join(out, "raw_baseline.json")
    raw = read_json(path)
    raw["per_scan_latencies_ms"] = "@"
    with open(path, "w") as fh:
        fh.write(json.dumps(raw).replace('"@"', "[" + ", ".join(["0.1", "-0.0"] * 5000) + "]"))
    latencies = _load_raw(path)[0]["per_scan_latencies_ms"]
    assert latencies == [0.1, -0.0] * 5000
    assert {value.hex() for value in latencies[1::2]} == {(-0.0).hex()}


def test_compare_and_report_ignore_a_metric_they_do_not_read(config_path, tmp_path, capsys):
    # Raw reports written before first_decision_latency_minutes was dropped still load.
    out = str(tmp_path / "out")
    assert run_cli(["generate", "--config", config_path, "--out", out]) == 0
    raw_paths = []
    for method in ("baseline", "cached"):
        assert run_cli(["run", "--config", config_path, "--out", out, "--method", method]) == 0
        raw_paths.append(os.path.join(out, f"raw_{method}.json"))
    comparison = os.path.join(out, "comparison.csv")

    def compare_and_report():
        capsys.readouterr()
        assert run_cli(["compare", *raw_paths]) == 0
        assert run_cli(["report", *raw_paths]) == 0
        return capsys.readouterr(), read_bytes(comparison)

    before = compare_and_report()
    for path in raw_paths:
        raw = read_json(path)
        raw["metrics"]["first_decision_latency_minutes"] = 0.5
        with open(path, "w") as fh:
            json.dump(raw, fh)
    assert compare_and_report() == before


@pytest.mark.parametrize("name", ["kb.dat", "trace.csv"])
def test_run_rejects_an_input_file_with_an_undecodable_byte(name, config_path, tmp_path, capsys):
    out = str(tmp_path / "out")
    assert run_cli(["generate", "--config", config_path, "--out", out]) == 0
    path = os.path.join(out, name)
    lines = read_bytes(path).split(b"\n")
    lines[1] = lines[1][:5] + b"\xff" + lines[1][6:]
    with open(path, "wb") as fh:
        fh.write(b"\n".join(lines))
    capsys.readouterr()
    assert run_cli(["run", "--config", config_path, "--out", out, "--method", "cached"]) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: line 2: ")
    assert sorted(os.listdir(out)) == ["kb.dat", "trace.csv"]


KB_LINE_3 = synth_record_line(2)
# The time 4.0 as a trace file spells it.
FOUR = reference_time_text(4.0).encode()
# The reason of a trace line of {} bytes after a line 2 with a 1-digit robot id.
TRACE_WIDTH = f"expected 40 bytes (1-digit robot_id as on line 2, 14-digit barcode, issued_at_ms of the form {TIME_FORM}), got {{}}"
# An error quotes an undecodable byte as a lone surrogate.
KB_LINE_3_UNDECODABLE = KB_LINE_3[:20] + "\udcff" + KB_LINE_3[21:]


@pytest.mark.parametrize(
    "name,line_3,reason",
    [
        ("trace.csv", b"1_0,10000000000000," + FOUR, TRACE_WIDTH.format(42)),
        ("trace.csv", b"x,10000000000000," + FOUR, "robot_id 'x' is not a 1-digit integer as on line 2"),
        ("trace.csv", b"7" * 5000 + b",10000000000000," + FOUR, TRACE_WIDTH.format(5039)),
        ("trace.csv", b"1" * 19 + b",10000000000000," + FOUR, TRACE_WIDTH.format(58)),
        ("trace.csv", b"1".zfill(19) + b",10000000000000," + FOUR, TRACE_WIDTH.format(58)),
        ("trace.csv", b"0,10000000000000,4.0", TRACE_WIDTH.format(20)),
        ("kb.dat", b"10000000000002SHIP00002", "expected 56 characters, got 23"),
        ("kb.dat", KB_LINE_3[:18].encode() + b"\r" + KB_LINE_3[19:].encode(), 'carriage return in the line; a record line ends in "\\n" only'),
        ("kb.dat", b"1000000000000x" + KB_LINE_3[14:].encode(), "barcode field '1000000000000x' is not 14 decimal digits"),
        ("kb.dat", synth_record_line(0).encode(), "duplicate barcode 10000000000000"),
        (
            "kb.dat",
            KB_LINE_3_UNDECODABLE.encode("ascii", "surrogateescape"),
            f"non-ASCII character in {KB_LINE_3_UNDECODABLE!r}",
        ),
    ],
    ids=["trace", "trace-robot-id-letter", "trace-robot-id-too-long", "trace-robot-id-of-19-digits", "trace-robot-id-zero-padded-to-19", "trace-decimal-time", "kb", "kb-lone-cr", "kb-barcode", "kb-duplicate", "kb-undecodable"],
)
def test_run_names_the_input_file_holding_a_malformed_line(name, line_3, reason, config_path, tmp_path, capsys):
    out = str(tmp_path / "out")
    assert run_cli(["generate", "--config", config_path, "--out", out]) == 0
    path = os.path.join(out, name)
    lines = read_bytes(path).split(b"\n")
    lines[2] = line_3
    with open(path, "wb") as fh:
        fh.write(b"\n".join(lines))
    capsys.readouterr()
    assert run_cli(["run", "--config", config_path, "--out", out, "--method", "baseline"]) == 1
    assert capsys.readouterr().err == f"error: {path}: line 3: {reason}\n"
    assert sorted(os.listdir(out)) == ["kb.dat", "trace.csv"]


@pytest.mark.parametrize("case", ["run_trace_is_a_directory", "compare_out_is_a_directory", "generate_out_under_a_file"])
def test_a_path_the_os_refuses_is_an_error_line(case, config_path, tmp_path, capsys):
    out = str(tmp_path / "out")
    if case == "generate_out_under_a_file":
        blocker = tmp_path / "file"
        blocker.write_text("")
        path, code = str(blocker / "out"), errno.ENOTDIR
        argv = ["generate", "--config", config_path, "--out", path]
    else:
        assert run_cli(["generate", "--config", config_path, "--out", out]) == 0
        if case == "run_trace_is_a_directory":
            path, code = os.path.join(out, "trace.csv"), errno.EISDIR
            os.remove(path)
            os.mkdir(path)
            argv = ["run", "--config", config_path, "--out", out, "--method", "baseline"]
        else:
            for method in ("baseline", "cached"):
                assert run_cli(["run", "--config", config_path, "--out", out, "--method", method]) == 0
            path, code = str(tmp_path / "existing"), errno.EISDIR
            os.mkdir(path)
            argv = ["compare", os.path.join(out, "raw_baseline.json"), os.path.join(out, "raw_cached.json"), "--out", path]
    capsys.readouterr()
    assert run_cli(argv) == 1
    assert capsys.readouterr().err == f"error: {path}: {os.strerror(code)}\n"
