import math
import os

import pytest

from robocache.config import load_config
from robocache.errors import ConfigError
from robocache.netlink import LinkConfig
from robocache.workload import WorkloadConfig

from helpers import make_sim_config

GOOD_CONFIG = """\
[run]
seed = 42
output_dir = {out}

[workload]
total_scans = 50
unique_barcodes = 10
skew = 1.0
robots = 2
inter_arrival_ms = 2.0

[link]
one_way_latency_ms = 250
loss_probability = 0.01
lock_probability = 0.002
lock_stall_ms = 40
retransmit_timeout_ms = 600

[cache]
capacity = 4
probe_time_ms = 0.01

[station]
db_probe_time_ms = 0.5

[alert]
threshold_minutes = 20
"""


def write_config(tmp_path, body=None, out="out"):
    path = tmp_path / "sim.ini"
    path.write_text(body if body is not None else GOOD_CONFIG.format(out=out))
    return str(path)


def test_round_trip_of_every_field(tmp_path):
    config = load_config(write_config(tmp_path, out=str(tmp_path / "results")))
    assert config.seed == 42
    assert config.workload.total_scans == 50
    assert config.workload.seed == 42  # defaults to the run seed
    assert config.link.one_way_latency_ms == 250.0
    assert config.cache_capacity == 4
    assert config.cache_probe_time_ms == 0.01
    assert config.db_probe_time_ms == 0.5
    assert config.alert_threshold_minutes == 20.0
    assert config.trace_path == os.path.join(str(tmp_path / "results"), "trace.csv")
    assert config.kb_path == os.path.join(str(tmp_path / "results"), "kb.dat")


def test_seed_override_applies_to_run_and_workload(tmp_path):
    config = load_config(write_config(tmp_path), seed_override=7)
    assert config.seed == 7
    assert config.workload.seed == 7


def test_output_dir_override_moves_default_paths(tmp_path):
    config = load_config(write_config(tmp_path), output_dir_override="elsewhere")
    assert config.output_dir == "elsewhere"
    assert config.trace_path == os.path.join("elsewhere", "trace.csv")


def test_missing_file_is_a_config_error():
    with pytest.raises(ConfigError):
        load_config("no/such/config.ini")


def test_a_config_file_is_read_as_utf8(tmp_path):
    path = tmp_path / "sim.ini"
    path.write_bytes(GOOD_CONFIG.format(out="out").encode() + "; café\n".encode("utf-8"))
    assert load_config(str(path)).seed == 42


def test_a_config_file_that_is_not_utf8_is_a_config_error_naming_it(tmp_path):
    path = tmp_path / "sim.ini"
    path.write_bytes(GOOD_CONFIG.format(out="out").encode() + "; café\n".encode("latin-1"))
    with pytest.raises(ConfigError) as exc_info:
        load_config(str(path))
    assert str(exc_info.value) == f"config {path} is not UTF-8 text: byte 0xe9 cannot be decoded"


def test_a_directory_is_not_a_config_file(tmp_path):
    with pytest.raises(ConfigError) as exc_info:
        load_config(str(tmp_path))
    assert str(exc_info.value) == f"config path is not a file: {tmp_path}"


def test_missing_section_is_reported(tmp_path):
    body = GOOD_CONFIG.format(out="out").replace("[alert]\nthreshold_minutes = 20\n", "")
    with pytest.raises(ConfigError) as exc_info:
        load_config(write_config(tmp_path, body=body))
    assert "[alert]" in str(exc_info.value)


def test_unknown_key_is_refused_naming_it(tmp_path):
    # A misspelt optional key would otherwise leave its default in force.
    body = GOOD_CONFIG.format(out="out").replace("[run]\n", "[run]\ntrace_pth = elsewhere.csv\n")
    with pytest.raises(ConfigError, match=r"unknown config key \[run\] trace_pth"):
        load_config(write_config(tmp_path, body=body))
    # The optional keys are known.
    body = GOOD_CONFIG.format(out="out").replace(
        "[workload]\n", "[workload]\nseed = 7\ntrace_path = t.csv\n"
    ).replace("[station]\n", "[station]\nkb_path = k.dat\n")
    config = load_config(write_config(tmp_path, body=body))
    assert (config.workload.seed, config.trace_path, config.kb_path) == (7, "t.csv", "k.dat")


@pytest.mark.parametrize("kb_path", ["inputs.dat", "./inputs.dat", "{tmp}/inputs.dat", "{tmp}/link.dat"])
def test_a_trace_and_knowledge_base_at_one_path_are_refused_naming_both_keys(kb_path, tmp_path, monkeypatch):
    # generate would write the records over the trace; compared as real paths.
    monkeypatch.chdir(tmp_path)
    os.symlink("inputs.dat", tmp_path / "link.dat")
    kb_path = kb_path.format(tmp=tmp_path)
    body = GOOD_CONFIG.format(out="out").replace(
        "[workload]\n", "[workload]\ntrace_path = inputs.dat\n"
    ).replace("[station]\n", f"[station]\nkb_path = {kb_path}\n")
    with pytest.raises(ConfigError) as exc_info:
        load_config(write_config(tmp_path, body=body))
    assert str(exc_info.value) == f"[workload] trace_path 'inputs.dat' and [station] kb_path {kb_path!r} name the same file"


@pytest.mark.parametrize("section,key", [("run", "output_dir"), ("workload", "trace_path"), ("station", "kb_path")])
def test_an_empty_path_key_is_refused_naming_it(section, key, tmp_path):
    body = GOOD_CONFIG.format(out="out").replace("output_dir = out\n", "")
    path = write_config(tmp_path, body.replace(f"[{section}]\n", f"[{section}]\n{key} =\n"))
    with pytest.raises(ConfigError, match=rf"^config key \[{section}\] {key} is empty$"):
        load_config(path)


@pytest.mark.parametrize("section", ["extra", "DEFAULT"])
def test_unknown_section_is_refused_naming_it(section, tmp_path):
    body = GOOD_CONFIG.format(out="out") + f"\n[{section}]\nnote = 1\n"
    with pytest.raises(ConfigError, match=rf"unknown config section \[{section}\]"):
        load_config(write_config(tmp_path, body=body))


def test_missing_key_is_reported(tmp_path):
    body = GOOD_CONFIG.format(out="out").replace("seed = 42\n", "")
    with pytest.raises(ConfigError) as exc_info:
        load_config(write_config(tmp_path, body=body))
    assert "seed" in str(exc_info.value)


def test_non_numeric_value_is_reported(tmp_path):
    body = GOOD_CONFIG.format(out="out").replace("capacity = 4", "capacity = four")
    with pytest.raises(ConfigError) as exc_info:
        load_config(write_config(tmp_path, body=body))
    assert "capacity" in str(exc_info.value)


def test_invalid_capacity_is_rejected(tmp_path):
    body = GOOD_CONFIG.format(out="out").replace("capacity = 4", "capacity = 0")
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, body=body))


def test_link_invariants_checked_at_load(tmp_path):
    body = GOOD_CONFIG.format(out="out").replace("retransmit_timeout_ms = 600", "retransmit_timeout_ms = 100")
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, body=body))


LINK_VALUES = dict(
    one_way_latency_ms=250.0,
    loss_probability=0.01,
    lock_probability=0.002,
    lock_stall_ms=40.0,
    retransmit_timeout_ms=600.0,
)
WORKLOAD_VALUES = dict(total_scans=50, unique_barcodes=10, skew=1.0, robots=2, inter_arrival_ms=2.0, seed=42)


def build_link_config(**overrides):
    return LinkConfig(**{**LINK_VALUES, **overrides})


def build_workload_config(**overrides):
    return WorkloadConfig(**{**WORKLOAD_VALUES, **overrides})


FLOAT_FIELDS = [
    (make_sim_config, "cache_probe_time_ms"),
    (make_sim_config, "db_probe_time_ms"),
    (make_sim_config, "alert_threshold_minutes"),
    (build_link_config, "one_way_latency_ms"),
    (build_link_config, "loss_probability"),
    (build_link_config, "lock_probability"),
    (build_link_config, "lock_stall_ms"),
    (build_link_config, "retransmit_timeout_ms"),
    (build_workload_config, "skew"),
    (build_workload_config, "inter_arrival_ms"),
]


@pytest.mark.parametrize("build, name", FLOAT_FIELDS, ids=[name for _, name in FLOAT_FIELDS])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_values_are_rejected(build, name, value):
    build()  # the base values are valid
    with pytest.raises(ConfigError) as exc_info:
        build(**{name: value})
    assert name in str(exc_info.value)


def test_non_finite_value_in_a_config_file_is_rejected(tmp_path):
    body = GOOD_CONFIG.format(out="out").replace("probe_time_ms = 0.01", "probe_time_ms = nan")
    with pytest.raises(ConfigError) as exc_info:
        load_config(write_config(tmp_path, body=body))
    assert "cache_probe_time_ms" in str(exc_info.value)
