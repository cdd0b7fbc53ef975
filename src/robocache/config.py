"""Run configuration: one INI file with a section per subsystem.

Example::

    [run]
    seed = 42
    output_dir = out

    [workload]
    total_scans = 1000
    unique_barcodes = 50
    skew = 1.1
    robots = 2
    inter_arrival_ms = 1.0
    ; seed defaults to the run seed
    ; trace_path defaults to <output_dir>/trace.csv

    [link]
    one_way_latency_ms = 250
    loss_probability = 0.01
    lock_probability = 0.002
    lock_stall_ms = 40
    retransmit_timeout_ms = 600

    [cache]
    capacity = 8
    probe_time_ms = 0.01

    [station]
    db_probe_time_ms = 0.5
    ; kb_path defaults to <output_dir>/kb.dat

    [alert]
    threshold_minutes = 20

Seeds are always explicit; there is no time-derived default anywhere.
A section or key not shown above is refused, so a misspelt key is an
error, not a silent default, and so is an empty output_dir, trace_path
or kb_path, and a trace_path and kb_path that name the same file.
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass

from .errors import ConfigError
from .netlink import LinkConfig
from .workload import WorkloadConfig


@dataclass(frozen=True)
class SimConfig:
    workload: WorkloadConfig
    link: LinkConfig
    cache_capacity: int
    cache_probe_time_ms: float
    db_probe_time_ms: float
    kb_path: str
    trace_path: str
    alert_threshold_minutes: float
    seed: int
    output_dir: str

    def __post_init__(self) -> None:
        problems = [
            f"{name} must be finite"
            for name in ("cache_probe_time_ms", "db_probe_time_ms", "alert_threshold_minutes")
            if not math.isfinite(getattr(self, name))
        ]
        if self.cache_capacity < 1:
            problems.append("cache capacity must be >= 1")
        if self.cache_probe_time_ms < 0:
            problems.append("cache probe_time_ms must be >= 0")
        if self.db_probe_time_ms < 0:
            problems.append("station db_probe_time_ms must be >= 0")
        if not self.alert_threshold_minutes > 0:
            problems.append("alert threshold_minutes must be > 0")
        if not 0 <= self.seed < 2**64:
            problems.append("run seed must be a 64-bit unsigned integer")
        if problems:
            raise ConfigError("invalid sim config: " + "; ".join(problems))


# Every key a config may hold, by section; every section is required.
_KEYS = {
    "run": ("seed", "output_dir"),
    "workload": ("total_scans", "unique_barcodes", "skew", "robots", "inter_arrival_ms", "seed", "trace_path"),
    "link": ("one_way_latency_ms", "loss_probability", "lock_probability", "lock_stall_ms", "retransmit_timeout_ms"),
    "cache": ("capacity", "probe_time_ms"),
    "station": ("db_probe_time_ms", "kb_path"),
    "alert": ("threshold_minutes",),
}


def _get(parser: configparser.ConfigParser, section: str, key: str, convert, default=None):
    if not parser.has_option(section, key):
        if default is not None:
            return default
        raise ConfigError(f"missing config key [{section}] {key}")
    raw = parser.get(section, key)
    try:
        return convert(raw)
    except ValueError:
        raise ConfigError(f"config key [{section}] {key} = {raw!r} is not a valid {convert.__name__}") from None


def load_config(path: str, *, seed_override: int | None = None, output_dir_override: str | None = None) -> SimConfig:
    """Parse an INI config file into a validated SimConfig."""
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    if not os.path.isfile(path):
        raise ConfigError(f"config path is not a file: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        parser.read(path, encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not UTF-8 text: byte {exc.object[exc.start]:#04x} cannot be decoded") from None
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from None
    # A [DEFAULT] key would show up in every section, named as that section's.
    if parser.defaults():
        raise ConfigError(f"unknown config section [{parser.default_section}]")
    for section in parser.sections():
        if section not in _KEYS:
            raise ConfigError(f"unknown config section [{section}]")
        for key in parser.options(section):
            if key not in _KEYS[section]:
                raise ConfigError(f"unknown config key [{section}] {key}")
    for section in _KEYS:
        if not parser.has_section(section):
            raise ConfigError(f"missing config section [{section}]")

    seed = seed_override if seed_override is not None else _get(parser, "run", "seed", int)
    output_dir = output_dir_override or _get(parser, "run", "output_dir", str, default="out")

    workload = WorkloadConfig(
        total_scans=_get(parser, "workload", "total_scans", int),
        unique_barcodes=_get(parser, "workload", "unique_barcodes", int),
        skew=_get(parser, "workload", "skew", float),
        robots=_get(parser, "workload", "robots", int),
        inter_arrival_ms=_get(parser, "workload", "inter_arrival_ms", float),
        seed=seed if seed_override is not None else _get(parser, "workload", "seed", int, default=seed),
    )
    link = LinkConfig(
        one_way_latency_ms=_get(parser, "link", "one_way_latency_ms", float),
        loss_probability=_get(parser, "link", "loss_probability", float),
        lock_probability=_get(parser, "link", "lock_probability", float),
        lock_stall_ms=_get(parser, "link", "lock_stall_ms", float),
        retransmit_timeout_ms=_get(parser, "link", "retransmit_timeout_ms", float),
    )
    kb_path = _get(parser, "station", "kb_path", str, default=os.path.join(output_dir, "kb.dat"))
    trace_path = _get(parser, "workload", "trace_path", str, default=os.path.join(output_dir, "trace.csv"))
    # An empty path would put the files in the working directory, or name it.
    for section, key, value in (("run", "output_dir", output_dir), ("workload", "trace_path", trace_path), ("station", "kb_path", kb_path)):
        if not value:
            raise ConfigError(f"config key [{section}] {key} is empty")
    # generate would write the records over the trace it had just written.
    if os.path.realpath(kb_path) == os.path.realpath(trace_path):
        raise ConfigError(f"[workload] trace_path {trace_path!r} and [station] kb_path {kb_path!r} name the same file")
    return SimConfig(
        workload=workload,
        link=link,
        cache_capacity=_get(parser, "cache", "capacity", int),
        cache_probe_time_ms=_get(parser, "cache", "probe_time_ms", float),
        db_probe_time_ms=_get(parser, "station", "db_probe_time_ms", float),
        kb_path=kb_path,
        trace_path=trace_path,
        alert_threshold_minutes=_get(parser, "alert", "threshold_minutes", float),
        seed=seed,
        output_dir=output_dir,
    )
