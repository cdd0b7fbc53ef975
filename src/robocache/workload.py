"""Synthetic scan traces with controlled popularity skew.

generate() draws barcode popularity from a Zipf law over a fixed key
universe (exponent 0 degenerates to uniform), spaces arrivals with
exponential gaps and deals scans round robin across robots. A trace is
a pure function of its config, including the seed; the draw order (one
block of key draws, then one block of gap draws) is part of that
contract and pinned by a golden trace in the test suite.

Trace CSV format: one header line ``robot_id,barcode,issued_at_ms``
followed by one line per scan, UTF-8, "\n" newlines. Timestamps are
written with repr so export and import round-trip exactly; a timestamp
field is plain ASCII with no whitespace, "_" or sign.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from math import isfinite
from typing import Iterable, TextIO, Tuple

import numpy as np

from .cache import validate_barcode
from .errors import ConfigError, TraceFormatError, ValidationError

TRACE_HEADER = "robot_id,barcode,issued_at_ms"

# rank 0 maps to "10000000000000"; every rank below 9e13 stays 14 digits
_RANK_BASE = 10_000_000_000_000
_MAX_UNIQUE = 9 * 10**13


@dataclass(frozen=True)
class Trace:
    """Scans as three columns: scan i is (robot_ids[i], barcodes[i], issued_at[i]).

    Building one is the one check on a trace's values; tuple columns keep it valid.
    """

    robot_ids: Tuple[int, ...]
    barcodes: Tuple[str, ...]
    issued_at: Tuple[float, ...]

    def __post_init__(self) -> None:
        for name in ("robot_ids", "barcodes", "issued_at"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        robot_ids, barcodes, times = self.robot_ids, self.barcodes, self.issued_at
        if not len(robot_ids) == len(barcodes) == len(times):
            raise ValidationError(f"trace columns differ in length: {len(robot_ids)}, {len(barcodes)}, {len(times)}")
        if not set(map(type, robot_ids)) <= {int} or min(robot_ids, default=0) < 0:
            raise ValidationError("every robot id must be an int >= 0")
        for barcode in dict.fromkeys(barcodes):
            validate_barcode(barcode)
        if not (set(map(type, times)) <= {int, float} and all(map(isfinite, times)) and min(times, default=0) >= 0):
            raise ValidationError("every issue time must be a finite int or float >= 0")
        # operator.le, not a dunder: int.__le__(5, 3.0) is NotImplemented (truthy), float.__le__(5, ...) raises.
        if not all(map(operator.le, times, times[1:])):
            raise ValidationError("issue times must not decrease")

    def __len__(self) -> int:
        return len(self.barcodes)


@dataclass(frozen=True)
class WorkloadConfig:
    total_scans: int
    unique_barcodes: int
    skew: float
    robots: int
    inter_arrival_ms: float
    seed: int

    def __post_init__(self) -> None:
        bad = []
        if self.total_scans < 1:
            bad.append("total_scans (must be >= 1)")
        if not 1 <= self.unique_barcodes <= _MAX_UNIQUE:
            bad.append(f"unique_barcodes (must lie in [1, {_MAX_UNIQUE}])")
        if not (isfinite(self.skew) and self.skew >= 0):
            bad.append("skew (must be finite and >= 0)")
        if self.robots < 1:
            bad.append("robots (must be >= 1)")
        if not (isfinite(self.inter_arrival_ms) and self.inter_arrival_ms > 0):
            bad.append("inter_arrival_ms (must be finite and > 0)")
        if not 0 <= self.seed < 2**64:
            bad.append("seed (must be a 64-bit unsigned integer)")
        if bad:
            raise ConfigError("invalid workload config: " + ", ".join(bad))


def barcode_for_rank(rank: int) -> str:
    """Deterministic 14-digit key for a popularity rank (0 = hottest)."""
    if not 0 <= rank < _MAX_UNIQUE:
        raise ValidationError(f"rank {rank} outside the key universe")
    return str(_RANK_BASE + rank)


def zipf_probabilities(unique_barcodes: int, skew: float) -> np.ndarray:
    """Probability of each rank, 1-based ranks weighted rank**-skew."""
    ranks = np.arange(1, unique_barcodes + 1, dtype=np.float64)
    weights = ranks ** -float(skew)
    return weights / weights.sum()


def generate(config: WorkloadConfig) -> Trace:
    """Materialise the whole trace for ``config``."""
    rng = np.random.default_rng(config.seed)
    cumulative = np.cumsum(zipf_probabilities(config.unique_barcodes, config.skew))
    cumulative[-1] = 1.0
    key_draws = rng.random(config.total_scans)
    ranks = np.searchsorted(cumulative, key_draws, side="right")
    gaps = rng.exponential(config.inter_arrival_ms, config.total_scans)
    times = np.cumsum(gaps)
    robot_ids = [i % config.robots for i in range(config.total_scans)]
    return Trace(robot_ids, list(map(barcode_for_rank, ranks.tolist())), times.tolist())


def save_trace(trace: Trace, stream: TextIO) -> None:
    rows = map("{},{},{!r}\n".format, trace.robot_ids, trace.barcodes, trace.issued_at)
    stream.write(TRACE_HEADER + "\n" + "".join(rows))


def load_trace(stream: Iterable[str]) -> Trace:
    """Parse a trace CSV, enforcing field shape and non-decreasing time.

    A zero-byte source yields an empty trace; any content must start
    with the standard header line.
    """
    robot_ids, barcodes, times = [], [], []
    for line_no, raw in enumerate(stream, start=1):
        line = raw[:-1] if raw.endswith("\n") else raw
        if line_no == 1:
            if line != TRACE_HEADER:
                raise TraceFormatError(line_no, f"expected header {TRACE_HEADER!r}, got {line!r}")
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise TraceFormatError(line_no, f"expected 3 comma-separated fields, got {len(parts)}")
        robot_field, barcode, time_field = parts
        # ASCII digits only: int() would also take "1_0", " 1" or full-width digits.
        if not (robot_field.isascii() and robot_field.isdigit()):
            sign, unsigned = robot_field[:1], robot_field[1:]
            if sign in ("-", "+") and unsigned.isascii() and unsigned.isdigit():
                if sign == "-" and int(unsigned) > 0:
                    raise TraceFormatError(line_no, f"robot_id {robot_field} is negative")
                raise TraceFormatError(line_no, f"robot_id {robot_field!r} has a sign")
            raise TraceFormatError(line_no, f"robot_id {robot_field!r} is not an integer")
        robot_id = int(robot_field)
        try:
            validate_barcode(barcode)
        except ValidationError as exc:
            raise TraceFormatError(line_no, str(exc)) from None
        # float() would also take "1_0", " 5", "5\r" or full-width digits.
        if not time_field.isascii() or "_" in time_field or time_field != time_field.strip():
            raise TraceFormatError(line_no, f"issued_at_ms {time_field!r} is not a plain ASCII number")
        try:
            issued_at = float(time_field)
        except ValueError:
            raise TraceFormatError(line_no, f"issued_at_ms {time_field!r} is not a number") from None
        if not isfinite(issued_at) or issued_at < 0:
            raise TraceFormatError(line_no, f"issued_at_ms {time_field} is not a finite non-negative time")
        if time_field[:1] in ("+", "-"):
            raise TraceFormatError(line_no, f"issued_at_ms {time_field!r} has a sign")
        if times and issued_at < times[-1]:
            raise TraceFormatError(line_no, f"issued_at_ms decreased ({issued_at!r} after {times[-1]!r})")
        robot_ids.append(robot_id)
        barcodes.append(barcode)
        times.append(issued_at)
    return Trace(robot_ids, barcodes, times)


def write_trace(trace: Trace, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        save_trace(trace, fh)


def read_trace(path: str) -> Trace:
    # A byte that does not decode becomes a lone surrogate, which every
    # field check in load_trace rejects with its line number.
    with open(path, "r", encoding="utf-8", errors="surrogateescape", newline="") as fh:
        return load_trace(fh)
