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
``parse_trace_bytes`` is the one parser of a trace file's bytes, which
``read_trace`` reads: it checks them block by block, decoding one block
of whole lines at a time, and builds the columns from them; only bytes
that fail a check are decoded whole and walked line by line, which names
the first bad line and its reason. ``parse_trace`` hands it the ASCII
encoding of a str; a str that is not ASCII goes straight to the walk.
"""

from __future__ import annotations

import io
import operator
from dataclasses import dataclass, field
from itertools import islice, repeat
from math import isfinite
from typing import Optional, TextIO, Tuple

import numpy as np

from .cache import barcode_keys, validate_barcode
from .errors import ConfigError, TraceFormatError, ValidationError

TRACE_HEADER = "robot_id,barcode,issued_at_ms"
# Decoded with errors="surrogateescape": a byte that does not decode
# reaches the parser as a lone surrogate, which every field check rejects
# with its line number.
TRACE_ENCODING = "utf-8"

# rank 0 maps to "10000000000000"; every rank below 9e13 stays 14 digits
_RANK_BASE = 10_000_000_000_000
_MAX_UNIQUE = 9 * 10**13
_BLOCK_CHARS = 1 << 16
# Rows per write of save_trace: only one block's text is held at a time.
_WRITE_ROWS = 8192
# Every character a plain time field may hold, and the comma between two:
# deleting them from a block's ASCII time text must leave nothing.
_TIME_CHARS = b",0123456789.eE+-"


@dataclass(frozen=True)
class Trace:
    """Scans as three columns: scan i is (robot_ids[i], barcodes[i], issued_at[i]).

    Building one is the one check on a trace's values; tuple columns keep it
    valid. ``distinct`` is derived from the columns: the distinct barcodes in
    first-occurrence order and the int64 key of each (``cache.barcode_keys``),
    which the replay looks up in the knowledge base.
    """

    robot_ids: Tuple[int, ...]
    barcodes: Tuple[str, ...]
    issued_at: Tuple[float, ...]
    distinct: Tuple[Tuple[str, ...], np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name in ("robot_ids", "barcodes", "issued_at"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        robot_ids, barcodes, times = self.robot_ids, self.barcodes, self.issued_at
        if not len(robot_ids) == len(barcodes) == len(times):
            raise ValidationError(f"trace columns differ in length: {len(robot_ids)}, {len(barcodes)}, {len(times)}")
        if not set(map(type, robot_ids)) <= {int} or min(robot_ids, default=0) < 0:
            raise ValidationError("every robot id must be an int >= 0")
        # One bulk check of the distinct barcodes, in trace order.
        try:
            distinct = tuple(dict.fromkeys(barcodes))
        except TypeError:  # an unhashable barcode, which barcode_keys names
            distinct = barcodes
        object.__setattr__(self, "distinct", (distinct, barcode_keys(distinct)))
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
    stream.write(TRACE_HEADER + "\n")
    for _ in range(0, len(trace), _WRITE_ROWS):
        stream.write("".join(islice(rows, _WRITE_ROWS)))


def parse_trace_bytes(data: bytes) -> Trace:
    """Parse the bytes of a trace CSV, enforcing field shape and non-decreasing time.

    An empty file yields an empty trace; any content must start with the
    standard header line. Lines end where a file opened with ``newline=""``
    ends them, at a lone "\r" too. The bytes are checked block by block;
    only when a check fails are they decoded from UTF-8 (a byte that does
    not decode as a lone surrogate) and walked line by line, so the error
    carries the 1-based number and the reason of the first bad line.
    """
    trace = _parse_columns(data)
    return _walk_lines(data.decode(TRACE_ENCODING, "surrogateescape")) if trace is None else trace


def parse_trace(text: str) -> Trace:
    """``parse_trace_bytes`` of the text of a trace CSV, given as a str.

    A text that is not ASCII cannot pass, so it is walked at once for the
    first bad line; a character there is named as itself.
    """
    return parse_trace_bytes(text.encode("ascii")) if text.isascii() else _walk_lines(text)


def _parse_columns(data: bytes) -> Optional[Trace]:
    """The trace in ``data`` if all of it passes block by block, else None.

    Accepts only what _walk_lines accepts of its text, with the same
    values: the header, then ASCII lines that each end in "\n" and hold
    exactly two commas, digit robot ids and times of plain number
    characters with no leading sign. The Trace constructor checks the
    barcodes, the time values and their order.
    """
    header = (TRACE_HEADER + "\n").encode()
    if not data.startswith(header) or not data.endswith(b"\n") or b"\r" in data:
        return None
    robot_ids, barcodes, times = [], [], []
    distinct = {}  # one str per distinct barcode, shared by all its scans
    start = len(header)
    while start < len(data):
        # Whole lines, about _BLOCK_CHARS at a time: only one block's
        # text and split fields are held beside the columns.
        end = data.find(b"\n", start + _BLOCK_CHARS) + 1 or len(data)
        try:
            block = data[start : end - 1].decode("ascii")
        except UnicodeDecodeError:
            return None
        start = end
        # Two commas on every line, not 2n in all: a 4-field line and then
        # a 2-field line would pass as two rows.
        if set(map(str.count, block.split("\n"), repeat(","))) != {2}:
            return None
        fields = block.replace("\n", ",").split(",")
        robot_col, barcode_col, time_col = fields[0::3], fields[1::3], fields[2::3]
        robot_text = "".join(robot_col)
        # A comma before every time field, so a leading sign shows as ",+" or ",-".
        time_text = "," + ",".join(time_col)
        if not robot_text.isdigit() or time_text.encode().translate(None, _TIME_CHARS):
            return None
        if ",+" in time_text or ",-" in time_text:
            return None
        try:
            # int() refuses an empty field and one longer than it converts.
            robot_ids += map(int, robot_col)
            times += map(float, time_col)
        except ValueError:
            return None
        barcodes += map(distinct.setdefault, barcode_col, barcode_col)
    try:
        return Trace(robot_ids, barcodes, times)
    except ValidationError:
        return None


def _walk_lines(text: str) -> Trace:
    """Parse the trace line by line; raises at the first bad line with its number and reason."""
    robot_ids, barcodes, times = [], [], []
    for line_no, raw in enumerate(io.StringIO(text, newline=""), start=1):
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
        try:
            robot_id = int(robot_field)
        except ValueError:  # more digits than int() converts (sys.get_int_max_str_digits)
            raise TraceFormatError(line_no, f"robot_id of {len(robot_field)} digits is too long") from None
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
    with open(path, "w", encoding=TRACE_ENCODING, newline="") as fh:
        save_trace(trace, fh)


def read_trace(path: str) -> Trace:
    with open(path, "rb") as fh:
        return parse_trace_bytes(fh.read())
