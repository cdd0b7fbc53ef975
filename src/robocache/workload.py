"""Synthetic scan traces with controlled popularity skew.

A ``Trace`` holds its scans as numpy columns: int64 barcode keys (a
barcode's 14 digits read as one integer), float64 issue times and robot
numbers, with the robot ids themselves held once each. generate() draws
barcode popularity from a Zipf law over a fixed key universe (exponent 0
degenerates to uniform), spaces arrivals with exponential gaps and deals
scans round robin across robots, filling the columns straight from its
draws. A trace is a pure function of its config, including the seed; the
draw order (one block of key draws, then one block of gap draws) is part
of that contract and pinned by a golden trace in the test suite.

Trace CSV format: one header line ``robot_id,barcode,issued_at_ms``
followed by one line per scan, ASCII, "\n" newlines, every line as wide as
line 2. A robot id is zero-padded to the digits of the file's widest id,
1 to 18. A barcode is written as its key's 14 zero-padded digits, the one
place besides the replay's snapshots and its missing-record error where a
key becomes text. A time is written exactly, in milliseconds, as
``float.hex()`` of its value with the fraction padded to 13 lowercase hex
digits and the exponent to a sign and 4 digits (IEEE 754-2008 5.12.3, C99
``%a``): a normal time is ``0x1.<13 hex digits>p<+ or -><4 digits>``, a
subnormal ``0x0.<13 hex digits>p-1022`` and zero ``0x0.0000000000000p+0000``,
23 bytes each, which ``float.fromhex`` or C's ``strtod`` reads back. Each
time has exactly one text, and every other spelling is refused.
``read_trace`` reads a trace file once and returns its ``Trace`` with the
SHA-256 hex of its bytes, as ``knowledge_base.load_kb`` does for a record
file. ``save_trace`` fills each block of lines a column of digits at a
time, taking each time's hex digits straight from its float64 bits.
``parse_trace_bytes``, the one parser and checker of those bytes, checks
blocks of lines as one ``reshape`` view of them, column by column, as
``knowledge_base`` does for its fixed-width records; it decodes only the
time fields that pass, which ``float.fromhex`` reads. Lines end at "\n"
only, so a "\r" is a bad byte of its line. Only a block that fails a
check is searched, with one mask per check, for its first bad line,
which the error names with the first check it fails.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from math import isfinite
from typing import Optional, TextIO, Tuple

import numpy as np

from .cache import BARCODE_WIDTH, barcode_keys, digit_keys
from .errors import ConfigError, TraceFormatError, ValidationError

TRACE_HEADER = "robot_id,barcode,issued_at_ms"
_HEADER_LINE = (TRACE_HEADER + "\n").encode()
# The parse decodes text only to quote the header or one field of a
# refused line, with errors="surrogateescape": a byte that does not decode
# is quoted as a lone surrogate.
TRACE_ENCODING = "utf-8"

# rank 0 maps to "10000000000000"; every rank below 9e13 stays 14 digits
_RANK_BASE = 10_000_000_000_000
_MAX_UNIQUE = 9 * 10**13
_MAX_SCANS = np.iinfo(np.intp).max // 8  # the longest float64 column numpy can size
# Every 14-digit barcode's key lies below this.
_KEY_LIMIT = 10**14
# Bytes per block of the parse.
_BLOCK_CHARS = 1 << 17
# Lines per write of save_trace: only one block's text is held at a time.
_WRITE_ROWS = 8192
# Rows per check of the Trace constructor's time column.
_CHECK_ROWS = 4096
# The widest robot id a trace holds: 18 digits always fit an int64.
_ROBOT_DIGITS = 18
# A time field: "0x", the lead digit, ".", 13 fraction digits, "p", the
# exponent's sign and its 4 digits.
_TIME_WIDTH = 23
_TIME_FORM = "0x1.<13 lowercase hex digits>p<+ or -><4 digits>"
# The bytes of a line after its robot id: a comma, the barcode, a comma, the time and "\n".
_AFTER_ROBOT = 1 + BARCODE_WIDTH + 1 + _TIME_WIDTH + 1
# What the columns of _fixed_columns hold.
_FIXED_BYTES = np.frombuffer(b",,0x.p\n", np.uint8)
_HEX_DIGITS = np.frombuffer(b"0123456789abcdef", np.uint8)
# The value of each byte as a lowercase hex digit; 16 for any other byte.
_HEX_VALUE = np.full(256, 16, np.uint8)
_HEX_VALUE[_HEX_DIGITS] = np.arange(16)


def _read_only(column: np.ndarray) -> np.ndarray:
    """A view of ``column`` that refuses writes."""
    view = column.view()
    view.flags.writeable = False
    return view


@dataclass(frozen=True, init=False, eq=False)
class Trace:
    """Scans as columns: scan i is robot ``robot_ids[robots[i]]`` scanning key ``keys[i]`` at ``issued_at[i]``.

    ``keys`` (int64) holds each barcode's 14 digits as one integer, whose
    text is ``cache.barcode_text`` of it; ``issued_at`` is float64.
    ``robot_ids`` holds the distinct robot ids ascending, ints below 10**18
    as a trace file's 18 digits hold, and ``robots`` each scan's index in
    it, its robot number. Building one is the one check on a trace's
    values; its columns are read-only views, which keeps it valid.
    """

    robots: np.ndarray
    robot_ids: Tuple[int, ...]
    keys: np.ndarray
    issued_at: np.ndarray

    def __init__(self, robot_ids, barcodes, issued_at, robots: Optional[np.ndarray] = None) -> None:
        """Check and hold one trace; ValidationError names what is wrong.

        Built by hand, each column has a value per scan: ``robot_ids``
        ints in [0, 10**18), ``barcodes`` 14-digit strs (one ``barcode_keys`` check)
        and ``issued_at`` ints or floats, which are held as float64.
        ``generate`` and the parser pass arrays instead, checked in numpy:
        the int64 keys as ``barcodes``, float64 times, and each scan's intp
        robot number as ``robots``, with ``robot_ids`` the distinct ids ascending.
        """
        robot_ids = tuple(robot_ids)
        if not (isinstance(barcodes, np.ndarray) and barcodes.dtype == np.int64 and barcodes.ndim == 1):
            barcodes = tuple(barcodes)
        if not (isinstance(issued_at, np.ndarray) and issued_at.dtype == np.float64 and issued_at.ndim == 1):
            issued_at = tuple(issued_at)
        lengths = (len(robot_ids) if robots is None else len(robots), len(barcodes), len(issued_at))
        if len(set(lengths)) != 1:
            raise ValidationError(f"trace columns differ in length: {lengths[0]}, {lengths[1]}, {lengths[2]}")
        if not set(map(type, robot_ids)) <= {int} or min(robot_ids, default=0) < 0 or max(robot_ids, default=0) >= 10**_ROBOT_DIGITS:
            raise ValidationError(f"every robot id must be an int in [0, 10**{_ROBOT_DIGITS})")
        if robots is None:  # every id fits an int64
            distinct, robots = np.unique(np.array(robot_ids, np.int64), return_inverse=True)
            robot_ids = tuple(distinct.tolist())
        elif not (
            robot_ids == tuple(sorted(set(robot_ids)))
            and isinstance(robots, np.ndarray) and robots.dtype == np.intp and robots.ndim == 1
            # The bounds first, so that a wild number never sizes bincount's output.
            and (not len(robots) or (robots.min() >= 0 and robots.max() < len(robot_ids)))
            and np.bincount(robots, minlength=len(robot_ids)).all()
        ):
            raise ValidationError("robot numbers must number distinct robot ids in id order, each used")
        if isinstance(barcodes, np.ndarray):
            keys = barcodes
            if len(keys) and not (keys.min() >= 0 and keys.max() < _KEY_LIMIT):
                raise ValidationError(f"every barcode key must lie in [0, {_KEY_LIMIT})")
        else:
            keys = barcode_keys(barcodes)
        times = issued_at if isinstance(issued_at, np.ndarray) else None
        if times is None and set(map(type, issued_at)) <= {int, float}:
            try:
                times = np.array(issued_at, np.float64)
            except OverflowError:  # an int too large for a float
                pass
        # The sign bit too: no file spells -0.0.
        if times is None or not _holds_by_block(lambda block: np.isfinite(block).all() and not np.signbit(block).any(), times):
            raise ValidationError("every issue time must be a finite int or float >= 0, with its sign bit clear")
        if not _holds_by_block(lambda block: (block[1:] >= block[:-1]).all(), times):
            raise ValidationError("issue times must not decrease")
        object.__setattr__(self, "robots", _read_only(robots))
        object.__setattr__(self, "robot_ids", robot_ids)
        object.__setattr__(self, "keys", _read_only(keys))
        object.__setattr__(self, "issued_at", _read_only(times))

    def __len__(self) -> int:
        return len(self.keys)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return self.robot_ids == other.robot_ids and all(
            np.array_equal(mine, theirs)
            for mine, theirs in ((self.robots, other.robots), (self.keys, other.keys), (self.issued_at, other.issued_at))
        )


def _holds_by_block(check, column: np.ndarray) -> bool:
    """Whether ``check`` holds of each block of ``column``: _CHECK_ROWS rows and the first row of the next.

    The arrays a check makes are a block long, small beside the column.
    """
    return all(check(column[start : start + _CHECK_ROWS + 1]) for start in range(0, len(column), _CHECK_ROWS))


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
        if not 1 <= self.total_scans <= _MAX_SCANS:
            bad.append(f"total_scans (must lie in [1, {_MAX_SCANS}])")
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
    # One array, raised and normalised in place: ``**=`` takes the scalar
    # exponent path of ``**``, so the bits are those of ``ranks ** -skew``.
    weights = np.arange(1, unique_barcodes + 1, dtype=np.float64)
    weights **= -float(skew)
    weights /= weights.sum()
    return weights


def generate(config: WorkloadConfig) -> Trace:
    """Materialise the whole trace for ``config``, its columns filled straight from the draws."""
    rng = np.random.default_rng(config.seed)
    cumulative = zipf_probabilities(config.unique_barcodes, config.skew)
    np.cumsum(cumulative, out=cumulative)
    cumulative[-1] = 1.0
    keys = np.searchsorted(cumulative, rng.random(config.total_scans), side="right").astype(np.int64, copy=False)
    keys += _RANK_BASE  # the key of barcode_for_rank(rank)
    times = rng.exponential(config.inter_arrival_ms, config.total_scans)
    np.cumsum(times, out=times)
    # Round robin over ids 0 to robot_count - 1: each robot's number is its
    # id. Only robots below total_scans scan, so the modulus fits an int64.
    robot_count = min(config.robots, config.total_scans)
    robots = np.arange(config.total_scans)
    robots %= robot_count
    return Trace(range(robot_count), keys, times, robots=robots)


def save_trace(trace: Trace, stream: TextIO) -> None:
    """Write ``trace`` as trace CSV, _WRITE_ROWS lines per write.

    Every line has one width: the robot id zero-padded to the digits of the
    widest id, the barcode's 14 digits and the time's _TIME_WIDTH bytes.
    Each block of lines is one uint8 array, filled a column of digits at a
    time from the robot ids, the keys and the times' binary64 bits, so no
    value is formatted one at a time.
    """
    digits = len(str(max(trace.robot_ids, default=0)))
    time = digits + 1 + BARCODE_WIDTH + 1
    robot_ids = np.array(trace.robot_ids, np.int64)
    stream.write(TRACE_HEADER + "\n")
    for start in range(0, len(trace), _WRITE_ROWS):
        stop = min(start + _WRITE_ROWS, len(trace))
        lines = np.empty((stop - start, digits + _AFTER_ROBOT), np.uint8)
        lines[:, _fixed_columns(digits)] = _FIXED_BYTES
        _put_digits(lines[:, :digits], robot_ids[trace.robots[start:stop]], 10)
        _put_digits(lines[:, digits + 1 : time - 1], trace.keys[start:stop], 10)
        # The sign bit is clear: the biased exponent is the top 11 bits.
        bits = trace.issued_at[start:stop].view(np.int64)
        biased = bits >> 52
        lines[:, time + 2] = ord("0") + (biased > 0)
        _put_digits(lines[:, time + 4 : time + 17], bits & ((1 << 52) - 1), 16)
        # Zero is written with the exponent +0000 and a subnormal with -1022.
        exponents = np.where(biased > 0, biased - 1023, np.where(bits > 0, -1022, 0))
        lines[:, time + 18] = np.where(exponents < 0, ord("-"), ord("+"))
        _put_digits(lines[:, time + 19 : time + 23], np.abs(exponents), 10)
        stream.write(lines.tobytes().decode("ascii"))


def _put_digits(text: np.ndarray, values: np.ndarray, base: int) -> None:
    """Write each of the int64 ``values`` >= 0 into its row of the uint8 array ``text`` as lowercase ``base`` digits, zero-padded to the row."""
    for column in range(text.shape[1] - 1, -1, -1):
        values, digit = np.divmod(values, base)
        text[:, column] = _HEX_DIGITS[digit]


def _fixed_columns(digits: int) -> np.ndarray:
    """The columns of a line with ``digits``-digit robot ids that hold _FIXED_BYTES: its commas, the time's "0x", "." and "p", and "\n"."""
    time = digits + 1 + BARCODE_WIDTH + 1
    return np.array([digits, time - 1, time, time + 1, time + 3, time + 17, time + _TIME_WIDTH])


def parse_trace_bytes(data: bytes) -> Trace:
    """Parse the bytes of a trace CSV, enforcing field shape and non-decreasing time.

    An empty file yields an empty trace; any content must start with the
    standard header line, and the last line may omit its "\n". Lines end
    at "\n" only. Line 2's robot id, the 1 to 18 bytes before its first
    comma, sets the width of every line: the robot id, the barcode's 14
    digits and a time of the form _TIME_FORM, the one text of its value.
    The lines are one ``reshape`` view of ``data``; each block of about
    _BLOCK_CHARS bytes of them is checked column by column (the fixed
    bytes, the digits, the hex digits through a table of byte values, the
    signs and the exponents' range), so each time that ``float.fromhex``
    reads is the one text of its value, and then its times are held to
    order. Only a block that fails is searched, by _block_fault, for the
    first bad line, which raises TraceFormatError with its 1-based number
    and the reason of the first check it fails. Robots, numbered as first
    met, are renumbered in id order in place at the end.
    """
    if not data.endswith(b"\n"):
        data = data + b"\n" if data else _HEADER_LINE
    if not data.startswith(_HEADER_LINE):
        header = data[: data.find(b"\n")].decode(TRACE_ENCODING, "surrogateescape")
        # A file that is not a trace may be one long line.
        shown = f"{len(header)} characters starting {header[:40]!r}" if len(header) > 40 else repr(header)
        raise TraceFormatError(1, f"expected header {TRACE_HEADER!r}, got {shown}")
    start = len(_HEADER_LINE)
    if len(data) == start:
        return Trace((), (), ())
    line_2 = data[start : data.find(b"\n", start)]
    digits = line_2.find(b",")
    if not 1 <= digits <= _ROBOT_DIGITS:
        raise TraceFormatError(2, f"expected a robot_id of 1 to {_ROBOT_DIGITS} digits before the first comma, got {len(line_2) if digits < 0 else digits} bytes")
    width = digits + _AFTER_ROBOT
    scans = (len(data) - start) // width
    lines = np.frombuffer(data, np.uint8, scans * width, start).reshape(scans, width)
    robots = np.empty(scans, np.intp)
    keys = np.empty(scans, np.int64)
    times = np.empty(scans, np.float64)
    fixed = _fixed_columns(digits)
    time = digits + 1 + BARCODE_WIDTH + 1
    number_of_id = {}  # robot id -> robot number, in the order first met
    step = max(1, _BLOCK_CHARS // width)
    for row in range(0, scans, step):
        block = lines[row : row + step]
        rows = slice(row, row + len(block))
        block_keys = digit_keys(block[:, digits + 1 : digits + 1 + BARCODE_WIDTH]) if (block[:, fixed] == _FIXED_BYTES).all() else None
        if block_keys is None or not (_read_robots(block[:, :digits], robots[rows], number_of_id) and _read_times(block[:, time : time + _TIME_WIDTH], times[rows])):
            raise _block_fault(data, start, block, row, times)
        keys[rows] = block_keys
        _check_order(times, row, row + len(block))
    if start + scans * width < len(data):
        raise _block_fault(data, start, lines[scans:], scans, times)
    robot_ids = tuple(sorted(number_of_id))
    number_of = dict(zip(robot_ids, range(len(robot_ids))))
    # Every number is in range, and "clip" mode writes in place where "raise" buffers a copy.
    np.take(np.fromiter(map(number_of.__getitem__, number_of_id), np.intp, len(number_of)), robots, out=robots, mode="clip")
    return Trace(robot_ids, keys, times, robots=robots)


def _read_robots(text: np.ndarray, robots: np.ndarray, number_of_id: dict) -> bool:
    """Number each row's robot id, its digits in the uint8 rows ``text``, into ``robots``; False unless each is all digits.

    ``number_of_id`` numbers an id when first met.
    """
    ids = digit_keys(text)
    if ids is None:
        return False
    ordered = np.sort(ids)
    distinct = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
    numbers = [number_of_id.setdefault(value, len(number_of_id)) for value in distinct.tolist()]
    np.take(np.array(numbers, np.intp), np.searchsorted(distinct, ids), out=robots)
    return True


def _read_times(text: np.ndarray, times: np.ndarray) -> bool:
    """Read each row's time, its _TIME_WIDTH bytes in the uint8 rows ``text``, into ``times``; False unless each is the one text of its value.

    The lead digit, 13 fraction digits and the exponent's sign and four
    digits are checked; a lead of 1 takes an exponent of -1022 to -0001
    or +0000 to +1023, and a lead of 0 only zero's +0000 or a subnormal's
    -1022. Each text that passes is read by ``float.fromhex``.
    """
    nibbles = _HEX_VALUE[text[:, 4:17]]
    exponents = digit_keys(text[:, 19:23])
    leads = text[:, 2] - ord("0")  # below "0" wraps round to 2 or more
    plus = text[:, 18] == ord("+")
    if exponents is None or not ((nibbles < 16).all() and (leads < 2).all() and (plus | (text[:, 18] == ord("-"))).all()):
        return False
    signed = np.where(plus, exponents, -exponents)
    normal = leads == 1
    fits = (signed >= -1022) & (signed <= 1023) & (plus | (exponents > 0))
    if not normal.all():
        tiny = np.where(nibbles.any(axis=1), signed == -1022, plus & (exponents == 0))
        fits = np.where(normal, fits, tiny)
    if not fits.all():
        return False
    fields = np.ascontiguousarray(text).view(f"S{_TIME_WIDTH}")[:, 0].astype(f"U{_TIME_WIDTH}")
    times[:] = np.fromiter(map(float.fromhex, fields.tolist()), np.float64, len(fields))
    return True


def _check_order(times: np.ndarray, start: int, stop: int) -> None:
    """Raise TraceFormatError at the first of ``times[start:stop]`` below the time before it; scan i is on line i + 2."""
    window = times[max(start - 1, 0) : stop]
    falls = window[1:] < window[:-1]
    if falls.any():
        at = int(falls.argmax())
        raise TraceFormatError(max(start - 1, 0) + at + 3, f"issued_at_ms decreased ({window[at + 1].item()!r} after {window[at].item()!r})")


def _block_fault(data: bytes, start: int, block: np.ndarray, row: int, times: np.ndarray) -> TraceFormatError:
    """The error of the first bad line of ``block``, the lines from scan ``row`` on of a block that failed a check of parse_trace_bytes.

    Each check is one mask over the rows, in the order a line's reason is
    taken: its width, its robot id and comma, its barcode and comma, the
    form of its time and its exponent. A row after the block fails them
    all, so an empty block after the last whole line names the next line
    for its width. The times before the first bad row are held to order
    first, which raises at an earlier fall.
    """
    width = block.shape[1]
    digits = width - _AFTER_ROBOT
    time = digits + 1 + BARCODE_WIDTH + 1
    text = block[:, time : time + _TIME_WIDTH]
    marks = block[:, _fixed_columns(digits)] == _FIXED_BYTES
    digit = block - np.uint8(ord("0")) < 10
    nibbles = _HEX_VALUE[text[:, 4:17]]
    exponents = (text[:, 19:23] - np.uint8(ord("0"))).astype(np.int64) @ np.array([1000, 100, 10, 1])
    plus = text[:, 18] == ord("+")
    signed = np.where(plus, exponents, -exponents)
    normal = text[:, 2] == ord("1")
    checks = [
        marks[:, 6] & ~(block[:, :-1] == ord("\n")).any(axis=1),
        digit[:, :digits].all(axis=1) & marks[:, 0],
        digit[:, digits + 1 : time - 1].all(axis=1) & marks[:, 1],
        marks[:, 2:6].all(axis=1) & (text[:, 2] - np.uint8(ord("0")) < 2) & (nibbles < 16).all(axis=1)
        & (plus | (text[:, 18] == ord("-"))) & digit[:, time + 19 : time + _TIME_WIDTH].all(axis=1),
        ~normal | ((signed >= -1022) & (signed <= 1023) & (plus | (exponents > 0))),
        normal | np.where(nibbles.any(axis=1), signed == -1022, plus & (exponents == 0)),
    ]
    bad = int(np.append(np.logical_and.reduce(checks), False).argmin())
    _read_times(text[:bad], times[row : row + bad])
    _check_order(times, row, row + bad)
    if bad == len(block) or not checks[0][bad]:
        at = start + (row + bad) * width
        got = data.find(b"\n", at) - at
        return TraceFormatError(row + bad + 2, f"expected {width - 1} bytes ({digits}-digit robot_id as on line 2, 14-digit barcode, issued_at_ms of the form {_TIME_FORM}), got {got}")
    # A robot id or a barcode is quoted with the byte after its columns, unless that is its comma.
    robot, barcode, field = (block[bad, first:stop].tobytes().decode(TRACE_ENCODING, "surrogateescape") for first, stop in ((0, digits + 1), (digits + 1, time), (time, time + _TIME_WIDTH)))
    reasons = [
        f"robot_id {robot.removesuffix(',')!r} is not a {digits}-digit integer as on line 2",
        f"malformed barcode key {barcode.removesuffix(',')!r}: expected exactly 14 decimal digits",
        f"issued_at_ms {field!r} is not of the form {_TIME_FORM}",
        f"issued_at_ms {field} has exponent {field[18:]}, not -1022 to -0001 or +0000 to +1023",
        f"issued_at_ms {field} is neither zero, 0x0.0000000000000p+0000, nor a subnormal, 0x0.<13 hex digits>p-1022",
    ]
    return TraceFormatError(row + bad + 2, next(reason for passed, reason in zip(checks[1:], reasons) if not passed[bad]))


def write_trace(trace: Trace, path: str) -> None:
    with open(path, "w", encoding=TRACE_ENCODING, newline="") as fh:
        save_trace(trace, fh)


def read_trace(path: str) -> Tuple[Trace, str]:
    """The trace in the file at ``path`` and the SHA-256 hex of its bytes, which are read once."""
    with open(path, "rb") as fh:
        data = fh.read()
    return parse_trace_bytes(data), hashlib.sha256(data).hexdigest()
