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
followed by one line per scan, UTF-8, "\n" newlines. A barcode is written
as its key's 14 zero-padded digits, the one place besides the replay's
snapshots and its missing-record error where a key becomes text. A
robot id is 1 to 18 ASCII digits. Timestamps are written with repr so
export and import round-trip exactly; a timestamp field is 1 to 24 bytes
of plain ASCII with no whitespace, "_" or sign.
``read_trace`` reads a trace file once and returns its ``Trace`` with the
SHA-256 hex of its bytes, as ``knowledge_base.load_kb`` does for a record
file. ``parse_trace_bytes`` is the one parser of those bytes: it reads
them block by block of whole lines through numpy views and decodes
nothing. From the positions of a block's "\n" and "," bytes, which must
put two commas on every line, it gathers each field through a window:
the 14 barcode bytes after the first comma, and the robot id and the
time right-aligned before the comma or "\n" that ends them. Each check
is a mask over those windows. Only bytes that fail a check are decoded
whole and walked line by line, which names the first bad line and its
reason.
"""

from __future__ import annotations

import hashlib
import io
from dataclasses import dataclass
from math import isfinite
from typing import NoReturn, Optional, TextIO, Tuple

import numpy as np

from .cache import BARCODE_FORMAT, BARCODE_WIDTH, barcode_keys, count_newlines, digit_keys, validate_barcode
from .errors import ConfigError, TraceFormatError, ValidationError

TRACE_HEADER = "robot_id,barcode,issued_at_ms"
_HEADER_LINE = (TRACE_HEADER + "\n").encode()
# Decoded with errors="surrogateescape": a byte that does not decode
# reaches the parser as a lone surrogate, which every field check rejects
# with its line number.
TRACE_ENCODING = "utf-8"

# rank 0 maps to "10000000000000"; every rank below 9e13 stays 14 digits
_RANK_BASE = 10_000_000_000_000
_MAX_UNIQUE = 9 * 10**13
_MAX_SCANS = np.iinfo(np.intp).max // 8  # the longest float64 column numpy can size
# Every 14-digit barcode's key lies below this.
_KEY_LIMIT = 10**14
# Bytes per block of the parse, and per comparison of its "\n" count.
_BLOCK_CHARS = 1 << 17
# Rows per write of save_trace: only one block's text is held at a time.
_WRITE_ROWS = 8192
# Rows per check of the Trace constructor's time column.
_CHECK_ROWS = 4096
# The widest robot id a trace holds: 18 digits always fit an int64.
_ROBOT_DIGITS = 18
# The widest time field a trace file holds; repr of a float64 >= 0 is at
# most 23 characters.
_TIME_WIDTH = 24


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
        if times is None or not _holds_by_block(lambda block: np.isfinite(block).all() and (block >= 0).all(), times):
            raise ValidationError("every issue time must be a finite int or float >= 0")
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
    """Write ``trace`` as trace CSV, _WRITE_ROWS rows per write; each block formats each distinct key once."""
    robot_texts = np.array(list(map(str, trace.robot_ids)), object)
    stream.write(TRACE_HEADER + "\n")
    for start in range(0, len(trace), _WRITE_ROWS):
        stop = start + _WRITE_ROWS
        distinct, index = np.unique(trace.keys[start:stop], return_inverse=True)
        key_texts = np.array(list(map(BARCODE_FORMAT.__mod__, distinct.tolist())), object)
        robots = robot_texts[trace.robots[start:stop]].tolist()
        rows = zip(robots, key_texts[index].tolist(), trace.issued_at[start:stop].tolist())
        stream.write("".join([f"{robot},{key},{issued!r}\n" for robot, key, issued in rows]))


def parse_trace_bytes(data: bytes) -> Trace:
    """Parse the bytes of a trace CSV, enforcing field shape and non-decreasing time.

    An empty file yields an empty trace; any content must start with the
    standard header line, and the last line may omit its "\n". Lines end
    where a file opened with ``newline=""`` ends them, at a lone "\r" too.
    The bytes are checked block by block; only when a check fails are they
    decoded from UTF-8 (a byte that does not decode as a lone surrogate)
    and walked line by line, so the error carries the 1-based number and
    the reason of the first bad line.
    """
    if not data.endswith(b"\n"):
        data = data + b"\n" if data else _HEADER_LINE
    trace = _parse_columns(data)
    if trace is None:
        _walk_lines(data.decode(TRACE_ENCODING, "surrogateescape"))
    return trace


def _parse_columns(data: bytes) -> Optional[Trace]:
    """The trace in ``data`` if all of it passes block by block, else None.

    Accepts exactly the text that _walk_lines passes to its end, with the
    same values: the header, then ASCII lines that each end in "\n" and hold
    exactly two commas, robot ids of 1 to _ROBOT_DIGITS digits and times of
    1 to _TIME_WIDTH plain number bytes with no leading sign. ASCII and the
    absence of "\r" and " " are checked once on all of ``data``; each
    block's lines and commas in _line_edges, its barcodes here, and its
    robot ids and times in _read_robots and _read_times, all on numpy views.
    Robots, numbered as first met, are renumbered in id order in place at
    the end. The Trace constructor checks the time values and their order.
    """
    if not data.startswith(_HEADER_LINE) or not data.endswith(b"\n") or b"\r" in data or b" " in data or not data.isascii():
        return None
    flat = np.frombuffer(data, np.uint8)
    mask = np.empty(_BLOCK_CHARS, bool)
    scans = count_newlines(flat, mask) - 1
    robots = np.empty(scans, np.intp)
    keys = np.empty(scans, np.int64)
    times = np.empty(scans, np.float64)
    number_of_id = {}  # robot id -> robot number, in the order first met
    row = 0
    start = len(_HEADER_LINE)
    while start < len(data):
        # Whole lines, about _BLOCK_CHARS at a time: only one block's field
        # windows and "\n" and comma positions are held beside the columns.
        end = data.find(b"\n", start + _BLOCK_CHARS) + 1 or len(data)
        if end - start >= len(mask):  # the "\n" before, _BLOCK_CHARS bytes and the rest of a line
            mask = np.empty(end - start + 1, bool)
        edges = _line_edges(flat, start, end, mask)
        if edges is None:
            return None
        before, first, second, ends = edges
        start = end
        rows = slice(row, row + len(ends))
        row = rows.stop
        if not (second - first == BARCODE_WIDTH + 1).all():
            return None
        block_keys = digit_keys(_right_window(flat, second, second - first - 1, BARCODE_WIDTH, ord("0")))
        if block_keys is None:
            return None
        keys[rows] = block_keys
        if not (_read_robots(flat, first, first - before - 1, robots[rows], number_of_id) and _read_times(flat, ends, ends - second - 1, times[rows])):
            return None
    robot_ids = tuple(sorted(number_of_id))
    number_of = dict(zip(robot_ids, range(len(robot_ids))))
    # Every number is in range, and "clip" mode writes in place where "raise" buffers a copy.
    np.take(np.fromiter(map(number_of.__getitem__, number_of_id), np.intp, len(number_of)), robots, out=robots, mode="clip")
    try:
        return Trace(robot_ids, keys, times, robots=robots)
    except ValidationError:
        return None


def _line_edges(flat: np.ndarray, start: int, end: int, mask: np.ndarray) -> Optional[Tuple[np.ndarray, ...]]:
    """The positions in ``flat`` of the "\n" before each line, its first and second comma and its "\n", for the whole lines from ``start`` to ``end``.

    None unless every line holds exactly two commas. The "\n" and ","
    bytes are compared into the bool array ``mask``, longer than the
    block, which the caller reuses for every block.
    """
    block = flat[start - 1 : end]  # from the "\n" that ends the line or header before
    newlines = np.flatnonzero(np.equal(block, ord("\n"), out=mask[: len(block)]))
    commas = np.flatnonzero(np.equal(block, ord(","), out=mask[: len(block)]))
    # Not only 2n in all: a 4-field line and a 2-field line, in either order,
    # would pass as two rows. Each line's commas lie between its "\n" and the one before.
    if not (len(commas) == 2 * len(newlines) - 2 and (commas[0::2] > newlines[:-1]).all() and (commas[1::2] < newlines[1:]).all()):
        return None
    newlines += start - 1
    commas += start - 1
    return newlines[:-1], commas[0::2], commas[1::2], newlines[1:]


def _right_window(flat: np.ndarray, ends: np.ndarray, lengths: np.ndarray, widest: int, fill: int) -> Optional[np.ndarray]:
    """Each line's field, its ``lengths`` bytes of ``flat`` before ``ends``, right-aligned in a copied uint8 row; None unless each is 1 to ``widest`` bytes.

    The rows are as wide as the longest field. Left of a shorter one, a
    row holds bytes of its line or the header, overwritten with ``fill``.
    """
    narrowest, width = int(lengths.min()), int(lengths.max())
    if not 0 < narrowest <= width <= widest:
        return None
    # Item i of this view is bytes i to i + width: one gather copies each row whole.
    windows = np.ndarray((len(flat) - width + 1,), f"V{width}", flat, strides=(1,))
    text = windows[ends - width].view(np.uint8).reshape(len(ends), width)
    if narrowest < width:
        text[np.arange(width) < width - lengths[:, None]] = fill
    return text


def _read_robots(flat: np.ndarray, first: np.ndarray, lengths: np.ndarray, robots: np.ndarray, number_of_id: dict) -> bool:
    """Number each line's robot id, its ``lengths`` bytes before ``first``, into ``robots``; False unless each is 1 to _ROBOT_DIGITS digits.

    An id's window reads its pad as zeros. ``number_of_id`` numbers an id
    when first met.
    """
    digits = _right_window(flat, first, lengths, _ROBOT_DIGITS, ord("0"))
    ids = None if digits is None else digit_keys(digits)
    if ids is None:
        return False
    ordered = np.sort(ids)
    distinct = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
    numbers = [number_of_id.setdefault(value, len(number_of_id)) for value in distinct.tolist()]
    np.take(np.array(numbers, np.intp), np.searchsorted(distinct, ids), out=robots)
    return True


def _read_times(flat: np.ndarray, ends: np.ndarray, lengths: np.ndarray, times: np.ndarray) -> bool:
    """Read each line's time, its ``lengths`` bytes before ``ends``, into ``times``; False unless each is a plain number >= 0 of 1 to _TIME_WIDTH bytes.

    A time's window pads it with spaces, which the S dtype's cast to
    float64 skips as float() does; the cast gives float()'s bits.
    """
    text = _right_window(flat, ends, lengths, _TIME_WIDTH, ord(" "))
    signs = flat[ends - lengths]
    if text is None or (signs == ord("+")).any() or (signs == ord("-")).any() or not _time_bytes(text).all():
        return False
    try:
        times[:] = text.view(f"S{text.shape[1]}")[:, 0]  # cast on assignment, with no float64 temporary
    except ValueError:
        return False
    return True


def _time_bytes(text: np.ndarray) -> np.ndarray:
    """Which of the uint8 bytes ``text`` a time's window may hold: a digit, one of ".eE+-", or the space of its pad, which no trace holds."""
    holds = (text - ord("0")) < 10  # below "0" wraps round to 10 or more
    for char in b" .eE+-":
        holds |= text == char
    return holds


def _walk_lines(text: str) -> NoReturn:
    """Raise at the first bad line of the trace ``text``, with its number and reason.

    A text with no bad line, which _parse_columns accepts, ends in
    AssertionError.
    """
    last_time = 0.0
    for line_no, raw in enumerate(io.StringIO(text, newline=""), start=1):
        line = raw[:-1] if raw.endswith("\n") else raw
        if line_no == 1:
            if line != TRACE_HEADER:
                # A file that is not a trace may be one long line: repeat at most 40 characters.
                got = repr(line) if len(line) <= 40 else f"{len(line)} characters starting {line[:40]!r}"
                raise TraceFormatError(line_no, f"expected header {TRACE_HEADER!r}, got {got}")
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise TraceFormatError(line_no, f"expected 3 comma-separated fields, got {len(parts)}")
        robot_field, barcode, time_field = parts
        # ASCII digits only: int() would also take "1_0", " 1" or full-width digits.
        if not (robot_field.isascii() and robot_field.isdigit()):
            sign, unsigned = robot_field[:1], robot_field[1:]
            if sign in ("-", "+") and unsigned.isascii() and unsigned.isdigit():
                if sign == "-" and unsigned.strip("0"):
                    raise TraceFormatError(line_no, f"robot_id {robot_field} is negative")
                raise TraceFormatError(line_no, f"robot_id {robot_field!r} has a sign")
            raise TraceFormatError(line_no, f"robot_id {robot_field!r} is not an integer")
        if len(robot_field) > _ROBOT_DIGITS:
            raise TraceFormatError(line_no, f"robot_id of {len(robot_field)} digits is too long")
        try:
            validate_barcode(barcode)
        except ValidationError as exc:
            raise TraceFormatError(line_no, str(exc)) from None
        # float() would also take "1_0", " 5", "5\r" or full-width digits.
        if not time_field.isascii() or "_" in time_field or time_field != time_field.strip():
            raise TraceFormatError(line_no, f"issued_at_ms {time_field!r} is not a plain ASCII number")
        if len(time_field) > _TIME_WIDTH:
            raise TraceFormatError(line_no, f"issued_at_ms of {len(time_field)} bytes is too long")
        try:
            issued_at = float(time_field)
        except ValueError:
            raise TraceFormatError(line_no, f"issued_at_ms {time_field!r} is not a number") from None
        if not isfinite(issued_at) or issued_at < 0:
            raise TraceFormatError(line_no, f"issued_at_ms {time_field} is not a finite non-negative time")
        if time_field[:1] in ("+", "-"):
            raise TraceFormatError(line_no, f"issued_at_ms {time_field!r} has a sign")
        if issued_at < last_time:
            raise TraceFormatError(line_no, f"issued_at_ms decreased ({issued_at!r} after {last_time!r})")
        last_time = issued_at
    raise AssertionError("every line passed the walk but not the bulk parse")


def write_trace(trace: Trace, path: str) -> None:
    with open(path, "w", encoding=TRACE_ENCODING, newline="") as fh:
        save_trace(trace, fh)


def read_trace(path: str) -> Tuple[Trace, str]:
    """The trace in the file at ``path`` and the SHA-256 hex of its bytes, which are read once."""
    with open(path, "rb") as fh:
        data = fh.read()
    return parse_trace_bytes(data), hashlib.sha256(data).hexdigest()
