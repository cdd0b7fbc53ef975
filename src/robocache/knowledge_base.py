"""Station-side barcode database and its fixed-width record file.

Record line layout (ASCII, newline terminated, 56 characters):

    cols  1-14  barcode, 14 decimal digits
    cols 15-24  shipper number, left justified, space padded
    cols 25-28  service type
    cols 29-36  destination terminal
    cols 37-56  delivery exceptions (all spaces means none)

The column widths are the ``*_WIDTH`` constants below.
``format_record_line`` pads fields into them, and
``write_kb_for_workload``, which writes the synthetic record file of a
workload, takes from them the offsets of the column views through which
it writes each digit field; ``build_kb_for_workload`` is the database of
that file, built without writing or reading it.

The database is a sorted int64 index of its file's barcodes (every
14-digit barcode fits in an int64) and holds no record text. ``load_kb``
and ``ingest_bytes`` share one read loop, ``_read_kb``, over a binary
stream: a record file, or a buffer of one through ``io.BytesIO``. It
reads _BLOCK_RECORDS records at a time into one buffer reused for every
block, hashes each block and checks it in place, through a numpy view of
it (its "\n" bytes counted into one mask reused for every block), and
keeps only its keys. The keys of a file in barcode order, as every
generated file is, pass one test of strict ascent, which also proves
that no barcode appears twice; only the keys of another file are sorted
and scanned for a duplicate. A file is decoded and walked line by line
only to name its first bad line. ``require_keys`` checks that each of a
batch of barcodes, given as their int64 keys (``cache.barcode_keys``),
has a record, as the simulator does once per run with the distinct keys
of its ``Trace``. No line is ever looked up or parsed back into fields:
the simulator needs only to know that a record exists, and a robot
caches the barcode alone.

The database is read-only after ingest and safe to share across
concurrent simulation runs. Search cost is modeled as an indexed
search: ceil(log2(N)) probes over N records, never less than one.
"""

from __future__ import annotations

import hashlib
import io
import os
from typing import BinaryIO, NoReturn, Optional

import numpy as np

from .cache import BARCODE_WIDTH, barcode_text, count_newlines, digit_keys, validate_barcode
from .errors import ConfigError, IngestError, MissingRecordError, SimulationError, ValidationError
from .workload import barcode_for_rank

SHIPPER_WIDTH = 10
SERVICE_WIDTH = 4
TERMINAL_WIDTH = 8
EXCEPTIONS_WIDTH = 20
LINE_WIDTH = BARCODE_WIDTH + SHIPPER_WIDTH + SERVICE_WIDTH + TERMINAL_WIDTH + EXCEPTIONS_WIDTH
# A line and its "\n": the stride of a record in the file.
RECORD_WIDTH = LINE_WIDTH + 1

# Records per read of a record file.
_BLOCK_RECORDS = 10_000
_BLOCK_BYTES = _BLOCK_RECORDS * RECORD_WIDTH

_SERVICE_TYPES = ("GRND", "EXPR", "AIR1", "FRGT")
# Rank r's service type is _SERVICE_TYPES[r % 4] and it is held for
# inspection when r % 13 == 0, so every field but the digits repeats every
# 52 ranks.
_FIELD_PERIOD = 52
# barcode_for_rank(r) is the digits of barcode_for_rank(0) + r, and
# barcode_for_rank(0), 10**13, is a multiple of 10,000; the shipper digits
# are those of r % 100000. So over each run of 10,000 ranks from a
# multiple of 10,000 the last four digits of both count 0000 to 9999 and
# every other digit stays the same.
_DIGIT_PERIOD = 10000


def format_record_line(
    barcode: str,
    shipper_number: str,
    service_type: str,
    destination_terminal: str,
    delivery_exceptions: str,
) -> str:
    """Pad the fields into one fixed-width line (without the trailing newline).

    No field is checked: ``ingest_bytes`` refuses the line if a field overflows
    its column (the line is then longer than ``LINE_WIDTH``), the barcode
    is malformed or a character is not ASCII.
    """
    return (
        barcode
        + shipper_number.ljust(SHIPPER_WIDTH)
        + service_type.ljust(SERVICE_WIDTH)
        + destination_terminal.ljust(TERMINAL_WIDTH)
        + delivery_exceptions.ljust(EXCEPTIONS_WIDTH)
    )


def write_kb_for_workload(unique_barcodes: int, stream: BinaryIO) -> None:
    """Write the record file of the workload's knowledge base: one record per rank, in rank order.

    Rank r has barcode_for_rank(r), shipper SHIP + r % 100000 in five
    digits, service type _SERVICE_TYPES[r % 4], terminal T + barcode
    digits 1-4 and 13-14 + D, and the exception HOLD FOR INSPECTION when
    r % 13 == 0; every line ends in "\n".

    The records are written _DIGIT_PERIOD at a time from one buffer that
    each run of ranks refills in place. A run first copies the formatted
    lines of its ranks modulo 52, with zero digits, from a tile that
    repeats the 52 of them: the run of ranks from ``start`` takes the
    tile's rows from ``start % 52``. Then it writes each digit field
    through a column view of the buffer, one item per record: the four
    digits that count through a run come from one table of the texts
    "0000" to "9999", and each other field is one text for the whole run.
    No array per rank is made.
    """
    if not unique_barcodes:
        return  # an empty file; no column view fits in an empty buffer
    shipper_digits = BARCODE_WIDTH + len("SHIP")
    terminal_digits = BARCODE_WIDTH + SHIPPER_WIDTH + SERVICE_WIDTH + len("T")
    templates = "".join(
        format_record_line(
            "0" * BARCODE_WIDTH,
            "SHIP00000",
            _SERVICE_TYPES[rank % len(_SERVICE_TYPES)],
            "T000000D",
            "HOLD FOR INSPECTION" if rank % 13 == 0 else "",
        )
        + "\n"
        for rank in range(_FIELD_PERIOD)
    )
    template_rows = np.frombuffer(templates.encode("ascii"), np.uint8).reshape(_FIELD_PERIOD, -1)
    # Row i of the tile is the template of rank i % 52, for the longest
    # run from any of the 52 offsets.
    run_length = min(unique_barcodes, _DIGIT_PERIOD)
    tile = np.resize(template_rows, (run_length + _FIELD_PERIOD - 1, RECORD_WIDTH))
    # The texts "0000" to "9999", each indexed by its value, as many as a
    # run holds: the indices of a 10x10x10x10 grid, in order, are the four
    # digits of each value from 0 to 9999.
    digits = np.indices((10, 10, 10, 10), np.uint8).reshape(4, -1).T[:run_length] + ord("0")
    quads = np.ascontiguousarray(digits).view("S4")[:, 0]
    block = bytearray(run_length * RECORD_WIDTH)
    records = np.frombuffer(block, np.uint8).reshape(-1, RECORD_WIDTH)

    def column(offset: int, width: int) -> np.ndarray:
        """The ``width`` bytes from ``offset`` of every record of the buffer, one item per record."""
        return np.ndarray(run_length, f"S{width}", block, offset, (RECORD_WIDTH,))

    # The digit fields of a record, named by their first digit: barcode
    # digits 1-10, 11-14 and 13-14, shipper digit 1 and digits 2-5, and the
    # terminal's copies of barcode digits 1-4 and 13-14.
    barcode_1, barcode_11, barcode_13 = column(0, 10), column(10, 4), column(12, 2)
    shipper_1, shipper_2 = column(shipper_digits, 1), column(shipper_digits + 1, 4)
    terminal_1, terminal_13 = column(terminal_digits, 4), column(terminal_digits + 4, 2)
    for start in range(0, unique_barcodes, _DIGIT_PERIOD):
        count = min(_DIGIT_PERIOD, unique_barcodes - start)
        offset = start % _FIELD_PERIOD
        records[:count] = tile[offset : offset + count]
        # Barcode digits 1-10, the same for every rank in the run.
        high = barcode_for_rank(start)[:10].encode("ascii")
        barcode_1[:count] = high
        barcode_11[:count] = quads[:count]
        shipper_1[:count] = b"%d" % (start // _DIGIT_PERIOD % 10)
        shipper_2[:count] = quads[:count]
        terminal_1[:count] = high[:4]
        terminal_13[:count] = barcode_13[:count]
        stream.write(memoryview(block)[: count * RECORD_WIDTH])


def build_kb_for_workload(unique_barcodes: int) -> KnowledgeBase:
    """The knowledge base of the record file that write_kb_for_workload writes."""
    # Rank r's barcode is rank 0's plus r, so the keys need no parse of the records.
    return KnowledgeBase(int(barcode_for_rank(0)) + np.arange(unique_barcodes, dtype=np.int64))


def index_probe_cost(record_count: int) -> int:
    """Comparisons charged for one indexed search over ``record_count`` records."""
    if record_count < 1:
        raise ConfigError("knowledge base is empty; nothing to resolve against")
    return max(1, (record_count - 1).bit_length())


def _check_line(line: str, line_no: int) -> str:
    """The barcode of one fixed-width line (newline already stripped).

    Raises IngestError with ``line_no`` and the reason the line is bad.
    """
    if len(line) != LINE_WIDTH:
        raise IngestError(line_no, f"expected {LINE_WIDTH} characters, got {len(line)}")
    barcode = line[0:BARCODE_WIDTH]
    try:
        validate_barcode(barcode)
    except ValidationError:
        raise IngestError(line_no, f"barcode field {barcode!r} is not 14 decimal digits") from None
    if not line.isascii():
        raise IngestError(line_no, f"non-ASCII character in {line!r}")
    return barcode


class KnowledgeBase:
    """The sorted int64 index of a record file's barcodes, one key per record."""

    def __init__(self, sorted_keys: np.ndarray) -> None:
        # The int64 barcode of every record, ascending, each once.
        self._sorted_keys = sorted_keys

    def __len__(self) -> int:
        return len(self._sorted_keys)

    def require_keys(self, keys: np.ndarray) -> None:
        """Raise MissingRecordError naming the first of ``keys``, in the given order, without a record.

        The keys are barcodes as their int64 values (``cache.barcode_keys``);
        the error names the key by its barcode text (``cache.barcode_text``).
        """
        # Searched in ascending order, neighbouring queries share their path.
        by_key = np.argsort(keys)
        at = np.empty_like(by_key)
        at[by_key] = np.searchsorted(self._sorted_keys, keys[by_key])
        found = at < len(self)
        found[found] = self._sorted_keys[at[found]] == keys[found]
        if not found.all():
            raise MissingRecordError(barcode_text(int(keys[found.argmin()])))


def _block_keys(block: bytearray, mask: np.ndarray) -> Optional[np.ndarray]:
    """The barcode key of each record of ``block``, in order, or None if a check fails.

    Passes whole records only: lines of LINE_WIDTH bytes, each with its
    "\n" (so no "\n" inside a line), no "\r" (a file reader also ends a
    line there), ASCII only and 14 digits in every barcode column. The
    checks read ``block`` in place and copy no record; the "\n" bytes are
    counted through ``mask`` (``count_newlines``).
    """
    records, rest = divmod(len(block), RECORD_WIDTH)
    if rest or b"\r" in block or not block.isascii():
        return None
    flat = np.frombuffer(block, np.uint8)
    rows = flat.reshape(records, RECORD_WIDTH)
    if count_newlines(flat, mask) != records or not (rows[:, LINE_WIDTH] == ord("\n")).all():
        return None
    return digit_keys(rows[:, :BARCODE_WIDTH])


def _read_kb(fh: BinaryIO, size: int) -> tuple[KnowledgeBase, str]:
    """The knowledge base of the ``size`` bytes of record file ``fh`` and their SHA-256 hex.

    The bytes are read in order, at most _BLOCK_RECORDS records per read,
    into one buffer reused for every block, and each block is hashed and
    checked by _block_keys as it comes, before the next is read; no read
    holds the whole file. The last line may omit its "\n". Accepts exactly
    the text that _walk passes to its end: the blocks start at whole
    records, so the file passes block by block just when it passes whole,
    and no barcode may appear twice in it. Only when a check fails is the
    file read again whole, from its start, and walked line by line to name
    its first bad line.

    A file that ends before ``size`` bytes, as one cut short since its
    size was taken does, raises SimulationError naming the file.
    """
    digest = hashlib.sha256()
    # The read buffer comes before the index: allocated the other way round,
    # these blocks leave the heap so that the later replay of a run faults
    # in about 100 more fresh pages (120 minor faults against 23 on a
    # 20,000-record file), and its scans per second drop by about 5%.
    buffer = bytearray(min(size, _BLOCK_BYTES))
    keys = np.empty(-(-size // RECORD_WIDTH), np.int64)
    mask = np.empty(len(buffer), bool)
    for start in range(0, size, _BLOCK_BYTES):
        want = min(_BLOCK_BYTES, size - start)
        got = fh.readinto(memoryview(buffer)[:want])
        if got < want:
            # Only a file gets here: a buffer's stream holds all its ``size`` bytes.
            raise SimulationError(f"{fh.name}: read {start + got} of {size} bytes; the file was cut short while it was read")
        # Only the last block is shorter than the buffer; it is copied out.
        block = buffer if want == len(buffer) else buffer[:want]
        digest.update(block)
        if start + want == size and not block.endswith(b"\n"):
            block = block + b"\n"
        block_keys = _block_keys(block, mask)
        if block_keys is None:
            break
        first = start // RECORD_WIDTH
        keys[first : first + len(block_keys)] = block_keys
    else:
        # Strictly ascending keys, as every generated file holds, are sorted
        # and hold no barcode twice; only other files are sorted here, and,
        # sorted, a barcode given twice sits beside itself.
        ascending = (keys[1:] > keys[:-1]).all()
        if not ascending:
            keys.sort()
        if ascending or not (keys[1:] == keys[:-1]).any():
            return KnowledgeBase(keys), digest.hexdigest()
    fh.seek(0)
    _walk(fh.read().decode("ascii", "surrogateescape"))


def _walk(text: str) -> NoReturn:
    """Raise at the first bad line of ``text``, with its number and reason.

    Lines end where a file opened with ``newline=""`` ends them, at a
    lone "\r" too, and a line that keeps a "\r" is refused. A text with
    no bad line, which _read_kb accepts, ends in AssertionError.
    """
    seen: set[str] = set()
    for line_no, raw in enumerate(io.StringIO(text, newline=""), start=1):
        line = raw[:-1] if raw.endswith("\n") else raw
        barcode = _check_line(line, line_no)
        if barcode in seen:
            raise IngestError(line_no, f"duplicate barcode {barcode}")
        if "\r" in line:
            # A line of 55 characters and "\r\n" has the right length.
            raise IngestError(line_no, 'carriage return in the line; a record line ends in "\\n" only')
        seen.add(barcode)
    raise AssertionError("every line passed the walk but not the bulk check")


def ingest_bytes(data: bytes) -> KnowledgeBase:
    """Build the knowledge base of the bytes of a record file, given as bytes or a bytearray.

    Each line must match the layout documented at module top; the last
    may omit its "\n". Lines end where a file opened with ``newline=""``
    ends them, at a lone "\r" too, and no line may hold a "\r". The bytes
    are read through ``_read_kb``, as ``load_kb`` reads a file; only when a
    check fails are they decoded (a byte that is not ASCII as a lone
    surrogate) and walked line by line, so the error carries the 1-based
    number and the reason of the first bad line.
    """
    return _read_kb(io.BytesIO(data), len(data))[0]


def load_kb(path: str) -> tuple[KnowledgeBase, str]:
    """The knowledge base of the record file at ``path`` and the SHA-256 hex of its bytes.

    The file is read once, a block at a time, and checked as
    ``ingest_bytes`` checks a buffer (``_read_kb``); only when a check fails
    is it read again whole, to name the first bad line.
    """
    with open(path, "rb") as fh:
        return _read_kb(fh, os.fstat(fh.fileno()).st_size)
