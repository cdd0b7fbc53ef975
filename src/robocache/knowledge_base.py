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
workload, takes its column offsets from them; ``build_kb_for_workload``
is the database of that file, built without writing or reading it.

The database is a sorted int64 index of its file's barcodes (every
14-digit barcode fits in an int64) and holds no record text. ``load_kb``
reads a record file _BLOCK_RECORDS records at a time, into one buffer
reused for every block, and ``ingest_bytes`` checks a buffer of one in
slices of the same size: each block is checked in place, through a
numpy view of it (its "\n" bytes counted into one mask reused for every
block), and only its keys are kept. The keys of a file in barcode order,
as every generated file is, pass one test of strict ascent, which also
proves that no barcode appears twice; only the keys of another file are
sorted and scanned for a duplicate. A file is decoded and walked line by
line only to name its first bad line. ``require_keys`` checks that each
of a batch of barcodes, given as their int64 keys
(``cache.barcode_keys``), has a record, as the simulator does once per
run with the distinct keys of its ``Trace``. No line is ever looked up
or parsed back into fields: the simulator needs only to know that a
record exists, and a robot caches the barcode alone.

The database is read-only after ingest and safe to share across
concurrent simulation runs. Search cost is modeled as an indexed
search: ceil(log2(N)) probes over N records, never less than one.
"""

from __future__ import annotations

import hashlib
import io
import os
from typing import BinaryIO, Callable, NoReturn, Optional, Union

import numpy as np

from .cache import BARCODE_WIDTH, barcode_text, count_newlines, digit_keys, validate_barcode
from .errors import ConfigError, IngestError, MissingRecordError, ValidationError
from .workload import barcode_for_rank

SHIPPER_WIDTH = 10
SERVICE_WIDTH = 4
TERMINAL_WIDTH = 8
EXCEPTIONS_WIDTH = 20
LINE_WIDTH = BARCODE_WIDTH + SHIPPER_WIDTH + SERVICE_WIDTH + TERMINAL_WIDTH + EXCEPTIONS_WIDTH
# A line and its "\n": the stride of a record in the file.
RECORD_WIDTH = LINE_WIDTH + 1

# A record file's bytes, or a buffer that holds them.
RecordData = Union[bytes, bytearray]
# Records per read of a record file, and per slice of a buffer checked.
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
    tile's rows from ``start % 52``. Then a structured view of the buffer
    writes the digit fields from tables of zero-padded digit texts: the
    four-digit groups that count through a run are the "0000" to "9999"
    table itself, and each other field is one table entry for the whole
    run. No array per rank is made.
    """
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
    # The texts "0"-"9", "00"-"99" and "0000"-"9999", each indexed by its value.
    singles = np.frombuffer(b"0123456789", "S1")
    pairs = np.array([b"%02d" % value for value in range(100)], "S2")
    quads = np.empty(_DIGIT_PERIOD, "S4")
    quad_halves = quads.view("S2").reshape(100, 100, 2)
    quad_halves[:, :, 0] = pairs[:, np.newaxis]
    quad_halves[:, :, 1] = pairs
    # A view of the last two digits of each value 0 to 9999.
    low_pairs = quads.view("S2")[1::2]
    # The digit fields of a record, named by their first digit: barcode
    # digits 1-2, 3-6, 7-10 and 11-14, shipper digit 1 and digits 2-5, and
    # the terminal's copies of barcode digits 1-4 and 13-14.
    fields = np.dtype(
        {
            "names": [
                "barcode_1", "barcode_3", "barcode_7", "barcode_11", "shipper_1", "shipper_2", "terminal_1", "terminal_13"
            ],
            "formats": ["S2", "S4", "S4", "S4", "S1", "S4", "S4", "S2"],
            "offsets": [0, 2, 6, 10, shipper_digits, shipper_digits + 1, terminal_digits, terminal_digits + 4],
            "itemsize": RECORD_WIDTH,
        }
    )
    first_barcode = int(barcode_for_rank(0))
    block = bytearray(run_length * RECORD_WIDTH)
    records = np.frombuffer(block, np.uint8).reshape(-1, RECORD_WIDTH)
    digits = np.frombuffer(block, fields)
    for start in range(0, unique_barcodes, _DIGIT_PERIOD):
        count = min(_DIGIT_PERIOD, unique_barcodes - start)
        offset = start % _FIELD_PERIOD
        records[:count] = tile[offset : offset + count]
        run = digits[:count]
        # Barcode digits 1-10 of every rank in the run, as one number.
        high = (first_barcode + start) // _DIGIT_PERIOD
        run["barcode_1"] = pairs[high // 10**8]
        run["barcode_3"] = quads[high // 10**4 % 10**4]
        run["barcode_7"] = quads[high % 10**4]
        run["barcode_11"] = quads[:count]
        run["shipper_1"] = singles[start // _DIGIT_PERIOD % 10]
        run["shipper_2"] = quads[:count]
        run["terminal_1"] = quads[high // 10**6]
        run["terminal_13"] = low_pairs[:count]
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


def _block_keys(block: RecordData, mask: np.ndarray) -> Optional[np.ndarray]:
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


def _from_blocks(read: Callable[[int, int], RecordData], size: int) -> Optional[KnowledgeBase]:
    """The knowledge base of a record file of ``size`` bytes, or None if a check fails.

    ``read(start, stop)`` gives the file's bytes from ``start`` to
    ``stop``; they are asked for in order, at most _BLOCK_RECORDS records
    at a time, and each block is checked by _block_keys as it comes,
    before the next is asked for. The last line may omit its "\n".
    Accepts exactly the text that _walk passes to its end: the blocks
    start at whole records, so the file passes block by block just when
    it passes whole, and no barcode may appear twice in it.
    """
    keys = np.empty(-(-size // RECORD_WIDTH), np.int64)
    mask = np.empty(min(size, _BLOCK_BYTES), bool)
    for start in range(0, size, _BLOCK_BYTES):
        stop = min(start + _BLOCK_BYTES, size)
        block = read(start, stop)
        if stop == size and not block.endswith(b"\n"):
            block = block + b"\n"  # a new buffer, never the caller's
        block_keys = _block_keys(block, mask)
        if block_keys is None:
            return None
        first = start // RECORD_WIDTH
        keys[first : first + len(block_keys)] = block_keys
    # Strictly ascending keys, as every generated file holds, are sorted
    # and hold no barcode twice; only other files are sorted here.
    if not (keys[1:] > keys[:-1]).all():
        keys.sort()
        # Sorted, a barcode given twice sits beside itself.
        if (keys[1:] == keys[:-1]).any():
            return None
    return KnowledgeBase(keys)


def _walk(text: str) -> NoReturn:
    """Raise at the first bad line of ``text``, with its number and reason.

    Lines end where a file opened with ``newline=""`` ends them, at a
    lone "\r" too, and a line that keeps a "\r" is refused. A text with
    no bad line, which _from_blocks accepts, ends in AssertionError.
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


def ingest_bytes(data: RecordData) -> KnowledgeBase:
    """Build the knowledge base of the bytes of a record file.

    Each line must match the layout documented at module top; the last
    may omit its "\n". Lines end where a file opened with ``newline=""``
    ends them, at a lone "\r" too, and no line may hold a "\r". The bytes
    are checked a block of records at a time, as ``load_kb`` checks a
    file; only when a check fails are they decoded (a byte that is not
    ASCII as a lone surrogate) and walked line by line, so the error
    carries the 1-based number and the reason of the first bad line.
    """
    kb = _from_blocks(lambda start, stop: data[start:stop], len(data))
    if kb is None:
        _walk(data.decode("ascii", "surrogateescape"))
    return kb


def load_kb(path: str) -> tuple[KnowledgeBase, str]:
    """The knowledge base of the record file at ``path`` and the SHA-256 hex of its bytes.

    The file is read once, at most _BLOCK_RECORDS records per read, into
    one buffer reused for every block, and checked as ``ingest_bytes``
    checks a buffer; no read holds the whole file. Only when a check
    fails is the file read again whole, to name the first bad line.
    """
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        buffer = bytearray(min(size, _BLOCK_BYTES))

        def read(start: int, stop: int) -> bytearray:
            got = fh.readinto(memoryview(buffer)[: stop - start])
            # Only the last block is shorter than the buffer; it is copied out.
            block = buffer if got == len(buffer) else buffer[:got]
            digest.update(block)
            return block

        kb = _from_blocks(read, size)
        if kb is None:
            fh.seek(0)
            _walk(fh.read().decode("ascii", "surrogateescape"))
    return kb, digest.hexdigest()
