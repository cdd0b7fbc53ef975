"""Station-side barcode database and its fixed-width record file.

Record line layout (ASCII, newline terminated, 56 characters):

    cols  1-14  barcode, 14 decimal digits
    cols 15-24  shipper number, left justified, space padded
    cols 25-28  service type
    cols 29-36  destination terminal
    cols 37-56  delivery exceptions (all spaces means none)

The column widths are the ``*_WIDTH`` constants below.
``format_record_line`` pads fields into them, and the synthetic record
file of a workload (``cli.write_kb_for_workload``) takes its column
offsets from them. The database is a sorted int64 index of its file's
barcodes (every 14-digit barcode fits in an int64) and holds no record
text. ``load_kb`` reads a record file _BLOCK_RECORDS records at a time,
into one buffer reused for every block, and ``ingest_bytes`` checks a
buffer of one in slices of the same size: each block is checked in
place, through a numpy view of it (its "\n" bytes counted into one mask
reused for every block), and only its keys are kept. The keys of a file
in barcode order, as every generated file is, pass one test of strict
ascent, which also proves that no barcode appears twice; only the keys
of another file are sorted and scanned for a duplicate. A file is
decoded and walked line by line only to name its first bad line.
``require_keys`` checks that each of a batch of barcodes, given as their
int64 keys (``cache.barcode_keys``), has a record, as the simulator does
once per run with the distinct keys of its ``Trace``. No line is ever looked up or parsed back into fields: the
simulator needs only to know that a record exists, and a robot caches
the barcode alone.

The database is read-only after ingest and safe to share across
concurrent simulation runs. Search cost is modeled as an indexed
search: ceil(log2(N)) probes over N records, never less than one.
"""

from __future__ import annotations

import hashlib
import io
import os
from typing import Callable, NoReturn, Optional, Union

import numpy as np

from .cache import BARCODE_WIDTH, barcode_text, count_newlines, digit_keys, validate_barcode
from .errors import ConfigError, IngestError, MissingRecordError, ValidationError

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
