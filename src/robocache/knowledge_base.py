"""Station-side barcode database and its fixed-width record file.

Record line layout (ASCII, newline terminated, 56 characters):

    cols  1-14  barcode, 14 decimal digits
    cols 15-24  shipper number, left justified, space padded
    cols 25-28  service type
    cols 29-36  destination terminal
    cols 37-56  delivery exceptions (all spaces means none)

The column widths are the ``*_WIDTH`` constants below.
``format_record_line`` pads fields into them, and the synthetic
knowledge base of a workload (``cli.build_kb_for_workload``) takes its
column offsets from them. The database holds its record file's bytes,
as they were read or built, plus a sorted int64 index of the barcodes
(every 14-digit barcode fits in an int64). ``ingest_bytes`` is the one
parser of a record file, which ``load_kb`` feeds a file's bytes: it
checks the whole buffer in place, through a numpy view of it, and
decodes and walks it line by line only to name the first bad line.
``require_keys`` checks that each of a batch of barcodes, given as their
int64 keys (``cache.barcode_keys``), has a record, as the simulator does
once per run with the distinct keys of its ``Trace``. ``save_kb`` writes
the bytes back in one piece, and ``export`` writes them to a text stream
as text. No line is ever looked up or parsed back into fields: the
simulator needs only to know that a record exists, and a robot caches
the barcode alone.

The database is read-only after ingest and safe to share across
concurrent simulation runs. Search cost is modeled as an indexed
search: ceil(log2(N)) probes over N records, never less than one.
"""

from __future__ import annotations

import io
from typing import NoReturn, Optional, TextIO, Union

import numpy as np

from .cache import BARCODE_WIDTH, barcode_text, digit_keys, validate_barcode
from .errors import ConfigError, IngestError, MissingRecordError, ValidationError

SHIPPER_WIDTH = 10
SERVICE_WIDTH = 4
TERMINAL_WIDTH = 8
EXCEPTIONS_WIDTH = 20
LINE_WIDTH = BARCODE_WIDTH + SHIPPER_WIDTH + SERVICE_WIDTH + TERMINAL_WIDTH + EXCEPTIONS_WIDTH
# A line and its "\n": the stride of a record in the file.
RECORD_WIDTH = LINE_WIDTH + 1

# A record file's bytes: bytes as read, or the bytearray a build filled.
RecordData = Union[bytes, bytearray]


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
    """All record lines as the bytes of their file, in ingest order, indexed by barcode."""

    def __init__(self, data: RecordData, keys: np.ndarray) -> None:
        # ``data`` holds whole ASCII records, each line with its "\n";
        # ``keys`` is the barcode of each, in file order.
        self._data = data
        self._sorted_keys = np.sort(keys)

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

    def export(self, stream: TextIO) -> None:
        """Write all records in ingest order as text; ``ingest_bytes`` of its ASCII encoding gives them back."""
        stream.write(self._data.decode("ascii"))


def _rows(data: RecordData) -> np.ndarray:
    """The records of ``data`` as a uint8 array viewing its bytes, one row each."""
    return np.frombuffer(data, np.uint8).reshape(-1, RECORD_WIDTH)


def _from_bytes(data: RecordData) -> Optional[KnowledgeBase]:
    """The knowledge base of ``data`` if the whole buffer passes at once, else None.

    Accepts exactly the text that _walk passes to its end, with the same
    lines: whole records, each a line of LINE_WIDTH bytes and its "\n" (so no
    "\n" inside a line), no "\r" (a file reader also ends a line there),
    ASCII only, 14 digits in every barcode column and no barcode twice.
    The checks read ``data`` in place and copy no record.
    """
    records, rest = divmod(len(data), RECORD_WIDTH)
    if rest or data.count(b"\n") != records or b"\r" in data or not data.isascii():
        return None
    rows = _rows(data)
    keys = digit_keys(rows[:, :BARCODE_WIDTH])
    if keys is None or not (rows[:, LINE_WIDTH] == ord("\n")).all():
        return None
    kb = KnowledgeBase(data, keys)
    # Sorted, a barcode given twice sits beside itself.
    return None if (kb._sorted_keys[1:] == kb._sorted_keys[:-1]).any() else kb


def _walk(text: str) -> NoReturn:
    """Raise at the first bad line of ``text``, with its number and reason.

    Lines end where a file opened with ``newline=""`` ends them, at a
    lone "\r" too, and a line that keeps a "\r" is refused. A text with
    no bad line, which _from_bytes accepts, ends in AssertionError.
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
    """Build a knowledge base from the bytes of a record file, which it keeps.

    Each line must match the layout documented at module top; the last
    may omit its "\n". Lines end where a file opened with ``newline=""``
    ends them, at a lone "\r" too, and no line may hold a "\r", so what
    ``save_kb`` writes always loads again. The bytes are checked as a
    whole; only when a check fails are they decoded (a byte that is not
    ASCII as a lone surrogate) and walked line by line, so the error
    carries the 1-based number and the reason of the first bad line.
    """
    if data and not data.endswith(b"\n"):
        data = data + b"\n"
    kb = _from_bytes(data)
    if kb is None:
        _walk(data.decode("ascii", "surrogateescape"))
    return kb


def load_kb(path: str) -> KnowledgeBase:
    with open(path, "rb") as fh:
        return ingest_bytes(fh.read())


def save_kb(kb: KnowledgeBase, path: str) -> None:
    with open(path, "wb") as fh:
        fh.write(kb._data)
