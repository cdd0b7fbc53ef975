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
column offsets from them. The database holds each record as its
validated line, keyed by barcode: ``ingest`` checks the whole input at
once and walks it line by line only to name the first bad line,
``record_line`` returns one line, and ``export`` writes the lines back
in one piece. No field is ever parsed back out of a line: a cached miss
in the simulator caches the record line, the form in which the station
sends the record.

The database is read-only after ingest and safe to share across
concurrent simulation runs. Lookup cost is modeled as an indexed
search: ceil(log2(N)) probes over N records, never less than one.
"""

from __future__ import annotations

from typing import Iterable, Optional, TextIO

from .cache import validate_barcode
from .errors import ConfigError, IngestError, ValidationError

BARCODE_WIDTH = 14
SHIPPER_WIDTH = 10
SERVICE_WIDTH = 4
TERMINAL_WIDTH = 8
EXCEPTIONS_WIDTH = 20
LINE_WIDTH = BARCODE_WIDTH + SHIPPER_WIDTH + SERVICE_WIDTH + TERMINAL_WIDTH + EXCEPTIONS_WIDTH


def format_record_line(
    barcode: str,
    shipper_number: str,
    service_type: str,
    destination_terminal: str,
    delivery_exceptions: str,
) -> str:
    """Pad the fields into one fixed-width line (without the trailing newline).

    No field is checked: ``ingest`` refuses the line if a field overflows
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
    """All record lines, keyed by barcode, in ingest order."""

    def __init__(self) -> None:
        self._lines: dict[str, str] = {}

    def __len__(self) -> int:
        return len(self._lines)

    def __contains__(self, barcode: str) -> bool:
        return barcode in self._lines

    def record_line(self, barcode: str) -> Optional[str]:
        """The stored fixed-width line of ``barcode``, or None if it has no record."""
        return self._lines.get(barcode)

    def export(self, stream: TextIO) -> None:
        """Write all records in ingest order; exact inverse of ingest."""
        if self._lines:
            stream.write("\n".join(self._lines.values()))
            stream.write("\n")


def ingest(source: Iterable[str]) -> KnowledgeBase:
    """Build a knowledge base from fixed-width record lines.

    ``source`` yields lines with or without their trailing "\n" (an open
    text file does). Each line must match the layout documented at module
    top. The input is checked as a whole; only when a check fails is it
    walked line by line, so the error carries the 1-based number and the
    reason of the first bad line.
    """
    lines = [raw[:-1] if raw.endswith("\n") else raw for raw in source]
    barcodes = [line[0:BARCODE_WIDTH] for line in lines]
    by_barcode = dict(zip(barcodes, lines))
    if not (
        set(map(len, lines)) == {LINE_WIDTH}
        and all(map(str.isascii, lines))
        and "".join(barcodes).isdigit()
        and len(by_barcode) == len(lines)
    ):
        # Some line is bad (or there are none): the first bad line raises
        # with its number and reason.
        seen: set[str] = set()
        for line_no, line in enumerate(lines, start=1):
            barcode = _check_line(line, line_no)
            if barcode in seen:
                raise IngestError(line_no, f"duplicate barcode {barcode}")
            seen.add(barcode)
    kb = KnowledgeBase()
    kb._lines = by_barcode
    return kb


def load_kb(path: str) -> KnowledgeBase:
    # A byte that is not ASCII decodes to a lone surrogate, which
    # ingest rejects with its line number.
    with open(path, "r", encoding="ascii", errors="surrogateescape", newline="") as fh:
        return ingest(fh)


def save_kb(kb: KnowledgeBase, path: str) -> None:
    with open(path, "w", encoding="ascii", newline="") as fh:
        kb.export(fh)
