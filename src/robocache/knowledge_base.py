"""Station-side barcode database and its fixed-width record file.

Record line layout (ASCII, newline terminated, 56 characters):

    cols  1-14  barcode, 14 decimal digits
    cols 15-24  shipper number, left justified, space padded
    cols 25-28  service type
    cols 29-36  destination terminal
    cols 37-56  delivery exceptions (all spaces means none)

Two subfields are read straight from the barcode: digits 1-4 are the
location code and digits 7-14 the destination code.

The database holds each record as its validated line, keyed by barcode:
``ingest`` checks the whole input at once and walks it line by line only
to name the first bad line, ``get`` parses a line into a ``BarcodeRecord``
on demand, and ``export`` writes the lines back in one piece. A cached
miss in the simulator caches the record line, the form in which the
station sends the record.

The database is read-only after ingest and safe to share across
concurrent simulation runs. Lookup cost is modeled as an indexed
search: ceil(log2(N)) probes over N records, never less than one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, TextIO

from .cache import validate_barcode
from .errors import ConfigError, DuplicateKeyError, IngestError, ValidationError

BARCODE_WIDTH = 14
SHIPPER_WIDTH = 10
SERVICE_WIDTH = 4
TERMINAL_WIDTH = 8
EXCEPTIONS_WIDTH = 20
LINE_WIDTH = BARCODE_WIDTH + SHIPPER_WIDTH + SERVICE_WIDTH + TERMINAL_WIDTH + EXCEPTIONS_WIDTH


@dataclass(frozen=True)
class BarcodeRecord:
    barcode: str
    shipper_number: str
    service_type: str
    destination_terminal: str
    delivery_exceptions: str

    @property
    def location(self) -> str:
        return self.barcode[0:4]

    @property
    def destination(self) -> str:
        return self.barcode[6:14]

    @classmethod
    def build(
        cls,
        barcode: str,
        shipper_number: str,
        service_type: str,
        destination_terminal: str,
        delivery_exceptions: str = "",
    ) -> "BarcodeRecord":
        """Create a record, checking the barcode and every field width."""
        validate_barcode(barcode)
        for name, value, width in (
            ("shipper_number", shipper_number, SHIPPER_WIDTH),
            ("service_type", service_type, SERVICE_WIDTH),
            ("destination_terminal", destination_terminal, TERMINAL_WIDTH),
            ("delivery_exceptions", delivery_exceptions, EXCEPTIONS_WIDTH),
        ):
            if len(value) > width:
                raise ConfigError(f"{name} {value!r} exceeds field width {width}")
        return cls(
            barcode=barcode,
            shipper_number=shipper_number,
            service_type=service_type,
            destination_terminal=destination_terminal,
            delivery_exceptions=delivery_exceptions,
        )

    def to_line(self) -> str:
        """Render the fixed-width line (without the trailing newline)."""
        return format_record_line(
            self.barcode,
            self.shipper_number,
            self.service_type,
            self.destination_terminal,
            self.delivery_exceptions,
        )


def format_record_line(
    barcode: str,
    shipper_number: str,
    service_type: str,
    destination_terminal: str,
    delivery_exceptions: str,
) -> str:
    """Pad the fields into one fixed-width line (without the trailing newline).

    No field is checked: ``ingest`` or ``KnowledgeBase.add`` refuses a
    line that does not parse back.
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


def parse_record_line(line: str, line_no: int = 1) -> BarcodeRecord:
    """Parse one fixed-width line (newline already stripped).

    The line must be ASCII; with the length check and ``validate_barcode``
    that covers everything ``BarcodeRecord.build`` would re-check, so the
    record is built directly.
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
    offset = BARCODE_WIDTH
    shipper = line[offset : offset + SHIPPER_WIDTH].rstrip(" ")
    offset += SHIPPER_WIDTH
    service = line[offset : offset + SERVICE_WIDTH].rstrip(" ")
    offset += SERVICE_WIDTH
    terminal = line[offset : offset + TERMINAL_WIDTH].rstrip(" ")
    offset += TERMINAL_WIDTH
    exceptions = line[offset : offset + EXCEPTIONS_WIDTH].rstrip(" ")
    return BarcodeRecord(barcode, shipper, service, terminal, exceptions)


class KnowledgeBase:
    """All record lines, keyed by barcode, in ingest order."""

    def __init__(self) -> None:
        self._lines: dict[str, str] = {}

    @property
    def size(self) -> int:
        return len(self._lines)

    def __len__(self) -> int:
        return len(self._lines)

    def __contains__(self, barcode: str) -> bool:
        return barcode in self._lines

    def add(self, record: BarcodeRecord) -> None:
        """Store ``record`` as its fixed-width line.

        A record that its line cannot hold exactly (a bad barcode, a
        non-ASCII character, a field wider than its column or ending in a
        space) is refused with ValidationError, so the knowledge base never
        holds what ``save_kb`` could not write back.
        """
        line = record.to_line()
        try:
            exact = parse_record_line(line) == record
        except IngestError as exc:
            raise ValidationError(f"record {record.barcode!r} has no valid line: {exc.reason}") from None
        if not exact:
            raise ValidationError(f"record {record.barcode!r} does not fit its fixed-width line {line!r}")
        if record.barcode in self._lines:
            raise DuplicateKeyError(f"duplicate barcode {record.barcode}")
        self._lines[record.barcode] = line

    def get(self, barcode: str) -> Optional[BarcodeRecord]:
        line = self._lines.get(barcode)
        return None if line is None else parse_record_line(line)

    def record_line(self, barcode: str) -> Optional[str]:
        """The stored fixed-width line of ``barcode``, without parsing it."""
        return self._lines.get(barcode)

    def records(self) -> Iterator[BarcodeRecord]:
        return map(parse_record_line, self._lines.values())

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
            barcode = parse_record_line(line, line_no).barcode
            if barcode in seen:
                raise IngestError(line_no, f"duplicate barcode {barcode}")
            seen.add(barcode)
    kb = KnowledgeBase()
    kb._lines = by_barcode
    return kb


def load_kb(path: str) -> KnowledgeBase:
    # A byte that is not ASCII decodes to a lone surrogate, which
    # parse_record_line rejects with its line number.
    with open(path, "r", encoding="ascii", errors="surrogateescape", newline="") as fh:
        return ingest(fh)


def save_kb(kb: KnowledgeBase, path: str) -> None:
    with open(path, "w", encoding="ascii", newline="") as fh:
        kb.export(fh)
