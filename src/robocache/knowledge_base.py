"""Station-side barcode database and its fixed-width record file.

Record line layout (ASCII, newline terminated, 56 characters):

    cols  1-14  barcode, 14 decimal digits
    cols 15-24  shipper number, left justified, space padded
    cols 25-28  service type
    cols 29-36  destination terminal
    cols 37-56  delivery exceptions (all spaces means none)

Two subfields are read straight from the barcode: digits 1-4 are the
location code and digits 7-14 the destination code.

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
        return (
            self.barcode
            + self.shipper_number.ljust(SHIPPER_WIDTH)
            + self.service_type.ljust(SERVICE_WIDTH)
            + self.destination_terminal.ljust(TERMINAL_WIDTH)
            + self.delivery_exceptions.ljust(EXCEPTIONS_WIDTH)
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
    """All barcode records, keyed by barcode, in ingest order."""

    def __init__(self) -> None:
        self._records: dict[str, BarcodeRecord] = {}

    @property
    def size(self) -> int:
        return len(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, barcode: str) -> bool:
        return barcode in self._records

    def add(self, record: BarcodeRecord) -> None:
        if record.barcode in self._records:
            raise DuplicateKeyError(f"duplicate barcode {record.barcode}")
        self._records[record.barcode] = record

    def get(self, barcode: str) -> Optional[BarcodeRecord]:
        return self._records.get(barcode)

    def records(self) -> Iterator[BarcodeRecord]:
        return iter(self._records.values())

    def export(self, stream: TextIO) -> None:
        """Write all records in ingest order; exact inverse of ingest."""
        for record in self._records.values():
            stream.write(record.to_line())
            stream.write("\n")


def ingest(source: Iterable[str]) -> KnowledgeBase:
    """Build a knowledge base from an iterable of fixed-width lines.

    ``source`` may be an open text file. Each line must match the layout
    documented at module top; errors carry the 1-based line number.
    """
    kb = KnowledgeBase()
    for line_no, raw in enumerate(source, start=1):
        line = raw[:-1] if raw.endswith("\n") else raw
        try:
            kb.add(parse_record_line(line, line_no))
        except DuplicateKeyError as exc:
            raise IngestError(line_no, str(exc)) from None
    return kb


def load_kb(path: str) -> KnowledgeBase:
    # A byte that is not ASCII decodes to a lone surrogate, which
    # parse_record_line rejects with its line number.
    with open(path, "r", encoding="ascii", errors="surrogateescape", newline="") as fh:
        return ingest(fh)


def save_kb(kb: KnowledgeBase, path: str) -> None:
    with open(path, "w", encoding="ascii", newline="") as fh:
        kb.export(fh)
