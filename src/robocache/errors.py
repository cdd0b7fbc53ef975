"""Exception types shared across the package."""


class SimulationError(Exception):
    """Base class for every error this package raises deliberately."""


class ValidationError(SimulationError):
    """A value violates a structural precondition (bad key, bad field)."""


class ConfigError(SimulationError):
    """A configuration value, or a combination of values, is invalid."""


class LineError(SimulationError):
    """An input file line is malformed; carries its 1-based number and the reason."""

    def __init__(self, line_no: int, reason: str):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason


class IngestError(LineError):
    """A record file line could not be parsed."""


class TraceFormatError(LineError):
    """A trace file line is malformed or breaks trace ordering."""


class MissingRecordError(SimulationError):
    """A scanned barcode has no record in the knowledge base."""

    def __init__(self, barcode: str):
        super().__init__(f"barcode {barcode} has no knowledge-base record")
        self.barcode = barcode
