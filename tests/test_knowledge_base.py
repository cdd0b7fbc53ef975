import io
import json
import os

import pytest

from robocache.errors import ConfigError, IngestError, ValidationError
from robocache.knowledge_base import (
    BarcodeRecord,
    index_probe_cost,
    ingest,
    load_kb,
    parse_record_line,
)

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def make_line(barcode, shipper="SHIP00001", service="GRND", terminal="TERM0001", exceptions=""):
    return barcode + shipper.ljust(10) + service.ljust(4) + terminal.ljust(8) + exceptions.ljust(20)


def test_location_and_destination_come_from_barcode_positions():
    record = parse_record_line(make_line("12345678901234"))
    assert record.location == "1234"
    assert record.destination == "78901234"


def test_empty_input_builds_an_empty_knowledge_base():
    kb = ingest(io.StringIO(""))
    assert kb.size == 0


def test_fixture_file_matches_hand_written_expected_table():
    kb = load_kb(os.path.join(FIXTURES, "kb_10.dat"))
    with open(os.path.join(FIXTURES, "kb_10_expected.json")) as fh:
        expected = json.load(fh)
    assert kb.size == len(expected) == 10
    for row in expected:
        record = kb.get(row["barcode"])
        assert record is not None
        for field_name, value in row.items():
            assert getattr(record, field_name) == value, (row["barcode"], field_name)


def test_ingest_then_export_round_trip_is_byte_identical():
    path = os.path.join(FIXTURES, "kb_10.dat")
    with open(path, "r", newline="") as fh:
        original = fh.read()
    kb = load_kb(path)
    out = io.StringIO()
    kb.export(out)
    assert out.getvalue() == original


def test_short_line_is_rejected_with_its_line_number():
    source = io.StringIO(make_line("12345678901234") + "\n" + "too short\n")
    with pytest.raises(IngestError) as exc_info:
        ingest(source)
    assert exc_info.value.line_no == 2
    assert "56" in exc_info.value.reason


@pytest.mark.parametrize(
    "barcode",
    [
        "1234567890123x",
        "１２３４５６７８９０１２３４",  # full-width digits: str.isdigit() accepts them
        "١٢٣٤٥٦٧٨٩٠١٢٣٤",  # Arabic-Indic digits: str.isdigit() accepts them
        "1234567 901234",
    ],
)
def test_non_numeric_barcode_is_rejected(barcode):
    with pytest.raises(IngestError) as exc_info:
        ingest(io.StringIO(make_line("12345678901234") + "\n" + make_line(barcode) + "\n"))
    assert exc_info.value.line_no == 2
    assert "not 14 decimal digits" in exc_info.value.reason


@pytest.mark.parametrize("barcode", ["1234567890123", "1234567890123x", "１２３４５６７８９０１２３４", "10000000000000\n"])
def test_build_rejects_a_malformed_barcode(barcode):
    with pytest.raises(ValidationError):
        BarcodeRecord.build(barcode, "SHIP00001", "GRND", "TERM0001")


@pytest.mark.parametrize("field", ["barcode", "shipper"])
def test_non_ascii_byte_in_a_record_file_is_rejected_with_its_line_number(field, tmp_path):
    bad = make_line("1234567890123\xff") if field == "barcode" else make_line("12345678901235", shipper="SHIP\xff")
    path = tmp_path / "kb.dat"
    path.write_bytes((make_line("12345678901234") + "\n" + bad + "\n").encode("latin-1"))
    with pytest.raises(IngestError) as exc_info:
        load_kb(str(path))
    assert exc_info.value.line_no == 2


def test_duplicate_barcode_is_rejected_naming_the_barcode():
    dup = make_line("12345678901234")
    with pytest.raises(IngestError) as exc_info:
        ingest(io.StringIO(dup + "\n" + dup + "\n"))
    assert exc_info.value.line_no == 2
    assert "12345678901234" in str(exc_info.value)


def test_index_probe_cost_of_an_empty_knowledge_base_is_a_config_error():
    kb = ingest(io.StringIO(""))
    with pytest.raises(ConfigError):
        index_probe_cost(kb.size)


@pytest.mark.parametrize(
    "record_count,expected",
    [(1, 1), (2, 1), (3, 2), (1024, 10), (1025, 11), (30_000_000, 25)],
)
def test_index_probe_cost(record_count, expected):
    assert index_probe_cost(record_count) == expected


def test_index_probe_cost_bounds_hold_for_small_sizes():
    import math

    for record_count in range(1, 5000):
        cost = index_probe_cost(record_count)
        assert 1 <= cost <= math.ceil(math.log2(max(record_count, 2)))
