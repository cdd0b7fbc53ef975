import hashlib
import io
import json
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import robocache.knowledge_base
from robocache.cache import barcode_keys
from robocache.errors import ConfigError, IngestError, MissingRecordError
from robocache.knowledge_base import (
    BARCODE_WIDTH,
    LINE_WIDTH,
    RECORD_WIDTH,
    build_kb_for_workload,
    format_record_line,
    index_probe_cost,
    ingest_bytes,
    load_kb,
    write_kb_for_workload,
)

import reference
from helpers import make_kb, traced_peak
from reference import reference_ingest, reference_load_kb, synth_record_line

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def make_line(barcode, shipper="SHIP00001", service="GRND", terminal="TERM0001", exceptions=""):
    return barcode + shipper.ljust(10) + service.ljust(4) + terminal.ljust(8) + exceptions.ljust(20)


def keys_of(kb):
    """The barcode keys a knowledge base holds, ascending."""
    return kb._sorted_keys.tolist()


def keys_of_text(text):
    """The barcode key of each line of a record text, ascending."""
    return sorted(int(line[:BARCODE_WIDTH]) for line in text.split("\n")[:-1])


def written_kb(records):
    """The record file that generate writes for ``records`` ranks, as bytes."""
    out = io.BytesIO()
    write_kb_for_workload(records, out)
    return out.getvalue()


def test_empty_input_builds_an_empty_knowledge_base():
    kb = ingest_bytes(b"")
    assert len(kb) == 0


def test_fixture_file_matches_hand_written_expected_table():
    path = os.path.join(FIXTURES, "kb_10.dat")
    with open(os.path.join(FIXTURES, "kb_10_expected.json")) as fh:
        expected = json.load(fh)
    with open(path, "rb") as fh:
        assert fh.read() == "".join(format_record_line(**row) + "\n" for row in expected).encode("ascii")
    kb, _ = load_kb(path)
    assert len(kb) == len(expected) == 10
    assert keys_of(kb) == sorted(int(row["barcode"]) for row in expected)


def test_load_kb_returns_the_sha256_of_the_file_it_read():
    path = os.path.join(FIXTURES, "kb_10.dat")
    with open(path, "rb") as fh:
        data = fh.read()
    kb, digest = load_kb(path)
    assert digest == hashlib.sha256(data).hexdigest()
    assert keys_of(kb) == keys_of(ingest_bytes(data))


def test_short_line_is_rejected_with_its_line_number():
    with pytest.raises(IngestError) as exc_info:
        ingest_bytes((make_line("12345678901234") + "\n" + "too short\n").encode("ascii"))
    assert exc_info.value.line_no == 2
    assert "56" in exc_info.value.reason


@pytest.mark.parametrize(
    "barcode,reason",
    [
        ("1234567890123x", "barcode field '1234567890123x' is not 14 decimal digits"),
        # Digits that str.isdigit() accepts are 3 (full-width) or 2 (Arabic-Indic)
        # UTF-8 bytes each, so the line is too long.
        ("１２３４５６７８９０１２３４", "expected 56 characters, got 84"),
        ("١٢٣٤٥٦٧٨٩٠١٢٣٤", "expected 56 characters, got 70"),
        ("1234567 901234", "barcode field '1234567 901234' is not 14 decimal digits"),
    ],
)
def test_non_numeric_barcode_is_rejected(barcode, reason):
    with pytest.raises(IngestError) as exc_info:
        ingest_bytes((make_line("12345678901234") + "\n" + make_line(barcode) + "\n").encode("utf-8"))
    assert (exc_info.value.line_no, exc_info.value.reason) == (2, reason)


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
        ingest_bytes((dup + "\n" + dup + "\n").encode("ascii"))
    assert exc_info.value.line_no == 2
    assert "12345678901234" in str(exc_info.value)


def test_index_probe_cost_of_an_empty_knowledge_base_is_a_config_error():
    kb = ingest_bytes(b"")
    with pytest.raises(ConfigError):
        index_probe_cost(len(kb))


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


LINES_1_2 = make_line("12345678901234") + "\n" + make_line("12345678901235") + "\n"
LINE_4 = make_line("12345678901237") + "\n"
TOO_LONG = "expected 56 characters, got 57"
CR_IN_LINE = 'carriage return in the line; a record line ends in "\\n" only'
READERS = ["load_kb", "ingest_bytes"]
FAULTS = {
    # name: (bad line 3 with its line end, reason)
    "short": ("too short\n", "expected 56 characters, got 9"),
    "long": (make_line("12345678901236") + "X\n", TOO_LONG),
    "crlf": (make_line("12345678901236") + "\r\n", TOO_LONG),
    # 55 characters and "\r\n" are as long as a good line and its "\n".
    "crlf_55": (make_line("12345678901236")[:-1] + "\r\n", CR_IN_LINE),
    "empty": ("\n", "expected 56 characters, got 0"),
    "barcode": (make_line("1234567890123x") + "\n", "barcode field '1234567890123x' is not 14 decimal digits"),
    # The readers take the two UTF-8 bytes of "é" as two characters.
    "non_ascii_shipper": (make_line("12345678901236", shipper="SHIPé") + "\n", TOO_LONG),
    "duplicate_of_line_1": (make_line("12345678901234") + "\n", "duplicate barcode 12345678901234"),
    # Lines 2 and 3 alike leave the keys ascending, but not strictly.
    "duplicate_of_line_2": (make_line("12345678901235") + "\n", "duplicate barcode 12345678901235"),
    # The length of two good lines, with a "\n" where a field character was ...
    "newline_in_a_field": (
        make_line("12345678901236")[:30] + "\n" + make_line("12345678901236")[31:] + "\n",
        "expected 56 characters, got 30",
    ),
    # ... or a line one short, then one a digit long: the barcode columns still hold digits.
    "newline_one_early": (
        make_line("12345678901236")[:-1] + "\n" + "1" + make_line("12345678901238") + "\n",
        "expected 56 characters, got 55",
    ),
    # Both readers also end a line at a lone "\r", as a file opened with newline="" does.
    "lone_cr": (make_line("12345678901236", shipper="SHIP\r0001") + "\n", "expected 56 characters, got 19"),
}


def good_file_with(line_3):
    return LINES_1_2 + line_3 + LINE_4


def read_via(reader, text, tmp_path):
    if reader == "ingest_bytes":
        return ingest_bytes(text.encode("utf-8"))
    path = tmp_path / "kb.dat"
    path.write_bytes(text.encode("utf-8"))
    return load_kb(str(path))[0]


@pytest.mark.parametrize("reader", READERS)
@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_a_bad_line_3_is_rejected_with_the_same_line_number_and_reason(fault, reader, tmp_path):
    bad, reason = FAULTS[fault]
    text = good_file_with(bad)
    with pytest.raises(IngestError) as exc_info:
        read_via(reader, text, tmp_path)
    assert (exc_info.value.line_no, exc_info.value.reason) == (3, reason)


@pytest.mark.parametrize("reader", ["load_kb", "ingest_bytes"])
def test_an_undecodable_byte_on_line_3_is_rejected_by_the_byte_readers(reader, tmp_path):
    bad = make_line("12345678901236", shipper="SHIP\xff").encode("latin-1") + b"\n"
    data = LINES_1_2.encode("ascii") + bad + LINE_4.encode("ascii")
    path = tmp_path / "kb.dat"
    path.write_bytes(data)
    with pytest.raises(IngestError) as exc_info:
        load_kb(str(path)) if reader == "load_kb" else ingest_bytes(data)
    assert exc_info.value.line_no == 3
    assert exc_info.value.reason == "non-ASCII character in '12345678901236SHIP\\udcff     GRNDTERM0001                    '"


@pytest.mark.parametrize(
    "line_3,line_5,reason",
    [
        (make_line("1234567890123x"), "short", "barcode field '1234567890123x' is not 14 decimal digits"),
        (make_line("12345678901234"), make_line("12345678901239", shipper="SHIPé"), "duplicate barcode 12345678901234"),
        ("short", make_line("12345678901235"), "expected 56 characters, got 5"),
    ],
)
def test_a_file_with_two_faults_reports_the_earlier_one(line_3, line_5, reason):
    text = good_file_with(line_3 + "\n") + line_5 + "\n"
    with pytest.raises(IngestError) as exc_info:
        ingest_bytes(text.encode("utf-8"))
    assert (exc_info.value.line_no, exc_info.value.reason) == (3, reason)


@pytest.mark.parametrize("ending", ["\n", ""])
def test_a_final_line_without_a_newline_still_loads(ending, tmp_path):
    path = tmp_path / "kb.dat"
    path.write_text(LINES_1_2 + LINE_4[:-1] + ending)
    assert keys_of(load_kb(str(path))[0]) == keys_of_text(LINES_1_2 + LINE_4)


def test_require_keys_accepts_every_record_and_names_the_first_missing():
    barcodes = ["12345678901234", "00000000000001", "99999999999999", "50000000000000"]
    kb = ingest_bytes("".join(make_line(barcode) + "\n" for barcode in barcodes).encode("ascii"))
    kb.require_keys(barcode_keys(barcodes))
    kb.require_keys(barcode_keys(barcodes[::-1]))
    kb.require_keys(barcode_keys([]))
    # Sorted, the missing barcodes come in the reverse of their given order.
    with pytest.raises(MissingRecordError) as exc_info:
        kb.require_keys(barcode_keys(["12345678901234", "99999999999998", "50000000000001", "00000000000000"]))
    assert exc_info.value.barcode == "99999999999998"
    with pytest.raises(MissingRecordError):
        ingest_bytes(b"").require_keys(barcode_keys(["12345678901234"]))


def test_a_knowledge_base_is_the_sorted_index_of_its_barcodes():
    barcodes = ["12345678901234", "12345678901235", "98765432109876", "10000000000000"]
    kb = make_kb(barcodes)
    assert keys_of(kb) == sorted(map(int, barcodes))
    kb.require_keys(barcode_keys(barcodes))
    with pytest.raises(MissingRecordError) as exc_info:
        kb.require_keys(barcode_keys(["99999999999999"]))
    assert exc_info.value.barcode == "99999999999999"


def ingest_row_2(**fields):
    """Ingest a good line 1 and a line 2 formatted from ``fields``."""
    row = dict(
        barcode="12345678901235",
        shipper_number="SHIP00001",
        service_type="GRND",
        destination_terminal="TERM0001",
        delivery_exceptions="",
    )
    row.update(fields)
    line = format_record_line(**row)
    with pytest.raises(IngestError) as exc_info:
        ingest_bytes((make_line("12345678901234") + "\n" + line + "\n").encode("utf-8", "surrogateescape"))
    assert exc_info.value.line_no == 2
    return line, exc_info.value.reason


@pytest.mark.parametrize(
    "barcode,reason",
    [
        ("1234567890123", "expected 56 characters, got 55"),
        ("1234567890123x", "barcode field '1234567890123x' is not 14 decimal digits"),
        # Full-width digits, which str.isdigit() accepts, are 3 UTF-8 bytes each.
        ("１２３４５６７８９０１２３４", "expected 56 characters, got 84"),
        # The "\n" ends line 2 after the barcode.
        ("10000000000000\n", "expected 56 characters, got 14"),
    ],
)
def test_ingest_rejects_a_row_with_a_malformed_barcode(barcode, reason):
    assert ingest_row_2(barcode=barcode)[1] == reason


@pytest.mark.parametrize(
    "fields",
    [
        dict(shipper_number="SHIP0000100"),
        dict(service_type="GRN", destination_terminal="TERM00012"),
        dict(delivery_exceptions="FRAGILE" * 3),
    ],
)
def test_ingest_refuses_a_row_with_a_field_wider_than_its_column(fields):
    assert ingest_row_2(**fields)[1] == "expected 56 characters, got 57"


def test_ingest_refuses_a_row_with_a_non_ascii_field():
    # "\udce9" is how the walk decodes the one byte 0xE9.
    line, reason = ingest_row_2(shipper_number="SHIP\udce9")
    assert reason == f"non-ASCII character in {line!r}"


# Record counts on both sides of each field period: 4 service types, the
# exception every 13th rank, their 52-rank cycle, the 10,000 values of the
# last four digits, whose carry moves the digits above them, and the 100,000
# shipper numbers; 4,095 to 4,097 and 8,193 end partway through a run of
# 10,000 ranks.
@pytest.mark.parametrize(
    "records",
    [0, 1, 4, 13, 14, 52, 53, 100, 101, 1300, 1301, 4095, 4096, 4097, 8193, 10000, 10001, 99999, 100000, 100001],
)
def test_synthesized_knowledge_base_matches_the_per_rank_lines(records):
    data = written_kb(records)
    assert data.decode("ascii") == "".join(synth_record_line(rank) + "\n" for rank in range(records))
    # The build knows its keys without a parse: they are the keys the written file parses to.
    assert np.array_equal(build_kb_for_workload(records)._sorted_keys, ingest_bytes(data)._sorted_keys)


def test_the_build_carries_into_every_digit_group_of_the_barcode(monkeypatch):
    # A real build changes barcode digits 1-6 only past 10**8 ranks; from
    # this first barcode, rank 10,000 carries into every digit above the last four.
    first = 19_999_999_990_000
    for module in (robocache.knowledge_base, reference):
        monkeypatch.setattr(module, "barcode_for_rank", lambda rank: str(first + rank))
    lines = written_kb(20_001).decode("ascii").splitlines()
    assert lines == [synth_record_line(rank) for rank in range(20_001)]
    assert lines[10_000].startswith("20000000000000SHIP10000 ")


# Five good lines: the smallest and largest barcodes, two neighbours, and
# fields that are not all spaces.
FUZZ_LINES = [
    make_line("00000000000001"),
    make_line("12345678901234", exceptions="FRAGILE"),
    make_line("99999999999999", shipper="SHIP99999", service="AIR1"),
    make_line("12345678901235", terminal="T1234035D"),
    make_line("50000000000000", exceptions="HOLD FOR INSPECTION"),
]
FUZZ_BASE = "".join(line + "\n" for line in FUZZ_LINES)
# What each inserted or replacing character tests: line structure, the CR
# a file reader also ends a line at, a non-digit, a non-ASCII character, the
# surrogate an undecodable byte decodes to, a non-ASCII digit and valid characters.
FUZZ_CHARS = ["\n", "\r", "\r\n", "x", "é", "\udcff", "５", "0", "9", " "]

FUZZ_EDITS = [
    "insert",
    "delete",
    "replace",
    "replace-in-fields",
    "crlf-55",
    "duplicate",
    "swap",
    "drop-final-newline",
    "empty",
]


@st.composite
def mutated_kb_texts(draw):
    text = FUZZ_BASE
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(FUZZ_EDITS))
        # Half the edits land at a line end or in a barcode column.
        targets = [at for at, char in enumerate(text) if char == "\n" or at % (LINE_WIDTH + 1) < 14]
        at = draw(st.sampled_from(targets) | st.integers(0, len(text)) if targets else st.integers(0, len(text)))
        rows = text.split("\n")
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
        if kind == "insert":
            text = text[:at] + draw(st.sampled_from(FUZZ_CHARS)) + text[at:]
        elif kind == "delete":
            text = text[:at] + text[at + 1 :]
        elif kind == "replace":
            text = text[:at] + draw(st.sampled_from(FUZZ_CHARS)) + text[at + 1 :]
        elif kind == "replace-in-fields":
            column = draw(st.integers(14, LINE_WIDTH - 1))
            rows[i] = rows[i][:column] + draw(st.sampled_from(FUZZ_CHARS)) + rows[i][column + 1 :]
            text = "\n".join(rows)
        elif kind == "crlf-55":
            # 55 characters and "\r\n": as long as a good line with its "\n".
            rows[i] = rows[i][: LINE_WIDTH - 1] + "\r"
            text = "\n".join(rows)
        elif kind == "duplicate":
            rows.insert(j, rows[i])
            text = "\n".join(rows)
        elif kind == "swap":
            rows[i], rows[j] = rows[j], rows[i]
            text = "\n".join(rows)
        elif kind == "drop-final-newline":
            text = text.removesuffix("\n")
        else:
            text = ""
    return text


def load_kb_index(path):
    """load_kb of ``path``, checked to hash the bytes it read, without its digest."""
    kb, digest = load_kb(path)
    with open(path, "rb") as fh:
        assert digest == hashlib.sha256(fh.read()).hexdigest()
    return kb


def ingest_outcome(read, source):
    """The keys of a knowledge base read by ``read(source)``, or the (line, reason) it raises."""
    try:
        kb = read(source)
    except IngestError as exc:
        return exc.line_no, exc.reason
    return keys_of(kb)


def reference_outcome(read, source, text):
    """What the line walk gives for ``text`` read by ``read(source)``, with a "\r" in a line refused.

    The verbatim walk keeps a "\r" that ends a line of the right length
    (55 characters and "\r\n"), which the readers refuse at the first
    such line it passes before any line it refuses. A text it passes
    gives the keys of its lines.
    """
    try:
        outcome = read(source)
    except IngestError as exc:
        outcome = exc.line_no, exc.reason
    lines = [raw.removesuffix("\n") for raw in io.StringIO(text, newline="")]
    passed = len(lines) if isinstance(outcome, str) else outcome[0] - 1
    for line_no, line in enumerate(lines[:passed], start=1):
        if "\r" in line:
            return line_no, CR_IN_LINE
    return keys_of_text(outcome) if isinstance(outcome, str) else outcome


@settings(derandomize=True, max_examples=500, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=mutated_kb_texts())
def test_ingesting_a_mutated_record_text_matches_the_line_walk(text, tmp_path):
    data = text.encode("utf-8", "surrogateescape")
    path = tmp_path / "kb.dat"
    path.write_bytes(data)
    with open(path, encoding="ascii", errors="surrogateescape", newline="") as fh:
        file_text = fh.read()
    loaded = reference_outcome(reference_load_kb, str(path), file_text)
    assert ingest_outcome(load_kb_index, str(path)) == loaded
    assert ingest_outcome(ingest_bytes, data) == ingest_outcome(ingest_bytes, bytearray(data)) == loaded
    # Blocks of two records put a block edge inside most of the texts.
    with mock.patch.object(robocache.knowledge_base, "_BLOCK_BYTES", 2 * RECORD_WIDTH):
        assert ingest_outcome(load_kb_index, str(path)) == ingest_outcome(ingest_bytes, data) == loaded
    if text.isascii():
        # The bytes of an ASCII text decode to the text itself.
        assert loaded == reference_outcome(reference_ingest, io.StringIO(text, newline=""), text)


def walk_refused(lines):
    raise AssertionError("a valid record text fell back to the line walk")


# One record; both sides of the 52-rank field period; both sides of a
# block and of the writer's 10,000-rank run, which are the same size; two
# whole blocks.
@pytest.mark.parametrize("records", [1, 52, 53, 9_999, 10_000, 10_001, 20_000])
def test_a_written_knowledge_base_file_loads_without_the_line_walk(records, monkeypatch, tmp_path):
    monkeypatch.setattr(robocache.knowledge_base, "_walk", walk_refused)
    path = tmp_path / "kb.dat"
    with open(path, "wb") as fh:
        write_kb_for_workload(records, fh)
    kb, digest = load_kb(str(path))
    assert keys_of(kb) == keys_of(build_kb_for_workload(records)) == keys_of_text(path.read_text(encoding="ascii"))
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()


def test_a_final_line_without_a_newline_loads_without_the_line_walk(monkeypatch, tmp_path):
    monkeypatch.setattr(robocache.knowledge_base, "_walk", walk_refused)
    data = (LINES_1_2 + LINE_4[:-1]).encode("ascii")
    path = tmp_path / "kb.dat"
    path.write_bytes(data)
    buffer = bytearray(data)
    for kb in (ingest_bytes(data), ingest_bytes(buffer), load_kb(str(path))[0]):
        assert keys_of(kb) == keys_of_text(LINES_1_2 + LINE_4)
    assert buffer == data  # the "\n" goes on a copy, not on the caller's buffer


@pytest.mark.parametrize("text", ["", LINES_1_2 + LINE_4], ids=["empty", "three-records"])
def test_the_line_walk_of_a_good_record_text_ends_in_an_assertion(text):
    # The walk only names the bad line of a text that the bulk check refused.
    with pytest.raises(AssertionError, match="bulk check"):
        robocache.knowledge_base._walk(text)


# A file of three blocks and five records: the second block holds lines
# 10,001 to 20,000.
BLOCK_EDGE_RECORDS = 20_005


@pytest.fixture(scope="module")
def block_edge_data():
    return written_kb(BLOCK_EDGE_RECORDS)


def line_at(line_no):
    """The byte offset of 1-based line ``line_no`` in a file of whole records."""
    return (line_no - 1) * RECORD_WIDTH


@pytest.mark.parametrize("reader", READERS)
@pytest.mark.parametrize(
    "line_no,fault,reason",
    [
        (10_003, "short", "expected 56 characters, got 9"),
        # A "\n" for the 25th character keeps the line length and the "\n"
        # column: only the block's "\n" count differs. Line 20,004 is in the
        # last, short block.
        (10_003, "newline_in_a_field", "expected 56 characters, got 24"),
        (20_004, "newline_in_a_field", "expected 56 characters, got 24"),
    ],
)
def test_a_bad_line_in_a_later_block_is_named_by_its_file_line_number(reader, line_no, fault, reason, block_edge_data, tmp_path):
    at = line_at(line_no)
    good = block_edge_data[at : at + RECORD_WIDTH]
    bad = b"too short\n" if fault == "short" else good[:24] + b"\n" + good[25:]
    text = (block_edge_data[:at] + bad + block_edge_data[at + RECORD_WIDTH :]).decode("ascii")
    with pytest.raises(IngestError) as exc_info:
        read_via(reader, text, tmp_path)
    assert (exc_info.value.line_no, exc_info.value.reason) == (line_no, reason)


@pytest.mark.parametrize("reader", READERS)
@pytest.mark.parametrize(
    "first_line,second_line",
    [
        # Line 10,002, in the second block, takes the barcode of line 5, in the first.
        (5, 10_002),
        # Neighbours across the block edge: the keys stay ascending, but not strictly.
        (10_000, 10_001),
        # The first line and the last, in the last block.
        (1, BLOCK_EDGE_RECORDS),
    ],
)
def test_a_barcode_in_two_blocks_is_a_duplicate(reader, first_line, second_line, block_edge_data, tmp_path):
    first, second = line_at(first_line), line_at(second_line)
    data = bytearray(block_edge_data)
    data[second : second + BARCODE_WIDTH] = data[first : first + BARCODE_WIDTH]
    with pytest.raises(IngestError) as exc_info:
        read_via(reader, data.decode("ascii"), tmp_path)
    barcode = data[first : first + BARCODE_WIDTH].decode("ascii")
    assert (exc_info.value.line_no, exc_info.value.reason) == (second_line, f"duplicate barcode {barcode}")


def reordered(data, order):
    """The records of ``data``, a file of whole records, in ``order``: descending or shuffled."""
    rows = np.frombuffer(data, np.uint8).reshape(-1, RECORD_WIDTH)
    at = np.arange(len(rows))[::-1] if order == "descending" else np.random.default_rng(7).permutation(len(rows))
    return rows[at].tobytes()


@pytest.mark.parametrize("reader", READERS)
@pytest.mark.parametrize("order", ["descending", "shuffled"])
def test_a_file_out_of_barcode_order_loads_to_the_sorted_index(reader, order, monkeypatch, block_edge_data, tmp_path):
    monkeypatch.setattr(robocache.knowledge_base, "_walk", walk_refused)
    kb = read_via(reader, reordered(block_edge_data, order).decode("ascii"), tmp_path)
    assert keys_of(kb) == keys_of(build_kb_for_workload(BLOCK_EDGE_RECORDS))


# Blocks of 3 records fill the read buffer 6,668 times before the last block, of 1.
@pytest.mark.parametrize("block_records", [robocache.knowledge_base._BLOCK_RECORDS, 3])
def test_a_file_that_ends_partway_through_a_block_without_a_newline_loads(block_records, monkeypatch, block_edge_data, tmp_path):
    monkeypatch.setattr(robocache.knowledge_base, "_walk", walk_refused)
    monkeypatch.setattr(robocache.knowledge_base, "_BLOCK_BYTES", block_records * RECORD_WIDTH)
    path = tmp_path / "kb.dat"
    path.write_bytes(block_edge_data[:-1])
    kb, digest = load_kb(str(path))
    assert keys_of(kb) == keys_of(ingest_bytes(block_edge_data[:-1])) == keys_of(build_kb_for_workload(BLOCK_EDGE_RECORDS))
    assert digest == hashlib.sha256(block_edge_data[:-1]).hexdigest()


def test_a_loaded_index_shares_no_memory_with_the_read_buffer(monkeypatch, block_edge_data, tmp_path):
    monkeypatch.setattr(robocache.knowledge_base, "_BLOCK_BYTES", 1_000 * RECORD_WIDTH)
    blocks = []
    block_keys = robocache.knowledge_base._block_keys

    def spy(block, mask):
        blocks.append(block)
        return block_keys(block, mask)

    monkeypatch.setattr(robocache.knowledge_base, "_block_keys", spy)
    first, second = tmp_path / "first.dat", tmp_path / "second.dat"
    first.write_bytes(block_edge_data)
    second.write_bytes(reordered(block_edge_data, "descending"))
    kb = load_kb(str(first))[0]
    assert len(blocks) == 21
    # Every block but the last, short one is read into one buffer ...
    assert len({id(block) for block in blocks[:-1]}) == 1
    # ... which the index does not alias, so later reads leave it as it is.
    for block in blocks:
        assert not np.shares_memory(kb._sorted_keys, np.frombuffer(block, np.uint8))
    expected = ingest_bytes(block_edge_data)._sorted_keys
    assert np.array_equal(kb._sorted_keys, expected)
    load_kb(str(second))
    assert np.array_equal(kb._sorted_keys, expected)


def test_an_empty_file_loads_as_an_empty_knowledge_base(monkeypatch, tmp_path):
    monkeypatch.setattr(robocache.knowledge_base, "_walk", walk_refused)
    path = tmp_path / "kb.dat"
    path.write_bytes(b"")
    kb, digest = load_kb(str(path))
    assert len(kb) == 0
    assert digest == hashlib.sha256(b"").hexdigest()


def test_the_digest_of_a_file_of_several_blocks_is_its_sha256(block_edge_data, tmp_path):
    path = tmp_path / "kb.dat"
    path.write_bytes(block_edge_data)
    assert load_kb(str(path))[1] == hashlib.sha256(block_edge_data).hexdigest()


MEMORY_RECORDS = 200_000


def write_large_kb(path):
    with open(path, "wb") as fh:
        write_kb_for_workload(MEMORY_RECORDS, fh)


@pytest.fixture(scope="module")
def large_kb_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("kb") / "kb.dat"
    write_large_kb(path)
    return str(path)


# What generate and run do with the knowledge-base file: write it a block at
# a time, and read, check and hash it a block at a time.
@pytest.mark.parametrize("step", ["build_kb_for_workload", "write_kb_for_workload", "load_kb"])
def test_building_writing_or_reading_a_knowledge_base_holds_a_fraction_of_its_file(step, large_kb_file, tmp_path):
    call = {
        "build_kb_for_workload": lambda: build_kb_for_workload(MEMORY_RECORDS),
        "write_kb_for_workload": lambda: write_large_kb(tmp_path / "kb.dat"),
        "load_kb": lambda: load_kb(large_kb_file),
    }[step]
    ratio = traced_peak(call) / os.path.getsize(large_kb_file)
    assert ratio <= 0.4, f"{step} peaked at {ratio:.2f}x the file size"
