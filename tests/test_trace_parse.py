"""Trace-file parsing: every refused line keeps its exact line number and reason.

Each parity case puts one bad line on line 3, after a good line 2, and
loads the file both from its bytes (``parse_trace_bytes``) and from disk
(``read_trace``); both give the line walk's line number and reason. A
differential fuzz holds both to the walk kept verbatim in
``reference.py``, and tripwires check that a generated trace, every
accepted form of a robot id and a time, an empty file, a header without
its "\n" and a last line without its "\n" load without the walk.
"""

import hashlib
import io
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import robocache.workload
from robocache.config import load_config
from robocache.errors import TraceFormatError
from robocache.presets import desk_scale_path
from robocache.workload import generate, parse_trace_bytes, read_trace, write_trace

from helpers import make_trace, traced_memory
from reference import reference_load_trace

HEADER = "robot_id,barcode,issued_at_ms\n"
LINE_2 = "0,10000000000000,1.0\n"
BAD_KEY = "malformed barcode key {!r}: expected exactly 14 decimal digits"


def on_line_3(line):
    return HEADER + LINE_2 + line + "\n"


def robot_line(field):
    return on_line_3(f"{field},10000000000000,2.0")


def time_line(field):
    return on_line_3(f"0,10000000000000,{field}")


# The one line of a raw run report, given where a trace belongs.
JSON_LINE = '{"method": "baseline", "latencies": [' + "1.5, " * 10_000 + "1.5]}"

# (id, file text, (line, reason))
REFUSED = [
    ("bad-header", "robot,barcode,issued_at_ms\n" + LINE_2,
     (1, "expected header 'robot_id,barcode,issued_at_ms', got 'robot,barcode,issued_at_ms'")),
    # A header of up to 40 characters is repeated whole; a longer one, such as a raw
    # JSON report given as a trace, by its length and first 40 characters.
    ("40-character-header", "x" * 40 + "\n" + LINE_2, (1, f"expected header 'robot_id,barcode,issued_at_ms', got '{'x' * 40}'")),
    ("41-character-header", "x" * 40 + "y\n" + LINE_2,
     (1, f"expected header 'robot_id,barcode,issued_at_ms', got 41 characters starting '{'x' * 40}'")),
    ("json-as-header", JSON_LINE + "\n",
     (1, f"expected header 'robot_id,barcode,issued_at_ms', got 50042 characters starting {JSON_LINE[:40]!r}")),
    ("header-repeated", on_line_3(HEADER[:-1]), (3, "robot_id 'robot_id' is not an integer")),
    ("2-fields", on_line_3("0,10000000000000"), (3, "expected 3 comma-separated fields, got 2")),
    ("4-fields", on_line_3("0,10000000000000,2.0,1"), (3, "expected 3 comma-separated fields, got 4")),
    ("robot-negative", robot_line("-1"), (3, "robot_id -1 is negative")),
    ("robot-minus-zero", robot_line("-0"), (3, "robot_id '-0' has a sign")),
    ("robot-plus", robot_line("+1"), (3, "robot_id '+1' has a sign")),
    ("robot-underscore", robot_line("1_0"), (3, "robot_id '1_0' is not an integer")),
    ("robot-empty", robot_line(""), (3, "robot_id '' is not an integer")),
    ("robot-full-width", robot_line("７"), (3, "robot_id '７' is not an integer")),
    ("robot-space", robot_line(" 1"), (3, "robot_id ' 1' is not an integer")),
    ("robot-nul", robot_line("1\x00"), (3, "robot_id '1\\x00' is not an integer")),
    # Past 18 digits a field's shape is named before its width.
    ("robot-wide-plus", robot_line("+" + "1" * 20), (3, f"robot_id '+{'1' * 20}' has a sign")),
    # More digits than int() converts.
    ("robot-wide-negative", robot_line("-" + "1" * 5000), (3, f"robot_id -{'1' * 5000} is negative")),
    ("robot-19-digits", robot_line("1" * 19), (3, "robot_id of 19 digits is too long")),
    ("robot-zero-padded-to-26", robot_line("12".zfill(26)), (3, "robot_id of 26 digits is too long")),
    ("barcode-letter", on_line_3("0,1000000000000x,2.0"), (3, BAD_KEY.format("1000000000000x"))),
    ("barcode-short", on_line_3("0,123,2.0"), (3, BAD_KEY.format("123"))),
    ("barcode-long", on_line_3("0,100000000000000,2.0"), (3, BAD_KEY.format("100000000000000"))),
    ("barcode-empty", on_line_3("0,,2.0"), (3, BAD_KEY.format(""))),
    ("time-underscore", time_line("1_0"), (3, "issued_at_ms '1_0' is not a plain ASCII number")),
    ("time-spaces", time_line(" 5 "), (3, "issued_at_ms ' 5 ' is not a plain ASCII number")),
    ("time-trailing-space", time_line("5 "), (3, "issued_at_ms '5 ' is not a plain ASCII number")),
    ("time-leading-tab", time_line("\t5"), (3, "issued_at_ms '\\t5' is not a plain ASCII number")),
    ("time-full-width", time_line("５"), (3, "issued_at_ms '５' is not a plain ASCII number")),
    ("time-crlf", time_line("5\r"), (3, "issued_at_ms '5\\r' is not a plain ASCII number")),
    # numpy's S dtype drops trailing NULs, so a NUL-padded read alone would take this one.
    ("time-trailing-nul", time_line("2.0\x00"), (3, "issued_at_ms '2.0\\x00' is not a number")),
    ("time-inner-nul", time_line("2\x000"), (3, "issued_at_ms '2\\x000' is not a number")),
    ("time-wide-space", time_line(" " + "1" * 30), (3, f"issued_at_ms ' {'1' * 30}' is not a plain ASCII number")),
    ("time-25-bytes", time_line("2.5".zfill(25)), (3, "issued_at_ms of 25 bytes is too long")),
    ("time-plus", time_line("+5"), (3, "issued_at_ms '+5' has a sign")),
    ("time-minus-zero", time_line("-0.0"), (3, "issued_at_ms '-0.0' has a sign")),
    ("time-negative", time_line("-5"), (3, "issued_at_ms -5 is not a finite non-negative time")),
    ("time-nan", time_line("nan"), (3, "issued_at_ms nan is not a finite non-negative time")),
    ("time-inf", time_line("inf"), (3, "issued_at_ms inf is not a finite non-negative time")),
    ("time-word", time_line("abc"), (3, "issued_at_ms 'abc' is not a number")),
    ("time-empty", time_line(""), (3, "issued_at_ms '' is not a number")),
    ("time-decreases", time_line("0.5"), (3, "issued_at_ms decreased (0.5 after 1.0)")),
    # A lone "\r" ends a line, as it does in a file opened with newline="".
    ("lone-cr-in-a-field", on_line_3("0,1000000\r0000000,2.0"), (3, "expected 3 comma-separated fields, got 2")),
    ("lone-cr-ends-a-line", on_line_3("0,10000000000000,2.0\r0,10000000000000,3.0"),
     (3, "issued_at_ms '2.0\\r' is not a plain ASCII number")),
    # What read_trace decodes an undecodable byte to: a lone surrogate.
    ("undecodable-byte", on_line_3("0,1000000000000\udcff,2.0"), (3, BAD_KEY.format("1000000000000\udcff"))),
    ("two-faults", on_line_3("x,10000000000000,2.0\n0,10000000000000,-1"), (3, "robot_id 'x' is not an integer")),
    # A flat split of the whole body would read these 4 + 2 or 2 + 4 fields as two good rows.
    ("4-then-2-fields", HEADER + "0,10000000000000,1.0,1\n10000000000001,2.0\n",
     (2, "expected 3 comma-separated fields, got 4")),
    ("2-then-4-fields", HEADER + "0,10000000000000\n1.0,1,10000000000001,2.0\n",
     (2, "expected 3 comma-separated fields, got 2")),
]


@pytest.mark.parametrize(
    "text,expected",
    [pytest.param(text, expected, id=name) for name, text, expected in REFUSED],
)
def test_each_refused_line_keeps_its_line_number_and_reason(text, expected, tmp_path):
    data = text.encode("utf-8", "surrogateescape")
    with pytest.raises(TraceFormatError) as exc_info:
        parse_trace_bytes(data)
    assert (exc_info.value.line_no, exc_info.value.reason) == expected

    path = tmp_path / "trace.csv"
    path.write_bytes(data)
    with pytest.raises(TraceFormatError) as exc_info:
        read_trace(str(path))
    assert (exc_info.value.line_no, exc_info.value.reason) == expected


def test_a_last_line_without_a_newline_still_loads(tmp_path):
    text = HEADER + LINE_2 + "1,10000000000001,2.5"
    expected = make_trace([(0, "10000000000000", 1.0), (1, "10000000000001", 2.5)])
    assert parse_trace_bytes(text.encode("ascii")) == expected
    path = tmp_path / "trace.csv"
    path.write_text(text, encoding="utf-8")
    assert read_trace(str(path))[0] == expected


# Robot ids of one and two digits, repeated barcodes, the time forms
# save_trace writes (a zero, an exponent, an integer-valued float), and a
# robot id (10**18 - 1) and a time (zero-padded) as wide as a trace holds,
# so that one inserted digit makes either too wide.
FUZZ_BASE = (
    HEADER
    + "0,10000000000000,0.0\n"
    + "12,10000000000007,1e-05\n"
    + "3,10000000000000,2.5\n"
    + "0,98765432109876,2.5\n"
    + "7,10000000000007,1000.0\n"
    + "999999999999999999,10000000000003,0000000000000000001000.5\n"
    + "1,10000000000001,1.5e+16\n"
)
# What each inserted character tests: field and line structure, the CR the
# bulk parse refuses, "_" and signs, whitespace, the NUL that pads a time's
# window, non-ASCII digits and letters, the surrogate an undecodable byte
# becomes, and valid characters.
FUZZ_CHARS = [",", "\n", "\r", "_", "+", "-", " ", "\t", "\x00", "５", "é", "\udcff", "0", "9", ".", "e"]


@st.composite
def mutated_traces(draw):
    text = FUZZ_BASE
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["insert", "delete", "swap-rows"]))
        # Half the edits land at a field's edge, where a field check must look.
        edges = [at for at, char in enumerate(text) if char in ",\n"]
        at = draw(st.sampled_from(edges) | st.integers(0, len(text)) if edges else st.integers(0, len(text)))
        if kind == "insert":
            text = text[:at] + draw(st.sampled_from(FUZZ_CHARS)) + text[at:]
        elif kind == "delete":
            text = text[:at] + text[at + 1 :]
        elif kind == "swap-rows":
            rows = text.split("\n")
            i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
            rows[i], rows[j] = rows[j], rows[i]
            text = "\n".join(rows)
    return text


def outcome(load, source):
    """The Trace that ``load(source)`` returns, or the (line, reason) it raises."""
    try:
        return load(source)
    except TraceFormatError as exc:
        return exc.line_no, exc.reason


def assert_loads_as_the_line_walk(text, tmp_path):
    expected = outcome(reference_load_trace, io.StringIO(text, newline=""))
    data = text.encode("utf-8", "surrogateescape")
    assert outcome(parse_trace_bytes, data) == expected
    path = tmp_path / "trace.csv"
    path.write_bytes(data)
    assert outcome(lambda source: read_trace(source)[0], str(path)) == expected


@settings(derandomize=True, max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=mutated_traces())
def test_loading_a_mutated_trace_matches_the_line_walk(text, tmp_path):
    assert_loads_as_the_line_walk(text, tmp_path)


# Blocks of one line (1 and 7) or two (40) put block edges inside the
# fuzzed texts, where the per-block line check must still hold.
SMALL_BLOCKS = [1, 7, 40]


@pytest.mark.parametrize("block_chars", SMALL_BLOCKS)
@settings(derandomize=True, max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=mutated_traces())
def test_a_mutated_trace_in_small_blocks_matches_the_line_walk(block_chars, text, monkeypatch, tmp_path):
    monkeypatch.setattr(robocache.workload, "_BLOCK_CHARS", block_chars)
    assert_loads_as_the_line_walk(text, tmp_path)


@pytest.mark.parametrize("block_chars", SMALL_BLOCKS)
def test_4_then_2_fields_split_across_a_block_edge_are_refused(block_chars, monkeypatch, tmp_path):
    # At each of these sizes a block ends right after the 4-field line, so
    # each block's comma count must be checked against its own lines.
    monkeypatch.setattr(robocache.workload, "_BLOCK_CHARS", block_chars)
    text = HEADER + LINE_2 + "0,10000000000000,1.0,1\n10000000000001,2.0\n"
    assert outcome(parse_trace_bytes, text.encode()) == (3, "expected 3 comma-separated fields, got 4")
    assert_loads_as_the_line_walk(text, tmp_path)


def walk_refused(lines):
    raise AssertionError("a valid trace fell back to the line walk")


def test_a_generated_trace_loads_without_the_line_walk(monkeypatch, tmp_path):
    config = load_config(desk_scale_path())
    trace = generate(replace(config.workload, total_scans=20_000))
    path = tmp_path / "trace.csv"
    write_trace(trace, str(path))

    monkeypatch.setattr(robocache.workload, "_walk_lines", walk_refused)
    assert read_trace(str(path))[0] == trace


# Zero-padded and plain forms of one robot id; ids of 1, 2 and 18 digits,
# the widest (10**18 - 1) among them, and an 18-character zero-padded one;
# and each form of a time that float() reads, in order, a 24-byte
# zero-padded one among them.
ACCEPTED_ROWS = [
    ("007", 7, "1e-05"),
    ("0", 0, "1.5".zfill(24)),
    ("7", 7, "5."),
    ("3", 3, ".5e1"),
    ("12", 12, "100000"),
    (str(10**17 + 3), 10**17 + 3, "1E5"),
    (str(10**18 - 1), 10**18 - 1, "1.5e+16"),
    ("12".zfill(18), 12, "1.5e+16"),
]


@pytest.mark.parametrize("block_chars", [robocache.workload._BLOCK_CHARS] + SMALL_BLOCKS)
def test_every_accepted_field_form_loads_without_the_line_walk(block_chars, monkeypatch):
    monkeypatch.setattr(robocache.workload, "_BLOCK_CHARS", block_chars)
    monkeypatch.setattr(robocache.workload, "_walk_lines", walk_refused)
    text = HEADER + "".join(f"{robot},{10000000000000 + at},{time}\n" for at, (robot, _, time) in enumerate(ACCEPTED_ROWS))
    expected = make_trace(
        (robot_id, str(10000000000000 + at), float(time)) for at, (_, robot_id, time) in enumerate(ACCEPTED_ROWS)
    )
    assert parse_trace_bytes(text.encode()) == expected


@pytest.mark.parametrize(
    "robot,time,reason",
    [
        pytest.param("0".zfill(31), "2000.0", "robot_id of 31 digits is too long", id="31-digit-robot-id"),
        pytest.param("0", "2000.".ljust(100_000, "0"), "issued_at_ms of 100000 bytes is too long", id="100000-byte-time"),
    ],
)
def test_a_block_with_a_wide_field_is_refused_in_bounded_memory(robot, time, reason):
    # One block holds a 31-digit robot id or a 100,000-character time among
    # 4,000 short lines. No window is wider than its bound: one as wide as
    # the widest field would hold 100,000 bytes for every line of the
    # block, thousands of times the file.
    lines = [f"{at % 4},{10000000000000 + at % 50},{float(at)!r}\n" for at in range(4000)]
    # Row 2000 again, with robot 0 and time 2000.0, one of them written wide.
    lines[2000] = f"{robot},10000000000000,{time}\n"
    data = (HEADER + "".join(lines)).encode()
    del lines
    error, _, peak = traced_memory(lambda: outcome(parse_trace_bytes, data))
    assert error == (2002, reason)
    assert peak <= 8 * len(data), f"the parse peaked at {peak / len(data):.2f}x the file's bytes"


def test_parsing_a_trace_peaks_near_the_columns_it_keeps():
    # Block by block, the parse holds beside its columns only one block's
    # field windows and comma and "\n" positions, never a temporary as long as the trace.
    config = load_config(desk_scale_path())
    out = io.StringIO()
    robocache.workload.save_trace(generate(replace(config.workload, total_scans=100_000)), out)
    data = out.getvalue().encode()
    trace, _, peak = traced_memory(lambda: parse_trace_bytes(data))
    columns = trace.robots.nbytes + trace.keys.nbytes + trace.issued_at.nbytes
    assert peak <= 1.5 * columns, f"the parse peaked at {peak / columns:.2f}x its columns"


@pytest.mark.parametrize(
    "data,rows",
    [
        pytest.param(b"", [], id="empty-file"),
        pytest.param(HEADER[:-1].encode(), [], id="header-without-newline"),
        pytest.param((HEADER + LINE_2[:-1]).encode(), [(0, "10000000000000", 1.0)], id="last-line-without-newline"),
    ],
)
def test_a_file_without_its_final_newline_loads_without_the_line_walk(data, rows, monkeypatch, tmp_path):
    monkeypatch.setattr(robocache.workload, "_walk_lines", walk_refused)
    path = tmp_path / "trace.csv"
    path.write_bytes(data)
    trace, digest = read_trace(str(path))
    assert parse_trace_bytes(data) == trace == make_trace(rows)
    # The digest is of the bytes read, not of the copy the parser ends with a "\n".
    assert digest == hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("text", [HEADER, HEADER + LINE_2], ids=["header-only", "one-scan"])
def test_the_line_walk_of_a_good_trace_ends_in_an_assertion(text):
    # The walk only names the bad line of a text that the bulk parse refused.
    with pytest.raises(AssertionError, match="bulk parse"):
        robocache.workload._walk_lines(text)
