"""Trace-file parsing: every refused line keeps its exact line number and reason.

Each parity case puts one bad line on line 3, after a good line 2, or on
line 2, and loads the file both from its bytes (``parse_trace_bytes``)
and from disk (``read_trace``); both give the same line number and
reason. A differential fuzz holds both to the independent line walk in
``reference.py``, and a generated trace, every accepted form of a robot
id and a time, an empty file, a header without its "\n" and a last line
without its "\n" load to the expected trace. Any finite float64 time
with its sign bit clear survives a save and a parse bit for bit.
"""

import hashlib
import io
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import robocache.workload
from robocache.config import load_config
from robocache.errors import TraceFormatError
from robocache.presets import desk_scale_path
from robocache.workload import Trace, generate, parse_trace_bytes, read_trace, save_trace, write_trace

from helpers import make_trace, traced_memory
from reference import TIME_FORM, reference_load_trace, reference_time_text

HEADER = "robot_id,barcode,issued_at_ms\n"
ONE, TWO, THREE = (reference_time_text(value) for value in (1.0, 2.0, 3.0))
LINE_2 = f"0,10000000000000,{ONE}\n"
BAD_KEY = "malformed barcode key {}: expected exactly 14 decimal digits"
NOT_A_TIME = "issued_at_ms {} is not of the form " + TIME_FORM
EXPONENT = "issued_at_ms {} has exponent {}, not -1022 to -0001 or +0000 to +1023"
NOT_ZERO_OR_SUBNORMAL = "issued_at_ms {} is neither zero, 0x0.0000000000000p+0000, nor a subnormal, 0x0.<13 hex digits>p-1022"
NOT_AN_ID = "robot_id {} is not a {}-digit integer as on line 2"
LINE_2_ROBOT = "expected a robot_id of 1 to 18 digits before the first comma, got {} bytes"
WIDE = "1" * 100_001


def wrong_width(got, digits=1):
    """The reason of a line of ``got`` bytes where line 2's robot ids have ``digits`` digits."""
    return f"expected {digits + 39} bytes ({digits}-digit robot_id as on line 2, 14-digit barcode, issued_at_ms of the form {TIME_FORM}), got {got}"


def on_line_3(line):
    return HEADER + LINE_2 + line + "\n"


def robot_line(field):
    return on_line_3(f"{field},10000000000000,{TWO}")


def two_digit_robot_line(field):
    """A line 3 with robot id ``field`` after a line 2 with a 2-digit robot id."""
    return HEADER + f"00,10000000000000,{ONE}\n{field},10000000000000,{TWO}\n"


def time_line(field):
    return on_line_3(f"0,10000000000000,{field}")


def time_on_line_2(field):
    return HEADER + f"0,10000000000000,{field}\n"


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
    # Line 2's first comma sets the robot id width, 1 to 18 digits.
    ("line-2-without-a-comma", HEADER + "hello\n", (2, LINE_2_ROBOT.format(5))),
    ("line-2-empty-robot", HEADER + f",10000000000000,{ONE}\n", (2, LINE_2_ROBOT.format(0))),
    ("line-2-robot-19-digits", HEADER + "1" * 19 + f",10000000000000,{ONE}\n", (2, LINE_2_ROBOT.format(19))),
    ("line-2-robot-letter", HEADER + f"x,10000000000000,{ONE}\n", (2, NOT_AN_ID.format("'x'", 1))),
    # A line of another width than line 2 is refused for its width, whatever its fields.
    ("header-repeated", on_line_3(HEADER[:-1]), (3, wrong_width(29))),
    ("2-fields", on_line_3("0,10000000000000"), (3, wrong_width(16))),
    ("4-fields", on_line_3(f"0,10000000000000,{TWO},1"), (3, wrong_width(42))),
    ("robot-negative", robot_line("-1"), (3, wrong_width(41))),
    ("robot-minus-zero", robot_line("-0"), (3, wrong_width(41))),
    ("robot-plus", robot_line("+1"), (3, wrong_width(41))),
    ("robot-underscore", robot_line("1_0"), (3, wrong_width(42))),
    ("robot-empty", robot_line(""), (3, wrong_width(39))),
    ("robot-full-width", robot_line("７"), (3, wrong_width(42))),
    ("robot-space", robot_line(" 1"), (3, wrong_width(41))),
    ("robot-nul", robot_line("1\x00"), (3, wrong_width(41))),
    ("robot-wide-plus", robot_line("+" + "1" * 20), (3, wrong_width(60))),
    ("robot-wide-negative", robot_line("-" + "1" * 5000), (3, wrong_width(5040))),
    ("robot-19-digits", robot_line("1" * 19), (3, wrong_width(58))),
    ("robot-zero-padded-to-26", robot_line("12".zfill(26)), (3, wrong_width(65))),
    ("robot-wider-than-line-2", robot_line("07"), (3, wrong_width(41))),
    ("robot-narrower-than-line-2", two_digit_robot_line("7"), (3, wrong_width(40, digits=2))),
    ("robot-100001-bytes", robot_line(WIDE), (3, wrong_width(100_040))),
    ("robot-100001-bytes-not-digits", robot_line("x" + WIDE[1:]), (3, wrong_width(100_040))),
    ("barcode-100001-bytes", on_line_3(f"0,{WIDE},{TWO}"), (3, wrong_width(100_027))),
    ("time-100001-bytes", time_line(WIDE), (3, wrong_width(100_018))),
    # A robot id as wide as line 2's that is not all digits, quoted with
    # the byte after its columns unless that is its comma.
    ("robot-negative-as-wide", two_digit_robot_line("-1"), (3, NOT_AN_ID.format("'-1'", 2))),
    ("robot-plus-as-wide", two_digit_robot_line("+1"), (3, NOT_AN_ID.format("'+1'", 2))),
    ("robot-space-as-wide", two_digit_robot_line(" 1"), (3, NOT_AN_ID.format("' 1'", 2))),
    ("robot-nul-as-wide", two_digit_robot_line("1\x00"), (3, NOT_AN_ID.format("'1\\x00'", 2))),
    ("robot-comma-missing", on_line_3(f"07,1000000000000,{TWO}"), (3, NOT_AN_ID.format("'07'", 1))),
    ("barcode-letter", on_line_3(f"0,1000000000000x,{TWO}"), (3, BAD_KEY.format("'1000000000000x'"))),
    ("barcode-comma-missing", on_line_3(f"0,100000000000001{TWO}"), (3, BAD_KEY.format("'100000000000001'"))),
    ("barcode-short", on_line_3(f"0,123,{TWO}"), (3, wrong_width(29))),
    ("barcode-long", on_line_3(f"0,100000000000000,{TWO}"), (3, wrong_width(41))),
    ("barcode-empty", on_line_3(f"0,,{TWO}"), (3, wrong_width(26))),
    # Decimal text, the format before hex, and float.hex() unpadded.
    ("time-decimal", time_line("2.0"), (3, wrong_width(20))),
    ("time-unpadded-fraction", time_line("0x1.0p+1"), (3, wrong_width(25))),
    ("time-unpadded-exponent", time_line("0x1.0000000000000p+1"), (3, wrong_width(37))),
    ("time-upper-hex", time_line("0x1.000000000000Ap+0001"), (3, NOT_A_TIME.format("'0x1.000000000000Ap+0001'"))),
    ("time-upper-x", time_line("0X1.0000000000000p+0001"), (3, NOT_A_TIME.format("'0X1.0000000000000p+0001'"))),
    ("time-upper-p", time_line("0x1.0000000000000P+0001"), (3, NOT_A_TIME.format("'0x1.0000000000000P+0001'"))),
    ("time-lead-2", time_line("0x2.0000000000000p+0000"), (3, NOT_A_TIME.format("'0x2.0000000000000p+0000'"))),
    ("time-plus", time_line("+" + TWO), (3, wrong_width(41))),
    ("time-minus", time_line("-" + TWO), (3, wrong_width(41))),
    ("time-exponent-without-sign", time_line("0x1.0000000000000p00002"), (3, NOT_A_TIME.format("'0x1.0000000000000p00002'"))),
    ("time-5-exponent-digits", time_line("0x1.000000000000p+00001"), (3, NOT_A_TIME.format("'0x1.000000000000p+00001'"))),
    ("time-underscore", time_line("0x1.000000_000000p+0001"), (3, NOT_A_TIME.format("'0x1.000000_000000p+0001'"))),
    ("time-space", time_line(" " + TWO[:-1]), (3, NOT_A_TIME.format(repr(" " + TWO[:-1])))),
    ("time-full-width", time_line(TWO[:-1] + "５"), (3, wrong_width(42))),
    ("time-trailing-nul", time_line(TWO[:-1] + "\x00"), (3, NOT_A_TIME.format(repr(TWO[:-1] + "\x00")))),
    ("time-nan", time_line("nan"), (3, wrong_width(20))),
    ("time-empty", time_line(""), (3, wrong_width(17))),
    # The right shape, but not the one text of a float64 time; on line 2,
    # so that no earlier time is larger, which alone would refuse each.
    ("time-exponent-1024", time_on_line_2("0x1.0000000000000p+1024"), (2, EXPONENT.format("0x1.0000000000000p+1024", "+1024"))),
    ("time-exponent-minus-1023", time_on_line_2("0x1.0000000000000p-1023"), (2, EXPONENT.format("0x1.0000000000000p-1023", "-1023"))),
    ("time-exponent-minus-0", time_on_line_2("0x1.0000000000000p-0000"), (2, EXPONENT.format("0x1.0000000000000p-0000", "-0000"))),
    ("time-zero-as-subnormal", time_on_line_2("0x0.0000000000000p-1022"), (2, NOT_ZERO_OR_SUBNORMAL.format("0x0.0000000000000p-1022"))),
    ("time-zero-exponent-1", time_on_line_2("0x0.0000000000000p+0001"), (2, NOT_ZERO_OR_SUBNORMAL.format("0x0.0000000000000p+0001"))),
    ("time-zero-exponent-minus-0", time_on_line_2("0x0.0000000000000p-0000"), (2, NOT_ZERO_OR_SUBNORMAL.format("0x0.0000000000000p-0000"))),
    ("time-subnormal-exponent-0", time_on_line_2("0x0.0000000000001p+0000"), (2, NOT_ZERO_OR_SUBNORMAL.format("0x0.0000000000001p+0000"))),
    ("time-subnormal-exponent-minus-1021", time_on_line_2("0x0.8000000000000p-1021"),
     (2, NOT_ZERO_OR_SUBNORMAL.format("0x0.8000000000000p-1021"))),
    ("time-decreases", time_line(reference_time_text(0.5)), (3, "issued_at_ms decreased (0.5 after 1.0)")),
    # Lines end at "\n" only: a "\r" is a bad byte of the line that holds it.
    ("cr-in-the-barcode", on_line_3(f"0,1000000\r000000,{TWO}"), (3, BAD_KEY.format(repr("1000000\r000000")))),
    ("cr-in-the-time", time_line(TWO[:-1] + "\r"), (3, NOT_A_TIME.format(repr(TWO[:-1] + "\r")))),
    ("time-crlf", time_line(TWO + "\r"), (3, wrong_width(41))),
    ("lone-cr-in-a-field", on_line_3(f"0,1000000\r0000000,{TWO}"), (3, wrong_width(41))),
    ("lone-cr-ends-a-line", on_line_3(f"0,10000000000000,{TWO}\r0,10000000000000,{THREE}"), (3, wrong_width(81))),
    # What read_trace decodes an undecodable byte to: a lone surrogate.
    ("undecodable-byte", on_line_3(f"0,1000000000000\udcff,{TWO}"), (3, BAD_KEY.format(repr("1000000000000\udcff")))),
    ("two-faults", on_line_3(f"x,10000000000000,{TWO}\n0,10000000000000,-1"), (3, NOT_AN_ID.format("'x'", 1))),
    # A fall in time is found among the lines before a bad field, in the same block.
    ("time-decreases-before-a-bad-barcode", time_line(reference_time_text(0.5)) + f"0,1000000000000x,{TWO}\n",
     (3, "issued_at_ms decreased (0.5 after 1.0)")),
    # A flat split of the whole body would read these 4 + 2 or 2 + 4 fields as two good rows.
    ("4-then-2-fields", HEADER + f"0,10000000000000,{ONE},1\n10000000000001,{TWO}\n", (2, wrong_width(42))),
    ("2-then-4-fields", HEADER + f"0,10000000000000\n{ONE},1,10000000000001,{TWO}\n", (2, wrong_width(16))),
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
    # However long a field, its error line stays short.
    assert len(str(exc_info.value)) < 200

    path = tmp_path / "trace.csv"
    path.write_bytes(data)
    with pytest.raises(TraceFormatError) as exc_info:
        read_trace(str(path))
    assert (exc_info.value.line_no, exc_info.value.reason) == expected


def test_a_last_line_without_a_newline_still_loads(tmp_path):
    text = HEADER + LINE_2 + f"1,10000000000001,{reference_time_text(2.5)}"
    expected = make_trace([(0, "10000000000000", 1.0), (1, "10000000000001", 2.5)])
    assert parse_trace_bytes(text.encode("ascii")) == expected
    path = tmp_path / "trace.csv"
    path.write_text(text, encoding="utf-8")
    assert read_trace(str(path))[0] == expected


# Robot ids two digits wide, repeated barcodes, and times of each kind:
# zero, the least subnormal, the least normal, a repeated time, a value
# with a long fraction and one past 2**53.
FUZZ_BASE = HEADER + "".join(
    f"{robot},{barcode},{reference_time_text(time)}\n"
    for robot, barcode, time in [
        ("00", "10000000000000", 0.0),
        ("12", "10000000000007", 5e-324),
        ("03", "10000000000000", 2.0**-1022),
        ("00", "98765432109876", 2.5),
        ("07", "10000000000007", 2.5),
        ("99", "10000000000003", 1000.1),
        ("01", "10000000000001", 1.5e16),
    ]
)
# What each inserted or replacing character tests: field and line
# structure, the CR that is a bad byte wherever it is, "_" and signs, whitespace, NUL,
# non-ASCII digits and letters, the surrogate an undecodable byte becomes,
# and the characters of a time field, upper case among them.
FUZZ_CHARS = [",", "\n", "\r", "_", "+", "-", " ", "\t", "\x00", "５", "é", "\udcff", "0", "1", "9", ".", "x", "p", "a", "f", "A", "X"]


@st.composite
def mutated_traces(draw):
    text = FUZZ_BASE
    for _ in range(draw(st.integers(0, 4))):
        # A replaced character keeps every line's width, so only the column checks can refuse it.
        kind = draw(st.sampled_from(["insert", "delete", "replace", "swap-rows"]))
        # Half the edits land at a field's edge, where a field check must look.
        edges = [at for at, char in enumerate(text) if char in ",\n"]
        at = draw(st.sampled_from(edges) | st.integers(0, len(text)) if edges else st.integers(0, len(text)))
        if kind == "insert":
            text = text[:at] + draw(st.sampled_from(FUZZ_CHARS)) + text[at:]
        elif kind == "delete":
            text = text[:at] + text[at + 1 :]
        elif kind == "replace":
            text = text[:at] + draw(st.sampled_from(FUZZ_CHARS)) + text[at + 1 :]
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
    expected = outcome(reference_load_trace, io.StringIO(text, newline="\n"))
    data = text.encode("utf-8", "surrogateescape")
    assert outcome(parse_trace_bytes, data) == expected
    path = tmp_path / "trace.csv"
    path.write_bytes(data)
    assert outcome(lambda source: read_trace(source)[0], str(path)) == expected


@settings(derandomize=True, max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=mutated_traces())
def test_loading_a_mutated_trace_matches_the_line_walk(text, tmp_path):
    assert_loads_as_the_line_walk(text, tmp_path)


# Blocks hold whole lines, at least one: blocks of 1, 7 and 40 bytes hold
# one of the fuzzed texts' 42-byte lines and blocks of 100 bytes two, which
# puts block edges inside the texts, where the per-block checks must still hold.
SMALL_BLOCKS = [1, 7, 40, 100]


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
    text = HEADER + LINE_2 + f"0,10000000000000,{ONE},1\n10000000000001,{TWO}\n"
    assert outcome(parse_trace_bytes, text.encode()) == (3, wrong_width(42))
    assert_loads_as_the_line_walk(text, tmp_path)


def test_a_generated_trace_loads(tmp_path):
    config = load_config(desk_scale_path())
    trace = generate(replace(config.workload, total_scans=20_000))
    path = tmp_path / "trace.csv"
    write_trace(trace, str(path))
    assert read_trace(str(path))[0] == trace


# Robot ids of one width: 1 digit, and 18, the widest, zero-padded and
# not; and each kind of time in order, every hex digit among them: zero,
# the least and the largest subnormal, the least normal, negative and
# positive exponents, and the largest float64.
ACCEPTED_ROBOTS = {1: [("0", 0), ("7", 7), ("3", 3)], 18: [("12".zfill(18), 12), (str(10**18 - 1), 10**18 - 1), (str(10**17 + 3), 10**17 + 3)]}
ACCEPTED_TIMES = [
    "0x0.0000000000000p+0000",
    "0x0.0000000000001p-1022",
    "0x0.fedcba9876543p-1022",
    "0x1.0000000000000p-1022",
    "0x1.0123456789abcp-0001",
    "0x1.0000000000000p+0000",
    "0x1.fedcba9876543p+0000",
    "0x1.aa535d3d0c000p+0053",
    "0x1.fffffffffffffp+1023",
]


@pytest.mark.parametrize("digits", sorted(ACCEPTED_ROBOTS))
@pytest.mark.parametrize("block_chars", [robocache.workload._BLOCK_CHARS] + SMALL_BLOCKS)
def test_every_accepted_field_form_loads(block_chars, digits, monkeypatch):
    monkeypatch.setattr(robocache.workload, "_BLOCK_CHARS", block_chars)
    robots = ACCEPTED_ROBOTS[digits]
    rows = [(robots[at % len(robots)], 10000000000000 + at, time) for at, time in enumerate(ACCEPTED_TIMES)]
    text = HEADER + "".join(f"{robot},{key},{time}\n" for (robot, _), key, time in rows)
    expected = make_trace((robot_id, str(key), float.fromhex(time)) for (_, robot_id), key, time in rows)
    assert parse_trace_bytes(text.encode()) == expected


@pytest.mark.parametrize(
    "robot,time,reason",
    [
        pytest.param("0".zfill(31), reference_time_text(2000.0), wrong_width(70), id="31-digit-robot-id"),
        pytest.param("0", "2000.".ljust(100_000, "0"), wrong_width(100_017), id="100000-byte-time"),
    ],
)
def test_a_block_with_a_wide_field_is_refused_in_bounded_memory(robot, time, reason):
    # One block holds a 31-digit robot id or a 100,000-character time among
    # 4,000 short lines. No check copies more than a block of the lines.
    lines = [f"{at % 4},{10000000000000 + at % 50},{reference_time_text(float(at))}\n" for at in range(4000)]
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


def test_refusing_a_trace_at_its_last_line_peaks_near_the_columns_it_would_keep():
    # A bad byte in the last time is found in the last block, with no
    # decode of the file, so the refusal holds no more than the accept.
    config = load_config(desk_scale_path())
    out = io.StringIO()
    robocache.workload.save_trace(generate(replace(config.workload, total_scans=100_000)), out)
    text = out.getvalue()
    data = (text[:-5] + "x" + text[-4:]).encode()
    del text
    error, _, peak = traced_memory(lambda: outcome(parse_trace_bytes, data))
    assert error[0] == 100_001 and error[1].startswith("issued_at_ms")
    columns = 100_000 * (np.dtype(np.intp).itemsize + 8 + 8)
    assert peak <= 1.5 * columns, f"the refusal peaked at {peak / columns:.2f}x the columns of the trace"


@pytest.mark.parametrize(
    "data,rows",
    [
        pytest.param(b"", [], id="empty-file"),
        pytest.param(HEADER[:-1].encode(), [], id="header-without-newline"),
        pytest.param((HEADER + LINE_2[:-1]).encode(), [(0, "10000000000000", 1.0)], id="last-line-without-newline"),
    ],
)
def test_a_file_without_its_final_newline_loads(data, rows, tmp_path):
    path = tmp_path / "trace.csv"
    path.write_bytes(data)
    trace, digest = read_trace(str(path))
    assert parse_trace_bytes(data) == trace == make_trace(rows)
    # The digest is of the bytes read, not of the copy the parser ends with a "\n".
    assert digest == hashlib.sha256(data).hexdigest()


# The trace the writer wrote while times were decimal text: the golden
# 5-scan trace of that format.
DECIMAL_TRACE = (
    HEADER
    + "0,10000000000003,23.516208555408898\n"
    + "1,10000000000000,66.40089206320778\n"
    + "0,10000000000001,67.94722114066641\n"
)


def test_a_trace_of_decimal_times_is_refused_naming_the_hex_form(tmp_path):
    expected = (2, wrong_width(35))
    assert outcome(parse_trace_bytes, DECIMAL_TRACE.encode()) == expected
    assert "0x1.<13 lowercase hex digits>p<+ or -><4 digits>" in expected[1]
    assert_loads_as_the_line_walk(DECIMAL_TRACE, tmp_path)


# Zero, the least and the largest subnormal, the least normal and the largest double.
EDGE_TIMES = [0.0, 5e-324, float.fromhex("0x0.fffffffffffffp-1022"), 2.0**-1022, sys.float_info.max]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    bits=st.lists(
        # Any finite float64 with its sign bit clear, and subnormals on their own.
        st.integers(0, 0x7FEFFFFFFFFFFFFF) | st.integers(0, 0x000FFFFFFFFFFFFF),
        max_size=40,
    )
)
def test_any_finite_time_with_its_sign_bit_clear_survives_save_and_parse_bit_for_bit(bits):
    times = np.sort(np.concatenate([np.array(bits, np.uint64).view(np.float64), EDGE_TIMES]))
    trace = Trace([at % 3 for at in range(len(times))], np.full(len(times), 10**13, np.int64), times)
    out = io.StringIO()
    save_trace(trace, out)
    parsed = parse_trace_bytes(out.getvalue().encode())
    assert parsed.issued_at.view(np.uint64).tolist() == times.view(np.uint64).tolist()
    fields = [line.split(",")[2] for line in out.getvalue().splitlines()[1:]]
    assert [float.fromhex(field).hex() for field in fields] == [time.hex() for time in times.tolist()]
