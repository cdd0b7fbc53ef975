import hashlib
import io
import os
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robocache.errors import ConfigError, TraceFormatError, ValidationError
from robocache.workload import (
    Trace,
    WorkloadConfig,
    barcode_for_rank,
    generate,
    parse_trace_bytes,
    read_trace,
    save_trace,
    write_trace,
    zipf_probabilities,
)

from helpers import barcodes_of, make_trace, rows_of, traced_memory, traced_peak
from reference import reference_save_trace

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
A = "12345678901234"


def make_config(**overrides):
    values = dict(
        total_scans=100,
        unique_barcodes=10,
        skew=1.0,
        robots=2,
        inter_arrival_ms=5.0,
        seed=11,
    )
    values.update(overrides)
    return WorkloadConfig(**values)


def test_more_robots_than_scans_gives_the_trace_of_one_robot_per_scan():
    assert generate(make_config(robots=2**64)) == generate(make_config(robots=100))


def test_invalid_config_lists_every_offending_field():
    with pytest.raises(ConfigError) as exc_info:
        make_config(total_scans=0, robots=0, skew=-1.0)
    message = str(exc_info.value)
    assert "total_scans" in message
    assert "robots" in message
    assert "skew" in message


def test_total_scans_is_at_most_the_longest_float64_column_numpy_can_size():
    # One scan more and numpy refuses the issue-time column with ValueError,
    # before it asks for memory.
    limit = np.iinfo(np.intp).max // 8
    assert make_config(total_scans=limit).total_scans == limit
    with pytest.raises(ConfigError, match="total_scans"):
        make_config(total_scans=limit + 1)


def test_barcodes_are_always_14_digits():
    assert barcode_for_rank(0) == "10000000000000"
    assert len(barcode_for_rank(10**12)) == 14


def test_single_key_universe_repeats_one_barcode():
    events = generate(make_config(unique_barcodes=1))
    assert len(events) == 100
    assert set(barcodes_of(events)) == {"10000000000000"}


def test_trace_shape_and_round_robin_assignment():
    config = make_config(robots=3)
    events = generate(config)
    assert len(events) == config.total_scans
    assert [robot_id for robot_id, _, _ in rows_of(events)[:6]] == [0, 1, 2, 0, 1, 2]
    times = [issued_at for _, _, issued_at in rows_of(events)]
    assert times == sorted(times)


def test_generate_is_a_pure_function_of_config():
    config = make_config()
    assert generate(config) == generate(config)
    assert generate(config) != generate(make_config(seed=12))


def test_generate_matches_committed_golden_trace():
    config = WorkloadConfig(
        total_scans=5, unique_barcodes=5, skew=0.0, robots=2, inter_arrival_ms=10.0, seed=123
    )
    out = io.StringIO()
    save_trace(generate(config), out)
    with open(os.path.join(FIXTURES, "golden_trace_5.csv"), newline="") as fh:
        assert out.getvalue() == fh.read()


def test_export_import_round_trip_is_identity():
    events = generate(make_config(total_scans=500))
    out = io.StringIO()
    save_trace(events, out)
    assert parse_trace_bytes(out.getvalue().encode()) == events
    # and a second export is byte-identical
    again = io.StringIO()
    save_trace(parse_trace_bytes(out.getvalue().encode()), again)
    assert again.getvalue() == out.getvalue()


# save_trace writes 8,192 rows at a time: no rows, one, and both sides of one and two blocks.
@pytest.mark.parametrize("scans", [0, 1, 8191, 8192, 8193, 16385])
def test_save_trace_writes_the_header_and_one_line_per_scan_across_its_write_blocks(scans):
    trace = make_trace((index % 3, barcode_for_rank(index % 7), index / 4) for index in range(scans))
    out = io.StringIO()
    save_trace(trace, out)
    lines = "".join(f"{robot_id},{barcode},{issued_at!r}\n" for robot_id, barcode, issued_at in rows_of(trace))
    assert out.getvalue() == "robot_id,barcode,issued_at_ms\n" + lines


# Robot ids of one, two and 18 digits, the widest a trace holds; times in each form
# repr gives: zero, the least subnormal, a small exponent, a fraction, and
# a large float with and without a fraction digit.
ORACLE_ROBOT_IDS = [0, 12, 10**18 - 1]
ORACLE_TIMES = [0.0, 5e-324, 1e-05, 2.5, 1e16, 1.5e16]


@pytest.mark.parametrize("scans", [8191, 8192, 8193])
@settings(derandomize=True, max_examples=50, deadline=None)
@given(
    robot_ids=st.lists(st.integers(0, 10**18 - 1), max_size=3),
    keys=st.lists(st.integers(0, 10**14 - 1), min_size=1, max_size=6),
    times=st.lists(st.floats(0.0, 1e300), max_size=4),
)
def test_save_trace_writes_the_bytes_of_the_row_format_writer(scans, robot_ids, keys, times):
    # Each drawn pool repeats over the scans; the times, sorted, do not decrease.
    robot_ids, times = ORACLE_ROBOT_IDS + robot_ids, ORACLE_TIMES + times
    trace = Trace(
        [robot_ids[scan % len(robot_ids)] for scan in range(scans)],
        np.resize(np.array(keys, np.int64), scans),
        np.sort(np.resize(np.array(times), scans)),
    )
    out, expected = io.StringIO(), io.StringIO()
    save_trace(trace, out)
    reference_save_trace(trace, expected)
    assert out.getvalue() == expected.getvalue()


def test_write_trace_never_holds_the_whole_file_text(tmp_path):
    trace = generate(make_config(total_scans=100_000, unique_barcodes=2000, robots=4))
    path = tmp_path / "trace.csv"
    peak = traced_peak(lambda: write_trace(trace, str(path)))
    assert peak <= os.path.getsize(path), f"write_trace peaked at {peak / os.path.getsize(path):.2f}x the file size"


def test_empty_file_loads_as_empty_trace():
    assert parse_trace_bytes(b"") == make_trace([])


def test_header_only_file_loads_as_empty_trace():
    assert parse_trace_bytes(b"robot_id,barcode,issued_at_ms\n") == make_trace([])


def test_hand_written_fixture_loads_field_for_field():
    path = os.path.join(FIXTURES, "trace_3.csv")
    events, digest = read_trace(path)
    with open(path, "rb") as fh:
        assert digest == hashlib.sha256(fh.read()).hexdigest()
    assert events == make_trace([
        (0, "12345678901234", 0.0),
        (1, "98765432109876", 5.5),
        (0, "12345678901234", 9.25),
    ])


@pytest.mark.parametrize(
    "body,bad_line",
    [
        ("robot,barcode\n", 1),
        ("robot_id,barcode,issued_at_ms\n0,123,4.0\n", 2),
        ("robot_id,barcode,issued_at_ms\nx,12345678901234,4.0\n", 2),
        ("robot_id,barcode,issued_at_ms\n0,12345678901234,oops\n", 2),
        ("robot_id,barcode,issued_at_ms\n0,12345678901234\n", 2),
        ("robot_id,barcode,issued_at_ms\n-1,12345678901234,4.0\n", 2),
        ("robot_id,barcode,issued_at_ms\n0,12345678901234,1.0\n1_0,12345678901234,4.0\n", 3),
        ("robot_id,barcode,issued_at_ms\n 1,12345678901234,4.0\n", 2),
        ("robot_id,barcode,issued_at_ms\n１,12345678901234,4.0\n", 2),
        ("robot_id,barcode,issued_at_ms\n+1,12345678901234,4.0\n", 2),
        ("robot_id,barcode,issued_at_ms\n0,12345678901234,4.0\n0,12345678901234,3.9\n", 3),
        ("robot_id,barcode,issued_at_ms\n0,12345678901234,nan\n", 2),
        ("robot_id,barcode,issued_at_ms\n0,12345678901234,1.0\n0,12345678901234,1_0\n", 3),
        ("robot_id,barcode,issued_at_ms\n0,12345678901234, 5 \n", 2),
        ("robot_id,barcode,issued_at_ms\n0,12345678901234,５\n", 2),
        ("robot_id,barcode,issued_at_ms\n0,12345678901234,5\r\n", 2),
        ("robot_id,barcode,issued_at_ms\n0,12345678901234,+5\n", 2),
        ("robot_id,barcode,issued_at_ms\n0,12345678901234,-0.0\n", 2),
    ],
)
def test_malformed_lines_carry_their_line_number(body, bad_line):
    with pytest.raises(TraceFormatError) as exc_info:
        parse_trace_bytes(body.encode())
    assert exc_info.value.line_no == bad_line


@pytest.mark.parametrize(
    "robot_field,reason",
    [
        ("-1", "robot_id -1 is negative"),
        ("-0", "robot_id '-0' has a sign"),
        ("+1", "robot_id '+1' has a sign"),
        ("1_0", "robot_id '1_0' is not an integer"),
        ("", "robot_id '' is not an integer"),
        ("7" * 5000, "robot_id of 5000 digits is too long"),
    ],
)
def test_robot_id_errors_name_the_field(robot_field, reason):
    with pytest.raises(TraceFormatError) as exc_info:
        parse_trace_bytes(f"robot_id,barcode,issued_at_ms\n{robot_field},12345678901234,4.0\n".encode())
    assert exc_info.value.reason == reason


@pytest.mark.parametrize(
    "time_field,reason",
    [
        ("-5", "issued_at_ms -5 is not a finite non-negative time"),
        ("-0.0", "issued_at_ms '-0.0' has a sign"),
        ("+5", "issued_at_ms '+5' has a sign"),
        ("1_0", "issued_at_ms '1_0' is not a plain ASCII number"),
        (" 5", "issued_at_ms ' 5' is not a plain ASCII number"),
        ("5\r", "issued_at_ms '5\\r' is not a plain ASCII number"),
        ("５", "issued_at_ms '５' is not a plain ASCII number"),
        ("", "issued_at_ms '' is not a number"),
    ],
)
def test_issued_at_errors_name_the_field(time_field, reason):
    with pytest.raises(TraceFormatError) as exc_info:
        parse_trace_bytes(f"robot_id,barcode,issued_at_ms\n0,12345678901234,{time_field}\n".encode())
    assert exc_info.value.reason == reason


def test_exponent_times_as_repr_writes_them_load_and_round_trip():
    body = "robot_id,barcode,issued_at_ms\n0,12345678901234,1e-05\n0,12345678901234,1.5e+16\n"
    trace = parse_trace_bytes(body.encode())
    assert trace.issued_at.tolist() == [1e-05, 1.5e16]
    out = io.StringIO()
    save_trace(trace, out)
    assert out.getvalue() == body


@pytest.mark.parametrize(
    "robot_ids,barcodes,issued_at",
    [
        pytest.param((0, 0), (A,), (0.0,), id="columns-differ-in-length"),
        pytest.param((0,), (A, A), (0.0, 1.0), id="robot-column-short"),
        pytest.param((True,), (A,), (0.0,), id="bool-robot-id"),
        pytest.param((-3,), (A,), (0.0,), id="negative-robot-id"),
        pytest.param((10**18,), (A,), (0.0,), id="19-digit-robot-id"),
        pytest.param((1.0,), (A,), (0.0,), id="float-robot-id"),
        pytest.param((0,), ("1234567890123x",), (0.0,), id="malformed-barcode"),
        pytest.param((0,), (12345678901234,), (0.0,), id="int-barcode"),
        pytest.param((0,), (["1"],), (0.0,), id="unhashable-barcode"),
        pytest.param((0,), (A,), (float("nan"),), id="nan-time"),
        pytest.param((0,), (A,), (float("inf"),), id="inf-time"),
        pytest.param((0,), (A,), (-1.0,), id="negative-time"),
        pytest.param((0,), (A,), (True,), id="bool-time"),
        pytest.param((0,), (A,), ("5",), id="str-time"),
        pytest.param((0, 0), (A, A), (1000.0, 0.0), id="decreasing-times"),
        pytest.param((0, 0), (A, A), (5.0, 3), id="decreasing-float-then-int"),
        pytest.param((0, 0), (A, A), (5, 3.0), id="decreasing-int-then-float"),
    ],
)
def test_trace_constructor_rejects_each_invalid_value(robot_ids, barcodes, issued_at):
    with pytest.raises(ValidationError):
        Trace(robot_ids, barcodes, issued_at)


def test_trace_columns_are_read_only_arrays_and_int_times_are_held_as_floats():
    trace = Trace([0, 2], [A, A], [3, 5.0])
    assert rows_of(trace) == [(0, A, 3.0), (2, A, 5.0)]
    assert (trace.robots.tolist(), trace.robot_ids) == ([0, 1], (0, 2))
    assert trace.keys.dtype == np.int64 and trace.keys.tolist() == [12345678901234] * 2
    # The int time 3 is held as the float64 3.0, as a trace read from a file holds it.
    assert trace.issued_at.dtype == np.float64 and type(trace.issued_at.tolist()[0]) is float
    for column in (trace.robots, trace.keys, trace.issued_at):
        with pytest.raises(ValueError):
            column[0] = 1
    assert len(trace) == 2 and trace
    assert not Trace((), (), ())


def test_robots_are_numbered_in_id_order_and_barcodes_held_as_their_keys():
    b = "00000000000007"
    big = 10**18 - 1
    trace = Trace([5, 1, 5, big], [A, b, A, b], [0.0, 1.0, 2.0, 3.0])
    assert trace.robot_ids == (1, 5, big)
    assert trace.robots.tolist() == [1, 0, 1, 2]
    assert trace.keys.tolist() == [12345678901234, 7, 12345678901234, 7]
    assert rows_of(trace) == [(5, A, 0.0), (1, b, 1.0), (5, A, 2.0), (big, b, 3.0)]
    # The array columns give the same trace.
    assert trace == Trace((1, 5, big), trace.keys, trace.issued_at, robots=trace.robots)
    assert trace != Trace([5, 1, 5, 1], [A, b, A, b], [0.0, 1.0, 2.0, 3.0])
    # generate fills the columns from its draws: robot r's number is r, and
    # each key is that of barcode_for_rank of the drawn rank.
    config = make_config(robots=3)
    generated = generate(config)
    rng = np.random.default_rng(config.seed)
    cumulative = np.cumsum(zipf_probabilities(config.unique_barcodes, config.skew))
    cumulative[-1] = 1.0
    ranks = np.searchsorted(cumulative, rng.random(config.total_scans), side="right")
    assert barcodes_of(generated) == [barcode_for_rank(rank) for rank in ranks.tolist()]
    assert generated.robot_ids == (0, 1, 2)
    assert generated.robots.tolist() == [index % 3 for index in range(config.total_scans)]


KEYS_2 = np.array([12345678901234, 7])
TIMES_2 = np.array([0.0, 1.0])


@pytest.mark.parametrize(
    "robot_ids,keys,issued_at,robots",
    [
        pytest.param((1, 0), KEYS_2, TIMES_2, np.array([0, 1]), id="robot-ids-not-ascending"),
        pytest.param((0, 1, 2), KEYS_2, TIMES_2, np.array([0, 1]), id="robot-id-without-a-scan"),
        pytest.param((0,), KEYS_2, TIMES_2, np.array([0, 1]), id="robot-number-without-an-id"),
        pytest.param((0,), KEYS_2, TIMES_2, np.array([0, -1]), id="negative-robot-number"),
        # Past the last id by far: refused before it could size a count per number.
        pytest.param((0, 1), KEYS_2, TIMES_2, np.array([0, 2**62]), id="robot-number-out-of-range"),
        pytest.param((3, 3), KEYS_2, TIMES_2, np.array([0, 1]), id="repeated-robot-id"),
        pytest.param((0, True), KEYS_2, TIMES_2, np.array([0, 1]), id="bool-robot-id"),
        pytest.param((0, 10**18), KEYS_2, TIMES_2, np.array([0, 1]), id="19-digit-robot-id"),
        pytest.param((0, 1), KEYS_2, TIMES_2, np.array([0.0, 1.0]), id="float-robot-numbers"),
        pytest.param((0, 1), KEYS_2, TIMES_2, np.array([0, 1], np.uint64), id="uint64-robot-numbers"),
        pytest.param((0, 1), KEYS_2, TIMES_2, np.array([0, 1, 1]), id="robot-column-long"),
        pytest.param((0, 1), np.array([-1, 7]), TIMES_2, np.array([0, 1]), id="negative-key"),
        pytest.param((0, 1), np.array([10**14, 7]), TIMES_2, np.array([0, 1]), id="15-digit-key"),
        pytest.param((0, 1), np.array([7, 8], np.int32), TIMES_2, np.array([0, 1]), id="int32-keys"),
        pytest.param((0, 1), KEYS_2, np.array([0.0, np.nan]), np.array([0, 1]), id="nan-time"),
        pytest.param((0, 1), KEYS_2, np.array([0.0, -np.inf]), np.array([0, 1]), id="minus-inf-time"),
        pytest.param((0, 1), KEYS_2, np.array([1.0, 0.5]), np.array([0, 1]), id="decreasing-times"),
        pytest.param((0, 1), KEYS_2, np.array([0, 1]), np.array([0, 1]), id="int64-times"),
    ],
)
def test_trace_constructor_rejects_each_invalid_array_column(robot_ids, keys, issued_at, robots):
    with pytest.raises(ValidationError):
        Trace(robot_ids, keys, issued_at, robots=robots)


# The constructor checks its time column 4,096 scans at a time.
CHECK_ROWS = 4096


@pytest.mark.parametrize("at", [CHECK_ROWS - 1, CHECK_ROWS, CHECK_ROWS + 1, 2 * CHECK_ROWS])
@pytest.mark.parametrize("change", ["old-then-new-robot", "robot-skipped", "decreasing-time", "nan-time"])
def test_the_array_checks_hold_across_their_blocks(change, at):
    # Robots 0-9 scan first and robot 0 after them; at scan ``at`` one change
    # is made beside a block edge.
    scans = 2 * CHECK_ROWS + 2
    robots = np.zeros(scans, np.intp)
    robots[:10] = np.arange(10)
    times = np.arange(scans, dtype=np.float64)
    if change == "old-then-new-robot":
        # Robot 3 again, then robot 10 for the first time: both legal.
        robots[at : at + 2] = (3, 10)
    elif change == "robot-skipped":
        robots[at] = 11
    elif change == "decreasing-time":
        times[at] = times[at - 1] - 0.5
    else:
        times[at] = np.nan
    build = lambda: Trace(range(robots.max() + 1), np.full(scans, 7, np.int64), times, robots=robots)
    if change == "old-then-new-robot":
        assert build().robots.tolist() == robots.tolist()
    else:
        with pytest.raises(ValidationError):
            build()


def test_a_zero_padded_barcode_and_the_widest_robot_id_save_and_reload_as_written():
    trace = make_trace([(10**18 - 1, "00000000000007", 0.0), (0, "00000000000007", 1.5)])
    out = io.StringIO()
    save_trace(trace, out)
    assert out.getvalue() == "robot_id,barcode,issued_at_ms\n999999999999999999,00000000000007,0.0\n0,00000000000007,1.5\n"
    assert parse_trace_bytes(out.getvalue().encode()) == trace
    assert rows_of(parse_trace_bytes(out.getvalue().encode())) == [(10**18 - 1, "00000000000007", 0.0), (0, "00000000000007", 1.5)]


def test_a_trace_holds_robot_ids_below_10_to_the_18_so_every_saved_trace_reloads():
    # The file's robot field holds at most 18 digits, so the Trace refuses
    # the id that would need 19, and save_trace never writes a file that
    # parse_trace_bytes refuses.
    with pytest.raises(ValidationError, match=r"\[0, 10\*\*18\)"):
        make_trace([(10**18, A, 0.0)])
    trace = make_trace([(10**18 - 1, A, 0.0), (3, A, 1.0)])
    out = io.StringIO()
    save_trace(trace, out)
    assert out.getvalue().splitlines()[1] == f"{10**18 - 1},{A},0.0"
    assert parse_trace_bytes(out.getvalue().encode()) == trace


def test_generate_holds_its_three_columns_and_little_more():
    # The 300k-scan desk preset: three 8-byte columns are 24 bytes a scan.
    config = WorkloadConfig(
        total_scans=300_000, unique_barcodes=2000, skew=1.4, robots=4, inter_arrival_ms=1.0, seed=20260808
    )
    trace, kept, peak = traced_memory(lambda: generate(config))
    assert len(trace) == config.total_scans
    assert kept <= 32 * config.total_scans, f"generate kept {kept / config.total_scans:.1f} bytes a scan"
    assert peak <= 64 * config.total_scans, f"generate peaked at {peak / config.total_scans:.1f} bytes a scan"


def test_generate_peaks_near_the_columns_it_keeps():
    # The constructor's checks make arrays a block long, not a scan long.
    config = WorkloadConfig(
        total_scans=100_000, unique_barcodes=2000, skew=1.4, robots=4, inter_arrival_ms=1.0, seed=20260808
    )
    generate(make_config())  # numpy imports its random generator on first use
    trace, _, peak = traced_memory(lambda: generate(config))
    columns = trace.robots.nbytes + trace.keys.nbytes + trace.issued_at.nbytes
    assert peak <= 1.25 * columns, f"generate peaked at {peak / columns:.2f}x its columns"


@pytest.mark.parametrize(
    "line",
    [b"\xff,12345678901234,4.0", b"0,1234567890123\xff,4.0", b"0,12345678901234,4.\xff", b"0,12345678901234,4.0\xff"],
)
def test_undecodable_byte_is_rejected_with_its_line_number(line, tmp_path):
    path = tmp_path / "trace.csv"
    path.write_bytes(b"robot_id,barcode,issued_at_ms\n0,12345678901234,1.0\n" + line + b"\n")
    with pytest.raises(TraceFormatError) as exc_info:
        read_trace(str(path))
    assert exc_info.value.line_no == 3


def test_zero_skew_is_uniform():
    probabilities = zipf_probabilities(8, 0.0)
    assert np.allclose(probabilities, 1.0 / 8)


def test_top_rank_mass_matches_analytic_partial_sums():
    # s=1.2 over 10k keys, one million samples; the analytic mass of the
    # top 100 ranks is an independent partial harmonic sum.
    unique, skew, samples = 10_000, 1.2, 1_000_000
    config = make_config(total_scans=samples, unique_barcodes=unique, skew=skew, robots=4, seed=77)
    events = generate(config)
    # Counted by int key: each barcode's 14 digits as one integer.
    counts = Counter(events.keys.tolist())

    weights = [rank ** -skew for rank in range(1, unique + 1)]
    total_weight = sum(weights)
    analytic_top100 = sum(weights[:100]) / total_weight
    empirical_top100 = sum(counts[int(barcode_for_rank(rank))] for rank in range(100)) / samples
    assert abs(empirical_top100 - analytic_top100) <= 0.02 * analytic_top100

    top_decile = unique // 10
    analytic_decile = sum(weights[:top_decile]) / total_weight
    empirical_decile = sum(counts[int(barcode_for_rank(rank))] for rank in range(top_decile)) / samples
    assert abs(empirical_decile - analytic_decile) <= 0.02 * analytic_decile
