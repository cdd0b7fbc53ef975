import dataclasses
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from robocache.errors import MissingRecordError, ValidationError
from robocache.knowledge_base import index_probe_cost
from robocache.netlink import LinkConfig
from robocache.simulator import MethodKind, result_digest, run
from robocache.workload import WorkloadConfig, barcode_for_rank, generate

from helpers import barcodes_of, make_kb, make_sim_config, make_trace, rows_of
from reference import reference_run


def key(n: int) -> str:
    return str(10_000_000_000_000 + n)


A, B, C = key(1), key(2), key(3)


def trace_of(barcodes, robot_id=0, spacing=100.0):
    return make_trace((robot_id, barcode, index * spacing) for index, barcode in enumerate(barcodes))


def lossy_link():
    return LinkConfig(
        one_way_latency_ms=250.0,
        loss_probability=0.15,
        lock_probability=0.05,
        lock_stall_ms=40.0,
        retransmit_timeout_ms=600.0,
    )


def test_single_scan_baseline_latency_is_round_trip_plus_service():
    # one_way 250ms, zero loss/lock, N=1 so one db probe at 10ms: 510ms
    kb = make_kb([A])
    result = run("baseline", trace_of([A]), kb, make_sim_config())
    counters = result.counters
    assert counters.per_scan_latencies == [510.0]
    assert counters.station_messages == 1
    assert counters.scans == 1
    assert counters.total_processing_ms == 10.0


def test_hand_traced_sequence_end_to_end():
    kb = make_kb([A, B, C])
    result = run("cached", trace_of([A, B, A, C, A]), kb, make_sim_config())
    counters = result.counters
    assert counters.cache_hits == 2
    assert counters.cache_misses == 3
    assert counters.cache_comparisons == 5
    assert counters.station_messages == 3
    assert counters.scans == 5
    assert result.snapshots == [((A, 3), (C, 1))]


def test_same_trace_under_baseline_bypasses_the_cache():
    kb = make_kb([A, B, C])
    result = run("baseline", trace_of([A, B, A, C, A]), kb, make_sim_config())
    assert result.counters.cache_hits == 0
    assert result.counters.cache_comparisons == 0
    assert result.counters.station_messages == 5
    assert result.snapshots == []


def test_hit_latency_contains_no_link_term():
    kb = make_kb([A])
    config = make_sim_config(cache_probe_time_ms=0.5)
    result = run("cached", trace_of([A, A, A]), kb, config)
    latencies = result.counters.per_scan_latencies
    # first scan misses and pays the round trip; the two hits pay one probe each
    assert latencies[0] > 500.0
    assert latencies[1] == 0.5
    assert latencies[2] == 0.5


def test_counters_tie_out_between_methods_and_logs():
    kb = make_kb([A, B, C])
    trace = trace_of([A, B, A, C, A, B])
    for method in ("baseline", "cached"):
        result = run(method, trace, kb, make_sim_config(link=lossy_link(), seed=3))
        counters = result.counters
        assert counters.scans == len(trace)
        if method == "cached":
            assert counters.scans == counters.cache_hits + counters.cache_misses
            assert counters.station_messages == counters.cache_misses
        else:
            assert counters.cache_hits == 0
            assert counters.station_messages == counters.scans
        assert len(counters.per_scan_latencies) == counters.scans
        assert counters.db_comparisons == counters.station_messages * index_probe_cost(len(kb))
        stats = counters.link_stats
        assert stats.messages_delivered == counters.station_messages
        assert stats.retransmissions == stats.messages_lost


def test_empty_trace_is_rejected():
    with pytest.raises(ValidationError):
        run("cached", make_trace([]), make_kb([A]), make_sim_config())


def test_unknown_barcode_is_a_data_error_naming_it():
    kb = make_kb([A, key(60), key(400), key(950)])
    # In the second trace the unknown barcodes sort in the reverse of their
    # trace order, so a sorted lookup meets the last one first.
    unknown = [key(900), key(500), key(100), key(50)]
    cases = [
        ([A, B], B),
        ([A, unknown[0], A, unknown[1], unknown[2], unknown[0], unknown[3]], unknown[0]),
    ]
    for barcodes, first_unknown in cases:
        for method in ("baseline", "cached"):
            with pytest.raises(MissingRecordError) as exc_info:
                run(method, trace_of(barcodes), kb, make_sim_config())
            assert exc_info.value.barcode == first_unknown, method


def test_two_runs_with_identical_inputs_share_a_digest():
    kb = make_kb([A, B, C])
    config = make_sim_config(link=lossy_link(), seed=42)
    trace = trace_of([A, B, A, C, A])
    assert result_digest(run("cached", trace, kb, config)) == result_digest(run("cached", trace, kb, config))


def test_different_seeds_may_change_the_digest_under_loss():
    kb = make_kb([A, B, C])
    trace = trace_of([A, B, A, C, A] * 20)
    digest_a = result_digest(run("baseline", trace, kb, make_sim_config(link=lossy_link(), seed=1)))
    digest_b = result_digest(run("baseline", trace, kb, make_sim_config(link=lossy_link(), seed=2)))
    assert digest_a != digest_b


def test_golden_digest_of_the_hand_traced_fixture_run():
    kb = make_kb([A, B, C])
    digests = {result_digest(run("cached", trace_of([A, B, A, C, A]), kb, make_sim_config())) for _ in range(2)}
    assert digests == {"b3af8d6ed2b43190d2aa390f18f81894ab53e4d2e14c541bb69f5fb02c487d1d"}


def test_simulated_clock_never_goes_backward():
    kb = make_kb([A, B, C])
    config = make_sim_config(link=lossy_link(), seed=9)
    result = run("cached", trace_of([A, B, C, A, B, C, A]), kb, config)
    assert result.counters.final_clock >= result.counters.first_issued_at


def random_trace(rng, length, keyspace, robots):
    barcodes = [key(rng.randrange(keyspace)) for _ in range(length)]
    now = 0.0
    events = []
    for index, barcode in enumerate(barcodes):
        now += rng.expovariate(1.0 / 5.0)
        events.append((index % robots, barcode, now))
    return make_trace(events)


def test_station_traffic_dominance_on_random_traces():
    rng = random.Random(1234)
    kb = make_kb([key(n) for n in range(16)])
    for _ in range(80):
        trace = random_trace(rng, rng.randint(1, 60), keyspace=16, robots=rng.randint(1, 3))
        config = make_sim_config(cache_capacity=rng.randint(1, 8), link=lossy_link(), seed=rng.randrange(1000))
        cached = run("cached", trace, kb, config)
        baseline = run("baseline", trace, kb, config)
        assert cached.counters.station_messages <= baseline.counters.station_messages
        assert baseline.counters.station_messages == len(trace)


def test_equality_holds_exactly_when_no_robot_sees_a_repeat():
    # capacity covers the whole keyspace, so nothing is ever evicted and
    # a repeat within one robot's stream is exactly a cache hit
    rng = random.Random(4321)
    kb = make_kb([key(n) for n in range(8)])
    saw_equal = saw_strict = False
    for _ in range(120):
        robots = rng.randint(1, 3)
        trace = random_trace(rng, rng.randint(1, 30), keyspace=8, robots=robots)
        config = make_sim_config(cache_capacity=8, seed=7)
        cached = run("cached", trace, kb, config)
        baseline = run("baseline", trace, kb, config)
        per_robot = {}
        repeat = False
        for robot_id, barcode, _ in rows_of(trace):
            seen = per_robot.setdefault(robot_id, set())
            if barcode in seen:
                repeat = True
            seen.add(barcode)
        if repeat:
            saw_strict = True
            assert cached.counters.station_messages < baseline.counters.station_messages
        else:
            saw_equal = True
            assert cached.counters.station_messages == baseline.counters.station_messages
    assert saw_equal and saw_strict


def fixed_lossy_cases():
    """The 25 hand-seeded lossy configs this comparison was first written with."""
    rng = random.Random(777)
    barcodes = tuple(key(n) for n in range(24))
    for trial in range(25):
        trace = random_trace(rng, rng.randint(1, 400), keyspace=len(barcodes), robots=rng.randint(1, 4))
        config = make_sim_config(
            cache_capacity=rng.randint(1, 10),
            cache_probe_time_ms=0.25,
            db_probe_time_ms=3.0,
            link=lossy_link(),
            seed=trial,
        )
        yield barcodes, trace, config


def zero_or(strategy):
    return st.just(0.0) | strategy


@st.composite
def replay_cases(draw):
    """A small generated workload, its knowledge base and a run config.

    Every knob reaches its edge: capacity 1, loss 0, lock 0, skew 0 and a
    single robot are all drawn.
    """
    workload = WorkloadConfig(
        total_scans=draw(st.integers(1, 150)),
        unique_barcodes=draw(st.integers(1, 24)),
        skew=draw(zero_or(st.floats(0.0, 2.0))),
        robots=draw(st.integers(1, 4)),
        inter_arrival_ms=draw(st.floats(0.1, 50.0)),
        seed=draw(st.integers(0, 2**32)),
    )
    one_way_ms = draw(st.floats(0.5, 300.0))
    link = LinkConfig(
        one_way_latency_ms=one_way_ms,
        loss_probability=draw(zero_or(st.floats(0.0, 0.5))),
        lock_probability=draw(zero_or(st.floats(0.0, 0.5))),
        lock_stall_ms=draw(st.floats(0.0, 100.0)),
        retransmit_timeout_ms=2 * one_way_ms + draw(st.floats(0.0, 100.0)),
    )
    config = make_sim_config(
        workload=workload,
        link=link,
        cache_capacity=draw(st.integers(1, 10)),
        cache_probe_time_ms=draw(st.floats(0.0, 1.0)),
        db_probe_time_ms=draw(st.floats(0.0, 10.0)),
        seed=draw(st.integers(0, 2**32)),
    )
    barcodes = tuple(barcode_for_rank(rank) for rank in range(workload.unique_barcodes))
    return barcodes, generate(workload), config


def with_examples(cases):
    def decorate(test):
        for case in cases:
            test = example(case=case)(test)
        return test

    return decorate


@with_examples(fixed_lossy_cases())
@settings(derandomize=True, max_examples=150, deadline=None)
@given(case=replay_cases())
def test_counters_match_the_straight_line_reference_simulator(case):
    barcodes, trace, config = case
    kb = make_kb(barcodes)
    for method in ("baseline", "cached"):
        result = run(method, trace, kb, config)
        mine = result.counters
        ref = reference_run(method, trace, len(kb), config)
        assert mine.scans == ref.scans
        assert mine.cache_hits == ref.cache_hits
        assert mine.cache_misses == ref.cache_misses
        assert mine.cache_comparisons == ref.cache_comparisons
        assert mine.db_comparisons == ref.db_comparisons
        assert mine.station_messages == ref.station_messages
        assert mine.per_scan_latencies == pytest.approx(ref.latencies)
        assert mine.total_processing_ms == pytest.approx(ref.total_work_ms)
        assert mine.link_stats.messages_sent == ref.messages_sent
        assert mine.link_stats.messages_lost == ref.messages_lost
        assert mine.link_stats.lock_events == ref.lock_events
        assert mine.link_stats.total_stall_time_ms == pytest.approx(ref.total_stall_ms)
        assert result.snapshots == [tuple(ref.final_rows[robot_id]) for robot_id in sorted(ref.final_rows)]


def test_run_counters_compare_by_value_latency_column_included():
    trace = trace_of([A, B, A])
    kb = make_kb([A, B])
    first, second = (run("cached", trace, kb, make_sim_config()).counters for _ in range(2))
    assert first == second
    assert dataclasses.replace(first, per_scan_latencies=first.per_scan_latencies + 1.0) != first
    assert dataclasses.replace(first, cache_hits=first.cache_hits + 1) != first


def test_generated_workload_runs_end_to_end():
    workload = WorkloadConfig(
        total_scans=2000, unique_barcodes=30, skew=1.1, robots=3, inter_arrival_ms=1.0, seed=5
    )
    trace = generate(workload)
    kb = make_kb(sorted(set(barcodes_of(trace))))
    config = make_sim_config(workload=workload, cache_capacity=6, link=lossy_link(), seed=5)
    cached = run(MethodKind.CACHED, trace, kb, config)
    baseline = run(MethodKind.BASELINE, trace, kb, config)
    assert cached.counters.cache_hits > 0
    assert cached.counters.station_messages < baseline.counters.station_messages
    assert cached.counters.scans == baseline.counters.scans == 2000


def test_malformed_barcode_in_an_in_memory_trace_is_rejected_at_entry():
    # Building the Trace is the check, so no run() ever sees the bad key.
    # A trailing newline makes a 15-character key, not a barcode.
    for bad in ("1000000000000x", "10000000000000\n"):
        with pytest.raises(ValidationError) as exc_info:
            trace_of([A, B, A, bad])
        assert repr(bad) in str(exc_info.value)


def test_a_zero_padded_barcode_is_named_by_its_14_digits_in_snapshots_and_errors():
    b = "00000000000007"
    trace = make_trace([(0, b, 0.0), (10**18 - 1, b, 1.0), (0, b, 2.0)])
    result = run("cached", trace, make_kb([b]), make_sim_config())
    assert result.snapshots == [((b, 2),), ((b, 1),)]
    for method in ("baseline", "cached"):
        with pytest.raises(MissingRecordError) as exc_info:
            run(method, trace, make_kb([A]), make_sim_config())
        assert exc_info.value.barcode == b
        assert str(exc_info.value) == f"barcode {b} has no knowledge-base record"


def test_int_issue_times_are_replayed_and_reported_as_floats():
    # A hand-built trace holds its int times as float64, so its run reports
    # first_issued_at_ms as 0.0, not 0, as a run of the same trace read
    # from a file does.
    kb = make_kb([A, B])
    config = make_sim_config(link=lossy_link(), seed=3)
    with_ints = run("cached", make_trace([(0, A, 0), (1, B, 7), (0, A, 9)]), kb, config)
    with_floats = run("cached", make_trace([(0, A, 0.0), (1, B, 7.0), (0, A, 9.0)]), kb, config)
    counters = with_ints.counters.to_dict()
    assert type(counters["first_issued_at_ms"]) is float and repr(counters["first_issued_at_ms"]) == "0.0"
    assert counters == with_floats.counters.to_dict()
    assert result_digest(with_ints) == result_digest(with_floats)
