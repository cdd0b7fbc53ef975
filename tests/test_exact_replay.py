"""The replay against reference_replay, bit for bit.

reference_replay is the replay with one per-request link call and one
checked cache lookup per scan. Every case compares ``result_digest``,
``to_dict()``, every per-scan latency and every snapshot row with ``==``:
a speed-up that moves one float bit fails here. The drawn link configs
reach loss 0, lock 0, lock stall 0 and loss in [0.9, 0.999], whose long
loss runs take many draws per request; capacity 1 and one-scan traces are
drawn too. Generated traces deal robots round robin, so hand-built ones
put them in any order: sparse, unsorted ids, runs of one robot, and
chunks that hold one robot or miss one.
"""

from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from robocache import simulator
from robocache.netlink import LinkConfig
from robocache.simulator import result_digest, run
from robocache.workload import WorkloadConfig, barcode_for_rank, generate

from helpers import make_kb, make_sim_config, make_trace
from reference import reference_replay


def assert_same_replay(trace, kb, config):
    for method in ("baseline", "cached"):
        mine = run(method, trace, kb, config)
        ref = reference_replay(method, trace, kb, config)
        assert mine.counters.to_dict() == ref.counters.to_dict(), method
        assert mine.counters.per_scan_latencies.tolist() == ref.counters.per_scan_latencies, method
        assert mine.snapshots == ref.snapshots, method
        assert result_digest(mine) == result_digest(ref), method


def link_config(one_way_ms, loss, lock, lock_stall_ms, timeout_extra_ms):
    return LinkConfig(
        one_way_latency_ms=one_way_ms,
        loss_probability=loss,
        lock_probability=lock,
        lock_stall_ms=lock_stall_ms,
        retransmit_timeout_ms=2 * one_way_ms + timeout_extra_ms,
    )


@st.composite
def exact_cases(draw):
    """A generated workload and a run config; a long-loss link gets a short trace."""
    loss = draw(st.just(0.0) | st.floats(0.0, 0.5) | st.floats(0.9, 0.999))
    workload = WorkloadConfig(
        total_scans=draw(st.just(1) | st.integers(1, 60 if loss >= 0.9 else 400)),
        unique_barcodes=draw(st.integers(1, 40)),
        skew=draw(st.just(0.0) | st.floats(0.0, 2.0)),
        robots=draw(st.integers(1, 4)),
        inter_arrival_ms=draw(st.floats(0.1, 50.0)),
        seed=draw(st.integers(0, 2**32)),
    )
    link = link_config(
        draw(st.floats(0.5, 300.0)),
        loss,
        draw(st.just(0.0) | st.floats(0.0, 0.99)),
        draw(st.just(0.0) | st.floats(0.0, 100.0)),
        draw(st.floats(0.0, 100.0)),
    )
    config = make_sim_config(
        workload=workload,
        link=link,
        cache_capacity=draw(st.just(1) | st.integers(1, 10)),
        cache_probe_time_ms=draw(st.floats(0.0, 1.0)),
        db_probe_time_ms=draw(st.floats(0.0, 10.0)),
        seed=draw(st.integers(0, 2**64 - 1)),
    )
    return workload, config


@example(
    case=(
        WorkloadConfig(total_scans=1, unique_barcodes=1, skew=0.0, robots=1, inter_arrival_ms=1.0, seed=0),
        make_sim_config(link=link_config(3.2, 0.999, 0.0, 0.0, 0.0), cache_capacity=1, seed=2**64 - 1),
    )
)
@settings(derandomize=True, max_examples=120, deadline=None)
@given(case=exact_cases())
def test_replay_matches_the_per_request_reference_bit_for_bit(case):
    workload, config = case
    kb = make_kb([barcode_for_rank(rank) for rank in range(workload.unique_barcodes)])
    assert_same_replay(generate(workload), kb, config)


@pytest.mark.parametrize("chunk_scans", [1, 2, 7, 64])
def test_every_chunking_of_the_array_pass_matches_the_per_request_reference(monkeypatch, chunk_scans):
    # The clock, the stall total and the link's draws carry across chunks.
    monkeypatch.setattr(simulator, "_CHUNK_SCANS", chunk_scans)
    workload = WorkloadConfig(total_scans=300, unique_barcodes=25, skew=1.1, robots=3, inter_arrival_ms=0.7, seed=4)
    config = make_sim_config(
        workload=workload,
        link=link_config(3.2, 0.4, 0.3, 15.0, 28.6),
        cache_capacity=3,
        cache_probe_time_ms=0.44,
        db_probe_time_ms=0.3,
        seed=17,
    )
    kb = make_kb([barcode_for_rank(rank) for rank in range(workload.unique_barcodes)])
    assert_same_replay(generate(workload), kb, config)


@st.composite
def robot_order_cases(draw):
    """A hand-built trace whose robots take runs of scans in any order, and a small chunk size.

    Robot ids are sparse and unsorted, the widest a trace holds (10**18 - 1) among them.
    With runs of up to 12 scans and chunks of 1 to 9, a chunk often holds
    one robot only and misses the others.
    """
    robot_ids = draw(st.lists(st.sampled_from([0, 7, 1000, 3, 10**18 - 1]), min_size=1, max_size=4, unique=True))
    runs = draw(st.lists(st.tuples(st.sampled_from(robot_ids), st.integers(1, 12)), min_size=1, max_size=10))
    unique_barcodes = draw(st.integers(1, 8))
    rows, issued = [], 0.0
    for robot_id, length in runs:
        for rank in draw(st.lists(st.integers(0, unique_barcodes - 1), min_size=length, max_size=length)):
            issued += draw(st.floats(0.0, 20.0))
            rows.append((robot_id, barcode_for_rank(rank), issued))
    config = make_sim_config(
        link=link_config(3.2, draw(st.floats(0.0, 0.5)), draw(st.floats(0.0, 0.5)), 15.0, 28.6),
        cache_capacity=draw(st.integers(1, 4)),
        cache_probe_time_ms=0.44,
        db_probe_time_ms=0.3,
        seed=draw(st.integers(0, 2**32)),
    )
    return rows, unique_barcodes, config, draw(st.integers(1, 9))


@example(
    case=(
        [(1000, barcode_for_rank(0), 0.0)] * 3
        + [(0, barcode_for_rank(0), 1.0)] * 2
        + [(7, barcode_for_rank(1), 2.0)]
        + [(1000, barcode_for_rank(1), 3.0)] * 2,
        2,
        make_sim_config(link=link_config(3.2, 0.3, 0.1, 15.0, 28.6), cache_capacity=1, seed=5),
        2,
    )
)
@settings(derandomize=True, max_examples=100, deadline=None)
@given(case=robot_order_cases())
def test_robots_in_any_order_match_the_per_request_reference_bit_for_bit(case):
    rows, unique_barcodes, config, chunk_scans = case
    kb = make_kb([barcode_for_rank(rank) for rank in range(unique_barcodes)])
    # A fixture cannot be reset between Hypothesis examples; the patch is.
    with mock.patch.object(simulator, "_CHUNK_SCANS", chunk_scans):
        assert_same_replay(make_trace(rows), kb, config)


def test_a_long_lossy_trace_matches_the_per_request_reference_bit_for_bit():
    # 40,000 requests at loss 0.3 take about 97,000 draws: many chunks of
    # scans and blocks of draws.
    workload = WorkloadConfig(
        total_scans=40_000, unique_barcodes=3_000, skew=0.8, robots=3, inter_arrival_ms=1.0, seed=11
    )
    config = make_sim_config(
        workload=workload,
        link=link_config(3.2, 0.3, 0.05, 15.0, 28.6),
        cache_capacity=4,
        cache_probe_time_ms=0.44,
        db_probe_time_ms=0.3,
        seed=20261017,
    )
    kb = make_kb([barcode_for_rank(rank) for rank in range(workload.unique_barcodes)])
    assert_same_replay(generate(workload), kb, config)


def test_a_miss_after_a_probe_sums_its_work_in_scan_order():
    # The second scan misses after one probe and locks: its work is
    # (0.1 + 0.4) + 0.2, and the clock ends one ulp below what
    # 0.1 + (0.4 + 0.2) would give. Integer issue times are accepted too.
    a, b = barcode_for_rank(0), barcode_for_rank(1)
    kb = make_kb([a, b])
    config = make_sim_config(
        link=link_config(3.0, 0.0, 0.99, 0.2, 0.0),
        cache_capacity=2,
        cache_probe_time_ms=0.1,
        db_probe_time_ms=0.4,
        seed=3,
    )
    trace = make_trace([(0, a, 0), (0, b, 7)])
    assert_same_replay(trace, kb, config)
    cached = run("cached", trace, kb, config).counters
    assert cached.link_stats.lock_events == 2
    assert cached.final_clock == (0 + ((0.0 + 0.4) + 0.2)) + ((0.1 + 0.4) + 0.2) == 1.3
