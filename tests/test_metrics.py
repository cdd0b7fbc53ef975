import dataclasses

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from robocache.errors import ConfigError, ValidationError
from robocache.knowledge_base import index_probe_cost
from robocache.metrics import (
    AlertPolicy,
    MetricsReport,
    check_alert,
    compare,
    comparison_csv,
    comparison_rows,
    format_comparison,
    report_csv,
    summarize,
)
from robocache.simulator import MethodKind, RunCounters, RunResult, run

from helpers import barcodes_of, make_kb, make_sim_config, make_trace, traced_memory
from reference import reference_mean_latency

A = "10000000000001"
B = "10000000000002"
C = "10000000000003"


def run_result(method, barcodes, **config_overrides):
    trace = make_trace((0, b, i * 100.0) for i, b in enumerate(barcodes))
    kb = make_kb(sorted(set(barcodes)))
    return run(method, trace, kb, make_sim_config(**config_overrides))


def test_single_scan_mean_latency_in_minutes():
    # 510ms = 0.0085 minutes exactly
    report = summarize(run_result("baseline", [A]))
    assert report.decision_latency_minutes == pytest.approx(0.0085)


def test_zero_loss_zero_lock_run_has_zero_disruption():
    result = run_result("cached", [A, B, A, C, A])
    counters = result.counters
    report = summarize(result)
    assert report.disruption_per_million_scans == 0.0
    assert report.total_comparisons == counters.cache_comparisons + counters.db_comparisons


def test_summarize_rejects_a_run_with_no_decisions():
    result = run_result("baseline", [A])
    empty = dataclasses.replace(result, counters=dataclasses.replace(result.counters, per_scan_latencies=[]))
    with pytest.raises(ValidationError):
        summarize(empty)


def test_mean_latency_is_summed_left_to_right_on_every_python():
    # 1e16 + 1.0 rounds back to 1e16, twice; a compensated sum (builtin sum()
    # since Python 3.12) would keep the 2.0 and give 1.0000000000000002e16 / 3.
    result = run_result("baseline", [A])
    latencies = [1e16, 1.0, 1.0]
    result = dataclasses.replace(result, counters=dataclasses.replace(result.counters, per_scan_latencies=latencies))
    assert summarize(result).decision_latency_minutes == 1e16 / 3 / 60_000.0


@given(st.lists(st.floats() | st.sampled_from([0.0, -0.0, 1e308, -1e308]), min_size=1, max_size=40))
@example([-0.0])
@example([-0.0, -0.0, 1.5])
@example([1e308, 1e308, -1e308])
@example([float("inf"), float("-inf")])
def test_mean_latency_has_the_bits_of_the_left_to_right_loop(latencies):
    counters = RunCounters(scans=len(latencies), per_scan_latencies=np.array(latencies, np.float64))
    report = summarize(RunResult(MethodKind.BASELINE, counters, []))
    assert report.decision_latency_minutes.hex() == (reference_mean_latency(latencies) / 60_000.0).hex()


def test_summarize_holds_a_chunk_of_running_totals_not_one_per_scan():
    latencies = np.random.default_rng(7).random(300_000) * 1000.0
    result = RunResult(MethodKind.BASELINE, RunCounters(scans=len(latencies), per_scan_latencies=latencies), [])
    report, _, peak = traced_memory(lambda: summarize(result))
    assert peak <= latencies.nbytes / 10, f"summarize peaked at {peak} bytes"
    assert report.decision_latency_minutes.hex() == (reference_mean_latency(latencies.tolist()) / 60_000.0).hex()


def make_report(method, latency, processing, disruption, comparisons):
    return MetricsReport(
        method=MethodKind(method),
        decision_latency_minutes=latency,
        processing_time_minutes=processing,
        disruption_per_million_scans=disruption,
        total_comparisons=comparisons,
    )


def test_reference_column_ratios():
    # the four target ratios of the desk-scale calibration
    baseline = make_report("baseline", 2.0, 18.0, 1e6 / 1_500_000, 35_000_000)
    cached = make_report("cached", 1.3, 15.0, 1e6 / 2_700_000, 27_000_000)
    table = compare(baseline, cached)
    assert table.ratios["latency_ratio"] == pytest.approx(0.65)
    assert table.ratios["processing_ratio"] == pytest.approx(15 / 18)
    assert table.ratios["disruption_ratio"] == pytest.approx(1.5 / 2.7)
    assert table.ratios["comparisons_ratio"] == pytest.approx(27 / 35)


def test_self_comparison_is_all_ones():
    report = make_report("baseline", 2.0, 18.0, 0.667, 35)
    cached_twin = dataclasses.replace(report, method=MethodKind.CACHED)
    table = compare(report, cached_twin)
    assert all(ratio == pytest.approx(1.0) for ratio in table.ratios.values())


def test_compare_requires_one_report_per_method():
    baseline = make_report("baseline", 2.0, 18.0, 1.0, 10)
    with pytest.raises(ValidationError):
        compare(baseline, baseline)


def test_zero_baseline_ratio_is_undefined_not_infinite():
    baseline = make_report("baseline", 2.0, 18.0, 0.0, 10)
    cached = make_report("cached", 1.0, 9.0, 0.0, 8)
    table = compare(baseline, cached)
    assert table.ratios["disruption_ratio"] is None


def test_alert_raises_strictly_above_threshold():
    policy = AlertPolicy(threshold_minutes=20.0)
    report = make_report("baseline", 1.0, 21.0, 0.0, 1)
    result = check_alert(report, policy)
    assert result.raised
    assert result.overrun_minutes == pytest.approx(1.0)


def test_alert_not_raised_at_or_below_threshold():
    policy = AlertPolicy(threshold_minutes=20.0)
    at_threshold = make_report("baseline", 1.0, 20.0, 0.0, 1)
    below = make_report("baseline", 1.0, 0.0, 0.0, 1)
    assert check_alert(at_threshold, policy) == check_alert(below, policy)
    assert not check_alert(at_threshold, policy).raised
    assert check_alert(below, policy).overrun_minutes == 0.0


def test_raising_the_threshold_never_creates_an_alert():
    report = make_report("baseline", 1.0, 12.5, 0.0, 1)
    raised = [
        check_alert(report, AlertPolicy(threshold)).raised
        for threshold in (5.0, 10.0, 12.5, 15.0, 30.0)
    ]
    assert raised == sorted(raised, reverse=True)  # True can only turn False


def test_alert_policy_requires_positive_threshold():
    with pytest.raises(ConfigError):
        AlertPolicy(threshold_minutes=0.0)


def test_comparison_csv_has_exactly_four_data_rows():
    baseline = make_report("baseline", 2.0, 18.0, 0.667, 35)
    cached = make_report("cached", 1.3, 15.0, 0.370, 27)
    table = compare(baseline, cached)
    lines = comparison_csv(table).splitlines()
    assert lines[0] == "metric,baseline,cached,ratio"
    assert len(lines) == 5
    names = [line.split(",")[0] for line in lines[1:]]
    assert names == [
        "decision_latency_minutes",
        "processing_time_minutes",
        "disruption_per_million_scans",
        "total_comparisons",
    ]
    assert len(comparison_rows(table)) == 4
    assert "ratio" in format_comparison(table)


def test_single_method_report_csv_shape():
    report = make_report("cached", 1.3, 15.0, 0.370, 27)
    lines = report_csv(report).splitlines()
    assert lines[0] == "metric,value"
    assert len(lines) == 5


def test_comparisons_ratio_below_one_when_hits_are_shallow():
    # repeated single barcode: hits at depth 1 vs a 4-probe indexed search
    # over a 16-record knowledge base
    keys = [f"100000000000{n:02d}" for n in range(16)]
    kb = make_kb(keys)
    assert index_probe_cost(len(kb)) == 4
    trace = make_trace((0, keys[0], i * 10.0) for i in range(31))
    config = make_sim_config()
    baseline = summarize(run("baseline", trace, kb, config))
    cached_result = run("cached", trace, kb, config)
    cached_counters = cached_result.counters
    assert cached_counters.cache_hits == 30
    cached = summarize(cached_result)
    table = compare(baseline, cached)
    assert table.ratios["comparisons_ratio"] < 1.0


def test_skewed_lossy_trace_improves_all_four_rows():
    from robocache.netlink import LinkConfig
    from robocache.workload import WorkloadConfig, generate

    workload = WorkloadConfig(
        total_scans=4000, unique_barcodes=50, skew=1.4, robots=2, inter_arrival_ms=1.0, seed=31
    )
    trace = generate(workload)
    kb = make_kb(sorted(set(barcodes_of(trace))))
    config = make_sim_config(
        workload=workload,
        cache_capacity=8,
        cache_probe_time_ms=0.05,
        db_probe_time_ms=2.0,
        link=LinkConfig(
            one_way_latency_ms=100.0,
            loss_probability=0.05,
            lock_probability=0.02,
            lock_stall_ms=20.0,
            retransmit_timeout_ms=250.0,
        ),
        seed=31,
    )
    baseline = summarize(run("baseline", trace, kb, config))
    cached = summarize(run("cached", trace, kb, config))
    table = compare(baseline, cached)
    assert all(ratio is not None and ratio < 1.0 for ratio in table.ratios.values())
