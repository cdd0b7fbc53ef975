"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per
criterion lines. Every tolerance is pinned here, not configurable.
"""

import hashlib
import io
import os
import random
import time
from collections import Counter

from robocache.cache import HitOrderedCache
from robocache.cli import run_cli
from robocache.config import load_config
from robocache.knowledge_base import build_kb_for_workload, ingest_bytes, load_kb, write_kb_for_workload
from robocache.metrics import AlertPolicy, MetricsReport, check_alert, compare, summarize
from robocache.presets import desk_scale_path
from robocache.simulator import MethodKind, run
from robocache.workload import (
    WorkloadConfig,
    barcode_for_rank,
    generate,
    parse_trace_bytes,
    save_trace,
)

from helpers import barcodes_of, make_kb, make_sim_config, make_trace, rows_of
from reference import ReferenceCache

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

RATIO_TARGETS = {
    "latency_ratio": 0.65,
    "processing_ratio": 0.833,
    "disruption_ratio": 0.556,
    "comparisons_ratio": 0.771,
}
RATIO_TOLERANCE = 0.15

A4_CONFIG = """\
[run]
seed = 4242
output_dir = {out}

[workload]
total_scans = 2000
unique_barcodes = 64
skew = 1.1
robots = 3
inter_arrival_ms = 1.0

[link]
one_way_latency_ms = 25
loss_probability = 0.08
lock_probability = 0.02
lock_stall_ms = 12
retransmit_timeout_ms = 60

[cache]
capacity = 8
probe_time_ms = 0.05

[station]
db_probe_time_ms = 0.4

[alert]
threshold_minutes = 20
"""


def _show(line: str) -> None:
    print(line, flush=True)


def test_a1_oracle_equivalence_against_brute_force_cache():
    rng = random.Random(0xA1)
    started = time.perf_counter()
    traces = 10_000
    operations = 0
    for _ in range(traces):
        capacity = rng.randint(1, 16)
        keyspace = [barcode_for_rank(n) for n in range(rng.randint(1, 64))]
        bucket = rng.random()
        if bucket < 0.80:
            length = rng.randint(1, 50)
        elif bucket < 0.95:
            length = rng.randint(50, 200)
        else:
            length = rng.randint(200, 1000)
        cache = HitOrderedCache(capacity)
        reference = ReferenceCache(capacity)
        hits = misses = ref_hits = ref_misses = 0
        for _ in range(length):
            barcode = rng.choice(keyspace)
            rows = cache.snapshot()
            (slot,) = cache.replay((barcode,))
            ref_hit, ref_comparisons = reference.lookup(barcode)
            assert (slot >= 0) == ref_hit
            assert (slot + 1 if slot >= 0 else ~slot) == ref_comparisons
            if slot >= 0:
                hits += 1
            else:
                misses += 1
                # The evicted key is the bottom row of a full cache before the miss.
                evicted = rows[-1][0] if len(rows) == capacity else None
                assert evicted == reference.insert(barcode)
                assert all(key != evicted for key, _ in cache.snapshot())
            if ref_hit:
                ref_hits += 1
            else:
                ref_misses += 1
            operations += 1
        assert (hits, misses) == (ref_hits, ref_misses)
        assert list(cache.snapshot()) == reference.rows()
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"A1 exceeded its 30 s budget: {elapsed:.1f}s"
    _show(
        f"[ACCEPTANCE] A1 oracle equivalence: PASS "
        f"({traces} traces, {operations} operations, exact agreement, {elapsed:.1f}s)"
    )


def _random_trace(rng, length, keyspace, robots):
    now = 0.0
    events = []
    for index in range(length):
        now += rng.expovariate(0.2)
        events.append((index % robots, barcode_for_rank(rng.randrange(keyspace)), now))
    return make_trace(events)


def test_a2_station_traffic_reduction_property():
    rng = random.Random(0xA2)
    kb = make_kb([barcode_for_rank(n) for n in range(64)])
    strict_cases = equal_cases = dominance_cases = 0
    for trial in range(400):
        robots = rng.randint(1, 4)
        keyspace = rng.randint(2, 64)
        length = rng.randint(1, 8) if trial % 2 else rng.randint(1, 60)
        trace = _random_trace(rng, length, keyspace, robots)
        unique_in_trace = len(set(barcodes_of(trace)))

        # retention-free regime: capacity covers every key, so a repeat
        # within one robot's stream is exactly a hit
        config = make_sim_config(cache_capacity=max(unique_in_trace, 1), seed=trial)
        cached = run("cached", trace, kb, config).counters
        baseline = run("baseline", trace, kb, config).counters
        assert baseline.station_messages == len(trace)
        per_robot_repeat = False
        seen = {}
        for robot_id, barcode, _ in rows_of(trace):
            robot_seen = seen.setdefault(robot_id, set())
            if barcode in robot_seen:
                per_robot_repeat = True
            robot_seen.add(barcode)
        if per_robot_repeat:
            strict_cases += 1
            assert cached.station_messages < baseline.station_messages
        else:
            equal_cases += 1
            assert cached.station_messages == baseline.station_messages

        # arbitrary capacity: dominance still holds
        small = make_sim_config(cache_capacity=rng.randint(1, 8), seed=trial)
        dominated = run("cached", trace, kb, small).counters
        assert dominated.station_messages <= baseline.station_messages
        dominance_cases += 1
    assert strict_cases > 50 and equal_cases > 50
    _show(
        f"[ACCEPTANCE] A2 station-traffic reduction: PASS "
        f"({strict_cases} strict, {equal_cases} equal, {dominance_cases} dominance checks)"
    )


def test_a3_desk_scale_preset_reproduces_reference_ratios():
    started = time.perf_counter()
    config = load_config(desk_scale_path())
    trace = generate(config.workload)
    kb = build_kb_for_workload(config.workload.unique_barcodes)
    baseline = summarize(run(MethodKind.BASELINE, trace, kb, config))
    cached = summarize(run(MethodKind.CACHED, trace, kb, config))
    table = compare(baseline, cached)
    elapsed = time.perf_counter() - started
    details = []
    for name, target in RATIO_TARGETS.items():
        got = table.ratios[name]
        relative_error = abs(got - target) / target
        assert relative_error <= RATIO_TOLERANCE, (
            f"{name}: got {got:.4f}, target {target} +/-15% "
            f"(off by {100 * relative_error:.1f}%)"
        )
        details.append(f"{name}={got:.3f}")
    assert elapsed < 60.0, f"A3 exceeded its 60 s budget: {elapsed:.1f}s"
    _show(
        f"[ACCEPTANCE] A3 desk-scale calibration: PASS "
        f"({', '.join(details)}; 300k scans x2 in {elapsed:.1f}s)"
    )


def test_a4_byte_identical_reports_across_invocations(tmp_path):
    config_path = str(tmp_path / "sim.ini")
    outputs = []
    for label in ("first", "second"):
        out_dir = str(tmp_path / label)
        with open(config_path, "w") as fh:
            fh.write(A4_CONFIG.format(out=out_dir))
        assert run_cli(["generate", "--config", config_path]) == 0
        for method in ("baseline", "cached"):
            assert run_cli(["run", "--config", config_path, "--method", method]) == 0
        outputs.append(out_dir)
    compared = 0
    for name in (
        "trace.csv",
        "kb.dat",
        "report_baseline.csv",
        "report_cached.csv",
        "raw_baseline.json",
        "raw_cached.json",
    ):
        with open(os.path.join(outputs[0], name), "rb") as fh:
            first = fh.read()
        with open(os.path.join(outputs[1], name), "rb") as fh:
            second = fh.read()
        assert first == second, f"{name} differs between identical invocations"
        compared += 1
    _show(
        f"[ACCEPTANCE] A4 determinism: PASS "
        f"({compared} files byte-identical across invocations, loss/lock > 0)"
    )


def test_a5_ordering_stability_and_conservation_invariants():
    rng = random.Random(0xA5)
    total_operations = 0
    target_operations = 1_000_000
    caches_used = 0
    while total_operations < target_operations:
        capacity = rng.randint(1, 16)
        keyspace = [barcode_for_rank(n) for n in range(rng.randint(1, 48))]
        cache = HitOrderedCache(capacity)
        caches_used += 1
        successful_lookups = inserts = 0
        evicted_hits = 0
        seq = {}  # barcode -> the operation at which its hit count last changed
        for _ in range(rng.randint(50, 400)):
            barcode = rng.choice(keyspace)
            before = cache.snapshot()
            (slot,) = cache.replay((barcode,))
            total_operations += 1
            seq[barcode] = total_operations
            rows = cache.snapshot()
            if slot >= 0:
                successful_lookups += 1
            else:
                inserts += 1
                if len(before) == capacity:
                    # A miss in a full cache evicts the bottom row.
                    victim, victim_hits = before[-1]
                    evicted_hits += victim_hits
                    assert all(key != victim for key, _ in rows), "evicted key still resident"
                else:
                    assert len(rows) == len(before) + 1
                assert rows[-1] == (barcode, 1), "admitted key not at the bottom with one hit"

            assert len(rows) <= capacity
            resident_hits = 0
            for (left, left_hits), (right, right_hits) in zip(rows, rows[1:]):
                assert left_hits >= right_hits, "descending-hits order broken"
                if left_hits == right_hits:
                    assert seq[left] < seq[right], "equal-hits stability broken"
            for _, hits in rows:
                assert hits >= 1
                resident_hits += hits
            assert resident_hits + evicted_hits == successful_lookups + inserts, (
                "hits conservation broken"
            )
    _show(
        f"[ACCEPTANCE] A5 ordering invariants: PASS "
        f"({total_operations} operations over {caches_used} caches, checked after every operation)"
    )


def test_a6_alert_strictly_above_threshold():
    policy = AlertPolicy(threshold_minutes=20.0)

    def report_with_processing(minutes):
        return MetricsReport(
            method=MethodKind.BASELINE,
            decision_latency_minutes=1.0,
            processing_time_minutes=minutes,
            disruption_per_million_scans=0.0,
            total_comparisons=1,
        )

    for epsilon in (1e-9, 1e-3, 1.0):
        below = check_alert(report_with_processing(20.0 - epsilon), policy)
        at = check_alert(report_with_processing(20.0), policy)
        above = check_alert(report_with_processing(20.0 + epsilon), policy)
        assert not below.raised and below.overrun_minutes == 0.0
        assert not at.raised and at.overrun_minutes == 0.0
        assert above.raised
        assert abs(above.overrun_minutes - epsilon) < 1e-12
    assert check_alert(report_with_processing(21.0), policy).overrun_minutes == 1.0
    _show(
        "[ACCEPTANCE] A6 alert semantics: PASS "
        "(strictly above 20 raises; at/below never; overrun exact)"
    )


def test_a7_round_trips_and_zipf_partial_masses():
    # knowledge-base file round trip, hand fixture plus a generated file: a
    # file loads to the keys of its lines and hashes to the sha256 of its bytes
    fixture_path = os.path.join(FIXTURES, "kb_10.dat")
    with open(fixture_path, "rb") as fh:
        original = fh.read()
    fixture_kb, fixture_digest = load_kb(fixture_path)
    assert fixture_digest == hashlib.sha256(original).hexdigest()
    assert fixture_kb._sorted_keys.tolist() == sorted(int(line[:14]) for line in original.splitlines())

    generated = io.BytesIO()
    write_kb_for_workload(500, generated)
    generated_kb = ingest_bytes(generated.getvalue())
    assert generated_kb._sorted_keys.tolist() == build_kb_for_workload(500)._sorted_keys.tolist()
    assert generated_kb._sorted_keys.tolist() == [int(barcode_for_rank(rank)) for rank in range(500)]

    # trace CSV round trip
    workload = WorkloadConfig(
        total_scans=5000, unique_barcodes=200, skew=1.0, robots=4, inter_arrival_ms=2.0, seed=0xA7
    )
    events = generate(workload)
    first_csv = io.StringIO()
    save_trace(events, first_csv)
    reloaded = parse_trace_bytes(first_csv.getvalue().encode("ascii"))
    assert reloaded == events
    second_csv = io.StringIO()
    save_trace(reloaded, second_csv)
    assert second_csv.getvalue() == first_csv.getvalue()

    # Zipf partial masses against independent analytic sums, 1e6 samples
    unique, skew, samples = 10_000, 1.2, 1_000_000
    zipf_events = generate(
        WorkloadConfig(
            total_scans=samples, unique_barcodes=unique, skew=skew, robots=2,
            inter_arrival_ms=1.0, seed=0x7A7,
        )
    )
    # Counted by int key: each barcode's 14 digits as one integer.
    counts = Counter(zipf_events.keys.tolist())
    weights = [rank ** -skew for rank in range(1, unique + 1)]
    total_weight = sum(weights)
    checked = []
    for top in (100, unique // 10):
        analytic = sum(weights[:top]) / total_weight
        empirical = sum(counts[int(barcode_for_rank(rank))] for rank in range(top)) / samples
        assert abs(empirical - analytic) <= 0.02 * analytic, (
            f"top-{top} mass {empirical:.4f} vs analytic {analytic:.4f}"
        )
        checked.append(f"top{top}={empirical:.4f}~{analytic:.4f}")
    _show(
        f"[ACCEPTANCE] A7 round trips and frequency law: PASS "
        f"(kb keys and sha256 from its file, trace byte-identical; {'; '.join(checked)})"
    )
