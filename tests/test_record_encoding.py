"""The raw report's text and result_digest against one json.dumps of the record.

``dumps_record`` formats the per-scan latency list once per distinct
value and splices it into the dump of the rest of the record. The oracles
in ``tests/reference.py`` are the encodings as they stood before: one
``json.dumps`` of the whole record. Drawn lists repeat a few values
heavily and reach 0.0 beside -0.0, the smallest subnormal, the largest
finite float and the exponent forms ``repr`` writes (``1e16``,
``1e-05``).
"""

import json
import math
import sys
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from robocache.cli import _raw_payload
from robocache.metrics import AlertPolicy, check_alert, summarize
from robocache.simulator import LATENCIES_KEY, dumps_record, result_digest, run
from robocache.workload import barcode_for_rank

from helpers import make_kb, make_sim_config, make_trace
from reference import reference_raw_text, reference_result_digest

EDGE_FLOATS = [0.0, -0.0, 5e-324, 1e16, 1e-05, sys.float_info.max, -sys.float_info.max]
CONFIG = make_sim_config()


def small_runs():
    """A baseline run (no snapshots) and a cached one (two robots' rows)."""
    barcodes = [barcode_for_rank(rank) for rank in range(5)]
    trace = make_trace((index % 2, barcodes[index * 7 % 5], float(index)) for index in range(40))
    kb = make_kb(barcodes)
    return [run(method, trace, kb, CONFIG) for method in ("baseline", "cached")]


RUNS = small_runs()


def raw_payload(result, latencies):
    report = summarize(result)
    alert = check_alert(report, AlertPolicy(CONFIG.alert_threshold_minutes))
    return {**_raw_payload(CONFIG, result, report, alert, "a" * 64, "b" * 64), LATENCIES_KEY: latencies}


def with_latencies(result, latencies):
    return replace(result, counters=replace(result.counters, per_scan_latencies=latencies))


@st.composite
def latency_lists(draw):
    """A list drawn from a pool of a few values, so most values repeat."""
    value = st.sampled_from(EDGE_FLOATS) | st.floats(allow_nan=False, allow_infinity=False)
    pool = draw(st.lists(value, min_size=1, max_size=6))
    return draw(st.lists(st.sampled_from(pool), max_size=300))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(latency_lists())
@example([0.0, -0.0, -0.0, 0.0])
@example(EDGE_FLOATS * 3)
@example([12.5])
@example([])
def test_raw_report_and_digest_equal_one_json_dumps(latencies):
    # Empty lists on both sides of the latency key, which the splice must not take for it.
    record = {"a": [], LATENCIES_KEY: latencies, "z": [[], {}]}
    assert dumps_record(record, (",", ":")) == json.dumps(record, sort_keys=True, separators=(",", ":"), allow_nan=False)
    for result in RUNS:
        assert dumps_record(raw_payload(result, latencies), (", ", ": ")) == reference_raw_text(raw_payload(result, latencies))
        result = with_latencies(result, latencies)
        assert result_digest(result) == reference_result_digest(result)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
def test_a_non_finite_latency_is_refused(bad):
    latencies = [1.5, bad, 1.5, 0.0]
    for result in RUNS:
        with pytest.raises(ValueError):
            reference_raw_text(raw_payload(result, latencies))
        with pytest.raises(ValueError):
            dumps_record(raw_payload(result, latencies), (", ", ": "))
        with pytest.raises(ValueError):
            result_digest(with_latencies(result, latencies))


def test_the_latency_key_must_occur_once():
    record = {"nested": {LATENCIES_KEY: [1.0]}, LATENCIES_KEY: [2.0]}
    with pytest.raises(AssertionError):
        dumps_record(record, (",", ":"))
