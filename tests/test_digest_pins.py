"""Pinned result digests: any change to the replay engine must keep these bits.

Four 20k-scan configs, both methods each: the desk-scale preset cut to
20,000 scans (3 slots, hit ratio about 0.45); the same preset widened
to 64 slots over 20,000 keys at skew 1.0 (about 45 probes per lookup);
churn, 200,000 keys at skew 0 over a link that loses 30% of its copies
(almost every scan misses); and a harsh link, the desk preset at loss 0.9
and lock 0.5 (about ten copies and half a lock per request).
The synthesized knowledge base is pinned too, as the sha256 of the record
file that generate writes at three sizes, and so is each config's trace CSV,
as the sha256 of what save_trace writes for generate's trace.
"""

import hashlib
import io
from dataclasses import replace

import pytest

from robocache.config import load_config
from robocache.knowledge_base import build_kb_for_workload, write_kb_for_workload
from robocache.presets import desk_scale_path
from robocache.simulator import result_digest, run
from robocache.workload import generate, parse_trace_bytes, save_trace


def desk_20k():
    config = load_config(desk_scale_path())
    return replace(config, workload=replace(config.workload, total_scans=20_000))


def wide_cache_20k():
    config = desk_20k()
    return replace(config, cache_capacity=64, workload=replace(config.workload, unique_barcodes=20_000, skew=1.0))


def churn_20k():
    config = desk_20k()
    return replace(
        config,
        link=replace(config.link, loss_probability=0.30),
        workload=replace(config.workload, unique_barcodes=200_000, skew=0.0),
    )


def harsh_link_20k():
    config = desk_20k()
    return replace(config, link=replace(config.link, loss_probability=0.9, lock_probability=0.5))


PINS = {
    "desk": {
        "baseline": "aec5a2d0635192f15c5f21461977ef678dc851cf6208fd09306a3dc647cc8fef",
        "cached": "1d9537a7b3b989a41ac552818436261ee65c499f7cef7570357e1c5997680bcd",
    },
    "wide-cache": {
        "baseline": "cae987bc30044e510c4621eaea564bcaf2c29cb8e39a869c0dfdbcfefb0ef917",
        "cached": "2eae72bc6c4b3d4a0d2c259658216ed51b0942f6754bce04d655d651b6715ed5",
    },
    "churn": {
        "baseline": "6432436bed5ac6714952f3d9b6afcc9fca6bb23a8d27a22974c5792914038cbb",
        "cached": "59cb669522c91aa0de7733a894232945ef09130d1c2e8febabfa08c60851503e",
    },
    "harsh-link": {
        "baseline": "2de0b1dc584cfec2f91d7c0687117c203a92a9a7c77897638f3a39e968367650",
        "cached": "30b09c5a065e534f54148b042564f6ad6e90b484302eea9b0ce0089792e9e0ec",
    },
}
CONFIGS = {"desk": desk_20k, "wide-cache": wide_cache_20k, "churn": churn_20k, "harsh-link": harsh_link_20k}


@pytest.mark.parametrize("name", sorted(PINS))
def test_result_digests_of_both_methods_are_pinned(name):
    config = CONFIGS[name]()
    trace = generate(config.workload)
    kb = build_kb_for_workload(config.workload.unique_barcodes)
    for method, expected in PINS[name].items():
        assert result_digest(run(method, trace, kb, config)) == expected, f"{name}/{method}"


KB_PINS = {
    2_000: "d8f630bebbc8a3deef54c4d30de315b44257eae42f0598c09ed3b488adbd4e5c",
    20_000: "22eb73a1d26bdc38add16d95667b1badc414f63ef1e4abdaab65421089253df2",
    200_000: "e86bf680eff873763aa0b3eecee1f9f035a59c916673e6b3014ffc5279b22c19",
}


@pytest.mark.parametrize("records", sorted(KB_PINS))
def test_synthesized_knowledge_base_bytes_are_pinned(records, tmp_path):
    path = tmp_path / "kb.dat"
    with open(path, "wb") as fh:
        write_kb_for_workload(records, fh)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == KB_PINS[records]


TRACE_PINS = {
    "desk": "66046ccbe25886ea0b4d2975623cf1c5b28015782224a1523e582f47a2adfb93",
    "wide-cache": "40bde0969e1be55cd910ebd5ce1fc2c0be980b3647194b3445d2a1a915eb94fb",
}


@pytest.mark.parametrize("name", sorted(TRACE_PINS))
def test_generated_trace_bytes_are_pinned_and_round_trip(name):
    out = io.StringIO()
    save_trace(generate(CONFIGS[name]().workload), out)
    text = out.getvalue()
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == TRACE_PINS[name]
    again = io.StringIO()
    save_trace(parse_trace_bytes(text.encode()), again)
    assert again.getvalue() == text
