"""Aggregate run counters into the four-row performance report.

The four rows, for either method:

    decision_latency_minutes        mean per-scan decision latency
    processing_time_minutes         final processing clock minus first issue
    disruption_per_million_scans    (lock events + lost messages) * 1e6 / scans
    total_comparisons               cache probes + database probes

compare() puts a baseline and a cached report side by side with
cached/baseline ratios. check_alert() raises the overrun flag when total
processing time strictly exceeds the policy threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, List, Optional, Tuple

import numpy as np

from .errors import ConfigError, ValidationError
from .simulator import _CHUNK_SCANS, MethodKind, RunResult

MS_PER_MINUTE = 60_000.0

RATIO_NAMES = ("latency_ratio", "processing_ratio", "disruption_ratio", "comparisons_ratio")


@dataclass(frozen=True)
class MetricsReport:
    method: MethodKind
    decision_latency_minutes: float
    processing_time_minutes: float
    disruption_per_million_scans: float
    total_comparisons: int

    def row_values(self) -> Tuple[float, float, float, int]:
        return tuple(getattr(self, name) for name in METRIC_NAMES)


# The four report rows, in order: every MetricsReport field but the method.
METRIC_NAMES = tuple(f.name for f in fields(MetricsReport) if f.name != "method")


@dataclass(frozen=True)
class ComparisonTable:
    baseline: MetricsReport
    cached: MetricsReport
    ratios: Dict[str, Optional[float]]


@dataclass(frozen=True)
class AlertPolicy:
    threshold_minutes: float

    def __post_init__(self) -> None:
        if not self.threshold_minutes > 0:
            raise ConfigError(f"alert threshold must be > 0 minutes, got {self.threshold_minutes!r}")


@dataclass(frozen=True)
class AlertResult:
    raised: bool
    overrun_minutes: float


def summarize(result: RunResult) -> MetricsReport:
    """Reduce one finished run to the four report rows, under its own method."""
    counters = result.counters
    latencies = counters.per_scan_latencies
    if not len(latencies):
        raise ValidationError("run produced no decisions; nothing to summarize")
    # Left to right from 0.0, as a Python loop adds: np.sum is pairwise, sum() compensates since 3.12.
    # A chunk at a time, the total carried, so no running total is kept per scan.
    total_ms = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, len(latencies), _CHUNK_SCANS):
            total_ms = float(np.add.accumulate(np.append(total_ms, latencies[start : start + _CHUNK_SCANS]))[-1])
    mean_latency_ms = total_ms / len(latencies)
    disruption_events = counters.link_stats.lock_events + counters.link_stats.messages_lost
    return MetricsReport(
        method=result.method,
        decision_latency_minutes=mean_latency_ms / MS_PER_MINUTE,
        processing_time_minutes=counters.total_processing_ms / MS_PER_MINUTE,
        disruption_per_million_scans=disruption_events * 1_000_000.0 / counters.scans,
        total_comparisons=counters.cache_comparisons + counters.db_comparisons,
    )


def compare(baseline: MetricsReport, cached: MetricsReport) -> ComparisonTable:
    """Pair the two methods' reports and compute cached/baseline ratios.

    A ratio is None when its baseline value is zero (undefined, not
    infinite). Callers are responsible for only comparing reports that
    came from the same trace, knowledge base, link and station terms; the
    command-line layer enforces that with the digests and config block of
    each raw report.
    """
    if baseline.method is not MethodKind.BASELINE:
        raise ValidationError(f"left report must be the baseline method, got {baseline.method.value}")
    if cached.method is not MethodKind.CACHED:
        raise ValidationError(f"right report must be the cached method, got {cached.method.value}")
    ratios: Dict[str, Optional[float]] = {}
    for ratio_name, base_value, cached_value in zip(
        RATIO_NAMES, baseline.row_values(), cached.row_values()
    ):
        ratios[ratio_name] = cached_value / base_value if base_value > 0 else None
    return ComparisonTable(baseline=baseline, cached=cached, ratios=ratios)


def check_alert(report: MetricsReport, policy: AlertPolicy) -> AlertResult:
    """Flag a run whose total processing time strictly exceeds the threshold."""
    overrun = report.processing_time_minutes - policy.threshold_minutes
    if overrun > 0:
        return AlertResult(raised=True, overrun_minutes=overrun)
    return AlertResult(raised=False, overrun_minutes=0.0)


# The first line of every comparison table file.
COMPARISON_HEADER = "metric,baseline,cached,ratio"


def comparison_rows(table: ComparisonTable) -> List[Tuple[str, float, float, Optional[float]]]:
    """The four (metric, baseline, cached, ratio) rows, report order."""
    rows = []
    for name, ratio_name, base_value, cached_value in zip(
        METRIC_NAMES, RATIO_NAMES, table.baseline.row_values(), table.cached.row_values()
    ):
        rows.append((name, base_value, cached_value, table.ratios[ratio_name]))
    return rows


def comparison_csv(table: ComparisonTable) -> str:
    """Serialize the comparison as COMPARISON_HEADER CSV."""
    lines = [COMPARISON_HEADER]
    for name, base_value, cached_value, ratio in comparison_rows(table):
        ratio_text = repr(ratio) if ratio is not None else ""
        lines.append(f"{name},{base_value!r},{cached_value!r},{ratio_text}")
    return "\n".join(lines) + "\n"


def report_csv(report: MetricsReport) -> str:
    """Serialize one method's report as ``metric,value`` CSV."""
    lines = ["metric,value"]
    for name, value in zip(METRIC_NAMES, report.row_values()):
        lines.append(f"{name},{value!r}")
    return "\n".join(lines) + "\n"


def format_comparison(table: ComparisonTable) -> str:
    """Human-readable four-row table."""
    header = f"{'metric':<32}{'baseline':>16}{'cached':>16}{'ratio':>10}"
    lines = [header, "-" * len(header)]
    for name, base_value, cached_value, ratio in comparison_rows(table):
        ratio_text = f"{ratio:.3f}" if ratio is not None else "n/a"
        lines.append(f"{name:<32}{base_value:>16.6g}{cached_value:>16.6g}{ratio_text:>10}")
    return "\n".join(lines)


def format_report(report: MetricsReport) -> str:
    """Human-readable single-method table."""
    header = f"{'metric':<32}{report.method.value:>16}"
    lines = [header, "-" * len(header)]
    for name, value in zip(METRIC_NAMES, report.row_values()):
        lines.append(f"{name:<32}{value:>16.6g}")
    return "\n".join(lines)
