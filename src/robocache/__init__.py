"""Hit-ordered scan cache and trace-driven satellite-link simulator.

A fleet of mobile robots scans barcodes and needs a routing decision for
each scan. The baseline method asks the remote station for every scan;
the cached method gives each robot a small local cache ordered by hit
counters so popular barcodes resolve without touching the link. This
package provides the cache itself, the knowledge base it fronts, the
link and workload models, the deterministic simulator, and the
four-row performance report comparing the two methods.
"""

from .cache import HitOrderedCache, validate_barcode
from .config import SimConfig, load_config
from .errors import (
    ConfigError,
    IngestError,
    MissingRecordError,
    SimulationError,
    TraceFormatError,
    ValidationError,
)
from .knowledge_base import (
    KnowledgeBase,
    index_probe_cost,
    ingest_bytes,
    load_kb,
)
from .metrics import (
    AlertPolicy,
    AlertResult,
    ComparisonTable,
    MetricsReport,
    check_alert,
    compare,
    summarize,
)
from .netlink import LinkConfig, LinkStats, SatelliteLink
from .simulator import (
    MethodKind,
    RunCounters,
    RunResult,
    result_digest,
    run,
)
from .workload import (
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

__version__ = "0.1.0"

__all__ = [
    "AlertPolicy",
    "AlertResult",
    "ComparisonTable",
    "ConfigError",
    "HitOrderedCache",
    "IngestError",
    "KnowledgeBase",
    "LinkConfig",
    "LinkStats",
    "MethodKind",
    "MetricsReport",
    "MissingRecordError",
    "RunCounters",
    "RunResult",
    "SatelliteLink",
    "SimConfig",
    "SimulationError",
    "Trace",
    "TraceFormatError",
    "ValidationError",
    "WorkloadConfig",
    "barcode_for_rank",
    "check_alert",
    "compare",
    "generate",
    "index_probe_cost",
    "ingest_bytes",
    "load_config",
    "load_kb",
    "parse_trace_bytes",
    "read_trace",
    "result_digest",
    "run",
    "save_trace",
    "summarize",
    "validate_barcode",
    "write_trace",
    "zipf_probabilities",
]
