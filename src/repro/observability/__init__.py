"""Observability: tracing, a metrics registry, and a perf-gated results store.

Three layers, each usable alone:

* :mod:`~repro.observability.trace` — life-of-a-transaction tracing
  (:class:`TransactionTracer`), off by default, exportable as JSONL and
  Chrome trace-event format;
* :mod:`~repro.observability.registry` — :class:`MetricsRegistry` over the
  per-site collectors plus :func:`derive_metrics` (opt/TO divergence rate,
  per-phase latency breakdown, abort-by-cause);
* :mod:`~repro.observability.store` / :mod:`~repro.observability.gate` /
  :mod:`~repro.observability.trend` — the provenance-stamped SQLite results
  store, the distribution-based regression gate, and the trend-report CLI.

See ``docs/observability.md`` for the full catalogue and workflows.
"""

from ..types import FLAT_SHARD_LABEL
from .gate import (
    DEFAULT_MIN_SAMPLES,
    DEFAULT_SIGMAS,
    DEFAULT_SLACK_FRACTION,
    GateResult,
    PerfGate,
    failures,
    gate_against_history,
)
from .registry import (
    ABORT_CAUSES,
    PHASE_LATENCIES,
    DerivedMetrics,
    MetricsRegistry,
    build_registry,
    derive_metrics,
)
from .store import (
    DEFAULT_DB_FILENAME,
    DEFAULT_RESULTS_DIR,
    ResultsStore,
    ResultsStoreError,
    RunRecord,
    config_hash,
    current_git_rev,
)
from .trace import TraceError, TraceEvent, TraceSpan, TransactionTracer
from .trend import render_trend_report

__all__ = [
    "ABORT_CAUSES",
    "DEFAULT_DB_FILENAME",
    "DEFAULT_MIN_SAMPLES",
    "DEFAULT_RESULTS_DIR",
    "DEFAULT_SIGMAS",
    "DEFAULT_SLACK_FRACTION",
    "DerivedMetrics",
    "FLAT_SHARD_LABEL",
    "GateResult",
    "MetricsRegistry",
    "PHASE_LATENCIES",
    "PerfGate",
    "ResultsStore",
    "ResultsStoreError",
    "RunRecord",
    "TraceError",
    "TraceEvent",
    "TraceSpan",
    "TransactionTracer",
    "build_registry",
    "config_hash",
    "current_git_rev",
    "derive_metrics",
    "failures",
    "gate_against_history",
    "render_trend_report",
]
