"""Unified observability for the simulator: metrics + span tracing.

``repro.obs`` is the substrate underneath the ad-hoc instrumentation
classes (``SimMetrics``/``IpcMetrics``, thin facades over
:class:`MetricRegistry` instruments) and the cross-process
span tracer that turns a sharded fleet run into one clock-aligned
timeline exportable as JSONL or Chrome ``trace_event`` JSON.

See ``docs/observability.md`` for the instrument taxonomy, span naming
conventions, and exporter formats.
"""

from repro.obs.export import (
    chrome_trace,
    lossy_processes,
    to_chrome_trace,
    to_jsonl,
    validate_chrome_trace,
)
from repro.obs.ops import (
    MetricsAppender,
    OpsPlane,
    OpsServer,
    read_metrics_stream,
    render_stream_tail,
    sync_trace_counters,
    validate_metrics_stream,
)
from repro.obs.registry import Counter, Gauge, Histogram, MetricRegistry
from repro.obs.spill import SpillWriter, read_segments, validate_spill_dir
from repro.obs.tracer import (
    INSTANT,
    SPAN,
    NULL_SPAN,
    SpanTracer,
    TraceEvent,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricRegistry",
    "MetricsAppender",
    "OpsPlane",
    "OpsServer",
    "SpanTracer",
    "SpillWriter",
    "TraceEvent",
    "SPAN",
    "INSTANT",
    "NULL_SPAN",
    "chrome_trace",
    "lossy_processes",
    "read_metrics_stream",
    "read_segments",
    "render_stream_tail",
    "sync_trace_counters",
    "to_chrome_trace",
    "to_jsonl",
    "validate_chrome_trace",
    "validate_metrics_stream",
    "validate_spill_dir",
]
