"""Simulation-wide observability: structured tracing and metrics.

The paper's evaluation hinges on *seeing inside* the service — skew
trajectories, buffer watermarks, grade changes, flow-scheduler
decisions — so every layer of the stack exposes trace hook points
(see DESIGN.md, "Observability"). The substrate is three pieces:

* :class:`Tracer` — the hook-point API. The default is *no tracer at
  all* (``Simulator.tracer is None``); every instrumented hot path
  guards on a single boolean, so a simulation without tracing pays
  only an attribute check and enters no function under ``repro/obs/``
  while it runs; scoring a session's QoE when its result is collected
  is the one thing it asks of this package, a fixed 17 calls per
  session (exact call counts — ``tests/test_datapath_budget.py``
  enforces them).
* :class:`MetricsRegistry` — labelled counters, gauges and
  histograms. A :class:`RecordingTracer` counts every event it
  records, so exported streams always reconcile with the registry.
* exporters — JSONL (one event per line) and Chrome trace-event
  format (loadable in ``chrome://tracing`` / Perfetto), plus the
  ``python -m repro trace`` CLI summarizer.
"""

from repro.obs.export import (
    TRACE_SCHEMA,
    TRACE_SCHEMA_VERSION,
    read_chrome_trace,
    read_jsonl,
    to_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.flightrec import (
    DEFAULT_TRIGGER_KINDS,
    FlightRecorder,
)
from repro.obs.lifecycle import (
    FrameSpan,
    correlate_frames,
    hop_latency_summary,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    log_buckets,
)
from repro.obs.profile import (
    PROFILE_SCHEMA,
    PROFILE_SCHEMA_VERSION,
    KernelProfiler,
)
from repro.obs.qoe import (
    SessionQoE,
    qoe_summary,
    score,
    score_session,
    score_sessions,
)
from repro.obs.service_metrics import (
    SERVICE_SCHEMA,
    SERVICE_SCHEMA_VERSION,
    ServerLoad,
    ServiceReport,
)
from repro.obs.slo import (
    DEFAULT_SLOS,
    SloCheck,
    SloRule,
    evaluate,
    flatten_metrics,
    parse_rule,
    parse_spec,
    timeseries_metrics,
)
from repro.obs.summary import summarize_trace
from repro.obs.timeseries import (
    TIMESERIES_SCHEMA,
    TIMESERIES_SCHEMA_VERSION,
    TimeSeries,
    TimeSeriesSampler,
)
from repro.obs.tracer import RecordingTracer, TraceEvent, Tracer
from repro.obs.trend import (
    TREND_METRICS,
    TrendMetric,
    TrendRow,
    analyze_group,
    group_history,
    load_history,
    render_markdown_report,
    sparkline,
)

__all__ = [
    "Counter",
    "DEFAULT_SLOS",
    "DEFAULT_TRIGGER_KINDS",
    "FlightRecorder",
    "FrameSpan",
    "Gauge",
    "Histogram",
    "KernelProfiler",
    "MetricsRegistry",
    "PROFILE_SCHEMA",
    "PROFILE_SCHEMA_VERSION",
    "RecordingTracer",
    "SERVICE_SCHEMA",
    "SERVICE_SCHEMA_VERSION",
    "ServerLoad",
    "ServiceReport",
    "SessionQoE",
    "SloCheck",
    "SloRule",
    "TIMESERIES_SCHEMA",
    "TIMESERIES_SCHEMA_VERSION",
    "TRACE_SCHEMA",
    "TRACE_SCHEMA_VERSION",
    "TREND_METRICS",
    "TimeSeries",
    "TimeSeriesSampler",
    "TraceEvent",
    "Tracer",
    "TrendMetric",
    "TrendRow",
    "analyze_group",
    "correlate_frames",
    "evaluate",
    "flatten_metrics",
    "group_history",
    "hop_latency_summary",
    "load_history",
    "log_buckets",
    "parse_rule",
    "parse_spec",
    "qoe_summary",
    "read_chrome_trace",
    "read_jsonl",
    "render_markdown_report",
    "score",
    "score_session",
    "score_sessions",
    "sparkline",
    "summarize_trace",
    "timeseries_metrics",
    "to_chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
]
