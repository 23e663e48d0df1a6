"""Simulation-wide observability: structured tracing and telemetry.

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
* :class:`RecordingTracer` — the in-memory recorder. It counts every
  event per kind as it records it, so an exported stream always
  reconciles with :meth:`RecordingTracer.kind_counts`; nothing it
  counts reaches a result document.
* exporters — JSONL (one event per line) and Chrome trace-event
  format (loadable in ``chrome://tracing`` / Perfetto), plus the
  ``python -m repro trace`` CLI summarizer.

Names are re-exported lazily (PEP 562): ``from repro.obs import X``
imports the one submodule that defines ``X``, so an untraced run that
only scores QoE never loads the dashboard, SLO or export code.
"""

from importlib import import_module

#: public name -> the submodule that defines it
_EXPORTS = {
    "DEFAULT_SLOS": "slo",
    "TRIGGER_KINDS": "flightrec",
    "FlightRecorder": "flightrec",
    "FrameSpan": "lifecycle",
    "Histogram": "metrics",
    "RecordingTracer": "tracer",
    "SERVICE_SCHEMA": "service_metrics",
    "SERVICE_SCHEMA_VERSION": "service_metrics",
    "SessionQoE": "qoe",
    "SloCheck": "slo",
    "SloRule": "slo",
    "TIMESERIES_SCHEMA": "timeseries",
    "TIMESERIES_SCHEMA_VERSION": "timeseries",
    "TRACE_SCHEMA": "export",
    "TRACE_SCHEMA_VERSION": "export",
    "TREND_METRICS": "slo",
    "TimeSeries": "timeseries",
    "TimeSeriesSampler": "timeseries",
    "TraceEvent": "tracer",
    "Tracer": "tracer",
    "baseline_rules": "slo",
    "correlate_frames": "lifecycle",
    "evaluate": "slo",
    "flatten_metrics": "slo",
    "hop_latency_summary": "lifecycle",
    "log_buckets": "metrics",
    "parse_rule": "slo",
    "parse_spec": "slo",
    "qoe_summary": "qoe",
    "read_jsonl": "export",
    "render_markdown_report": "dashboard",
    "score": "qoe",
    "score_session": "qoe",
    "score_sessions": "qoe",
    "sparkline": "dashboard",
    "summarize_trace": "summary",
    "timeseries_metrics": "slo",
    "to_chrome_trace": "export",
    "write_chrome_trace": "export",
    "write_jsonl": "export",
}

#: the ``repro bench`` artifact's schema, here so a sharded bench stamps
#: it without importing ``bench``'s SLO gate
BENCH_SCHEMA = "repro.bench"
BENCH_SCHEMA_VERSION = 1

__all__ = sorted([*_EXPORTS, "BENCH_SCHEMA", "BENCH_SCHEMA_VERSION"])


def __getattr__(name: str):
    submodule = _EXPORTS.get(name)
    if submodule is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{submodule}"), name)
    globals()[name] = value  # next lookup skips this hook
    return value
