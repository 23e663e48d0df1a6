"""Trace summarization for the ``python -m repro trace`` subcommand.

Reduces an event stream to the tables an evaluation wants first:
what happened (top kinds), per-session lifelines, where packets died
(drop table) and how quality moved (grade-transition table).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.ioutil import UsageError
from repro.obs.tracer import RecordingTracer, TraceEvent

if TYPE_CHECKING:
    from repro.analysis.report import Reporter

__all__ = ["summarize_trace", "trace_command"]

#: kinds that count as a "drop" for the drop table
DROP_KINDS = ("link.drop", "net.rx_discard", "playout.drop", "playout.gap")


def _kind_table(events: list[TraceEvent], top: int) -> list[list]:
    counts: dict[str, int] = {}
    for e in events:
        counts[e.kind] = counts.get(e.kind, 0) + 1
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:top]
    return [[kind, n] for kind, n in ranked]


def _session_table(events: list[TraceEvent]) -> list[list]:
    per: dict[str, dict] = {}
    for e in events:
        if not e.session:
            continue
        row = per.setdefault(e.session, {
            "begin": None, "end": None, "events": 0, "node": "",
        })
        row["events"] += 1
        if e.node and not row["node"]:
            row["node"] = e.node
        if e.kind == "session":
            if e.phase == "B":
                row["begin"] = e.time
            elif e.phase == "E":
                row["end"] = e.time
    out = []
    for sid in sorted(per, key=lambda s: (per[s]["begin"] is None,
                                          per[s]["begin"], s)):
        row = per[sid]
        begin, end = row["begin"], row["end"]
        duration = (end - begin) if begin is not None and end is not None \
            else None
        out.append([
            sid, row["node"],
            f"{begin:.3f}" if begin is not None else "-",
            f"{end:.3f}" if end is not None else "-",
            f"{duration:.3f}" if duration is not None else "-",
            row["events"],
        ])
    return out


def _drop_table(events: list[TraceEvent]) -> list[list]:
    counts: dict[tuple[str, str], int] = {}
    for e in events:
        if e.kind in DROP_KINDS:
            where = e.node or e.name or "-"
            counts[(e.kind, where)] = counts.get((e.kind, where), 0) + 1
    return [[kind, where, n]
            for (kind, where), n in sorted(counts.items(),
                                           key=lambda kv: (-kv[1], kv[0]))]


def _grade_table(events: list[TraceEvent]) -> list[list]:
    rows = []
    for e in events:
        if e.kind != "qos.grade":
            continue
        rows.append([
            f"{e.time:.3f}", e.session or "-", e.name,
            e.args.get("action", "-"),
            f"{e.args.get('old', '?')} -> {e.args.get('new', '?')}",
            e.args.get("trigger", "-"),
        ])
    return rows


def _lifecycle_table(events: list[TraceEvent]) -> list[list]:
    """Per-hop latency percentiles over correlated frame spans."""
    from repro.obs.lifecycle import correlate_frames, hop_latency_summary

    spans = correlate_frames(events)
    if not spans:
        return []
    summary = hop_latency_summary(spans)
    terminals = summary.pop("terminals", {})
    rows = []
    for hop, stats in summary.items():
        if not stats.get("count"):
            continue
        rows.append([
            hop, int(stats["count"]),
            f"{stats['mean'] * 1e3:.2f}",
            f"{stats['p50'] * 1e3:.2f}",
            f"{stats['p95'] * 1e3:.2f}",
            f"{stats['p99'] * 1e3:.2f}",
        ])
    for state in sorted(terminals):
        rows.append([f"frames:{state}", int(terminals[state]),
                     "-", "-", "-", "-"])
    return rows


FAULT_KINDS = ("fault.link", "fault.crash",
               "fault.ctl_partition", "fault.ctl_drop", "fault.ctl_delay",
               "ctl.retry", "hb.miss", "hb.fail", "hb.ok",
               "recovery.detect", "recovery.stream", "recovery.failed")


def _fault_table(events: list[TraceEvent]) -> list[list]:
    """Fault/recovery activity: counts plus recovery-time stats."""
    counts: dict[str, int] = {}
    recover_times: list[float] = []
    for e in events:
        if e.kind not in FAULT_KINDS:
            continue
        counts[e.kind] = counts.get(e.kind, 0) + 1
        if e.kind == "recovery.stream":
            recover_times.append(float(e.args.get("t_recover_s", 0.0)))
    rows = [[kind, counts[kind], "-"] for kind in sorted(counts)]
    if recover_times:
        mean = sum(recover_times) / len(recover_times)
        rows.append(["recovery.time_mean_s", len(recover_times),
                     f"{mean:.3f}"])
        rows.append(["recovery.time_max_s", len(recover_times),
                     f"{max(recover_times):.3f}"])
    return rows


#: shared-delivery + admission kinds (the service-side activity row)
SERVICE_KINDS = ("admission.accept", "admission.block",
                 "sflow.open", "sflow.join", "sflow.start",
                 "sflow.carrier", "sflow.finish")


def _service_table(events: list[TraceEvent]) -> list[list]:
    """Admission + shared-delivery activity with headline values."""
    counts: dict[str, int] = {}
    carrier_bytes = 0
    batch_sizes: list[int] = []
    for e in events:
        if e.kind not in SERVICE_KINDS:
            continue
        counts[e.kind] = counts.get(e.kind, 0) + 1
        if e.kind == "sflow.carrier":
            carrier_bytes += int(e.args.get("bytes", 0))
        elif e.kind == "sflow.start":
            batch_sizes.append(int(e.args.get("subscribers", 0)))
    rows = [[kind, counts[kind], "-"] for kind in sorted(counts)]
    accepts = counts.get("admission.accept", 0)
    blocks = counts.get("admission.block", 0)
    if accepts or blocks:
        rows.append(["admission.blocking_prob", accepts + blocks,
                     f"{blocks / (accepts + blocks):.3f}"])
    if carrier_bytes:
        rows.append(["carrier_bytes", carrier_bytes, "-"])
    if batch_sizes:
        rows.append(["sflow.batch_mean", len(batch_sizes),
                     f"{sum(batch_sizes) / len(batch_sizes):.2f}"])
    return rows


def _qoe_table(events: list[TraceEvent]) -> list[list]:
    from repro.obs.qoe import score_sessions

    rows = []
    for sid, q in sorted(score_sessions(events).items()):
        rows.append([
            sid, f"{q.score:.1f}", f"{q.startup_s:.3f}",
            q.stall_count, f"{q.stall_time_s:.2f}",
            q.skew_violations, f"{q.degraded_time_s:.2f}",
            f"{q.frames_played}/{q.frames_sent}",
            f"{q.latency.get('p95', 0.0) * 1e3:.1f}",
        ])
    return rows


def summarize_trace(events: list[TraceEvent], top: int = 12) -> list[dict]:
    """A list of table specs: {title, headers, rows} per section.

    The shape feeds straight into ``render_table`` (text mode) or a
    JSON report; only non-empty sections are returned, except the
    headline kind table which always appears.
    """
    sections = [{
        "title": f"Top event kinds ({len(events)} events)",
        "headers": ["kind", "count"],
        "rows": _kind_table(events, top),
    }]
    sessions = _session_table(events)
    if sessions:
        sections.append({
            "title": "Session timelines",
            "headers": ["session", "client", "begin_s", "end_s",
                        "duration_s", "events"],
            "rows": sessions,
        })
    drops = _drop_table(events)
    if drops:
        sections.append({
            "title": "Drops and discards",
            "headers": ["kind", "where", "count"],
            "rows": drops,
        })
    grades = _grade_table(events)
    if grades:
        sections.append({
            "title": "Grade transitions",
            "headers": ["time_s", "session", "stream", "action", "grade",
                        "trigger"],
            "rows": grades,
        })
    faults = _fault_table(events)
    if faults:
        sections.append({
            "title": "Faults and recovery",
            "headers": ["kind", "count", "value"],
            "rows": faults,
        })
    service = _service_table(events)
    if service:
        sections.append({
            "title": "Admission and shared delivery",
            "headers": ["kind", "count", "value"],
            "rows": service,
        })
    lifecycle = _lifecycle_table(events)
    if lifecycle:
        sections.append({
            "title": "Frame lifecycle (per-hop latency)",
            "headers": ["hop", "count", "mean_ms", "p50_ms", "p95_ms",
                        "p99_ms"],
            "rows": lifecycle,
        })
    qoe = _qoe_table(events)
    if qoe:
        sections.append({
            "title": "Session QoE",
            "headers": ["session", "score", "startup_s", "stalls",
                        "stall_s", "skew", "degraded_s", "played/sent",
                        "latency_p95_ms"],
            "rows": qoe,
        })
    return sections


def _export_chrome(report: Reporter, events: Iterable[TraceEvent],
                   chrome_to: str | None) -> None:
    if chrome_to:
        from repro.obs.export import write_chrome_trace

        report.value("chrome_records",
                     write_chrome_trace(events, chrome_to))
        report.value("chrome_path", chrome_to)


def trace_command(report: Reporter, *, usage: str, inputs: list[str],
                  record: str | None, chrome: str | None, top: int,
                  scenario: str | None = None) -> int:
    """``repro trace``: record a scenario run at smoke size (default
    ``population_clean``) as JSONL, or summarize JSONL traces."""
    from repro.obs.export import read_jsonl, write_jsonl

    if record is not None:
        from repro.obs.bench import run_scenario

        tracer = RecordingTracer()
        run = run_scenario(scenario or "population_clean", smoke=True,
                           tracer=tracer)
        report.value("sessions_completed", run.artifact["completed"])
        report.value("jsonl_events", write_jsonl(tracer.events, record))
        report.value("jsonl_path", record)
        _export_chrome(report, tracer.events, chrome)
        return 0
    if scenario is not None:
        raise UsageError("--scenario names what --record runs")
    if not inputs:
        report.text(usage)
        return 2
    for path in inputs:
        events = read_jsonl(path)
        for section in summarize_trace(events, top=top):
            report.table(section["title"], section["headers"],
                         section["rows"])
        _export_chrome(report, events, chrome)
    return 0
