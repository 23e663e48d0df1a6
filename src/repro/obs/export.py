"""Trace exporters: JSONL and Chrome trace-event format.

JSONL is the archival/interchange form (one event per line, stable
keys, trivially greppable); the Chrome trace-event form loads
directly in ``chrome://tracing`` and Perfetto, with one timeline row
per session (and per node for network-level events), so a population
run renders as parallel session lifelines with drops, grade changes
and watermark crossings as instants on top.

Both forms carry a schema stamp (``repro.trace`` + version) that
loaders validate, so a trace written by a future incompatible layout
fails loudly instead of silently mis-parsing. JSONL stamps it as a
header line (skipped — and not counted — by :func:`read_jsonl`;
headerless files load as legacy version-1 traces); the Chrome form
stamps it in the document's ``metadata`` object, which
``chrome://tracing``/Perfetto ignore.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable

from repro.ioutil import atomic_open
from repro.obs.tracer import TraceEvent

__all__ = [
    "TRACE_SCHEMA",
    "TRACE_SCHEMA_VERSION",
    "event_to_dict",
    "read_jsonl",
    "to_chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
]

#: schema identity stamped into every export
TRACE_SCHEMA = "repro.trace"
#: bumped on any incompatible change to the event dict layout.
#: v3: shared-delivery and admission kinds (``sflow.*``,
#: ``admission.*``) join the stream; v4: ``net.deliver`` drops ``hops``;
#: readers accept 1..current, so older (and headerless v1) traces load.
TRACE_SCHEMA_VERSION = 4


def _validate_schema(header: dict, where: str) -> int:
    """Check a schema stamp; returns the trace's version."""
    schema = header.get("schema")
    if schema != TRACE_SCHEMA:
        raise ValueError(
            f"{where}: unknown trace schema {schema!r} "
            f"(expected {TRACE_SCHEMA!r})"
        )
    version = header.get("version")
    if not isinstance(version, int) or not 1 <= version <= \
            TRACE_SCHEMA_VERSION:
        raise ValueError(
            f"{where}: unsupported {TRACE_SCHEMA} version {version!r} "
            f"(this reader handles 1..{TRACE_SCHEMA_VERSION})"
        )
    return version


def event_to_dict(event: TraceEvent) -> dict:
    """Compact dict form: empty correlation fields are omitted."""
    out: dict = {"t": event.time, "kind": event.kind}
    if event.phase != "i":
        out["ph"] = event.phase
    if event.name:
        out["name"] = event.name
    if event.session:
        out["session"] = event.session
    if event.node:
        out["node"] = event.node
    if event.args:
        out["args"] = event.args
    return out


def event_from_dict(data: dict) -> TraceEvent:
    return TraceEvent(
        time=float(data["t"]),
        kind=str(data["kind"]),
        name=str(data.get("name", "")),
        phase=str(data.get("ph", "i")),
        session=str(data.get("session", "")),
        node=str(data.get("node", "")),
        args=dict(data.get("args", {})),
    )


def write_jsonl(events: Iterable[TraceEvent], path: str | Path) -> int:
    """Write one JSON object per line after a schema header line;
    returns the number of *events* written (the header is free)."""
    n = 0
    with atomic_open(path) as fh:
        fh.write(json.dumps(
            {"schema": TRACE_SCHEMA, "version": TRACE_SCHEMA_VERSION},
            separators=(",", ":")) + "\n")
        for event in events:
            fh.write(json.dumps(event_to_dict(event),
                                separators=(",", ":")) + "\n")
            n += 1
    return n


def read_jsonl(path: str | Path) -> list[TraceEvent]:
    """Load a JSONL trace back into :class:`TraceEvent` records.

    The schema header (first line) is validated and skipped; files
    without one are accepted as legacy version-1 traces. A header for
    a different schema or a future version raises ``ValueError``.
    """
    events: list[TraceEvent] = []
    first = True
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            data = json.loads(line)
            if first:
                first = False
                if "schema" in data:
                    _validate_schema(data, where=str(path))
                    continue
            events.append(event_from_dict(data))
    return events


def _track_of(event: TraceEvent) -> str:
    """Timeline row: sessions get their own row, then nodes, then kernel."""
    if event.session:
        return event.session
    if event.node:
        return f"node:{event.node}"
    top = event.kind.split(".", 1)[0]
    return f"sim:{top}"


def to_chrome_trace(events: Iterable[TraceEvent]) -> dict:
    """Chrome trace-event JSON (the ``traceEvents`` array form).

    Simulated seconds map to trace microseconds. Spans use duration
    events ("B"/"E"); instants use "i" with thread scope. Thread-name
    metadata rows label each track.
    """
    trace: list[dict] = []
    tids: dict[str, int] = {}
    for event in events:
        track = _track_of(event)
        tid = tids.get(track)
        if tid is None:
            tid = tids[track] = len(tids) + 1
            trace.append({
                "name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
                "args": {"name": track},
            })
        record = {
            "name": event.name or event.kind,
            "cat": event.kind,
            "ph": event.phase,
            "ts": round(event.time * 1e6, 3),
            "pid": 1,
            "tid": tid,
        }
        if event.phase == "i":
            record["s"] = "t"
        args = dict(event.args)
        if event.session:
            args["session"] = event.session
        if event.node:
            args["node"] = event.node
        if args:
            record["args"] = args
        trace.append(record)
    return {
        "traceEvents": trace,
        "displayTimeUnit": "ms",
        "metadata": {"schema": TRACE_SCHEMA,
                     "version": TRACE_SCHEMA_VERSION},
    }


def write_chrome_trace(events: Iterable[TraceEvent],
                       path: str | Path) -> int:
    """Write the Chrome trace JSON; returns the trace-event count."""
    doc = to_chrome_trace(events)
    with atomic_open(path) as fh:
        json.dump(doc, fh, separators=(",", ":"))
    return len(doc["traceEvents"])
