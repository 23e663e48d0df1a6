"""Structured tracing: the hook-point API and the in-memory recorder.

Instrumented components never import this module on their hot paths;
they hold a tracer reference (``None`` by default) and guard every
emit with a boolean, so disabled tracing costs one attribute check.

Event model
-----------

A :class:`TraceEvent` is an instant ("i") or a span edge ("B"/"E")
with a dotted ``kind`` (``kernel.event``, ``link.drop``,
``qos.grade`` ...), an optional human ``name`` (process name, stream
id), optional ``session``/``node`` correlation keys, and free-form
``args``. Every kind in use, with its phase, tier and field schema,
is declared in :data:`repro.obs.schema.TRACE_CATALOGUE`; ``python -m
repro lint --self`` checks each emit site in the tree against it.

Frame-lifecycle correlation: data-path events carry ``session`` and a
``frame`` arg (the frame's per-stream seq), letting
:mod:`repro.obs.lifecycle` join a frame's journey across layers. A
trace is an explanation, not a prerequisite: session results (QoE
included) are produced from the endpoints' own numbers whether or not
a tracer is attached, and a result document is the same whoever
watched.

Detail vs control tier
----------------------

Emit sites are split into two volume tiers. The *detail* tier is the
per-packet/per-frame firehose — ``kernel.event``, ``link.enqueue``,
``net.deliver``, ``rtp.send``/``.recv``/``.frame``, ``buffer.push``,
``playout.frame``, ``impair.loss``, ``sflow.carrier`` and
``bcast.carrier`` — together ~99% of all events on a population run.
Those sites guard on ``sim._tracing_detail``, which is True only when
the installed tracer declares ``detail = True`` (the
:class:`RecordingTracer` default). Everything else — faults,
admission, QoS grades, drops, recovery, spans — is the *control*
tier, guarded on ``sim._tracing`` alone. A low-overhead tracer such
as the flight recorder sets ``detail = False`` and receives only the
control tier, so the hot path stays dark while incident-relevant
events still flow.
"""

from __future__ import annotations

import warnings
from collections import deque
from dataclasses import dataclass, field
from typing import Any

__all__ = ["TraceEvent", "Tracer", "RecordingTracer"]


@dataclass(slots=True)
class TraceEvent:
    """One structured trace record."""

    time: float
    kind: str
    name: str = ""
    phase: str = "i"  # "i" instant | "B" span begin | "E" span end
    session: str = ""
    node: str = ""
    args: dict[str, Any] = field(default_factory=dict)


class Tracer:
    """Hook-point API. The base class records nothing.

    ``enabled`` is the contract with instrumentation sites: they may
    skip argument construction entirely when it is False, so a
    subclass that wants events must set it True.

    ``detail`` opts a tracer in to the per-packet/per-frame tier (see
    the module docstring). Tracers that only need control-plane
    events set it False and pay near-zero overhead on hot paths.
    """

    enabled: bool = False
    detail: bool = True

    def emit(self, time: float, kind: str, name: str = "", *,
             session: str = "", node: str = "",
             **args: Any) -> None:
        """Record an instant event."""

    def span_begin(self, time: float, kind: str, name: str = "", *,
                   session: str = "", node: str = "",
                   **args: Any) -> None:
        """Open a span (matched by kind+name in :meth:`span_end`)."""

    def span_end(self, time: float, kind: str, name: str = "", *,
                 session: str = "", node: str = "",
                 **args: Any) -> None:
        """Close the innermost span opened with the same kind+name."""


class RecordingTracer(Tracer):
    """Collects events in memory and counts them per kind.

    Every emit is counted before the retention cap applies, so
    :meth:`kind_counts` always reconciles with an exported JSONL
    stream of a complete recording — the invariant the observability
    tests assert — and still says how much a ring has seen.

    ``max_events`` bounds memory on very long runs: the store is then
    a ring of that capacity and the *oldest* events are shed, so the
    tail of the run stays inspectable (``dropped_events`` says how
    many were evicted; the first eviction warns, because a tracer
    asked to record everything no longer does). The always-on form of
    the same ring is :class:`~repro.obs.flightrec.FlightRecorder`.
    """

    enabled = True
    #: warn on the first eviction (cleared once it has)
    _warn_on_evict = True

    def __init__(self, max_events: int | None = None) -> None:
        if max_events is not None and max_events <= 0:
            raise ValueError("max_events must be > 0")
        # A plain list when unbounded, else a ring (bounded deque).
        self.events: "list[TraceEvent] | deque[TraceEvent]" = (
            [] if max_events is None else deque(maxlen=max_events))
        self._kind_counts: dict[str, int] = {}
        self.max_events = max_events
        self.dropped_events = 0

    def _record(self, event: TraceEvent) -> None:
        counts = self._kind_counts
        counts[event.kind] = counts.get(event.kind, 0) + 1
        if self.max_events is not None and len(self.events) == self.max_events:
            if self._warn_on_evict:
                self._warn_on_evict = False
                warnings.warn(
                    f"RecordingTracer hit max_events={self.max_events}; "
                    "keeping the newest events only (oldest dropped). "
                    "Use FlightRecorder for always-on capture.",
                    RuntimeWarning, stacklevel=4)
            self.dropped_events += 1
        self.events.append(event)

    def emit(self, time: float, kind: str, name: str = "", *,
             session: str = "", node: str = "", **args: Any) -> None:
        self._record(TraceEvent(time=time, kind=kind, name=name, phase="i",
                                session=session, node=node, args=args))

    def span_begin(self, time: float, kind: str, name: str = "", *,
                   session: str = "", node: str = "", **args: Any) -> None:
        self._record(TraceEvent(time=time, kind=kind, name=name, phase="B",
                                session=session, node=node, args=args))

    def span_end(self, time: float, kind: str, name: str = "", *,
                 session: str = "", node: str = "", **args: Any) -> None:
        self._record(TraceEvent(time=time, kind=kind, name=name, phase="E",
                                session=session, node=node, args=args))

    # -- queries -----------------------------------------------------------
    def __len__(self) -> int:
        return len(self.events)

    def __bool__(self) -> bool:
        # A tracer that has recorded nothing yet is still a tracer:
        # without this, ``__len__`` makes ``if tracer:`` drop it.
        return True

    def kind_counts(self) -> dict[str, int]:
        """Event count per kind (includes shed events)."""
        return dict(self._kind_counts)

    def select(self, kind: str | None = None,
               session: str | None = None) -> list[TraceEvent]:
        return [
            e for e in self.events
            if (kind is None or e.kind == kind)
            and (session is None or e.session == session)
        ]
