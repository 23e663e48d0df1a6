"""Structured tracing: the hook-point API and the in-memory recorder.

Instrumented components never import this module. The simulator is
the one tracer handle: :meth:`repro.des.Simulator.set_tracer` attaches
a tracer and decides once whether it is on and takes the detail tier
(:func:`repro.des.kernel.tracing_tiers`); every component that emits,
client side included, holds the simulator (``None`` when built
standalone) and guards each emit with ``sim._tracing`` or
``sim._tracing_detail``, so disabled tracing costs one attribute
check.

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
``playout.frame``, ``impair.loss`` and ``sflow.carrier`` — together
~99% of all events on a population run.
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
                 session: str = "", **args: Any) -> None:
        """Close the innermost span opened with the same kind+name."""


class RecordingTracer(Tracer):
    """Collects every event in memory and counts them per kind.

    :meth:`kind_counts` therefore reconciles with an exported JSONL
    stream of the recording — the invariant the observability tests
    assert. The bounded form, which keeps only the newest events, is
    :class:`~repro.obs.flightrec.FlightRecorder`.
    """

    enabled = True

    def __init__(self) -> None:
        self.events: list[TraceEvent] = []
        self._kind_counts: dict[str, int] = {}

    def _record(self, event: TraceEvent) -> None:
        counts = self._kind_counts
        counts[event.kind] = counts.get(event.kind, 0) + 1
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
                 session: str = "", **args: Any) -> None:
        self._record(TraceEvent(time=time, kind=kind, name=name, phase="E",
                                session=session, args=args))

    # -- queries -----------------------------------------------------------
    def __len__(self) -> int:
        return len(self.events)

    def __bool__(self) -> bool:
        # A tracer that has recorded nothing yet is still a tracer:
        # without this, ``__len__`` makes ``if tracer:`` drop it.
        return True

    def kind_counts(self) -> dict[str, int]:
        """Event count per kind (a ring's shed events included)."""
        return dict(self._kind_counts)

