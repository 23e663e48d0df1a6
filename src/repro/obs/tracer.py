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
``args``. Kinds in use across the stack:

========================  =====================================================
kind                      emitted by
========================  =====================================================
``kernel.event``          :meth:`Simulator.step` — one per fired event
``process.spawn``         :class:`~repro.des.kernel.Process` creation
``process.finish``        process completion (``args["outcome"]``)
``process.interrupt``     :meth:`Process.interrupt`
``link.enqueue``          :meth:`~repro.net.link.Link.enqueue`
``link.drop``             queue overflow / Gilbert–Elliott loss
``net.deliver``           packet delivered to its destination node
``net.rx_discard``        delivered, but no handler bound on the port
``channel.message``       reliable-channel message reassembled
``channel.retransmit``    go-back-N window resend
``flow.plan`` / ``.schedule``  flow-scheduler output (per session / per flow)
``impair.state``          Gilbert–Elliott good/bad state transition
``impair.loss``           Gilbert–Elliott loss decision (per lost packet)
``rtp.send``              sender packetized one frame (frame/seq0/packets)
``rtp.recv``              receiver accepted one RTP packet (delay, jitter)
``rtp.frame``             receiver reassembled a complete frame
``rtp.frame_drop``        reassembly gave up on a frame (missing fragments)
``rtcp.report``           client reporter sent a receiver report
``rtcp.recv``             server sink received a receiver report
``qos.grade``             server QoS manager grade transition
``qos.stream``            client QoS manager feedback-loop registration
``skew.correct``          skew controller drop/duplicate decision
``buffer.watermark``      buffer monitor LOW/NORMAL/HIGH crossing
``buffer.push``/``.drop``  media buffer accepted / overflow-dropped a frame
``playout.*``             playout event log (frame, gap, drop, duplicate, ...)
``session`` (B/E)         orchestrator per-session lifecycle span
``workload``/``population`` (B/E)  orchestrator run-level spans
``fault.link``            :meth:`~repro.net.link.Link.set_up` transition
``fault.crash``/``.restart``  media-server crash / restart
``fault.ctl_partition``   control partition opened / closed
``fault.ctl_drop``/``.ctl_delay``  control message dropped / delayed
``ctl.retry``             client RPC timed out; retry scheduled
``hb.miss``/``.fail``/``.ok``  heartbeat miss / failure declared / recovery
``recovery.detect``       watchdog noticed a crash (after detect delay)
``recovery.stream``       stream failed over (``t_recover_s``, target)
``recovery.failed``       stream could not be restored (``reason``)
``admission.accept``      connection admitted (contract, reserved bps)
``admission.block``       connection refused by admission control
``sflow.open``/``.join``  shared-flow batch opened / viewer joined
``sflow.start``           batch closed; master transmission begins
``sflow.carrier``         one origin→fan-out carrier frame shipped
``sflow.finish``          master transmission completed (frame count)
``bcast.start``           periodic broadcast channels spawned
``bcast.carrier``         one broadcast carrier packet shipped
``bcast.join``            viewer tuned in (``wait_s`` startup wait)
``bcast.stop``            broadcaster stopped (viewers, carrier bytes)
========================  =====================================================

This table is informal documentation; the machine-checked source of
truth is the trace-v3 catalogue in :mod:`repro.obs.schema`
(``TRACE_CATALOGUE``), which declares every kind's phase, tier and
field schema. ``python -m repro lint --self`` verifies each emit site
in the tree against it.

Frame-lifecycle correlation: data-path events carry ``session`` and a
``frame`` arg (the frame's per-stream seq), letting
:mod:`repro.obs.lifecycle` join a frame's journey across layers. A
trace is an explanation, not a prerequisite: session results (QoE
included) are produced from the endpoints' own numbers whether or not
a tracer is attached; what a recording adds to a result is the
per-session event counts (``session_snapshot``) and the registry.

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
    """Collects events in memory and counts them in a registry.

    Every emit increments ``trace_events{kind=...}`` in ``metrics``
    (and ``session_events{session=...,kind=...}`` when the event
    carries a session id), so an exported JSONL stream always
    reconciles with the registry snapshot — the invariant the
    observability tests assert.

    ``max_events`` bounds memory on very long runs: the store is then
    a ring of that capacity and the *oldest* events are shed, so the
    tail of the run stays inspectable (``dropped_events`` says how
    many were evicted; the first eviction warns, because a tracer
    asked to record everything no longer does). Events always count
    in the registry regardless of retention. The always-on form of
    the same ring is :class:`~repro.obs.flightrec.FlightRecorder`.
    """

    enabled = True
    #: warn on the first eviction (cleared once it has)
    _warn_on_evict = True

    def __init__(self, metrics: "MetricsRegistry | None" = None,
                 max_events: int | None = None) -> None:
        from repro.obs.metrics import MetricsRegistry

        if max_events is not None and max_events <= 0:
            raise ValueError("max_events must be > 0")
        # A plain list when unbounded, else a ring (bounded deque).
        self.events: "list[TraceEvent] | deque[TraceEvent]" = (
            [] if max_events is None else deque(maxlen=max_events))
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.max_events = max_events
        self.dropped_events = 0

    def _record(self, event: TraceEvent) -> None:
        self.metrics.counter("trace_events", kind=event.kind).inc()
        if event.session:
            self.metrics.counter("session_events", session=event.session,
                                 kind=event.kind).inc()
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
        """Event count per kind, from the registry (includes shed events)."""
        return {
            labels["kind"]: int(counter.value)
            for labels, counter in self.metrics.series("trace_events")
        }

    def session_snapshot(self, session_id: str) -> dict[str, int]:
        """Per-kind event counts attributed to one session."""
        return {
            labels["kind"]: int(counter.value)
            for labels, counter in self.metrics.series("session_events")
            if labels.get("session") == session_id
        }

    def select(self, kind: str | None = None,
               session: str | None = None) -> list[TraceEvent]:
        return [
            e for e in self.events
            if (kind is None or e.kind == kind)
            and (session is None or e.session == session)
        ]
