"""Always-on flight recorder: a bounded ring of trace events.

The always-on configuration of the recording tracer. A
production-shaped run can't afford full-trace recording
(at 10⁶ clients the event log *is* the memory budget), but when a
media server crashes the operator wants the last N sim-seconds of
control-plane history. The flight recorder keeps exactly that: a
``deque(maxlen=...)`` of events, always on, costing at most 5.5 Python
calls per ring event and none per packet (an exact call count, gated
in ``tests/test_datapath_budget.py``) because it declares
``detail = False`` — the per-packet firehose tier is never even
constructed (see :mod:`repro.obs.tracer`).

Dumps are ordinary trace-v4 JSONL windows ("everything in the ring
from the last ``WINDOW_S`` sim-seconds"), so ``repro trace``,
lifecycle correlation and QoE tooling parse them unchanged. A dump
fires on the first fault-injection event (``TRIGGER_KINDS``), on an
SLO violation (the CLI calls :meth:`FlightRecorder.dump`), or
explicitly.

The recorder *is* a :class:`~repro.obs.tracer.RecordingTracer` — same
per-kind counts, same query surface — whose store is a ring, so
wherever a RecordingTracer is expected a recorder drops in. The ring
is this class's alone: it counts every event before it sheds the
oldest (so ``kind_counts()`` sums past ``len(events)`` by the events
shed), while a RecordingTracer keeps everything.
Capacity decides the tier: a bounded ring stays on the control tier
(4096 per-packet events would span milliseconds, not an incident),
while ``FlightRecorder(max_events=None)`` is a complete recording
with incident dumps on top — what ``repro bench --flight-dump``
installs.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from repro.obs.tracer import RecordingTracer, TraceEvent

__all__ = ["FlightRecorder", "TRIGGER_KINDS"]

#: sim-seconds of trailing events a dump writes
WINDOW_S = 30.0

#: fault-injection kinds that auto-dump the ring (first occurrence)
TRIGGER_KINDS = frozenset({
    "fault.crash", "fault.link", "fault.ctl_partition", "fault.shard",
})


class FlightRecorder(RecordingTracer):
    """Bounded, always-on ring of control-plane trace events."""

    def __init__(self, max_events: int | None = 4096,
                 dump_path: str | None = None,
                 ) -> None:
        if max_events is not None and max_events <= 0:
            raise ValueError("max_events must be > 0")
        super().__init__()
        if max_events is not None:
            self.events = deque(maxlen=max_events)
        #: a ring stays on the cheap control tier; only an unbounded
        #: recorder takes the per-packet firehose
        self.detail = max_events is None
        self.dump_path = dump_path
        #: metadata of the last dump ({} until one happens)
        self.last_dump: dict[str, Any] = {}

    def _record(self, event: TraceEvent) -> None:
        counts = self._kind_counts
        counts[event.kind] = counts.get(event.kind, 0) + 1
        self.events.append(event)
        if (self.dump_path is not None and not self.last_dump
                and event.kind in TRIGGER_KINDS):
            self.dump(trigger=event.kind)

    # -- dumping -------------------------------------------------------------
    def window(self) -> list[TraceEvent]:
        """Ring contents from the trailing ``WINDOW_S`` sim-seconds."""
        if not self.events:
            return []
        t_end = self.events[-1].time
        return [e for e in self.events if e.time >= t_end - WINDOW_S]

    def dump(self, trigger: str = "manual") -> str:
        """Write the trailing window to ``dump_path`` as trace-v4 JSONL;
        returns the path."""
        from repro.obs.export import write_jsonl

        if self.dump_path is None:
            raise ValueError("no dump path configured")
        events = self.window()
        write_jsonl(events, self.dump_path)
        self.last_dump = {
            "path": str(self.dump_path),
            "trigger": trigger,
            "events": len(events),
            "t_end": events[-1].time if events else 0.0,
            "window_s": WINDOW_S,
        }
        return str(self.dump_path)
