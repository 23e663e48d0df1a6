"""The declared trace-v4 event catalogue.

Every ``tracer.emit`` / ``span_begin`` / ``span_end`` site in
``src/repro`` must conform to this catalogue: the kind must be
declared, the ``**args`` fields must match the declared required /
optional sets, and detail-tier kinds must sit under the
``_tracing_detail`` guard (see :mod:`repro.obs.tracer` for the
two-tier contract). The static checker in
:mod:`repro.analysis.tracerules` extracts every emit site and
validates it here, so an emit site and its declared schema can never
drift apart silently — a mismatch fails ``python -m repro lint
--self`` and CI.

The catalogue is keyed ``(kind, phase)`` — span kinds declare their
begin ("B") and end ("E") edges separately because they carry
different fields. ``session``/``node`` are universal correlation keys
on the emit API itself and are not listed per kind.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "TIER_DETAIL",
    "TIER_CONTROL",
    "KindSpec",
    "TRACE_CATALOGUE",
    "lookup",
    "kinds_matching",
]

#: per-packet / per-frame firehose — guarded on ``sim._tracing_detail``
TIER_DETAIL = "detail"
#: faults, admission, QoS, recovery, spans — guarded on ``sim._tracing``
TIER_CONTROL = "control"


@dataclass(frozen=True, slots=True)
class KindSpec:
    """Schema of one trace kind at one phase."""

    kind: str
    tier: str = TIER_CONTROL
    phase: str = "i"  # "i" instant | "B" span begin | "E" span end
    required: frozenset[str] = field(default_factory=frozenset)
    optional: frozenset[str] = field(default_factory=frozenset)
    doc: str = ""

    @property
    def allowed(self) -> frozenset[str]:
        return self.required | self.optional


def _spec(kind: str, *, tier: str = TIER_CONTROL, phase: str = "i",
          required: tuple[str, ...] = (), optional: tuple[str, ...] = (),
          doc: str = "") -> KindSpec:
    return KindSpec(kind=kind, tier=tier, phase=phase,
                    required=frozenset(required),
                    optional=frozenset(optional), doc=doc)


_SPECS: tuple[KindSpec, ...] = (
    # -- DES kernel ------------------------------------------------------
    _spec("kernel.event", tier=TIER_DETAIL,
          doc="one per fired event (Simulator.step)"),
    _spec("process.spawn", doc="Process creation"),
    _spec("process.interrupt", required=("cause",),
          doc="Process.interrupt()"),
    _spec("process.finish", required=("outcome",), optional=("error",),
          doc="process completion"),
    # -- network ---------------------------------------------------------
    _spec("link.enqueue", tier=TIER_DETAIL,
          required=("depth", "flow", "frame", "seq"),
          doc="packet accepted into a link queue"),
    _spec("link.drop", required=("flow", "frame", "reason", "seq"),
          doc="queue overflow / loss / down-link drop"),
    _spec("net.deliver", tier=TIER_DETAIL,
          required=("flow", "frame", "port", "seq"),
          doc="packet delivered to its destination node"),
    _spec("net.rx_discard", required=("flow", "frame", "port", "seq"),
          doc="delivered, but no handler bound on the port"),
    _spec("channel.message", required=("size_bytes",),
          doc="reliable-channel message reassembled"),
    _spec("channel.retransmit", required=("rto_s", "window"),
          doc="go-back-N window resend"),
    _spec("impair.state", required=("state",),
          doc="Gilbert-Elliott good/bad transition"),
    _spec("impair.loss", tier=TIER_DETAIL,
          required=("flow", "frame", "seq", "state"),
          doc="Gilbert-Elliott loss decision"),
    # -- server / delivery ----------------------------------------------
    _spec("flow.plan", required=("flows", "initial_grade"),
          doc="flow-scheduler plan for one session"),
    _spec("flow.schedule", required=("grade", "media", "send_offset_s"),
          doc="flow-scheduler per-flow schedule"),
    _spec("qos.grade",
          required=("action", "new", "old", "reason", "trigger"),
          doc="server QoS manager grade transition"),
    _spec("admission.accept",
          required=("contract", "required_bps", "reserved_bps"),
          doc="connection admitted"),
    _spec("admission.block",
          required=("contract", "required_bps", "reserved_bps"),
          doc="connection refused by admission control"),
    _spec("sflow.open", required=("media", "path"),
          doc="shared-flow batch opened"),
    _spec("sflow.join", required=("media", "path"),
          doc="viewer joined an open shared-flow batch"),
    _spec("sflow.start", required=("fanout", "subscribers"),
          doc="batch closed; master transmission begins"),
    _spec("sflow.carrier", tier=TIER_DETAIL, required=("bytes", "seq"),
          doc="one origin-to-fan-out carrier frame"),
    _spec("sflow.finish",
          required=("carrier_packets", "fanout", "frames"),
          doc="master transmission completed"),
    # -- RTP / RTCP ------------------------------------------------------
    _spec("rtp.send", tier=TIER_DETAIL,
          required=("bytes", "frame", "media_time", "packets", "seq0"),
          doc="sender packetized one frame"),
    _spec("rtp.recv", tier=TIER_DETAIL,
          required=("delay_s", "frame", "jitter_s", "seq"),
          doc="receiver accepted one RTP packet"),
    _spec("rtp.frame", tier=TIER_DETAIL,
          required=("delay_s", "frame", "media_time"),
          doc="receiver reassembled a complete frame"),
    _spec("rtp.frame_drop", required=("media_time", "reason"),
          doc="reassembly gave up on a frame"),
    _spec("rtcp.report",
          required=("fraction_lost", "interval_s", "jitter_s",
                    "mean_delay_s"),
          doc="client reporter sent a receiver report"),
    _spec("rtcp.recv", required=("fraction_lost", "jitter_s"),
          doc="server sink received a receiver report"),
    # -- client ----------------------------------------------------------
    _spec("qos.stream", required=("interval_s", "rtcp_port"),
          doc="client QoS feedback-loop registration"),
    _spec("skew.correct", required=("action", "group", "skew_s"),
          optional=("drop_count",),
          doc="skew controller drop/duplicate decision"),
    _spec("buffer.watermark", required=("ratio", "state"),
          doc="buffer monitor LOW/NORMAL/HIGH crossing"),
    _spec("buffer.push", tier=TIER_DETAIL,
          required=("frame", "occupancy_s"),
          doc="media buffer accepted a frame"),
    _spec("buffer.drop", required=("frame", "reason"),
          doc="media buffer overflow-dropped a frame"),
    # playout event log: one kind per PlayoutEventKind value; only the
    # per-frame firehose is detail-tier.
    _spec("playout.start", required=("grade", "media_time_s"),
          optional=("frame", "reason"), doc="stream playout began"),
    _spec("playout.frame", tier=TIER_DETAIL,
          required=("grade", "media_time_s"), optional=("frame", "reason"),
          doc="a frame was presented"),
    _spec("playout.gap", required=("grade", "media_time_s"),
          optional=("frame", "reason"),
          doc="deadline passed with no frame"),
    _spec("playout.duplicate", required=("grade", "media_time_s"),
          optional=("frame", "reason"), doc="a frame was repeated"),
    _spec("playout.drop", required=("grade", "media_time_s"),
          optional=("frame", "reason"), doc="a frame was discarded"),
    _spec("playout.stop", required=("grade", "media_time_s"),
          optional=("frame", "reason"), doc="stream playout finished"),
    _spec("playout.show", required=("grade", "media_time_s"),
          optional=("frame", "reason"), doc="discrete media displayed"),
    _spec("playout.hide", required=("grade", "media_time_s"),
          optional=("frame", "reason"), doc="discrete media removed"),
    _spec("playout.pause", required=("grade", "media_time_s"),
          optional=("frame", "reason"), doc="playout paused"),
    _spec("playout.resume", required=("grade", "media_time_s"),
          optional=("frame", "reason"), doc="playout resumed"),
    # -- orchestrator spans ---------------------------------------------
    _spec("session", phase="B", required=("document", "user"),
          doc="per-session lifecycle span opens"),
    _spec("session", phase="E", required=("outcome",),
          optional=("charge",), doc="per-session lifecycle span closes"),
    _spec("workload", phase="B", required=("sessions",),
          doc="workload run span opens"),
    _spec("workload", phase="E", required=("completed",),
          doc="workload run span closes"),
    _spec("population", phase="B", required=("clients", "server"),
          doc="population run span opens"),
    _spec("population", phase="E", required=("completed",),
          doc="population run span closes"),
    # -- faults / recovery ----------------------------------------------
    _spec("fault.link", required=("state",),
          doc="link up/down transition"),
    _spec("fault.crash", required=("streams",),
          doc="media-server crash injected"),
    _spec("fault.ctl_partition", required=("state",),
          doc="control partition opened / closed"),
    _spec("fault.ctl_drop", required=("msg_type", "req_id"),
          doc="control message dropped"),
    _spec("fault.ctl_delay", required=("delay", "msg_type", "req_id"),
          doc="control message delayed"),
    _spec("ctl.retry", required=("attempt", "timeout_s"),
          doc="client RPC timed out; retry scheduled"),
    _spec("hb.ok", doc="heartbeat recovered"),
    _spec("hb.miss", required=("consecutive",), doc="heartbeat missed"),
    _spec("hb.fail", required=("misses",), doc="failure declared"),
    _spec("recovery.detect", required=("streams", "t_detect_s"),
          doc="watchdog noticed a crash"),
    _spec("recovery.stream",
          required=("grade", "position_s", "t_recover_s", "to"),
          doc="stream failed over"),
    _spec("recovery.failed", required=("reason", "server"),
          doc="stream could not be restored"),
    # -- sharded runner (supervisor wall-clock timeline) ----------------
    _spec("shard.spawn", required=("attempt", "cells", "pid", "shard"),
          doc="worker process launched"),
    _spec("shard.retry", required=("attempt", "backoff_s", "shard"),
          doc="failed attempt scheduled for relaunch"),
    _spec("shard.exit", required=("attempt", "shard", "wall_s"),
          doc="worker finished its cells"),
    _spec("shard.merge", required=("cells", "completeness", "missing"),
          doc="surviving cells merged"),
    _spec("fault.shard", required=("attempt", "reason", "shard"),
          doc="one shard attempt died"),
)

#: the catalogue, keyed ``(kind, phase)``
TRACE_CATALOGUE: dict[tuple[str, str], KindSpec] = {
    (s.kind, s.phase): s for s in _SPECS
}
if len(TRACE_CATALOGUE) != len(_SPECS):  # pragma: no cover - authoring bug
    raise RuntimeError("duplicate (kind, phase) entry in trace catalogue")


def lookup(kind: str, phase: str = "i") -> KindSpec | None:
    """The spec for ``kind`` at ``phase``, or None if undeclared."""
    return TRACE_CATALOGUE.get((kind, phase))


def declared_phases(kind: str) -> list[str]:
    """Phases at which ``kind`` is declared ([] = unknown kind)."""
    return [p for (k, p) in TRACE_CATALOGUE if k == kind]


def kinds_matching(prefix: str, phase: str = "i") -> list[KindSpec]:
    """All specs at ``phase`` whose kind starts with ``prefix``.

    Used to resolve f-string emit sites (``f"playout.{kind.value}"``)
    against the catalogue: the constant prefix selects the family.
    """
    return [s for (k, p), s in sorted(TRACE_CATALOGUE.items())
            if p == phase and k.startswith(prefix)]
