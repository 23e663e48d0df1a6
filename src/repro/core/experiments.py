"""Canned experiments (E1–E13 of DESIGN.md): one declaration each, one loop.

:data:`EXPERIMENTS` maps a CLI key to an :class:`Experiment`: its title,
its table headers, its ordered cases (:func:`grid` of the axes; a seed
is one more axis) and the job that runs one case on fresh engines and
returns that case's table rows. :func:`run` is the only place that
iterates cases; it returns ``(headers, rows)`` ready for
:func:`repro.analysis.tables.render_table`. The benchmarks print these
tables and assert the qualitative claims; EXPERIMENTS.md records
paper-claim vs. measured outcome. ``python -m repro list`` / ``run
<key>`` read :data:`EXPERIMENTS` and :data:`FIGURES`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Any, Callable

from repro.client.metrics import PlayoutEventKind
from repro.core.config import EngineConfig, TrafficConfig
from repro.core.engine import ServiceEngine
from repro.core.results import SessionResult
from repro.hml import DocumentBuilder, serialize
from repro.hml.examples import figure2_document
from repro.hml.grammar import grammar_text
from repro.hml.tokens import keyword_table_rows
from repro.model import ascii_timeline, build_playout_schedule
from repro.rtp.packets import RTCP_RR_BYTES
from repro.server.accounts import CONTRACT_CLASSES, SubscriptionForm
from repro.server.admission import (
    TICKET_BPS,
    AdmissionController,
    AdmissionRequest,
)
from repro.server.qos_manager import GradingPolicy
from repro.service.states import transition_table_rows

__all__ = [
    "EXPERIMENTS",
    "FIGURES",
    "Experiment",
    "av_markup",
    "grading_session",
    "grid",
    "run",
]


@dataclass(frozen=True)
class Experiment:
    """One table: what it shows, over which cases, how a case is run."""

    title: str
    #: ``job(**case)`` -> that case's rows (one, except E9's two)
    job: Callable[..., list[list]]
    #: keyword arguments of ``job``, one dict per case, in table order
    cases: list[dict[str, Any]]
    headers: list[str]


def grid(**axes) -> list[dict[str, Any]]:
    """Cross product of the named axes; the first axis varies slowest."""
    return [dict(zip(axes, values))
            for values in itertools.product(*axes.values())]


def run(key: str) -> tuple[list[str], list[list]]:
    """Run every case of experiment ``key``: ``(headers, rows)``."""
    exp = EXPERIMENTS[key]
    return exp.headers, [row for case in exp.cases
                         for row in exp.job(**case)]


def av_markup(duration: float = 10.0, with_images: bool = False) -> str:
    """The standard workload: a synchronized A/V pair (+ images)."""
    b = (
        DocumentBuilder("Experiment document")
        .text("experiment workload")
        .audio_video("audsrv:/a.au", "vidsrv:/v.mpg", "A", "V",
                     startime=0.0, duration=duration)
    )
    if with_images:
        b.image("imgsrv:/i1.gif", "I1", startime=0.0, duration=duration / 2)
        b.image("imgsrv:/i2.gif", "I2", startime=duration / 2,
                duration=duration / 2)
    return serialize(b.build())


def _engine(config: EngineConfig, duration_s: float,
            seed: int) -> ServiceEngine:
    """A fresh engine serving one A/V document ``doc`` on ``srv1``."""
    eng = ServiceEngine(replace(config, seed=seed))
    eng.add_server("srv1", documents={"doc": (av_markup(duration_s), "exp")})
    return eng


def _session(config: EngineConfig, duration_s: float,
             seed: int) -> SessionResult:
    return _engine(config, duration_s, seed).orchestrator.run_full_session(
        "srv1", "doc")


def _degrades(r: SessionResult, since_s: float = 0.0) -> list[float]:
    """Instants of the server's degrade decisions from ``since_s`` on."""
    return [d.time for d in r.grading_decisions
            if d.action == "degrade" and d.time >= since_s]


def _offer(ctrl: AdmissionController, offered: int, classes: list[str],
           min_bw_bps: float | None = None) -> list:
    """Ask ``ctrl`` for ``offered`` 2 Mb/s sessions, contracts cycling
    through ``classes``; its decisions, in order."""
    return [ctrl.decide(AdmissionRequest(
        session_id=f"s{i}", user_id=f"u{i}",
        contract=CONTRACT_CLASSES[classes[i % len(classes)]],
        required_bw_bps=TICKET_BPS, min_bw_bps=min_bw_bps,
    )) for i in range(offered)]


def _e1(window_s: float, seed: int) -> list[list]:
    """E1: startup delay vs. presentation quality across time windows.

    Bursty cross traffic transiently oversubscribes the 10 Mb/s access
    link; a deep queue turns the bursts into delay variation (hundreds
    of ms) rather than loss, which is exactly what the media time
    window exists to absorb. Larger windows buy smoothness with
    startup latency.
    """
    r = _session(EngineConfig(
        time_window_s=window_s,
        access_queue_packets=400,
        traffic=[TrafficConfig(kind="onoff", rate_bps=12e6,
                               on_mean_s=0.4, off_mean_s=0.4)],
    ), 10.0, seed)
    return [[
        window_s,
        round(r.startup_latency_s or 0.0, 3),
        r.total_gaps(),
        round(r.total_gap_ratio(), 4),
        sum(s.buffer_underflows for s in r.streams.values()),
        round(r.worst_skew_s() * 1e3, 1),
    ]]


def _e2(burst_bps: float, skew_control: bool, seed: int) -> list[list]:
    """E2: short-term skew control on/off under bursty congestion.

    Deep access queues turn traffic bursts into delivery outages
    followed by catch-up floods: the video slave stalls, then receives
    a backlog it would otherwise play at nominal rate — staying
    permanently behind its audio master. The skew controller's frame
    drops (and duplicates when ahead) are what re-lock the pair; this
    is precisely the [LIT 92] buffer-occupancy scenario the paper
    adopts. A small time window keeps the lag from being hidden by
    prefill.
    """
    r = _session(EngineConfig(
        skew_control=skew_control,
        time_window_s=0.15,
        access_queue_packets=400,
        traffic=[TrafficConfig(kind="onoff", rate_bps=burst_bps,
                               on_mean_s=0.4, off_mean_s=0.4)],
    ), 15.0, seed)
    series = list(r.skew.values())[0] if r.skew else None
    return [[
        int(burst_bps),
        "on" if skew_control else "off",
        round((series.max_abs_s if series else 0.0) * 1e3, 1),
        round((series.mean_abs_s if series else 0.0) * 1e3, 1),
        round((series.fraction_out_of_sync if series else 0.0) * 100, 1),
        r.streams["V"].drops,
        r.streams["V"].duplicates,
    ]]


def grading_session(grading: bool, seed: int) -> SessionResult:
    """E3's case: 30 s of A/V on a 2.5 Mb/s access that cross traffic
    oversubscribes during [5, 20) s, with or without grading."""
    return _session(EngineConfig(
        access_rate_bps=2.5e6,
        grading_policy=GradingPolicy(enabled=grading),
        traffic=[TrafficConfig(kind="poisson", rate_bps=1.4e6,
                               start_at=5.0, stop_at=20.0)],
    ), 30.0, seed)


def _e3(grading: bool, seed: int) -> list[list]:
    """E3: long-term quality grading on/off through a congestion epoch.

    Grading should shed video rate during the epoch and restore it
    afterwards, cutting loss and gaps vs. fixed quality.
    """
    r = grading_session(grading, seed)
    return [[
        "on" if grading else "off",
        round(r.loss_ratio() * 100, 2),
        round(r.total_gap_ratio() * 100, 2),
        round(r.mean_video_grade(), 2),
        round(r.mean_audio_grade(), 2),
        len(_degrades(r)),
        sum(1 for d in r.grading_decisions if d.action == "upgrade"),
    ]]


def _e4(offered: int) -> list[list]:
    """E4: admit rates by contract class as offered load rises
    (2 Mb/s sessions against a 20 Mb/s admission capacity)."""
    classes = ["basic", "premium", "gold"]
    ctrl = AdmissionController(20e6, open_fraction=0.6)
    _offer(ctrl, offered, classes)
    return [[
        offered,
        *(round(ctrl.stats.admit_rate(c) * 100, 1) for c in classes),
        round(ctrl.utilisation * 100, 1),
    ]]


def _e5(monitor_on: bool) -> list[list]:
    """E5: buffer watermark monitoring on/off ([LIT 92] mechanism).

    Direct buffer-level experiment with two delivery phases: a slight
    rate deficit (frames every 42 ms vs. the 40 ms nominal) that
    slowly drains the buffer, then a 2× burst that floods it. The
    monitor's LOW-zone duplication stretches playout so the buffer
    never runs dry; its HIGH-zone dropping sheds load before the
    hard capacity bound forces uncontrolled overflow drops.
    """
    from repro.client.buffers import MediaBuffer
    from repro.client.metrics import PlayoutEventLog
    from repro.client.monitor import BufferMonitor
    from repro.client.playout import PlayoutProcess
    from repro.des import Simulator
    from repro.media.types import Frame, FrameKind
    from repro.media import MediaType
    from repro.model.sync import PlayoutEntry

    n_frames = 600
    ticks = 3600
    sim = Simulator()
    buf = MediaBuffer("v", 90_000, time_window_s=0.4, capacity_s=0.8)
    log = PlayoutEventLog()
    monitor = BufferMonitor(buf, max_consecutive_duplicates=10) \
        if monitor_on else None

    def feeder():
        for i in range(n_frames):
            buf.push(Frame("v", seq=i, media_time=i * ticks,
                           duration=ticks, size_bytes=1000,
                           kind=FrameKind.P))
            yield sim.timeout(0.042 if i < n_frames // 2 else 0.020)

    entry = PlayoutEntry("v", MediaType.VIDEO, "s", 0.0, n_frames * 0.04)
    sim.process(feeder())
    p = PlayoutProcess(sim, entry, buf, log, 0.04, monitor=monitor)
    sim.run(until=p.finished)
    return [[
        "on" if monitor_on else "off",
        log.gap_count("v"),
        log.count(PlayoutEventKind.DUPLICATE, "v"),
        log.count(PlayoutEventKind.DROP, "v"),
        buf.stats.overflow_drops,
    ]]


def _e6(return_after_s: float) -> list[list]:
    """E6: cross-server navigation with the suspend grace interval.

    Returning within the 5 s grace interval reuses the suspended
    connection; returning after it finds the connection closed.
    """
    grace_s = 5.0
    eng = ServiceEngine(EngineConfig(suspend_grace_s=grace_s))
    eng.add_server("srv1", documents={"doc": (av_markup(4.0), "exp")})
    eng.add_server("srv2", documents={"doc2": (av_markup(4.0), "exp")})
    client, handler = eng.open_session("srv1", "user1", "pw")
    outcome = {}

    def script():
        resp = yield from client.connect()
        if resp.msg_type == "subscribe-required":
            yield from client.subscribe(SubscriptionForm(
                real_name="U", address="x", email="u@e.org"))
        yield from client.request_document("doc")
        yield from client.suspend_for_remote_link()
        yield eng.sim.timeout(return_after_s)
        resp = yield from client.resume_connection()
        outcome["type"] = resp.msg_type

    proc = eng.sim.process(script())
    eng.sim.run(until=proc)
    eng.sim.run(until=eng.sim.now + 1.0)
    return [[
        return_after_s, grace_s, outcome["type"],
        "sess-" in str(sorted(eng.servers["srv1"].sessions)),
    ]]


def _e7(query: str) -> list[list]:
    """E7: distributed search forwards queries to all servers and
    returns only matching lessons with their locations."""
    from repro.hermes import HermesService, make_course

    svc = HermesService()
    svc.add_hermes_server("hermes-nets", "Networking", ["networking"],
                          make_course("routing", "networking", 3))
    svc.add_hermes_server("hermes-arts", "Art history", ["painting"],
                          make_course("fresco", "painting", 2))
    results = svc.search_all("hermes-nets", query)
    return [[
        query, len(results), sum(len(v) for v in results.values()),
        ";".join(f"{s}({len(d)})" for s, d in sorted(results.items())),
    ]]


def _e8(order: str, seed: int) -> list[list]:
    """E8: ablation of the degrade ordering (video-first vs others)."""
    r = _session(EngineConfig(
        access_rate_bps=2.5e6,
        grading_policy=GradingPolicy(order=order, degrade_cooldown_s=1.0),
        traffic=[TrafficConfig(kind="poisson", rate_bps=1.4e6,
                               start_at=5.0, stop_at=25.0)],
    ), 30.0, seed)
    return [[
        order,
        round(r.mean_audio_grade(), 2),
        round(r.mean_video_grade(), 2),
        round(r.streams["A"].gap_ratio * 100, 2),
        round(r.streams["V"].gap_ratio * 100, 2),
    ]]


def _e9(seed: int) -> list[list]:
    """E9: short-term (client) recovery acts before long-term (server)
    grading after a congestion step at t=5 s."""
    r = _session(EngineConfig(
        access_rate_bps=2.5e6,
        traffic=[TrafficConfig(kind="poisson", rate_bps=1.6e6,
                               start_at=5.0)],
    ), 25.0, seed)
    short_term = [
        e.time for e in (r.log.events if r.log else [])
        if e.kind in (PlayoutEventKind.DROP, PlayoutEventKind.DUPLICATE)
        and e.time >= 5.0
    ]
    long_term = _degrades(r, since_s=5.0)
    return [
        [label, round(min(times), 3) if times else "n/a", len(times)]
        for label, times in (
            ("short-term (drop/dup at client)", short_term),
            ("long-term (server grading)", long_term),
        )
    ]


def _e10(placement: str, viewers: int, seed: int) -> list[list]:
    """E10 / E10b: concurrent viewers, shared vs. per-client access.

    Each session needs ~1.6 Mb/s. ``shared`` (E10) crams the viewers
    onto one 8 Mb/s access pipe, which carries ~4 cleanly; beyond that,
    admission and grading must share the pain. ``per-client`` (E10b)
    gives each viewer its *own* access link of the same rate — the
    paper's actual service shape, where viewers couple only through
    the backbone and the server's admission capacity — and carries the
    load cleanly at every population size the shared link chokes on.
    """
    orch = _engine(EngineConfig(access_rate_bps=8e6,
                                admission_capacity_bps=100e6),
                   8.0, seed).orchestrator
    if placement == "shared":
        results = orch.run_concurrent_sessions("srv1", "doc", viewers,
                                               stagger_s=0.25)
    else:
        results = orch.run_population(viewers, "srv1", "doc",
                                      stagger_s=0.25).results()
    done = [r for r in results if r.completed]
    return [[
        viewers,
        len(done),
        round(sum(r.total_gaps() for r in done) / max(1, len(done)), 1),
        round(max((r.worst_skew_s() for r in done), default=0.0) * 1e3, 1),
        round(sum(r.mean_video_grade() for r in done) / max(1, len(done)), 2),
        sum(len(_degrades(r)) for r in done),
    ]]


def _e11(atm: bool, lossy: bool, seed: int) -> list[list]:
    """E11 (future work, §7): the service over an ATM access link.

    Two effects vs. a plain link of the same nominal rate: the ~10%
    cell-header tax, and cell-loss amplification (one lost cell kills
    a whole AAL5 frame, so large video packets suffer far more than
    their cell-level loss rate suggests).
    """
    r = _session(EngineConfig(
        atm_access=atm,
        access_rate_bps=4e6,
        loss_p_gb=0.02 if lossy else 0.0,
        loss_p_bg=0.5,
        loss_bad=0.15,
    ), 10.0, seed)
    return [[
        "atm" if atm else "plain",
        "yes" if lossy else "no",
        round(r.startup_latency_s or 0.0, 2),
        r.total_gaps(),
        round(r.loss_ratio() * 100, 2),
        r.protocol_bytes.get("RTP", 0),
    ]]


def _e12(offered: int, negotiate: bool) -> list[list]:
    """E12: QoS negotiation on/off as offered load rises.

    With a negotiation floor (the user's lowest acceptable quality,
    0.5 of the 2 Mb/s a session asks for), admission grants partial
    bandwidth instead of rejecting — more users served, each at a
    quality matched to the grant.
    """
    from repro.media.encodings import default_registry
    from repro.server.flow_scheduler import FlowScheduler

    video = default_registry().get("MPEG")
    ctrl = AdmissionController(20e6, open_fraction=1.0)
    admitted = [d for d in _offer(ctrl, offered, ["basic"],
                                  0.5e6 if negotiate else None) if d.admitted]
    grades = [FlowScheduler.grade_for_ratio(video, d.grant_ratio)
              for d in admitted]
    return [[
        offered,
        "on" if negotiate else "off",
        len(admitted),
        sum(d.negotiated for d in admitted),
        round(sum(grades) / len(grades), 2) if grades else 0.0,
        round(ctrl.utilisation * 100, 1),
    ]]


def _e13(reporting: tuple[str, float, bool], seed: int) -> list[list]:
    """E13 (ablation): the feedback interval — "periodically or in
    specifically calculated intervals" (§4).

    Congestion starts at t=5 s. Frequent fixed reports react fast but
    cost control bandwidth all the time; sparse ones are cheap but
    slow; the adaptive calculation gets close to the fast reaction at
    close to the sparse overhead.
    """
    label, interval_s, adaptive = reporting
    r = _session(EngineConfig(
        access_rate_bps=2.5e6,
        rtcp_interval_s=interval_s,
        rtcp_adaptive=adaptive,
        traffic=[TrafficConfig(kind="poisson", rate_bps=1.4e6,
                               start_at=5.0, stop_at=20.0)],
    ), 25.0, seed)
    degrades = _degrades(r, since_s=5.0)
    rtcp_bytes = r.protocol_bytes.get("RTCP", 0)
    return [[
        label,
        round(min(degrades) - 5.0, 2) if degrades else "n/a",
        rtcp_bytes // RTCP_RR_BYTES,
        rtcp_bytes,
        round(r.loss_ratio() * 100, 2),
    ]]


_SCALING_COLUMNS = ["admitted", "mean_gaps", "worst_skew_ms",
                    "mean_video_grade", "degrades"]

#: CLI key -> declaration; :func:`run` is the one loop over ``cases``
EXPERIMENTS = {
    "e1": Experiment(
        "media time window vs quality", _e1,
        grid(window_s=(0.1, 0.25, 0.5, 1.0, 2.0), seed=(1,)),
        ["window_s", "startup_s", "gaps", "gap_ratio", "underflows",
         "max_skew_ms"]),
    "e2": Experiment(
        "short-term skew control", _e2,
        grid(burst_bps=(8e6, 12e6, 16e6), skew_control=(True, False),
             seed=(2,)),
        ["burst_bps", "skew_ctl", "max_skew_ms", "mean_skew_ms",
         "out_of_sync_%", "drops", "dups"]),
    "e3": Experiment(
        "long-term quality grading", _e3,
        grid(grading=(True, False), seed=(3,)),
        ["grading", "loss_%", "gap_ratio_%", "mean_video_grade",
         "mean_audio_grade", "degrades", "upgrades"]),
    "e4": Experiment(
        "admission by pricing class", _e4,
        grid(offered=(5, 10, 15, 20, 30)),
        ["offered", "admit_basic_%", "admit_premium_%", "admit_gold_%",
         "utilisation_%"]),
    "e5": Experiment(
        "buffer watermarks [LIT 92]", _e5,
        grid(monitor_on=(True, False)),
        ["monitor", "gaps", "duplicates", "drops", "forced_overflow_drops"]),
    "e6": Experiment(
        "suspend grace interval", _e6,
        grid(return_after_s=(2.0, 8.0)),
        ["return_after_s", "grace_s", "outcome", "session_alive"]),
    "e7": Experiment(
        "distributed search", _e7,
        grid(query=("routing", "fresco", "lesson", "quantum")),
        ["query", "servers_with_hits", "total_hits", "locations"]),
    "e8": Experiment(
        "degrade-order ablation", _e8,
        grid(order=("video-first", "audio-first", "proportional"), seed=(8,)),
        ["order", "mean_audio_grade", "mean_video_grade", "audio_gap_%",
         "video_gap_%"]),
    "e9": Experiment(
        "short- vs long-term timing", _e9,
        grid(seed=(9,)),
        ["mechanism", "first_action_s", "actions"]),
    "e10": Experiment(
        "concurrent-session scaling", _e10,
        grid(placement=("shared",), viewers=(1, 2, 4, 8), seed=(10,)),
        ["sessions", *_SCALING_COLUMNS]),
    "e10b": Experiment(
        "population on per-client links", _e10,
        grid(placement=("per-client",), viewers=(1, 2, 4, 8), seed=(10,)),
        ["clients", *_SCALING_COLUMNS]),
    "e11": Experiment(
        "ATM access link (future work)", _e11,
        grid(atm=(False, True), lossy=(False, True), seed=(11,)),
        ["access", "loss", "startup_s", "gaps", "frame_loss_%", "rtp_bytes"]),
    "e12": Experiment(
        "QoS negotiation at admission", _e12,
        grid(offered=(8, 12, 16, 24), negotiate=(False, True)),
        ["offered", "negotiation", "admitted", "negotiated_down",
         "mean_initial_grade", "utilisation_%"]),
    "e13": Experiment(
        "RTCP feedback interval", _e13,
        grid(reporting=(("fixed 0.25s", 0.25, False),
                        ("fixed 1s", 1.0, False),
                        ("fixed 4s", 4.0, False),
                        ("adaptive", 1.0, True)), seed=(13,)),
        ["reporting", "first_degrade_s", "rtcp_reports", "rtcp_bytes",
         "loss_%"]),
}

#: CLI key -> (one-line title, heading, table headers or None for plain
#: text, producer of the rows / the text)
FIGURES = {
    "table1": ("the keyword table",
               "Table 1 — Description of basic keywords",
               ["Keyword", "Description"], keyword_table_rows),
    "fig1": ("the grammar BNF",
             "Figure 1 — Grammar of the language in BNF notation",
             None, grammar_text),
    "fig2": ("the example scenario timeline",
             "Figure 2 — the example scenario's playout timeline", None,
             lambda: ascii_timeline(
                 build_playout_schedule(figure2_document()))),
    "fig4": ("the session state machine",
             "Figure 4 — application state transitions",
             ["state", "event", "next state"], transition_table_rows),
}
