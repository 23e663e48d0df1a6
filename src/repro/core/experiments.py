"""Canned experiment runners (E1–E13 of DESIGN.md) and their registry.

Each function builds fresh engines, runs the sweep and returns
``(headers, rows)`` ready for :func:`repro.analysis.tables.render_table`.
The benchmarks print these tables and assert the qualitative claims;
EXPERIMENTS.md records paper-claim vs. measured outcome. ``python -m
repro list`` / ``run <key>`` read :data:`EXPERIMENTS` and :data:`FIGURES`.
"""

from __future__ import annotations

from repro.client.metrics import PlayoutEventKind
from repro.core.config import EngineConfig, TrafficConfig
from repro.core.engine import ServiceEngine
from repro.hml import DocumentBuilder, serialize
from repro.hml.examples import figure2_document
from repro.hml.grammar import grammar_text
from repro.hml.tokens import keyword_table_rows
from repro.model import ascii_timeline, build_playout_schedule
from repro.server.accounts import CONTRACT_CLASSES
from repro.server.admission import AdmissionController, AdmissionRequest
from repro.server.qos_manager import GradingPolicy
from repro.service.states import transition_table_rows

__all__ = [
    "EXPERIMENTS",
    "FIGURES",
    "av_markup",
    "run_time_window_sweep",
    "run_skew_control_matrix",
    "run_grading_comparison",
    "run_admission_sweep",
    "run_watermark_comparison",
    "run_navigation_grace",
    "run_search_experiment",
    "run_grading_order_ablation",
    "run_interplay_experiment",
    "run_scaling_experiment",
    "run_population_scaling",
    "run_atm_comparison",
    "run_negotiation_experiment",
    "run_rtcp_interval_ablation",
]


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


def _session(config: EngineConfig, markup: str, seed: int = 0):
    config.seed = seed
    eng = ServiceEngine(config)
    eng.add_server("srv1", documents={"doc": (markup, "exp")})
    return eng.orchestrator.run_full_session("srv1", "doc")


# -------------------------------------------------------------------- E1
def run_time_window_sweep(
    windows=(0.1, 0.25, 0.5, 1.0, 2.0),
    duration_s: float = 10.0,
    traffic_rate_bps: float = 12e6,
    seed: int = 1,
):
    """E1: startup delay vs. presentation quality across time windows.

    Bursty cross traffic transiently oversubscribes the 10 Mb/s access
    link; a deep queue turns the bursts into delay variation (hundreds
    of ms) rather than loss, which is exactly what the media time
    window exists to absorb. Larger windows buy smoothness with
    startup latency.
    """
    headers = ["window_s", "startup_s", "gaps", "gap_ratio",
               "underflows", "max_skew_ms"]
    rows = []
    for w in windows:
        cfg = EngineConfig(
            time_window_s=w,
            access_queue_packets=400,
            traffic=[TrafficConfig(kind="onoff", rate_bps=traffic_rate_bps,
                                   on_mean_s=0.4, off_mean_s=0.4)],
        )
        r = _session(cfg, av_markup(duration_s), seed=seed)
        rows.append([
            w,
            round(r.startup_latency_s or 0.0, 3),
            r.total_gaps(),
            round(r.total_gap_ratio(), 4),
            sum(s.buffer_underflows for s in r.streams.values()),
            round(r.worst_skew_s() * 1e3, 1),
        ])
    return headers, rows


# -------------------------------------------------------------------- E2
def run_skew_control_matrix(
    burst_rates=(8e6, 12e6, 16e6),
    duration_s: float = 15.0,
    seed: int = 2,
):
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
    headers = ["burst_bps", "skew_ctl", "max_skew_ms", "mean_skew_ms",
               "out_of_sync_%", "drops", "dups"]
    rows = []
    for rate in burst_rates:
        for ctl in (True, False):
            cfg = EngineConfig(
                skew_control=ctl,
                time_window_s=0.15,
                access_queue_packets=400,
                traffic=[TrafficConfig(kind="onoff", rate_bps=rate,
                                       on_mean_s=0.4, off_mean_s=0.4)],
            )
            r = _session(cfg, av_markup(duration_s), seed=seed)
            series = list(r.skew.values())[0] if r.skew else None
            rows.append([
                int(rate),
                "on" if ctl else "off",
                round((series.max_abs_s if series else 0.0) * 1e3, 1),
                round((series.mean_abs_s if series else 0.0) * 1e3, 1),
                round((series.fraction_out_of_sync if series else 0.0) * 100, 1),
                r.streams["V"].drops,
                r.streams["V"].duplicates,
            ])
    return headers, rows


# -------------------------------------------------------------------- E3
def run_grading_comparison(duration_s: float = 30.0, seed: int = 3):
    """E3: long-term quality grading on/off through a congestion epoch.

    Cross traffic oversubscribes the access link during [5, 20) s;
    grading should shed video rate during the epoch and restore it
    afterwards, cutting loss and gaps vs. fixed quality.
    """
    headers = ["grading", "loss_%", "gap_ratio_%", "mean_video_grade",
               "mean_audio_grade", "degrades", "upgrades"]
    rows = []
    results = {}
    for grading in (True, False):
        cfg = EngineConfig(
            access_rate_bps=2.5e6,
            grading_policy=GradingPolicy(enabled=grading),
            traffic=[TrafficConfig(kind="poisson", rate_bps=1.4e6,
                                   start_at=5.0, stop_at=20.0)],
        )
        r = _session(cfg, av_markup(duration_s), seed=seed)
        results[grading] = r
        rows.append([
            "on" if grading else "off",
            round(r.loss_ratio() * 100, 2),
            round(r.total_gap_ratio() * 100, 2),
            round(r.mean_video_grade(), 2),
            round(r.mean_audio_grade(), 2),
            sum(1 for d in r.grading_decisions if d.action == "degrade"),
            sum(1 for d in r.grading_decisions if d.action == "upgrade"),
        ])
    return headers, rows, results


# -------------------------------------------------------------------- E4
def run_admission_sweep(
    capacity_bps: float = 20e6,
    per_session_bps: float = 2e6,
    offered_sessions=(5, 10, 15, 20, 30),
):
    """E4: admit rates by contract class as offered load rises."""
    headers = ["offered", "admit_basic_%", "admit_premium_%", "admit_gold_%",
               "utilisation_%"]
    rows = []
    classes = ["basic", "premium", "gold"]
    for n in offered_sessions:
        ctrl = AdmissionController(capacity_bps, open_fraction=0.6)
        for i in range(n):
            contract = CONTRACT_CLASSES[classes[i % 3]]
            ctrl.decide(AdmissionRequest(
                session_id=f"s{i}", user_id=f"u{i}", contract=contract,
                required_bw_bps=per_session_bps,
            ))
        rows.append([
            n,
            round(ctrl.stats.admit_rate("basic") * 100, 1),
            round(ctrl.stats.admit_rate("premium") * 100, 1),
            round(ctrl.stats.admit_rate("gold") * 100, 1),
            round(ctrl.utilisation * 100, 1),
        ])
    return headers, rows


# -------------------------------------------------------------------- E5
def run_watermark_comparison(n_frames: int = 600):
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

    headers = ["monitor", "gaps", "duplicates", "drops",
               "forced_overflow_drops"]
    rows = []
    ticks = 3600
    duration = n_frames * 0.04
    for monitor_on in (True, False):
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

        entry = PlayoutEntry("v", MediaType.VIDEO, "s", 0.0, duration)
        sim.process(feeder())
        p = PlayoutProcess(sim, entry, buf, log, 0.04, monitor=monitor)
        sim.run(until=p.finished)
        rows.append([
            "on" if monitor_on else "off",
            log.gap_count("v"),
            log.count(PlayoutEventKind.DUPLICATE, "v"),
            log.count(PlayoutEventKind.DROP, "v"),
            buf.stats.overflow_drops,
        ])
    return headers, rows


# -------------------------------------------------------------------- E6
def run_navigation_grace(return_delays=(2.0, 8.0), grace_s: float = 5.0):
    """E6: cross-server navigation with the suspend grace interval.

    Returning within the grace interval reuses the suspended
    connection; returning after it finds the connection closed.
    """
    headers = ["return_after_s", "grace_s", "outcome", "session_alive"]
    rows = []
    for delay in return_delays:
        cfg = EngineConfig(suspend_grace_s=grace_s)
        eng = ServiceEngine(cfg)
        eng.add_server("srv1", documents={"doc": (av_markup(4.0), "exp")})
        eng.add_server("srv2", documents={"doc2": (av_markup(4.0), "exp")})
        client, handler = eng.open_session("srv1", "user1", "pw")
        outcome = {}

        def script(delay=delay):
            from repro.server.accounts import SubscriptionForm

            resp = yield from client.connect()
            if resp.msg_type == "subscribe-required":
                yield from client.subscribe(SubscriptionForm(
                    real_name="U", address="x", email="u@e.org"))
            yield from client.request_document("doc")
            yield from client.suspend_for_remote_link()
            yield eng.sim.timeout(delay)
            resp = yield from client.resume_connection()
            outcome["type"] = resp.msg_type

        proc = eng.sim.process(script())
        eng.sim.run(until=proc)
        eng.sim.run(until=eng.sim.now + 1.0)
        rows.append([
            delay, grace_s, outcome["type"],
            "sess-" in str(sorted(eng.servers["srv1"].sessions)),
        ])
    return headers, rows


# -------------------------------------------------------------------- E7
def run_search_experiment():
    """E7: distributed search forwards queries to all servers and
    returns only matching lessons with their locations."""
    from repro.hermes import HermesService, make_course

    svc = HermesService()
    svc.add_hermes_server("hermes-nets", "Networking", ["networking"],
                          make_course("routing", "networking", 3))
    svc.add_hermes_server("hermes-arts", "Art history", ["painting"],
                          make_course("fresco", "painting", 2))
    queries = ["routing", "fresco", "lesson", "quantum"]
    headers = ["query", "servers_with_hits", "total_hits", "locations"]
    rows = []
    for q in queries:
        results = svc.search_all("hermes-nets", q)
        total = sum(len(v) for v in results.values())
        rows.append([
            q, len(results), total,
            ";".join(f"{s}({len(d)})" for s, d in sorted(results.items())),
        ])
    return headers, rows


# -------------------------------------------------------------------- E8
def run_grading_order_ablation(duration_s: float = 30.0, seed: int = 8):
    """E8: ablation of the degrade ordering (video-first vs others)."""
    headers = ["order", "mean_audio_grade", "mean_video_grade",
               "audio_gap_%", "video_gap_%"]
    rows = []
    for order in ("video-first", "audio-first", "proportional"):
        cfg = EngineConfig(
            access_rate_bps=2.5e6,
            grading_policy=GradingPolicy(order=order,
                                         degrade_cooldown_s=1.0),
            traffic=[TrafficConfig(kind="poisson", rate_bps=1.4e6,
                                   start_at=5.0, stop_at=25.0)],
        )
        r = _session(cfg, av_markup(duration_s), seed=seed)
        rows.append([
            order,
            round(r.mean_audio_grade(), 2),
            round(r.mean_video_grade(), 2),
            round(r.streams["A"].gap_ratio * 100, 2),
            round(r.streams["V"].gap_ratio * 100, 2),
        ])
    return headers, rows


# -------------------------------------------------------------------- E13
def run_rtcp_interval_ablation(duration_s: float = 25.0, seed: int = 13):
    """E13 (ablation): the feedback interval — "periodically or in
    specifically calculated intervals" (§4).

    Congestion starts at t=5 s. Frequent fixed reports react fast but
    cost control bandwidth all the time; sparse ones are cheap but
    slow; the adaptive calculation gets close to the fast reaction at
    close to the sparse overhead.
    """
    headers = ["reporting", "first_degrade_s", "rtcp_reports",
               "rtcp_bytes", "loss_%"]
    rows = []
    configs = [
        ("fixed 0.25s", 0.25, False),
        ("fixed 1s", 1.0, False),
        ("fixed 4s", 4.0, False),
        ("adaptive", 1.0, True),
    ]
    for label, interval, adaptive in configs:
        cfg = EngineConfig(
            access_rate_bps=2.5e6,
            rtcp_interval_s=interval,
            rtcp_adaptive=adaptive,
            traffic=[TrafficConfig(kind="poisson", rate_bps=1.4e6,
                                   start_at=5.0, stop_at=20.0)],
        )
        r = _session(cfg, av_markup(duration_s), seed=seed)
        degrade_times = [d.time for d in r.grading_decisions
                         if d.action == "degrade" and d.time >= 5.0]
        first = round(min(degrade_times) - 5.0, 2) if degrade_times \
            else None
        rows.append([
            label,
            first if first is not None else "n/a",
            r.protocol_bytes.get("RTCP", 0) // 52,
            r.protocol_bytes.get("RTCP", 0),
            round(r.loss_ratio() * 100, 2),
        ])
    return headers, rows


# -------------------------------------------------------------------- E12
def run_negotiation_experiment(
    capacity_bps: float = 20e6,
    per_session_bps: float = 2e6,
    min_bps: float = 0.5e6,
    offered_sessions=(8, 12, 16, 24),
):
    """E12: QoS negotiation on/off as offered load rises.

    With a negotiation floor (the user's lowest acceptable quality),
    admission grants partial bandwidth instead of rejecting — more
    users served, each at a quality matched to the grant.
    """
    from repro.media.encodings import default_registry as _reg
    from repro.server.flow_scheduler import FlowScheduler

    video = _reg().get("MPEG")
    headers = ["offered", "negotiation", "admitted", "negotiated_down",
               "mean_initial_grade", "utilisation_%"]
    rows = []
    for n in offered_sessions:
        for negotiate in (False, True):
            ctrl = AdmissionController(capacity_bps, open_fraction=1.0)
            grades = []
            negotiated = 0
            for i in range(n):
                r = ctrl.decide(AdmissionRequest(
                    session_id=f"s{i}", user_id=f"u{i}",
                    contract=CONTRACT_CLASSES["basic"],
                    required_bw_bps=per_session_bps,
                    min_bw_bps=min_bps if negotiate else None,
                ))
                if r.admitted:
                    grades.append(
                        FlowScheduler.grade_for_ratio(video, r.grant_ratio)
                    )
                    negotiated += int(r.negotiated)
            rows.append([
                n,
                "on" if negotiate else "off",
                len(grades),
                negotiated,
                round(sum(grades) / len(grades), 2) if grades else 0.0,
                round(ctrl.utilisation * 100, 1),
            ])
    return headers, rows


# -------------------------------------------------------------------- E10
def run_scaling_experiment(
    session_counts=(1, 2, 4, 8),
    duration_s: float = 8.0,
    access_bps: float = 8e6,
    seed: int = 10,
):
    """E10: concurrent viewers sharing the access bottleneck.

    Each session needs ~1.6 Mb/s; an 8 Mb/s access carries ~4 cleanly.
    Beyond that, admission and grading must share the pain.
    """
    headers = ["sessions", "admitted", "mean_gaps", "worst_skew_ms",
               "mean_video_grade", "degrades"]
    rows = []
    for n in session_counts:
        cfg = EngineConfig(access_rate_bps=access_bps,
                           admission_capacity_bps=100e6, seed=seed)
        eng = ServiceEngine(cfg)
        eng.add_server("srv1", documents={"doc": (av_markup(duration_s),
                                                  "exp")})
        results = eng.orchestrator.run_concurrent_sessions("srv1", "doc", n,
                                              stagger_s=0.25)
        done = [r for r in results if r.completed]
        rows.append([
            n,
            len(done),
            round(sum(r.total_gaps() for r in done) / max(1, len(done)), 1),
            round(max((r.worst_skew_s() for r in done), default=0.0) * 1e3, 1),
            round(sum(r.mean_video_grade() for r in done)
                  / max(1, len(done)), 2),
            sum(len([d for d in r.grading_decisions
                     if d.action == "degrade"]) for r in done),
        ])
    return headers, rows

# ------------------------------------------------------------------- E10b
def run_population_scaling(
    population_sizes=(1, 2, 4, 8),
    duration_s: float = 8.0,
    access_bps: float = 8e6,
    seed: int = 10,
):
    """E10b: the same offered load on per-client access links.

    The shared-link sweep (E10) crams N viewers onto one access pipe;
    here each viewer gets its *own* access link of the same rate — the
    paper's actual service shape, where viewers couple only through
    the backbone and the server's admission capacity. Per-client links
    carry the load cleanly at every population size the shared link
    chokes on.
    """
    headers = ["clients", "admitted", "mean_gaps", "worst_skew_ms",
               "mean_video_grade", "degrades"]
    rows = []
    for n in population_sizes:
        cfg = EngineConfig(access_rate_bps=access_bps,
                           admission_capacity_bps=100e6, seed=seed)
        eng = ServiceEngine(cfg)
        eng.add_server("srv1", documents={"doc": (av_markup(duration_s),
                                                  "exp")})
        pop = eng.orchestrator.run_population(n, "srv1", "doc",
                                              stagger_s=0.25)
        done = [o.result for o in pop.completed()]
        rows.append([
            n,
            len(done),
            round(sum(r.total_gaps() for r in done) / max(1, len(done)), 1),
            round(max((r.worst_skew_s() for r in done), default=0.0) * 1e3, 1),
            round(sum(r.mean_video_grade() for r in done)
                  / max(1, len(done)), 2),
            sum(len([d for d in r.grading_decisions
                     if d.action == "degrade"]) for r in done),
        ])
    return headers, rows


# -------------------------------------------------------------------- E11
def run_atm_comparison(duration_s: float = 10.0, seed: int = 11):
    """E11 (future work, §7): the service over an ATM access link.

    Two effects vs. a plain link of the same nominal rate: the ~10%
    cell-header tax, and cell-loss amplification (one lost cell kills
    a whole AAL5 frame, so large video packets suffer far more than
    their cell-level loss rate suggests).
    """
    headers = ["access", "loss", "startup_s", "gaps", "frame_loss_%",
               "rtp_bytes"]
    rows = []
    for atm in (False, True):
        for lossy in (False, True):
            cfg = EngineConfig(
                atm_access=atm,
                access_rate_bps=4e6,
                loss_p_gb=0.02 if lossy else 0.0,
                loss_p_bg=0.5,
                loss_bad=0.15,
                seed=seed,
            )
            eng = ServiceEngine(cfg)
            eng.add_server("srv1",
                           documents={"doc": (av_markup(duration_s), "exp")})
            r = eng.orchestrator.run_full_session("srv1", "doc")
            rows.append([
                "atm" if atm else "plain",
                "yes" if lossy else "no",
                round(r.startup_latency_s or 0.0, 2),
                r.total_gaps(),
                round(r.loss_ratio() * 100, 2),
                r.protocol_bytes.get("RTP", 0),
            ])
    return headers, rows


# -------------------------------------------------------------------- E9
def run_interplay_experiment(duration_s: float = 25.0, seed: int = 9):
    """E9: short-term (client) recovery acts before long-term (server)
    grading after a congestion step at t=5 s."""
    cfg = EngineConfig(
        access_rate_bps=2.5e6,
        traffic=[TrafficConfig(kind="poisson", rate_bps=1.6e6,
                               start_at=5.0)],
    )
    r = _session(cfg, av_markup(duration_s), seed=seed)
    short_term_times = [
        e.time for e in (r.log.events if r.log else [])
        if e.kind in (PlayoutEventKind.DROP, PlayoutEventKind.DUPLICATE)
        and e.time >= 5.0
    ]
    long_term_times = [d.time for d in r.grading_decisions
                       if d.action == "degrade" and d.time >= 5.0]
    first_short = min(short_term_times) if short_term_times else None
    first_long = min(long_term_times) if long_term_times else None
    headers = ["mechanism", "first_action_s", "actions"]
    rows = [
        ["short-term (drop/dup at client)",
         round(first_short, 3) if first_short else "n/a",
         len(short_term_times)],
        ["long-term (server grading)",
         round(first_long, 3) if first_long else "n/a",
         len(long_term_times)],
    ]
    return headers, rows, (first_short, first_long)


#: CLI key -> (runner, one-line title); ``run_*`` names above, once each
EXPERIMENTS = {
    "e1": (run_time_window_sweep, "media time window vs quality"),
    "e2": (run_skew_control_matrix, "short-term skew control"),
    "e3": (run_grading_comparison, "long-term quality grading"),
    "e4": (run_admission_sweep, "admission by pricing class"),
    "e5": (run_watermark_comparison, "buffer watermarks [LIT 92]"),
    "e6": (run_navigation_grace, "suspend grace interval"),
    "e7": (run_search_experiment, "distributed search"),
    "e8": (run_grading_order_ablation, "degrade-order ablation"),
    "e9": (run_interplay_experiment, "short- vs long-term timing"),
    "e10": (run_scaling_experiment, "concurrent-session scaling"),
    "e10b": (run_population_scaling, "population on per-client links"),
    "e11": (run_atm_comparison, "ATM access link (future work)"),
    "e12": (run_negotiation_experiment, "QoS negotiation at admission"),
    "e13": (run_rtcp_interval_ablation, "RTCP feedback interval"),
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
