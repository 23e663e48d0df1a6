"""End-to-end integration tests of the full service engine."""

from repro.client.metrics import PlayoutEventKind
from repro.core import EngineConfig, ServiceEngine, SessionSpec, TrafficConfig
from repro.hml.examples import figure2_markup
from repro.hml import DocumentBuilder, serialize
from tests.helpers import session_on


def small_av_markup(duration=4.0):
    doc = (
        DocumentBuilder("AV lesson")
        .text("a synchronized audio and video pair")
        .audio_video("audsrv:/a.au", "vidsrv:/v.mpg", "A", "V",
                     startime=0.0, duration=duration)
        .build()
    )
    return serialize(doc)


def engine_with_doc(markup, config=None, name="doc1"):
    eng = ServiceEngine(config)
    eng.add_server("srv1", documents={name: (markup, "demo")})
    return eng


def test_full_session_figure2():
    eng = engine_with_doc(figure2_markup())
    result = eng.orchestrator.run_full_session("srv1", "doc1")
    assert result.completed
    # All three continuous streams played essentially fully.
    assert result.streams["A1"].frames_played > 350  # 8 s at 50 fps
    assert result.streams["A2"].frames_played > 200  # 5 s at 50 fps
    assert result.streams["V"].frames_played > 150  # 8 s at 25 fps
    # Each discrete medium was shown once and hidden once.
    for image in ("I1", "I2"):
        assert result.log.count(PlayoutEventKind.SHOW, image) == 1
        assert result.log.count(PlayoutEventKind.HIDE, image) == 1
    assert result.total_gap_ratio() < 0.05
    assert result.worst_skew_s() < 0.08
    assert result.startup_latency_s is not None
    assert result.charge > 0.0


def test_protocols_match_figure5():
    eng = engine_with_doc(figure2_markup())
    result = eng.orchestrator.run_full_session("srv1", "doc1")
    # Scenario/images over TCP; audio/video over RTP; feedback RTCP.
    assert result.protocol_bytes.get("TCP", 0) > 0
    assert result.protocol_bytes.get("RTP", 0) > 0
    assert result.protocol_bytes.get("RTCP", 0) > 0
    # Media dominates the byte count.
    assert result.protocol_bytes["RTP"] > result.protocol_bytes["RTCP"]


def test_clean_network_no_grading():
    eng = engine_with_doc(small_av_markup())
    result = eng.orchestrator.run_full_session("srv1", "doc1")
    assert result.completed
    assert not result.grading_decisions
    assert result.mean_video_grade() == 0.0
    assert result.loss_ratio() < 0.01


def test_congestion_triggers_video_degradation():
    # Full-quality video (1.5 Mb/s) + audio + 1 Mb/s cross traffic
    # oversubscribe the 2.2 Mb/s access link; one or two grading rungs
    # (1.0 / 0.75 Mb/s video) make the load feasible again.
    cfg = EngineConfig(
        access_rate_bps=2.2e6,
        traffic=[TrafficConfig(kind="poisson", rate_bps=1.0e6)],
    )
    eng = engine_with_doc(small_av_markup(duration=20.0), cfg)
    result = eng.orchestrator.run_full_session("srv1", "doc1")
    assert result.completed
    degrades = [d for d in result.grading_decisions if d.action == "degrade"]
    assert degrades, "congestion should trigger the grading loop"
    # Video degrades before audio (the paper's ordering).
    assert degrades[0].target_stream == "V"
    assert result.streams["V"].frames_played > 100
    assert result.mean_video_grade() > 0.0


def test_deterministic_replay():
    def run():
        eng = engine_with_doc(small_av_markup(), EngineConfig(seed=42))
        r = eng.orchestrator.run_full_session("srv1", "doc1")
        return (r.streams["V"].frames_played, r.streams["V"].packets_received,
                r.total_gaps(), round(r.worst_skew_s(), 9))

    assert run() == run()


def test_single_session_is_a_workload_of_one():
    single = engine_with_doc(small_av_markup(), EngineConfig(seed=42))
    result = single.orchestrator.run_full_session("srv1", "doc1")
    assert result.completed and result.qoe["score"] > 90
    workload = engine_with_doc(small_av_markup(), EngineConfig(seed=42))
    (outcome,) = workload.orchestrator.run_workload(
        [SessionSpec(server="srv1", document="doc1")])
    assert result.to_dict() == outcome.result.to_dict()


def test_session_cut_by_the_horizon_is_not_completed():
    eng = engine_with_doc(small_av_markup())
    result = session_on(eng, "srv1", "doc1", horizon_s=2.0)
    assert not result.completed
    assert "score" in result.qoe


def test_two_servers_with_search():
    eng = ServiceEngine()
    eng.add_server("srv1", documents={"net-intro": (small_av_markup(), "nets")})
    eng.add_server("srv2", documents={"poetry": (figure2_markup(), "arts")})
    assert eng.servers["srv1"].peers == {"srv2": eng.servers["srv2"]}
    results = eng.servers["srv1"].search("scenario")
    assert "srv2" in results  # forwarded query found the Figure 2 doc


def test_unknown_document_fails_cleanly():
    eng = engine_with_doc(small_av_markup())
    result = eng.orchestrator.run_full_session("srv1", "nope")
    assert not result.completed
    assert result.events


def test_time_window_override_controls_startup():
    short = engine_with_doc(small_av_markup(),
                            EngineConfig(time_window_s=0.3))
    long = engine_with_doc(small_av_markup(),
                           EngineConfig(time_window_s=2.0))
    r_short = short.orchestrator.run_full_session("srv1", "doc1")
    r_long = long.orchestrator.run_full_session("srv1", "doc1")
    assert r_short.startup_latency_s < r_long.startup_latency_s
