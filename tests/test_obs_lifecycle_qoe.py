"""Frame-lifecycle correlation, QoE scoring and the bench harness.

Three layers of coverage: streaming-percentile accuracy of the
log-bucketed histograms against known distributions, the event-join
logic of :mod:`repro.obs.lifecycle` on hand-built traces (drops,
losses, retransmits), and end-to-end acceptance — a clean traced
population must score strictly better QoE than a lossy one, and the
bench harness must emit comparable BENCH artifacts.
"""

from __future__ import annotations

import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ServiceEngine
from repro.core.config import EngineConfig
from repro.core.experiments import av_markup
from repro.obs import (
    TRACE_SCHEMA,
    TRACE_SCHEMA_VERSION,
    Histogram,
    RecordingTracer,
    SessionQoE,
    TraceEvent,
    correlate_frames,
    hop_latency_summary,
    log_buckets,
    qoe_summary,
    read_jsonl,
    score_session,
    score_sessions,
    write_chrome_trace,
    write_jsonl,
)
from repro.ioutil import UsageError
from repro.obs.bench import run_scenario
from repro.obs.qoe import LATENCY_BOUNDS
from repro.obs.slo import baseline_rules, evaluate, store_key


# ---------------------------------------------------------------------------
# streaming percentile accuracy
# ---------------------------------------------------------------------------

def _exact_quantile(samples: list[float], q: float) -> float:
    ordered = sorted(samples)
    idx = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return ordered[idx]


def test_log_buckets_shape_and_validation():
    bounds = log_buckets(1e-3, 10.0, per_decade=9)
    assert bounds[0] == pytest.approx(1e-3)
    assert bounds[-1] == float("inf")
    assert bounds[-2] >= 10.0
    assert list(bounds) == sorted(bounds)
    with pytest.raises(ValueError):
        log_buckets(0.0, 1.0)
    with pytest.raises(ValueError):
        log_buckets(1.0, 0.5)
    with pytest.raises(ValueError):
        log_buckets(1e-3, 1.0, per_decade=0)


@pytest.mark.parametrize("q", [0.50, 0.95, 0.99])
def test_histogram_quantiles_lognormal_within_bucket_error(q):
    # 9 bounds/decade -> adjacent bounds differ by 10^(1/9) ~ 1.29,
    # so the interpolated estimate stays well within ~15% relative
    # error of the exact sample quantile.
    rng = random.Random(7)
    samples = [rng.lognormvariate(-3.0, 1.0) for _ in range(10_000)]
    hist = Histogram(bounds=log_buckets(1e-4, 10.0, per_decade=9))
    for s in samples:
        hist.observe(s)
    exact = _exact_quantile(samples, q)
    est = hist.quantile(q)
    assert abs(est - exact) / exact < 0.15


def test_histogram_quantiles_uniform_and_extremes():
    hist = Histogram(bounds=log_buckets(1e-3, 10.0))
    samples = [0.01 + 0.99 * i / 999 for i in range(1000)]
    for s in samples:
        hist.observe(s)
    assert hist.quantile(0.0) == pytest.approx(min(samples))
    assert hist.quantile(1.0) == pytest.approx(max(samples))
    assert hist.quantile(0.5) == pytest.approx(
        _exact_quantile(samples, 0.5), rel=0.15)
    with pytest.raises(ValueError):
        hist.quantile(1.5)


def test_histogram_summary_includes_percentiles():
    hist = Histogram()
    assert hist.summary()["p99"] == 0.0  # empty -> zeros, no crash
    hist.observe(0.02)
    s = hist.summary()
    assert {"p50", "p95", "p99"} <= set(s)
    assert s["p50"] == pytest.approx(0.02)
    hist.observe(0.4)
    s = hist.summary()
    assert s["count"] == 2 and s["min"] == 0.02 and s["max"] == 0.4
    assert sum(hist.bucket_counts) == 2


def test_histogram_inf_bucket_reports_observed_max():
    hist = Histogram(bounds=(1.0, float("inf")))
    for v in (0.5, 2.0, 40.0):
        hist.observe(v)
    assert hist.quantile(0.99) == pytest.approx(40.0)


def test_histogram_batch_observe_is_observing_each_in_turn():
    """Same state to the bit, ``total`` included, in one call; values
    on a bucket bound and past the last bound land where observe puts
    them."""
    rng = random.Random(5)
    values = [rng.lognormvariate(-2.0, 1.5) for _ in range(500)]
    bounds = log_buckets(1e-3, 1.0)[:-1]  # no +inf: some fall off the end
    values += [bounds[3], bounds[-1], 50.0]
    one_by_one, batch = Histogram(bounds=bounds), Histogram(bounds=bounds)
    for v in values:
        one_by_one.observe(v)
    batch.observe_many(values[:100])
    batch.observe_many([])
    batch.observe_many(values[100:])
    assert batch == one_by_one
    assert sum(batch.bucket_counts) < batch.count


#: the bound sets the shipped rollups use (hop latency, QoE score,
#: startup)
_BOUND_SETS = (LATENCY_BOUNDS, tuple(range(1, 101)) + (math.inf,),
               log_buckets(1e-3, 100.0))


@settings(max_examples=200, deadline=None)
@given(bounds=st.sampled_from(_BOUND_SETS), data=st.data())
def test_histogram_counts_a_value_in_the_first_bound_at_or_above(bounds,
                                                                 data):
    """The bucket rule as a linear scan, against ``observe``: same
    buckets, count, total, min and max on any finite series (values on
    a bound included)."""
    value = st.floats(allow_nan=False, allow_infinity=False)
    values = data.draw(st.lists(value | st.sampled_from(bounds[:-1]),
                                max_size=40))
    hist = Histogram(bounds=bounds)
    for v in values:
        hist.observe(v)
    buckets, total = [0] * len(bounds), 0.0
    for v in values:
        total += v
        buckets[next(i for i, b in enumerate(bounds) if v <= b)] += 1
    assert (hist.bucket_counts, hist.count, hist.total, hist.min,
            hist.max) == (buckets, len(values), total,
                          min(values, default=math.inf),
                          max(values, default=-math.inf))


# ---------------------------------------------------------------------------
# lifecycle correlation on hand-built traces
# ---------------------------------------------------------------------------

def _frame_events(session="s1", stream="video", seq=0, *,
                  t0=1.0, played=True):
    """A complete frame journey: send -> deliver -> frame -> push -> play."""
    ev = [
        TraceEvent(t0, "rtp.send", stream, session=session,
                   args={"frame": seq, "media_time": seq * 3000,
                         "packets": 2}),
        TraceEvent(t0 + 0.001, "link.enqueue", "access",
                   session=session, args={"flow": stream, "frame": seq}),
        TraceEvent(t0 + 0.020, "net.deliver", "client",
                   session=session, args={"flow": stream, "frame": seq}),
        TraceEvent(t0 + 0.021, "rtp.frame", stream, session=session,
                   args={"frame": seq}),
        TraceEvent(t0 + 0.022, "buffer.push", stream, session=session,
                   args={"frame": seq}),
    ]
    if played:
        ev.append(TraceEvent(t0 + 0.150, "playout.frame", stream,
                             session=session, args={"frame": seq}))
    return ev


def test_correlate_played_frame_decomposes_hops():
    spans = correlate_frames(_frame_events())
    assert len(spans) == 1
    span = spans[("s1", "video", 0)]
    assert span.terminal == "played"
    assert span.packets == 2
    assert span.network_s == pytest.approx(0.020)
    assert span.reassembly_s == pytest.approx(0.001)
    assert span.buffer_s == pytest.approx(0.128)
    assert span.total_s == pytest.approx(0.150)
    assert span.enqueues == [(1.001, "access")]
    d = span.to_dict()
    assert d["terminal"] == "played"
    assert d["total_s"] == pytest.approx(0.150)


def test_correlate_lost_frame_all_fragments_dropped():
    events = [
        TraceEvent(1.0, "rtp.send", "video", session="s1",
                   args={"frame": 5, "media_time": 15000, "packets": 1}),
        TraceEvent(1.002, "link.drop", "access", session="s1",
                   args={"flow": "video", "frame": 5, "reason": "loss"}),
    ]
    span = correlate_frames(events)[("s1", "video", 5)]
    assert span.terminal == "lost"
    assert span.packets_dropped == 1
    assert span.total_s is None


def test_correlate_reassembly_drop_joins_on_media_time():
    # rtp.frame_drop carries only the RTP timestamp; the correlator
    # must map it back to the frame seq announced by rtp.send.
    events = [
        TraceEvent(1.0, "rtp.send", "video", session="s1",
                   args={"frame": 3, "media_time": 9000, "packets": 2}),
        TraceEvent(1.5, "rtp.frame_drop", "video", session="s1",
                   args={"media_time": 9000, "reason": "fragments"}),
    ]
    span = correlate_frames(events)[("s1", "video", 3)]
    assert span.terminal == "dropped"
    assert span.drop_stage == "reassembly"
    assert span.drop_reason == "fragments"


def test_correlate_playout_and_buffer_drops():
    events = _frame_events(seq=0, played=False) + [
        TraceEvent(2.0, "playout.drop", "video", session="s1",
                   args={"frame": 0, "reason": "stale"}),
    ]
    events += [
        TraceEvent(3.0, "rtp.send", "video", session="s1",
                   args={"frame": 1, "media_time": 3000, "packets": 1}),
        TraceEvent(3.1, "buffer.drop", "video", session="s1",
                   args={"frame": 1, "reason": "overflow"}),
    ]
    spans = correlate_frames(events)
    stale = spans[("s1", "video", 0)]
    assert (stale.terminal, stale.drop_stage, stale.drop_reason) == \
        ("dropped", "playout", "stale")
    overflow = spans[("s1", "video", 1)]
    assert (overflow.terminal, overflow.drop_stage) == ("dropped", "buffer")


def test_correlate_retransmit_keeps_first_send_time():
    events = [
        TraceEvent(1.0, "rtp.send", "video", session="s1",
                   args={"frame": 0, "media_time": 0, "packets": 1}),
        TraceEvent(1.3, "rtp.send", "video", session="s1",
                   args={"frame": 0, "media_time": 0, "packets": 1}),
        TraceEvent(1.4, "playout.frame", "video", session="s1",
                   args={"frame": 0}),
    ]
    span = correlate_frames(events)[("s1", "video", 0)]
    assert span.retransmits == 1
    assert span.sent_s == pytest.approx(1.0)
    assert span.total_s == pytest.approx(0.4)


def test_correlate_session_filter():
    events = _frame_events(session="a") + _frame_events(session="b")
    assert len(correlate_frames(events)) == 2
    only_a = correlate_frames(events, session="a")
    assert set(k[0] for k in only_a) == {"a"}


def test_hop_latency_summary_counts_terminals():
    events = _frame_events(seq=0) + _frame_events(seq=1, t0=2.0) + [
        TraceEvent(3.0, "rtp.send", "video", session="s1",
                   args={"frame": 2, "media_time": 6000, "packets": 1}),
        TraceEvent(3.01, "link.drop", "access", session="s1",
                   args={"flow": "video", "frame": 2}),
    ]
    summary = hop_latency_summary(correlate_frames(events))
    assert summary["terminals"] == {"played": 2, "lost": 1}
    assert summary["network_s"]["count"] == 2
    assert summary["total_s"]["mean"] == pytest.approx(0.150)


# ---------------------------------------------------------------------------
# QoE scoring
# ---------------------------------------------------------------------------

def _session_trace(session="s1", *, gaps=(), skews=0, lossy=False):
    events = [TraceEvent(0.0, "session", session, phase="B",
                         session=session)]
    n_frames = 3 if lossy else 4
    for i in range(n_frames):
        events += _frame_events(session=session, seq=i, t0=0.5 + i * 0.1)
    if lossy:
        # frame 3 is sent but every fragment is dropped on the link
        events += [
            TraceEvent(0.8, "rtp.send", "video", session=session,
                       args={"frame": 3, "media_time": 9000,
                             "packets": 1}),
            TraceEvent(0.81, "link.drop", "access", session=session,
                       args={"flow": "video", "frame": 3}),
        ]
    for t in gaps:
        events.append(TraceEvent(t, "playout.gap", "video",
                                 session=session))
    for i in range(skews):
        events.append(TraceEvent(2.0 + i, "skew.correct", "video",
                                 session=session))
    events.append(TraceEvent(6.0, "session", session, phase="E",
                             session=session))
    return events


def test_score_session_clean_run_scores_high():
    qoe = score_session(_session_trace(), "s1")
    assert qoe.frames_sent == 4
    assert qoe.frames_played == 4
    assert qoe.delivery_ratio == 1.0
    assert qoe.stall_count == 0
    assert qoe.startup_s == pytest.approx(0.65)  # first playout.frame
    assert qoe.score > 90
    assert qoe.latency["count"] == 4


def test_score_session_penalizes_loss_stalls_and_skew():
    clean = score_session(_session_trace(), "s1")
    impaired = score_session(
        _session_trace(gaps=[3.0, 3.1, 3.2, 5.0], skews=4, lossy=True),
        "s1")
    assert impaired.frames_lost == 1
    assert impaired.stall_count == 2  # 3.0-3.2 merged, 5.0 separate
    assert impaired.stall_time_s > 0
    assert impaired.skew_violations == 4
    assert impaired.score < clean.score
    assert 0 <= impaired.score <= 100


def test_session_qoe_survives_its_dict():
    qoe = score_session(_session_trace(gaps=[3.0, 3.1], skews=2,
                                       lossy=True), "s1")
    doc = json.loads(json.dumps(qoe.to_dict()))
    assert SessionQoE.from_dict(doc) == qoe
    assert SessionQoE.from_dict(doc).delivery_ratio == doc["delivery_ratio"]
    # a document that does not name its session loads unnamed
    del doc["session"]
    assert SessionQoE.from_dict(doc).session == ""


def test_score_sessions_and_summary_rollup():
    events = _session_trace("a") + _session_trace("b", lossy=True)
    qoes = score_sessions(events)
    assert set(qoes) == {"a", "b"}
    assert qoes["a"].score > qoes["b"].score
    summary = qoe_summary(qoes)
    assert summary["sessions"] == 2
    assert summary["frames_sent"] == 8
    assert summary["frames_lost"] == 1
    assert summary["score"]["count"] == 2
    # the dict must survive JSON round-tripping (bench artifacts)
    assert json.loads(json.dumps(summary)) == summary


def test_qoe_clean_population_beats_lossy_population():
    """Acceptance: clean engine run scores strictly better than lossy."""
    def run(config):
        tracer = RecordingTracer()
        eng = ServiceEngine(config, tracer=tracer)
        eng.add_server("srv1",
                       documents={"doc": (av_markup(3.0, True), "x")})
        pop = eng.orchestrator.run_population(2, "srv1", "doc",
                                              stagger_s=0.3)
        return pop, tracer

    clean_pop, clean_tr = run(EngineConfig(seed=3))
    lossy_pop, lossy_tr = run(
        EngineConfig(seed=3, loss_p_gb=0.05, loss_bad=0.4))

    clean = qoe_summary(score_sessions(clean_tr.events))
    lossy = qoe_summary(score_sessions(lossy_tr.events))
    assert clean["score"]["p50"] > lossy["score"]["p50"]
    assert clean["frames_played"] > lossy["frames_played"]

    # the same scores ride on the population results
    for outcome in clean_pop.outcomes:
        assert outcome.result.qoe["score"] > 0
    assert clean_pop.qoe_summary()["sessions"] == 2


def test_untraced_population_has_qoe_and_no_trace_counters():
    """A result needs no recorder, and has no field for one's books."""
    eng = ServiceEngine(EngineConfig(seed=3))
    eng.add_server("srv1", documents={"doc": (av_markup(2.0), "x")})
    pop = eng.orchestrator.run_population(2, "srv1", "doc", stagger_s=0.3)
    assert pop.qoe_summary()["sessions"] == 2
    assert not hasattr(pop, "metrics") and "metrics" not in pop.to_dict()
    for outcome in pop.outcomes:
        qoe = outcome.result.qoe
        assert qoe["session"] == outcome.session_id
        assert qoe["frames_played"] == qoe["latency"]["count"] > 0
        assert qoe["score"] > 90
        assert not hasattr(outcome.result, "metrics")
        assert "metrics" not in outcome.result.to_dict()


# ---------------------------------------------------------------------------
# schema versioning
# ---------------------------------------------------------------------------

def test_jsonl_header_carries_schema_version(tmp_path):
    path = tmp_path / "t.jsonl"
    events = [TraceEvent(1.0, "kernel.event", "p")]
    assert write_jsonl(events, path) == 1  # header not counted
    first = json.loads(path.read_text().splitlines()[0])
    assert first["schema"] == TRACE_SCHEMA
    assert first["version"] == TRACE_SCHEMA_VERSION
    assert [e.kind for e in read_jsonl(path)] == ["kernel.event"]


def test_jsonl_rejects_foreign_schema(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps({"schema": "other.trace", "version": 1})
                    + "\n")
    with pytest.raises(ValueError, match="schema"):
        read_jsonl(path)

    path.write_text(json.dumps(
        {"schema": TRACE_SCHEMA, "version": TRACE_SCHEMA_VERSION + 99})
        + "\n")
    with pytest.raises(ValueError, match="version"):
        read_jsonl(path)


def test_chrome_trace_metadata_round_trip(tmp_path):
    path = tmp_path / "t.chrome.json"
    write_chrome_trace([TraceEvent(1.0, "kernel.event", "p")], path)
    doc = json.loads(path.read_text())
    assert doc["metadata"]["schema"] == TRACE_SCHEMA
    assert doc["metadata"]["version"] == TRACE_SCHEMA_VERSION
    assert doc["traceEvents"]


# ---------------------------------------------------------------------------
# bench harness
# ---------------------------------------------------------------------------

def test_run_scenario_smoke_artifact_shape():
    artifact = run_scenario("population_clean", smoke=True).artifact
    assert artifact["schema"] == "repro.bench"
    assert artifact["smoke"] is True
    assert artifact["events"] > 0
    assert artifact["completed"] == artifact["sessions"]
    assert artifact["qoe"]["score"]["p50"] > 0
    json.dumps(artifact)  # artifact must be serializable as-is


def test_run_scenario_artifact_is_a_pure_function_of_the_code():
    """Nothing in it is timed, so a reference can be regenerated."""
    assert run_scenario("population_clean", smoke=True).artifact == \
        run_scenario("population_clean", smoke=True).artifact


def test_run_benchmarks_unknown_scenario():
    with pytest.raises(UsageError, match="no_such_scenario"):
        run_scenario("no_such_scenario", smoke=True)


def _regressed(baseline, run):
    """Metrics that fail the rules ``baseline`` generates for ``run``."""
    return {check.rule.metric
            for check in evaluate(baseline_rules(baseline), run)
            if not check.ok}


def _depth(peak):
    return {"columns": {"event_queue_depth": {"values": [1.0, peak]}}}


def test_baseline_is_a_one_point_history():
    """A reference is one artifact per (scenario, smoke), and it stands
    for a spec: each gated metric within 10% of it."""
    base = {"schema": "repro.bench", "name": "x", "smoke": True,
            "sessions": 4, "completed": 4, "events": 1000,
            "origin_egress_bytes": 1000, "timeseries": _depth(90.0),
            "egress_reduction": 4.0, "qoe": {"score": {"p50": 90.0}}}
    assert _regressed(base, dict(base)) == set()

    worse = dict(base, completed=2, qoe={"score": {"p50": 40.0}},
                 egress_reduction=2.0)
    assert _regressed(base, worse) == {"completed_ratio", "qoe_p50",
                                       "egress_reduction"}

    # the band is 10% of |baseline|: a 10% drop passes, 11% fails
    assert _regressed(base, dict(base, qoe={"score": {"p50": 81.0}})) \
        == set()
    assert _regressed(base, dict(base, qoe={"score": {"p50": 80.0}})) \
        == {"qoe_p50"}
    # a "lower" metric exactly 10% up passes: b + t*|b| is 99.0 at
    # b = 90, where (1 + t) * b would be one ulp above it
    assert _regressed(base, dict(base, timeseries=_depth(99.0))) == set()
    assert _regressed(base, dict(base, timeseries=_depth(100.0))) \
        == {"max_queue_depth"}
    # a "stable" metric is held on both sides
    for drift in (800, 1200):
        assert _regressed(base, dict(base, origin_egress_bytes=drift)) \
            == {"origin_egress_bytes"}

    # fewer heap entries is what a cheaper data path looks like
    assert _regressed(base, dict(base, events=500)) == set()
    assert "events" not in {rule.metric for rule in baseline_rules(base)}


def test_a_gated_metric_the_run_lacks_fails_closed():
    base = {"schema": "repro.bench", "name": "x", "smoke": True,
            "egress_reduction": 4.0, "qoe": {"score": {"p50": 90.0}}}
    run = dict(base)
    del run["egress_reduction"]
    (check,) = [c for c in evaluate(baseline_rules(base), run) if not c.ok]
    assert check.rule.metric == "egress_reduction" and check.value is None


def test_smoke_run_never_joins_a_full_baseline(tmp_path, capsys):
    from repro.__main__ import main

    base = {"schema": "repro.bench", "scenario": "population_clean",
            "smoke": False, "sessions": 4, "completed": 400}
    run = dict(base, smoke=True, completed=4)
    assert store_key(run) == ("population_clean", True) != store_key(base)

    # on the command line: the full-scale reference is not this smoke
    # run's, so there is nothing to compare against ...
    store = tmp_path / "store"
    store.mkdir()
    reference = store / "BENCH_population_clean.json"
    reference.write_text(json.dumps(base))
    argv = ["bench", "--smoke", "--scenario", "population_clean",
            "--out", str(tmp_path), "--baseline", str(store)]
    assert main(argv) == 0
    assert "missing (not compared)" in capsys.readouterr().out

    # ... and a reference that is no bench artifact is refused, not
    # skipped: one line on stderr, exit 2
    reference.write_text(json.dumps({"schema": "something.else"}))
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert str(reference) in err and err.count("\n") == 1


def test_bench_cli_smoke_emits_artifacts(tmp_path):
    from repro.__main__ import main

    out = tmp_path / "bench"
    rc = main(["bench", "--smoke", "--scenario", "population_clean",
               "--out", str(out),
               "--baseline", str(tmp_path / "no-baselines")])
    assert rc == 0
    artifact_path = out / "BENCH_population_clean.json"
    assert artifact_path.exists()
    doc = json.loads(artifact_path.read_text())
    assert doc["name"] == "population_clean"
    assert doc["qoe"]["sessions"] == doc["sessions"]
