"""Unit tests for SessionResult aggregates, the search client, and
the client QoS manager."""

import pytest

from repro.client.metrics import SkewSeries
from repro.core.results import SessionResult, StreamResult
from repro.des import Simulator
from repro.net import Network
from repro.rtp import RtpReceiver
from repro.client import ClientQoSManager
from repro.service.search import SearchClient
from tests.helpers import skew_sample


# ------------------------------------------------------------- results
def make_result():
    r = SessionResult(document="d", completed=True, startup_latency_s=0.2,
                      charge=0.01)
    r.streams["A"] = StreamResult("A", "audio", frames_played=100, gaps=0,
                                  packets_received=100, packets_lost=0,
                                  mean_grade=0.0)
    r.streams["V"] = StreamResult("V", "video", frames_played=80, gaps=20,
                                  packets_received=90, packets_lost=10,
                                  mean_grade=2.0)
    s = SkewSeries("g")
    skew_sample(s, 0.0, 0.05)
    skew_sample(s, 1.0, -0.12)
    r.skew["g"] = s
    return r


def test_result_aggregates():
    r = make_result()
    assert r.total_gaps() == 20
    assert r.total_gap_ratio() == pytest.approx(20 / 200)
    assert r.loss_ratio() == pytest.approx(10 / 200)
    assert r.worst_skew_s() == pytest.approx(0.12)
    assert max(s.fraction_out_of_sync for s in r.skew.values()) \
        == pytest.approx(0.5)
    assert r.mean_video_grade() == 2.0
    assert r.mean_audio_grade() == 0.0


def test_result_empty_aggregates():
    r = SessionResult(document="d", completed=False,
                      startup_latency_s=None, charge=0.0)
    assert r.total_gaps() == 0
    assert r.total_gap_ratio() == 0.0
    assert r.loss_ratio() == 0.0
    assert r.worst_skew_s() == 0.0
    assert r.mean_video_grade() == 0.0


# ------------------------------------------------------------- search
def test_search_client_orders_home_first():
    results = {"remote-b": ["x"], "home": ["y", "z"], "remote-a": ["w"]}
    hits = SearchClient.hits(results, home_server="home")
    assert [h.server for h in hits] == ["home", "home", "remote-a",
                                       "remote-b"]
    assert (hits[0].server, hits[0].document) == ("home", "y")


def test_search_client_empty():
    assert SearchClient.hits({}) == []
    assert SearchClient.hits({}, "home") == []


# ------------------------------------------------------------- QoS mgr
def build_net():
    sim = Simulator()
    net = Network(sim)
    net.add_node("cli")
    net.add_node("srv")
    net.add_duplex_link("cli", "srv", 10e6, 0.005)
    return sim, net


def test_qos_manager_registration_and_conditions():
    sim, net = build_net()
    mgr = ClientQoSManager(net, "cli", report_interval_s=0.5)
    rx = RtpReceiver(net, "cli", 5004, 90_000, "v")
    mgr.register_stream(rx, 5006, "srv", 5008)
    assert mgr.streams() == ["v"]
    assert rx.stats.cumulative_lost == 0 and rx.jitter_s == 0.0
    with pytest.raises(ValueError):
        mgr.register_stream(rx, 5007, "srv", 5008)
    with pytest.raises(ValueError):
        ClientQoSManager(net, "cli", report_interval_s=0)


def test_qos_manager_reports_and_stop():
    sim, net = build_net()
    from repro.rtp import RtcpSink

    sink = RtcpSink(net, "srv", 5008)
    mgr = ClientQoSManager(net, "cli", report_interval_s=0.5)
    rx = RtpReceiver(net, "cli", 5004, 90_000, "v")
    mgr.register_stream(rx, 5006, "srv", 5008)
    sim.run(until=2.2)
    assert mgr.reports_sent() == 4
    assert len(sink.reports_received) == 4
    mgr.stop()
    sim.run(until=5.0)
    assert mgr.reports_sent() == 4  # no more after stop


def test_qos_manager_empty_worst_jitter():
    sim, net = build_net()
    mgr = ClientQoSManager(net, "cli")
    assert mgr.streams() == []
    assert mgr.reports_sent() == 0
