"""Unit tests: fault plans, control-path faults, retry, ports, links."""

import pytest

from repro.core.config import EngineConfig
from repro.des import Simulator
from repro.des.rng import RngRegistry
from repro.faults import (
    ControlFaultState,
    FaultPlan,
    HeartbeatMonitor,
    RetryPolicy,
    population_digest,
)
from repro.faults.digest import canonical_json
from repro.faults.plan import (
    ControlImpairFault,
    ControlPartitionFault,
    LinkDownFault,
    LinkFlapFault,
    ServerCrashFault,
)
from repro.net import Network
from repro.net.ports import PortAllocator
from repro.obs.tracer import RecordingTracer
from repro.service.messages import ControlChannel


# -- FaultPlan ----------------------------------------------------------------

def full_plan():
    return FaultPlan((
        LinkDownFault(src="a", dst="b", at=1.0, duration_s=0.5),
        LinkFlapFault(src="a", dst="b", at=2.0, period_s=1.0,
                      down_s=0.2, count=3),
        ServerCrashFault(server="srv1", media_server="media", at=3.0),
        ControlPartitionFault(at=4.0, duration_s=1.0),
        ControlImpairFault(at=5.0, duration_s=1.0, drop_prob=0.3,
                           delay_s=0.1, jitter_s=0.05),
    ))


def test_plan_serialises_to_dict():
    """The dict a bench artifact records under ``faults``: every fault
    in plan order, its fields and its kind tag."""
    plan = full_plan()
    doc = plan.to_dict()
    assert [f["kind"] for f in doc["faults"]] == [
        "link-down", "link-flap", "server-crash", "control-partition",
        "control-impair"]
    assert doc["faults"][1] == {"src": "a", "dst": "b", "at": 2.0,
                                "period_s": 1.0, "down_s": 0.2, "count": 3,
                                "kind": "link-flap"}
    assert len(plan) == 5


def test_empty_plan_properties():
    plan = FaultPlan()
    assert len(plan) == 0
    assert list(plan) == []


def test_control_faults_require_control_state():
    from repro.core.engine import ServiceEngine

    def control_state(*faults):
        eng = ServiceEngine(EngineConfig(seed=1))
        eng.add_server("srv1")
        return eng.install_faults(FaultPlan(faults)).control_state

    assert control_state(ControlPartitionFault(at=0.0, duration_s=1.0)) \
        is not None
    assert control_state() is None


def test_plan_rejects_negative_schedule_time():
    with pytest.raises(ValueError):
        FaultPlan((LinkDownFault(src="a", dst="b", at=-1.0,
                                 duration_s=1.0),))


def test_plan_rejects_non_finite_times():
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="at"):
            FaultPlan((ControlPartitionFault(at=bad, duration_s=1.0),))
    with pytest.raises(ValueError, match="duration_s"):
        FaultPlan((LinkDownFault(src="a", dst="b", at=0.0,
                                 duration_s=float("nan")),))


def test_plan_rejects_zero_length_windows():
    with pytest.raises(ValueError, match="duration_s"):
        FaultPlan((LinkDownFault(src="a", dst="b", at=0.0,
                                 duration_s=0.0),))
    with pytest.raises(ValueError, match="duration_s"):
        FaultPlan((ControlImpairFault(at=0.0, duration_s=-1.0),))


def test_plan_rejects_zero_length_flap_window():
    good = dict(src="a", dst="b", at=0.0, period_s=1.0, down_s=0.2,
                count=3)
    FaultPlan((LinkFlapFault(**good),))  # sanity: the base is valid
    for field, bad in (("down_s", 0.0), ("period_s", 0.0),
                       ("down_s", -0.5), ("count", 0)):
        with pytest.raises(ValueError, match=field):
            FaultPlan((LinkFlapFault(**{**good, field: bad}),))


def test_plan_rejects_bad_impair_parameters():
    for field, bad in (("drop_prob", -0.1), ("drop_prob", 1.5),
                       ("drop_prob", float("nan")),
                       ("delay_s", -1.0), ("jitter_s", float("inf"))):
        with pytest.raises(ValueError, match=field):
            FaultPlan((ControlImpairFault(at=0.0, duration_s=1.0,
                                          **{field: bad}),))


def test_install_rejects_unknown_crash_targets():
    from repro.core.engine import ServiceEngine
    from repro.core.config import EngineConfig

    eng = ServiceEngine(EngineConfig(seed=1))
    eng.add_server("srv1")
    with pytest.raises(ValueError, match="unknown server"):
        eng.install_faults(FaultPlan((
            ServerCrashFault(server="ghost", media_server="media",
                             at=1.0),)))
    eng2 = ServiceEngine(EngineConfig(seed=1))
    eng2.add_server("srv1")
    with pytest.raises(ValueError, match="unknown media server"):
        eng2.install_faults(FaultPlan((
            ServerCrashFault(server="srv1", media_server="ghost",
                             at=1.0),)))


# -- digest -------------------------------------------------------------------

def test_canonical_json_is_order_insensitive():
    a = {"x": 1, "y": (1, 2), "z": {2, 1}, "f": 0.1}
    b = {"f": 0.1, "z": {1, 2}, "y": [1, 2], "x": 1}
    assert canonical_json(a) == canonical_json(b)
    assert population_digest(a) == population_digest(b)


# -- RetryPolicy --------------------------------------------------------------

def test_retry_backoff_caps_at_max():
    policy = RetryPolicy(timeout_s=1.0, max_attempts=5, backoff=3.0,
                         max_timeout_s=4.0, jitter_frac=0.0)
    assert policy.next_timeout(1.0) == 3.0
    assert policy.next_timeout(3.0) == 4.0
    assert policy.next_timeout(4.0) == 4.0


def test_retry_jitter_stays_bounded_and_deterministic():
    policy = RetryPolicy(timeout_s=1.0, jitter_frac=0.2)
    rng_a = RngRegistry(seed=5).stream("retry")
    rng_b = RngRegistry(seed=5).stream("retry")
    vals_a = [policy.next_timeout(1.0, rng_a) for _ in range(20)]
    vals_b = [policy.next_timeout(1.0, rng_b) for _ in range(20)]
    assert vals_a == vals_b
    for v in vals_a:
        assert 2.0 * 0.8 <= v <= 2.0 * 1.2


def test_retry_policy_validation():
    with pytest.raises(ValueError):
        RetryPolicy(timeout_s=0.0)
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)


# -- ControlFaultState --------------------------------------------------------

class CountingRng:
    def __init__(self, values):
        self.values = list(values)
        self.draws = 0

    def random(self):
        self.draws += 1
        return self.values.pop(0)


def test_partition_drops_without_touching_rng():
    rng = CountingRng([0.5])
    state = ControlFaultState(rng)
    state.partitioned = True
    assert state.decide(0.0) == ("drop", 0.0)
    assert rng.draws == 0


def test_clear_state_passes_without_touching_rng():
    rng = CountingRng([0.5])
    state = ControlFaultState(rng)
    assert state.decide(0.0) == ("pass", 0.0)
    assert rng.draws == 0


def test_impaired_drop_and_delay():
    state = ControlFaultState(CountingRng([0.1, 0.9, 0.5]))
    state.impair(0.2, 0.05, 0.1)
    assert state.decide(0.0) == ("drop", 0.0)          # 0.1 < 0.2
    verdict, delay = state.decide(0.0)                 # 0.9, then 0.5
    assert verdict == "delay"
    assert delay == pytest.approx(0.05 + 0.1 * 0.5)
    state.clear_impair()
    assert state.decide(0.0) == ("pass", 0.0)


# -- PortAllocator release (satellite) ---------------------------------------

def test_port_release_reuses_lowest_first():
    ports = PortAllocator("host")
    a = ports.allocate("rtcp")
    b = ports.allocate("rtcp")
    c = ports.allocate("rtcp")
    ports.release(b, "rtcp")
    ports.release(a, "rtcp")
    assert ports.allocated("rtcp") == 1
    assert ports.next_free("rtcp") == a
    assert ports.allocate("rtcp") == a
    assert ports.allocate("rtcp") == b
    assert ports.allocate("rtcp") == c + 1
    assert ports.allocated("rtcp") == 4


def test_port_release_rejects_double_free_and_unallocated():
    ports = PortAllocator("host")
    p = ports.allocate("rtcp")
    ports.release(p, "rtcp")
    with pytest.raises(ValueError):
        ports.release(p, "rtcp")
    with pytest.raises(ValueError):
        ports.release(39_999, "rtcp")


# -- link up/down -------------------------------------------------------------

def build_net():
    sim = Simulator()
    net = Network(sim)
    net.add_node("a")
    net.add_node("b")
    net.add_duplex_link("a", "b", 10e6, 0.001)
    return sim, net


def test_downed_link_drops_and_recovers():
    from repro.net.packet import Packet

    sim, net = build_net()
    got = []
    net.node("b").bind(5000, lambda pkt: got.append(pkt))
    link = net.links[("a", "b")]

    def send():
        net.send(Packet(src="a", dst="b", size_bytes=100, protocol="UDP",
                        flow_id="t", dst_port=5000))

    sim.call_later(0.0, send)
    sim.call_later(1.0, lambda: link.set_up(False))
    sim.call_later(1.1, send)
    sim.call_later(2.0, lambda: link.set_up(True))
    sim.call_later(2.1, send)
    sim.run(until=sim.timeout(3.0))

    assert len(got) == 2
    assert link.stats.fault_drops == 1
    assert link.up


# -- ControlEndpoint teardown guard (satellite) -------------------------------

def control_pair():
    sim, net = build_net()
    channel = ControlChannel(net, "a", "b", base_port=10_000, name="ctl-1")
    return sim, channel


def test_closed_endpoint_counts_late_messages():
    sim, channel = control_pair()
    seen = []
    channel.server.on_message = lambda msg: seen.append(msg.msg_type)

    def script():
        channel.client.send("one", {})
        yield sim.timeout(0.5)
        channel.server.close()
        channel.client.send("two", {})
        yield sim.timeout(0.5)

    proc = sim.process(script())
    sim.run(until=proc)
    sim.run(until=sim.timeout(1.0))
    assert seen == ["one"]
    assert channel.server.closed
    assert channel.server.late_messages == 1


def test_channel_close_closes_both_endpoints():
    sim, channel = control_pair()
    channel.close()
    assert channel.client.closed
    assert channel.server.closed
    assert channel.client.on_message is None
    assert channel.server.on_message is None


def test_heartbeat_acked_without_application_handler():
    # hb is answered at the endpoint even with no on_message bound,
    # so liveness probing works regardless of the application state.
    sim, channel = control_pair()

    replies = []

    def script():
        _, ev = channel.client.request("hb", {})
        yield sim.any_of([ev, sim.timeout(1.0)])
        replies.append(ev.triggered and ev.value.msg_type)

    proc = sim.process(script())
    sim.run(until=proc)
    assert replies == ["hb-ok"]


def test_heartbeat_monitor_detects_partition_and_recovery():
    sim, channel = control_pair()
    state = ControlFaultState(CountingRng([]))
    channel.client.fault = state
    channel.server.fault = state

    tracer = RecordingTracer()
    sim.set_tracer(tracer)
    # probes every 0.5 s, an ack awaited 0.4 s, two misses fail
    monitor = HeartbeatMonitor(sim, channel.client, name="t")
    sim.call_later(2.0, lambda: setattr(state, "partitioned", True))
    sim.call_later(4.0, lambda: setattr(state, "partitioned", False))
    sim.run(until=sim.timeout(6.0))
    monitor.stop()
    failures = [e.time for e in tracer.events if e.kind == "hb.fail"]
    recoveries = [e.time for e in tracer.events if e.kind == "hb.ok"]

    assert len(failures) == 1
    assert 2.0 < failures[0] < 4.5
    assert recoveries and recoveries[0] > 4.0
    assert not monitor.failed
    assert monitor.misses >= 2
