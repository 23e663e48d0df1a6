"""Figure 3 — the general architecture.

Runs one on-demand delivery and regenerates the architecture as the
observed component-interaction sequence: connection request →
admission → scenario transfer → flow scheduler → media servers →
parallel transport → client buffers → presentation scheduler →
QoS feedback loop.
"""

from repro.analysis import render_table
from repro.core import EngineConfig, ServiceEngine
from repro.core.experiments import av_markup


def run_traced_session():
    eng = ServiceEngine(EngineConfig())
    eng.add_server("srv1", documents={"doc": (av_markup(6.0, with_images=True),
                                              "demo")})
    server = eng.servers["srv1"]
    client, handler = eng.open_session("srv1", "user1", "pw")
    trace: list[tuple[float, str, str]] = []
    box = {}

    def script():
        from repro.server.accounts import SubscriptionForm

        resp = yield from client.connect()
        trace.append((eng.sim.now, "client->server", "connect request"))
        if resp.msg_type == "subscribe-required":
            resp = yield from client.subscribe(SubscriptionForm(
                real_name="U", address="x", email="u@e.org"))
            trace.append((eng.sim.now, "server", "subscription + admission"))
        resp = yield from client.request_document("doc")
        trace.append((eng.sim.now, "multimedia database",
                      "scenario retrieved and sent to client"))
        comp = eng.build_client_composition(resp.body["markup"], server,
                                            session=handler.session_id)
        trace.append((eng.sim.now, "presentation scheduler",
                      f"built {len(comp.scheduler.buffers)} media buffers + "
                      f"{len(comp.scheduler.skew_controllers)} sync groups"))
        ready = yield from client.send_ready(comp.rtp_ports,
                                             comp.discrete_ports)
        trace.append((eng.sim.now, "flow scheduler",
                      "flow scenario computed; media servers activated"))
        comp.attach_feedback(ready.body["rtcp_port"], server.node_id)
        trace.append((eng.sim.now, "client QoS manager",
                      "RTCP receiver reports armed"))
        done = comp.start()
        trace.append((eng.sim.now, "playout scheduler",
                      f"presentation begins after "
                      f"{comp.scheduler.initial_delay_s:.2f}s time window"))
        yield done
        trace.append((eng.sim.now, "presentation", "scenario completed"))
        box["comp"] = comp
        # Counted here: disconnect tears the session down, and the
        # handler closes its RTCP sink with it.
        box["reports_received"] = len(handler.rtcp_sink.reports_received)
        yield from client.disconnect()

    proc = eng.sim.process(script())
    eng.sim.run(until=proc)
    eng.sim.run(until=eng.sim.now + 1.0)
    return eng, trace, box["comp"], box["reports_received"]


def test_fig3_architecture_trace(report, once):
    eng, trace, comp, reports_received = once(run_traced_session)
    # All Figure 3 components took part, in causal order.
    components = [c for _, c, _ in trace]
    for expected in ("multimedia database", "presentation scheduler",
                     "flow scheduler", "client QoS manager",
                     "playout scheduler"):
        assert expected in components, f"missing component {expected}"
    times = [t for t, _, _ in trace]
    assert times == sorted(times)
    # The feedback loop ran: client reporters sent, server sink received.
    assert comp.qos.reports_sent() > 0
    assert 0 < reports_received <= comp.qos.reports_sent()
    # Media servers streamed in parallel (audio + video + images).
    protocols = eng.network.tap.bytes_by_protocol
    assert protocols.get("RTP", 0) > 0 and protocols.get("TCP", 0) > 0
    rows = [[f"{t:.3f}", c, a] for t, c, a in trace]
    report("fig3_architecture",
           render_table("Figure 3 — the general architecture "
                        "(observed interaction sequence)",
                        ["time_s", "component", "action"], rows))


def test_engine_session_throughput(once):
    """One full 6-second A/V session, wall-clock benchmarked."""
    def run():
        eng = ServiceEngine()
        eng.add_server("srv1", documents={"doc": (av_markup(6.0), "demo")})
        return eng.orchestrator.run_full_session("srv1", "doc")

    result = once(run)
    assert result.completed
