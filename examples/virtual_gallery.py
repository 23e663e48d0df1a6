"""Remote access to a virtual gallery with cross-server navigation.

Another of the paper's motivating applications ("remote access to
virtual galleries"). Two museums run their own multimedia servers;
a visitor tours the first, follows a hyperlink to a painting hosted
by the second, and then returns — exercising the §5 suspend-
connection mechanism: the first museum keeps the connection alive for
a grace interval, so the return needs no re-authentication.

Run:  python examples/virtual_gallery.py
"""

from repro.core import EngineConfig, ServiceEngine
from repro.hml import DocumentBuilder, serialize
from repro.server.accounts import SubscriptionForm
from repro.service import SessionState


#: both museums' documents are part of the scenario set
SCENARIO_CLOSED = True


def room(title: str, narration: str, n_paintings: int,
         remote_link: str | None = None) -> str:
    b = DocumentBuilder(title).heading(1, title).text(narration)
    t = 0.0
    for i in range(1, n_paintings + 1):
        b.image(f"imgsrv:/{title.replace(' ', '_')}/p{i}.gif",
                f"P{i}", startime=t, duration=6.0,
                width=400, height=300)
        b.audio(f"audsrv:/{title.replace(' ', '_')}/guide{i}.au",
                f"G{i}", startime=t, duration=6.0,
                note=f"audio guide for painting {i}")
        t += 6.0
    if remote_link:
        b.hyperlink(remote_link, note="see the companion piece")
    return serialize(b.build())


def scenario_documents() -> dict[str, str]:
    """Both museums' documents, for the scenario analyzer."""
    return {
        "room-a": room("Flemish room", "Works on loan from Bruges.", 2,
                       remote_link="museo-due:annex"),
        "annex": room("Annex", "The companion piece.", 1),
    }


def main() -> None:
    cfg = EngineConfig(suspend_grace_s=20.0)
    engine = ServiceEngine(cfg)
    docs = scenario_documents()
    engine.add_server("museo-uno", documents={
        "room-a": (docs["room-a"], "galleries"),
    }, description="Museo Uno — permanent collection")
    engine.add_server("museo-due", documents={
        "annex": (docs["annex"], "galleries"),
    }, description="Museo Due — special exhibitions")

    sim = engine.sim
    client1, handler1 = engine.open_session("museo-uno", "visitor", "pw")
    client2, handler2 = engine.open_session("museo-due", "visitor", "pw")
    log: list[str] = []

    def tour():
        resp = yield from client1.connect()
        if resp.msg_type == "subscribe-required":
            resp = yield from client1.subscribe(SubscriptionForm(
                real_name="A Visitor", address="via Roma 1",
                email="visitor@example.org"))
        log.append(f"t={sim.now:.2f} connected to museo-uno")

        resp = yield from client1.request_document("room-a")
        comp = engine.build_client_composition(
            resp.body["markup"], engine.servers["museo-uno"],
            session=handler1.session_id)
        ready = yield from client1.send_ready(comp.rtp_ports,
                                              comp.discrete_ports)
        comp.attach_feedback(ready.body["rtcp_port"],
                             engine.servers["museo-uno"].node_id)
        done = comp.start()
        yield done
        comp.close()
        log.append(f"t={sim.now:.2f} finished the Flemish room")

        # Follow the cross-server link (still in the VIEWING state):
        # suspend museo-uno, visit museo-due.
        yield from client1.suspend_for_remote_link()
        log.append(f"t={sim.now:.2f} museo-uno connection suspended "
                   f"(grace {cfg.suspend_grace_s:.0f}s)")

        resp = yield from client2.connect()
        yield from client2.request_document("annex")
        comp2 = engine.build_client_composition(
            client2.last_markup, engine.servers["museo-due"],
            session=handler2.session_id)
        ready2 = yield from client2.send_ready(comp2.rtp_ports,
                                               comp2.discrete_ports)
        comp2.attach_feedback(ready2.body["rtcp_port"],
                              engine.servers["museo-due"].node_id)
        done2 = comp2.start()
        yield done2
        comp2.close()
        log.append(f"t={sim.now:.2f} viewed the annex at museo-due")
        yield from client2.disconnect()

        # Return within the grace interval: the session is still alive.
        resp = yield from client1.resume_connection()
        log.append(f"t={sim.now:.2f} back at museo-uno: {resp.msg_type}")
        assert resp.msg_type == "resumed-conn"
        assert client1.fsm.state is SessionState.REQUESTING
        yield from client1.disconnect()
        log.append(f"t={sim.now:.2f} tour over")

    proc = sim.process(tour())
    sim.run(until=proc)
    sim.run(until=sim.now + 1.0)
    print("--- gallery tour ---")
    for line in log:
        print(" ", line)
    print("\nThe suspended museo-uno connection was reused without "
          "re-authentication — the paper's §5 grace-interval behaviour.")


if __name__ == "__main__":
    main()
