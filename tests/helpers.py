"""Queries only the tests ask of the package's objects."""

from __future__ import annotations


def interval_of(renderer, element_id):
    """The last closed display interval of ``element_id``, or None if
    the renderer never hid it."""
    return next((iv for iv in reversed(renderer.history)
                 if iv.element_id == element_id), None)


def next_event_time(sim):
    """Time of the simulator's next heap entry, or ``inf`` if none."""
    return sim._heap[0][0] if sim._heap else float("inf")


def add_document(db, name, doc, topic="general"):
    """Store a document built as an AST in ``db``, as its markup."""
    from repro.hml.serializer import serialize

    db.add_markup(name, serialize(doc), topic)


def grade_trajectory(log, stream_id):
    """``(time, grade)`` at each grade change a ``PlayoutEventLog`` saw
    in ``stream_id``'s presented frames."""
    from repro.client.metrics import PlayoutEventKind

    out, last = [], None
    for e in log.events:
        if e.stream_id == stream_id and e.kind is PlayoutEventKind.FRAME:
            if last is None or e.grade != last:
                out.append((e.time, e.grade))
                last = e.grade
    return out


def path(net, src, dst):
    """The nodes a shortest path from ``src`` to ``dst`` visits (filling
    ``src``'s routing table as a first packet would)."""
    net.node(src)
    net.node(dst)
    prev = net._route(src, dst)
    nodes = [dst]
    while nodes[-1] != src:
        nodes.append(prev[nodes[-1]])
    return nodes[::-1]


def select(tracer, kind=None, session=None):
    """A recorder's events of one kind and/or session, in order."""
    return [e for e in tracer.events
            if (kind is None or e.kind == kind)
            and (session is None or e.session == session)]


def port_allocator(node_id, ranges):
    """A ``PortAllocator`` over ``ranges`` instead of the node's."""
    from unittest import mock

    from repro.net import ports

    with mock.patch.object(ports, "DEFAULT_PORT_RANGES", ranges):
        return ports.PortAllocator(node_id)


def session_on(eng, server, document, *, client_node=None, horizon_s=600.0):
    """``run_full_session`` with a viewer host or a horizon of its own."""
    from repro.core.orchestrator import SessionSpec

    spec = SessionSpec(server=server, document=document,
                       client_node=client_node)
    return eng.orchestrator.run_workload([spec], horizon_s=horizon_s)[0].result


def viewers_on(eng, server, document, nodes, stagger_s=0.0):
    """``run_concurrent_sessions`` with viewer ``i`` on ``nodes[i]``."""
    from repro.core.orchestrator import SessionSpec

    specs = [SessionSpec(server=server, document=document,
                         user_id=f"user{i + 1}", start_at=i * stagger_s,
                         client_node=node)
             for i, node in enumerate(nodes)]
    return [o.result for o in eng.orchestrator.run_workload(specs)]
