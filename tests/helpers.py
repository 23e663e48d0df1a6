"""Queries only the tests ask of the package's objects."""

from __future__ import annotations

from contextlib import contextmanager


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


def skew_sample(series, time, skew_s):
    """Append one skew sample to a ``SkewSeries``, as the controller
    does inline."""
    series.times.append(time)
    series.skews.append(skew_s)


def regions_overlap(a, b):
    """Whether two display ``Region``s share a pixel."""
    return not (a.x2 <= b.x or b.x2 <= a.x or a.y2 <= b.y or b.y2 <= a.y)


def playouts_overlap(a, b):
    """Whether two ``PlayoutEntry`` intervals intersect in scenario time
    (an open-ended one runs on forever)."""
    a0, a1 = a.start_time, a.end_time
    b0, b1 = b.start_time, b.end_time
    if a1 is None or b1 is None:
        return (b1 is None or a0 < b1) and (a1 is None or b0 < a1)
    return a0 < b1 and b0 < a1


@contextmanager
def never_planning(monkeypatch):
    """Every link built inside plans nothing, and no traffic source
    feeds (a source feeds only across an uplink that plans through):
    the shortcut-free referee run."""
    from repro.net.link import Link

    init = Link.__init__

    def plain(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self._plans_through = False

    with monkeypatch.context() as patch:
        patch.setattr(Link, "__init__", plain)
        yield
