"""Queries only the tests ask of the package's objects."""

from __future__ import annotations


def interval_of(renderer, element_id):
    """The last closed display interval of ``element_id``, or None if
    the renderer never hid it."""
    return next((iv for iv in reversed(renderer.history)
                 if iv.element_id == element_id), None)


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
