"""The kernel's structural facts, read off ``cProfile``.

``benchmarks/e2e/layers.py``'s cProfile budget is the profiler of
record; these are the facts about what an untraced run's loop fires
that a profile of it must show.
"""

import cProfile
import pstats

from repro.core.config import EngineConfig
from repro.core.engine import ServiceEngine
from repro.core.experiments import av_markup
from repro.obs.tracer import RecordingTracer


def _called_from_run(stats):
    """The key of ``Simulator.run`` and ``{function key: calls}`` of
    what it fires directly."""
    (run,) = [key for key in stats.stats
              if key[0].endswith("des/kernel.py") and key[2] == "run"]
    direct = {}
    for key, (_cc, _nc, _tt, _ct, callers) in stats.stats.items():
        if run in callers:
            direct[key] = callers[run][1]
    return run, direct


def _engine(tracer=None):
    eng = ServiceEngine(EngineConfig(seed=7), tracer=tracer)
    eng.add_server("srv1", documents={"doc": (av_markup(2.0, False), "t")})
    return eng


def _population(eng):
    eng.orchestrator.run_population(2, "srv1", "doc", stagger_s=0.3)
    return eng.sim.events_fired


def test_call_later_is_charged_to_the_scheduled_function():
    eng = _engine()
    profile = cProfile.Profile()
    profile.enable()
    fired = _population(eng)
    profile.disable()
    stats = pstats.Stats(profile)
    run, direct = _called_from_run(stats)
    names = {f"{key[0].rsplit('/', 1)[-1]}:{key[2]}" for key in direct}

    # one heap entry per packet-hop, fired by the loop itself: the
    # arrival that the link scheduled on accepting the packet. A hop the
    # server's uplink planned across the router's link has none: the
    # packet's one entry is its arrival at the client. A detail tracer
    # turns planning off, so that run fires one entry more per planned hop
    (propagated,) = [key for key in stats.stats
                     if key[0].endswith("net/link.py")
                     and key[2] == "_propagated"]
    total_calls = stats.stats[propagated][1]
    planned_hops = _population(_engine(RecordingTracer())) - fired
    assert total_calls > planned_hops > 0
    assert total_calls + planned_hops == sum(
        link.stats.tx_packets for link in eng.network.links.values())
    assert direct[propagated] == total_calls
    assert set(stats.stats[propagated][4]) == {run}

    # no closure hides a handler, the arrival forwards or delivers by
    # itself (no forwarding closure beside it), and a transmission's end
    # is no heap entry of its own
    assert not any("<lambda>" in name for name in names)
    assert not any("arrive" in name for name in names)
    assert "link.py:_tx_done" not in names
