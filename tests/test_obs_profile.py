"""Kernel profiler: attribution, coverage, and transparency."""

import json

from repro.core.config import EngineConfig
from repro.core.engine import ServiceEngine
from repro.core.experiments import av_markup
from repro.des import Simulator
from repro.faults.digest import population_digest
from repro.obs.profile import (
    PROFILE_SCHEMA,
    PROFILE_SCHEMA_VERSION,
    KernelProfiler,
)


def _run_population(profiler=None, seed=7):
    eng = ServiceEngine(EngineConfig(seed=seed))
    eng.add_server("srv1",
                   documents={"doc": (av_markup(2.0, False), "t")})
    if profiler is not None:
        profiler.install(eng.sim)
    pop = eng.orchestrator.run_population(2, "srv1", "doc", stagger_s=0.3)
    if profiler is not None:
        profiler.uninstall()
    return pop


def test_profiler_attributes_kernel_time():
    prof = KernelProfiler()
    _run_population(prof)
    assert prof.steps > 100
    assert prof.kernel_ns > 0
    # every step lands on some event kind
    assert sum(c for c, _ in prof.per_kind.values()) == prof.steps
    assert "Timeout" in prof.per_kind
    assert "Call" in prof.per_kind
    # acceptance: per-kind attribution covers >=95% of kernel time
    assert prof.coverage >= 0.95
    # handlers carry the process names the DES layer assigns
    handlers = {h for _, h in prof.per_handler}
    assert any(h.startswith("process:") for h in handlers)


def test_call_later_is_charged_to_the_scheduled_function():
    eng = ServiceEngine(EngineConfig(seed=7))
    eng.add_server("srv1", documents={"doc": (av_markup(2.0, False), "t")})
    prof = KernelProfiler().install(eng.sim)
    eng.orchestrator.run_population(2, "srv1", "doc", stagger_s=0.3)
    prof.uninstall()
    calls = {h for kind, h in prof.per_handler if kind == "Call"}
    assert "Link._propagated" in calls
    # links are no longer processes, and no closure hides a handler
    assert not any("<lambda>" in h for h in calls)
    assert not any(h.startswith("process:link:")
                   for _, h in prof.per_handler)
    # one heap entry per packet-hop: the arrival, scheduled on accepting
    assert "Link._tx_done" not in calls
    count = {h: c for (_, h), (c, _) in prof.per_handler.items()}
    assert count["Link._propagated"] == sum(
        link.stats.tx_packets for link in eng.network.links.values())
    # and that arrival forwards or delivers by itself: no forwarding
    # closure is charged beside it
    assert not any("arrive" in h for h in calls)


def test_profiler_times_direct_steps_and_plain_functions():
    """``step()`` outside ``run()`` goes through the hook too."""
    sim = Simulator()
    fired = []
    sim.call_later(1.0, fired.append, "x")
    prof = KernelProfiler().install(sim)
    sim.step()
    prof.uninstall()
    assert fired == ["x"]
    assert prof.steps == 1
    assert prof.per_handler[("Call", "list.append")][0] == 1


def test_profiler_is_transparent_to_the_simulation():
    baseline = population_digest(_run_population())
    profiled = population_digest(_run_population(KernelProfiler()))
    assert baseline == profiled


def test_profiler_uninstall_restores_the_kernel():
    sim = Simulator()
    prof = KernelProfiler().install(sim)
    assert sim._dispatch_hook is not None
    assert sim.run.__func__ is not Simulator.run
    prof.uninstall()
    # hook cleared, run back to the class method: the inline loop again
    assert sim._dispatch_hook is None
    assert sim.run.__func__ is Simulator.run
    assert not prof.installed


def test_profiler_double_install_rejected():
    sim = Simulator()
    prof = KernelProfiler().install(sim)
    try:
        prof.install(sim)
    except RuntimeError:
        pass
    else:
        raise AssertionError("double install must raise")
    finally:
        prof.uninstall()


def test_collapsed_stacks_format():
    prof = KernelProfiler()
    _run_population(prof)
    lines = prof.collapsed_stacks()
    assert lines
    for line in lines:
        stack, _, weight = line.rpartition(" ")
        frames = stack.split(";")
        assert frames[0] == "kernel"
        assert len(frames) == 3
        assert int(weight) >= 1
    # the folded total reconciles with the per-kind attribution
    folded_us = sum(int(line.rpartition(" ")[2]) for line in lines)
    assert folded_us <= prof.attributed_ns // 1000 + len(lines)


def test_profile_artifact_shape(tmp_path):
    prof = KernelProfiler()
    _run_population(prof)
    doc = prof.to_artifact("unit")
    assert doc["schema"] == PROFILE_SCHEMA
    assert doc["version"] == PROFILE_SCHEMA_VERSION
    assert doc["coverage"] >= 0.95
    assert doc["by_kind"] and doc["hotspots"] and doc["collapsed_stacks"]
    shares = sum(r["share"] for r in doc["by_kind"])
    assert abs(shares - 1.0) < 1e-6
    # JSON-serializable end to end
    path = tmp_path / "PROFILE_unit.json"
    path.write_text(json.dumps(doc))
    assert json.loads(path.read_text())["name"] == "unit"


def test_bench_profile_flag_embeds_attribution():
    from repro.obs.bench import SCENARIOS, run_scenario

    artifact = run_scenario(SCENARIOS["population_clean"], smoke=True,
                            profile=True)
    prof = artifact["profile"]
    assert prof["schema"] == PROFILE_SCHEMA
    assert prof["coverage"] >= 0.95
    assert prof["steps"] > 0
