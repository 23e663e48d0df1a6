"""Service-quality trajectory harness behind ``python -m repro bench``.

Each scenario runs a population (untraced: session results need no
recorder), rolls up the per-session QoE summaries and the service
report, and emits one ``BENCH_<name>.json`` artifact. Nothing in it is
timed (host speed is ``benchmarks/e2e``'s job; only the sharded
``--clients`` / ``--scale-curve`` path keeps a wall clock), so the
artifact is a pure function of code and seed and ``--update-baseline``
is idempotent.

The regression gate is :func:`repro.obs.slo.evaluate`, the one
comparator: each fresh artifact must hold its scenario's shipped SLO
spec plus the rules its reference in the store
(``benchmarks/baseline/``, one artifact per ``(scenario, smoke)``)
generates (:func:`repro.obs.slo.baseline_rules`).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.ioutil import UsageError
from repro.obs import BENCH_SCHEMA, BENCH_SCHEMA_VERSION
from repro.obs.slo import (
    DEFAULT_SLOS,
    DEFAULT_STORE,
    SloCheck,
    baseline_rules,
    evaluate,
    load_store,
    parse_spec,
)

if TYPE_CHECKING:
    from repro.analysis.report import Reporter

__all__ = ["BenchScenario", "SCENARIOS", "BENCH_SCHEMA",
           "BENCH_SCHEMA_VERSION", "bench_scenario", "run_scenario",
           "run_benchmarks", "bench_command"]


@dataclass(slots=True)
class BenchScenario:
    """One benchmarked configuration of the service."""

    name: str
    description: str
    n_clients: int = 4
    duration_s: float = 6.0
    stagger_s: float = 0.4
    seed: int = 11
    #: EngineConfig keyword overrides (loss model, RTCP mode, ...)
    config: dict[str, Any] = field(default_factory=dict)
    #: smoke mode scales the scenario down for CI gate runs
    smoke_clients: int = 2
    smoke_duration_s: float = 3.0
    #: "star" = the classic single-router shape; "cdn" = two regions
    #: with POPs and edge replicas, benched shared-flow off *and* on
    topology: str = "star"


SCENARIOS: dict[str, BenchScenario] = {
    s.name: s
    for s in (
        BenchScenario(
            name="population_clean",
            description="synchronized A/V population, impairment-free",
        ),
        BenchScenario(
            name="population_lossy",
            description="same population over a bursty-loss access link",
            config={"loss_p_gb": 0.05, "loss_bad": 0.3},
        ),
        BenchScenario(
            name="cdn_hot",
            description="2-region CDN, one hot document, shared-flow "
                        "batching A/B (origin egress + QoE parity)",
            topology="cdn",
            n_clients=32,
            stagger_s=0.0,
            smoke_clients=8,
            # admission must clear 32 concurrent viewers (batching
            # shares delivery, not per-session contract reservations)
            config={"admission_capacity_bps": 400e6},
        ),
    )
}


def bench_scenario(name: str) -> BenchScenario:
    """The shipped scenario a command line names; UsageError if none."""
    scenario = SCENARIOS.get(name)
    if scenario is None:
        raise UsageError(f"unknown bench scenario {name!r}; "
                         f"available: {', '.join(sorted(SCENARIOS))}")
    return scenario


def _run_once(scenario: BenchScenario, n_clients: int, duration_s: float,
              shared_flows: bool) -> dict:
    """One population run; the raw measurements (``events`` is the
    kernel's own count of heap entries fired)."""
    from repro.core.config import EngineConfig
    from repro.core.engine import ServiceEngine
    from repro.core.experiments import av_markup

    layers = None
    config = dict(scenario.config)
    with_images = True
    if scenario.topology == "cdn":
        from repro.net import cdn_stack

        layers = cdn_stack(clients_per_region=max(1, n_clients // 2))
        config["shared_flows"] = shared_flows
        with_images = False  # one hot continuous A/V document
    eng = ServiceEngine(EngineConfig(seed=scenario.seed, **config),
                        layers=layers)
    eng.add_server(
        "srv1",
        documents={"doc": (av_markup(duration_s, with_images), "bench")},
    )
    eng.attach_timeseries()
    pop = eng.orchestrator.run_population(
        n_clients, "srv1", "doc", stagger_s=scenario.stagger_s
    )
    return {
        "sim_time_s": eng.sim.now,
        "events": eng.sim.events_fired,
        "sessions": len(pop),
        "completed": len(pop.completed()),
        "qoe": pop.qoe_summary(),
        # off every serving media host, origin and replicas alike
        "origin_egress_bytes": pop.service["egress"]["total_bytes"],
        "service": pop.service,
        "timeseries": pop.timeseries,
    }


def run_scenario(scenario: BenchScenario, smoke: bool = False) -> dict:
    """Run one scenario and return its trajectory artifact dict.

    A ``topology="cdn"`` scenario runs its population twice — shared
    flows off, then on — and reports the standard keys from the
    shared run plus the egress A/B (``egress_reduction`` is the
    headline: independent-flow bytes over shared-flow bytes off the
    serving media hosts).
    """
    n_clients = scenario.smoke_clients if smoke else scenario.n_clients
    duration_s = scenario.smoke_duration_s if smoke \
        else scenario.duration_s
    artifact = {
        "schema": BENCH_SCHEMA,
        "version": BENCH_SCHEMA_VERSION,
        "name": scenario.name,
        "scenario": scenario.name,
        "description": scenario.description,
        "smoke": smoke,
        "seed": scenario.seed,
        "clients": n_clients,
        "duration_s": duration_s,
        "topology": scenario.topology,
    }
    if scenario.topology == "cdn":
        unshared = _run_once(scenario, n_clients, duration_s,
                             shared_flows=False)
        shared = _run_once(scenario, n_clients, duration_s,
                           shared_flows=True)
        artifact.update(shared)
        artifact["origin_egress_bytes_unshared"] = \
            unshared["origin_egress_bytes"]
        artifact["qoe_unshared"] = unshared["qoe"]
        egress = shared["origin_egress_bytes"]
        artifact["egress_reduction"] = (
            unshared["origin_egress_bytes"] / egress if egress else 0.0
        )
    else:
        artifact.update(_run_once(scenario, n_clients, duration_s,
                                  shared_flows=False))
    return artifact


def run_benchmarks(names: list[str] | None = None,
                   smoke: bool = False) -> dict[str, dict]:
    """Run the named scenarios (default: all); {name: artifact}."""
    return {name: run_scenario(bench_scenario(name), smoke=smoke)
            for name in names or SCENARIOS}


def bench_command(report: Reporter, *, smoke: bool, update_baseline: bool,
                  out: str, scenario: list[str], topology: list[str],
                  baseline: str = DEFAULT_STORE, **sharded: Any) -> int:
    """``repro bench``: run scenarios, emit BENCH_*.json, and hold each
    to its shipped SLO spec plus the rules its reference in the
    ``baseline`` store generates; exit 1 on any failed rule.
    ``--clients`` / ``--scale-curve`` go to the sharded bench instead."""
    if sharded["clients"] is not None or sharded["scale_curve"]:
        from repro.shard.bench import sharded_bench_command

        return sharded_bench_command(report, smoke=smoke, out=out,
                                     **sharded)
    names = [bench_scenario(name).name for name in scenario]
    for wanted in topology:
        matching = [s.name for s in SCENARIOS.values()
                    if s.topology == wanted]
        if not matching:
            known = sorted({s.topology for s in SCENARIOS.values()})
            raise UsageError(f"no scenarios with topology {wanted!r}; "
                             f"known: {', '.join(known)}")
        names.extend(matching)

    os.makedirs(out, exist_ok=True)
    artifacts = run_benchmarks(names, smoke=smoke)
    if update_baseline:
        os.makedirs(baseline, exist_ok=True)
    # the store by (scenario, smoke); not read when it is being re-recorded
    references = {} if update_baseline else load_store(baseline)
    rows: list[list[Any]] = []
    gate: list[tuple[str, SloCheck]] = []
    for name, artifact in artifacts.items():
        out_path = os.path.join(out, f"BENCH_{name}.json")
        report.artifact(f"artifact:{name}", out_path, artifact)
        qoe = artifact.get("qoe") or {}
        rows.append([
            name, artifact["clients"],
            f"{artifact['completed']}/{artifact['sessions']}",
            f"{qoe.get('score', {}).get('p50', 0.0):.1f}",
        ])
        if update_baseline:
            suffix = ".smoke.json" if smoke else ".json"
            report.artifact(f"baseline:{name}", os.path.join(
                baseline, f"BENCH_{name}{suffix}"), artifact)
            continue
        rules = parse_spec(DEFAULT_SLOS.get(name, ()))
        # keyed by scale too: a smoke run never meets a full reference
        reference = references.get((name, smoke))
        if reference is None:
            report.value(f"baseline:{name}", "missing (not compared)")
        else:
            rules += baseline_rules(reference)
        gate.extend((name, check) for check in evaluate(rules, artifact))
    report.table(
        "Benchmark trajectory" + (" (smoke)" if smoke else ""),
        ["scenario", "clients", "completed", "qoe_p50"],
        rows,
    )
    if update_baseline:
        return 0
    report.table(
        "Gate: shipped SLO spec + reference rules",
        ["scenario", "rule", "value", "status"],
        [[name, check.rule.text, check.value_text,
          "PASS" if check.ok else "FAIL"]
         for name, check in gate],
    )
    violations = sum(1 for _, check in gate if not check.ok)
    report.value("violations", violations)
    return 1 if violations else 0
