"""Benchmark-trajectory harness behind ``python -m repro bench``.

Each scenario runs a traced population, measures wall time and event
throughput, rolls up the per-session QoE summaries and emits one
``BENCH_<name>.json`` artifact — the repo's persisted perf/quality
trajectory. Artifacts compare against checked-in baselines
(``benchmarks/baseline/``) with configurable regression thresholds:

* deterministic metrics (sessions completed, QoE score p50, trace
  event count) use ``threshold`` (default 10%) — same seed, same
  code, so any drift is a real behaviour change;
* ``events_per_sec`` uses the looser ``perf_threshold`` (default
  50%), because wall-clock throughput is machine-dependent and the
  committed baseline was recorded on different hardware than a CI
  runner. Tighten it when comparing runs from one machine.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.ioutil import UsageError, read_json
from repro.obs.service_metrics import egress_by_host

if TYPE_CHECKING:
    from repro.analysis.report import Reporter

__all__ = ["BenchScenario", "SCENARIOS", "bench_scenario", "thresholds",
           "run_scenario", "run_benchmarks", "compare_to_baseline",
           "bench_command"]

BENCH_SCHEMA = "repro.bench"
BENCH_SCHEMA_VERSION = 1

#: default regression thresholds (fraction of the baseline value)
DEFAULT_THRESHOLD = 0.10
DEFAULT_PERF_THRESHOLD = 0.50


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


def thresholds(threshold: float | None,
               perf_threshold: float | None) -> tuple[float, float]:
    """The two gates, defaulted where the command line left them unset."""
    return (DEFAULT_THRESHOLD if threshold is None else threshold,
            DEFAULT_PERF_THRESHOLD if perf_threshold is None
            else perf_threshold)


def bench_scenario(name: str) -> BenchScenario:
    """The shipped scenario a command line names; UsageError if none."""
    scenario = SCENARIOS.get(name)
    if scenario is None:
        raise UsageError(f"unknown bench scenario {name!r}; "
                         f"available: {', '.join(sorted(SCENARIOS))}")
    return scenario


def _run_once(scenario: BenchScenario, n_clients: int, duration_s: float,
              shared_flows: bool,
              profiler: "Any | None" = None) -> dict:
    """One traced population run; the raw measurements.

    Passing a :class:`~repro.obs.profile.KernelProfiler` installs it
    on the run's simulator (``bench --profile``); the caller reads
    attribution off the profiler afterwards.
    """
    from repro.core.config import EngineConfig
    from repro.core.engine import ServiceEngine
    from repro.core.experiments import av_markup
    from repro.obs.tracer import RecordingTracer

    tracer = RecordingTracer()
    layers = None
    config = dict(scenario.config)
    with_images = True
    if scenario.topology == "cdn":
        from repro.net import cdn_stack

        layers = cdn_stack(clients_per_region=max(1, n_clients // 2))
        config["shared_flows"] = shared_flows
        with_images = False  # one hot continuous A/V document
    eng = ServiceEngine(
        EngineConfig(seed=scenario.seed, **config),
        tracer=tracer, layers=layers,
    )
    eng.add_server(
        "srv1",
        documents={"doc": (av_markup(duration_s, with_images), "bench")},
    )
    eng.attach_timeseries()
    if profiler is not None:
        profiler.install(eng.sim)
    t0 = time.perf_counter()  # lint: allow(det-wall-clock)
    pop = eng.orchestrator.run_population(
        n_clients, "srv1", "doc", stagger_s=scenario.stagger_s
    )
    wall_s = time.perf_counter() - t0  # lint: allow(det-wall-clock)
    if profiler is not None:
        profiler.uninstall()
    events = sum(tracer.kind_counts().values())
    return {
        "wall_s": wall_s,
        "sim_time_s": eng.sim.now,
        "events": events,
        "events_per_sec": events / wall_s if wall_s > 0 else 0.0,
        "sessions": len(pop),
        "completed": len(pop.completed()),
        "qoe": pop.qoe_summary(),
        # off every serving media host, origin and replicas alike
        "origin_egress_bytes": sum(
            entry["bytes"] for entry in egress_by_host(eng).values()),
        "service": pop.service,
        "timeseries": pop.timeseries,
    }


def run_scenario(scenario: BenchScenario, smoke: bool = False,
                 profile: bool = False) -> dict:
    """Run one scenario and return its trajectory artifact dict.

    A ``topology="cdn"`` scenario runs its population twice — shared
    flows off, then on — and reports the standard keys from the
    shared run plus the egress A/B (``egress_reduction`` is the
    headline: independent-flow bytes over shared-flow bytes off the
    serving media hosts).

    ``profile=True`` installs a kernel profiler on the headline run
    (the shared one, for cdn scenarios) and adds its attribution
    under the artifact's ``profile`` key.
    """
    profiler = None
    if profile:
        from repro.obs.profile import KernelProfiler

        profiler = KernelProfiler()
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
                           shared_flows=True, profiler=profiler)
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
                                  shared_flows=False, profiler=profiler))
    if profiler is not None:
        artifact["profile"] = profiler.to_artifact(
            scenario.name,
            extra={"scenario": scenario.name, "seed": scenario.seed,
                   "smoke": smoke},
        )
    return artifact


def run_benchmarks(names: list[str] | None = None,
                   smoke: bool = False,
                   profile: bool = False) -> dict[str, dict]:
    """Run the named scenarios (default: all); {name: artifact}."""
    selected = list(SCENARIOS) if not names else names
    out: dict[str, dict] = {}
    for name in selected:
        scenario = SCENARIOS.get(name)
        if scenario is None:
            raise KeyError(
                f"unknown bench scenario {name!r}; "
                f"available: {sorted(SCENARIOS)}"
            )
        out[name] = run_scenario(scenario, smoke=smoke, profile=profile)
    return out


def _relative_drop(current: float, baseline: float) -> float:
    """Fractional regression of a higher-is-better metric (>= 0)."""
    if baseline <= 0:
        return 0.0
    return max(0.0, (baseline - current) / baseline)


def compare_to_baseline(
    artifact: dict,
    baseline: dict,
    threshold: float = DEFAULT_THRESHOLD,
    perf_threshold: float = DEFAULT_PERF_THRESHOLD,
) -> list[str]:
    """Regression messages (empty list = within thresholds).

    Both dicts are ``run_scenario`` artifacts. Only higher-is-better
    metrics are gated; new metrics absent from an old baseline are
    ignored, so baselines age gracefully across schema additions.
    ``events`` counts trace emits, which a cheaper data path lowers,
    so it stays in the artifact but is not gated.
    """
    if baseline.get("schema") not in (None, BENCH_SCHEMA):
        raise ValueError(
            f"baseline is not a {BENCH_SCHEMA} artifact: "
            f"{baseline.get('schema')!r}"
        )
    if baseline.get("smoke") != artifact.get("smoke"):
        return [
            f"{artifact.get('name')}: baseline smoke="
            f"{baseline.get('smoke')} does not match run smoke="
            f"{artifact.get('smoke')}; regenerate the baseline"
        ]
    problems: list[str] = []
    name = artifact.get("name", "?")

    def gate(metric: str, current: float | None,
             base: float | None, limit: float) -> None:
        if current is None or base is None:
            return
        drop = _relative_drop(float(current), float(base))
        if drop > limit:
            problems.append(
                f"{name}: {metric} regressed {drop:.1%} "
                f"({base:g} -> {current:g}, threshold {limit:.0%})"
            )

    gate("completed", artifact.get("completed"),
         baseline.get("completed"), threshold)
    gate("qoe.score.p50",
         (artifact.get("qoe") or {}).get("score", {}).get("p50"),
         (baseline.get("qoe") or {}).get("score", {}).get("p50"),
         threshold)
    gate("events_per_sec", artifact.get("events_per_sec"),
         baseline.get("events_per_sec"), perf_threshold)
    # cdn scenarios only; absent from star artifacts and old baselines
    gate("egress_reduction", artifact.get("egress_reduction"),
         baseline.get("egress_reduction"), threshold)
    return problems


def bench_command(report: Reporter, *, smoke: bool, profile: bool,
                  update_baseline: bool, out: str, baseline: str,
                  threshold: float | None, perf_threshold: float | None,
                  scenario: list[str], topology: list[str],
                  **sharded: Any) -> int:
    """``repro bench``: run scenarios, emit BENCH_*.json, compare;
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

    threshold, perf_threshold = thresholds(threshold, perf_threshold)
    os.makedirs(out, exist_ok=True)
    artifacts = run_benchmarks(names or None, smoke=smoke,
                               profile=profile)
    problems: list[str] = []
    rows = []
    for name, artifact in artifacts.items():
        out_path = os.path.join(out, f"BENCH_{name}.json")
        report.artifact(f"artifact:{name}", out_path, artifact)
        if profile and "profile" in artifact:
            prof_path = os.path.join(out, f"PROFILE_{name}.json")
            report.artifact(f"profile:{name}", prof_path,
                            artifact["profile"])
            report.value(f"profile_coverage:{name}",
                         round(artifact["profile"]["coverage"], 4))
        qoe = artifact.get("qoe") or {}
        rows.append([
            name, artifact["clients"],
            f"{artifact['wall_s']:.3f}",
            f"{artifact['events_per_sec']:.0f}",
            f"{artifact['completed']}/{artifact['sessions']}",
            f"{qoe.get('score', {}).get('p50', 0.0):.1f}",
        ])
        base_name = f"BENCH_{name}.smoke.json" if smoke \
            else f"BENCH_{name}.json"
        base_path = os.path.join(baseline, base_name)
        if update_baseline:
            os.makedirs(baseline, exist_ok=True)
            report.artifact(f"baseline:{name}", base_path, artifact)
        elif os.path.exists(base_path):
            problems.extend(compare_to_baseline(
                artifact, read_json(base_path),
                threshold=threshold, perf_threshold=perf_threshold))
        else:
            report.value(f"baseline:{name}", "missing (not compared)")
    report.table(
        "Benchmark trajectory" + (" (smoke)" if smoke else ""),
        ["scenario", "clients", "wall_s", "events/s", "completed",
         "qoe_p50"],
        rows,
    )
    for problem in problems:
        report.value("regression", problem)
    return 1 if problems else 0
