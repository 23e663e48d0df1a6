"""The scenario table: what every population run of the service is, and
the one builder of its engine.

A scenario is one population of viewers on one network, watching one
document under one fault plan. The plan is empty for the three service
baselines and non-empty for the chaos runs. :data:`SCENARIOS` is the
one table, :func:`build_engine` the one engine builder and
:func:`populate` the one population run, shared by both ways of
running a population: one engine (:func:`repro.obs.bench.run_scenario`)
and cells under a supervisor (:func:`repro.shard.worker.run_cell`,
which populates a slice).
The chaos document keeps its continuous media on a single media server
(``media:``), so a scheduled crash interrupts every active stream at
once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.faults.control import RetryPolicy
from repro.faults.plan import (
    ControlImpairFault,
    ControlPartitionFault,
    FaultPlan,
    LinkFlapFault,
    ServerCrashFault,
)
from repro.ioutil import UsageError

__all__ = ["Scenario", "SCENARIOS", "HORIZON_S", "DEFAULT_RETRY",
           "scenario_named", "build_engine", "populate", "chaos_markup",
           "build_plan"]

#: how long a population may run before its open sessions are cut
HORIZON_S = 600.0

#: retry policy used whenever a scenario enables control-path retry
DEFAULT_RETRY = RetryPolicy(timeout_s=1.0, max_attempts=5, backoff=2.0,
                            max_timeout_s=8.0, jitter_frac=0.1)


@dataclass(slots=True)
class Scenario:
    """One population run of the service: shape, network, document and
    fault plan."""

    name: str
    description: str
    n_clients: int = 4
    duration_s: float = 6.0
    stagger_s: float = 0.4
    seed: int = 11
    #: EngineConfig keyword overrides (loss model, admission, ...)
    config: dict[str, Any] = field(default_factory=dict)
    #: smoke mode scales the scenario down for CI gate runs
    smoke_clients: int = 2
    smoke_duration_s: float = 3.0
    #: "star" = the classic single-router shape; "cdn" = two regions
    #: with POPs and per-region media replicas from the placement layer
    topology: str = "star"
    #: the one document: "av+images" / "av" (the experiments' A/V
    #: pair, with or without images) or "chaos" (both streams on one
    #: media server, so a crash interrupts every stream at once)
    document: str = "av+images"
    #: the :func:`build_plan` key; "none" is the empty plan
    plan: str = "none"
    #: provision a standby media server for failover
    replica: bool = False
    #: hand every session the DEFAULT_RETRY policy
    retry: bool = False
    #: fail a crashed media server's streams over (False: the control
    #: arm, same faults and no failover)
    recovery: bool = True
    #: run a HeartbeatMonitor on every session's control channel
    heartbeat: bool = False
    #: run twice, shared flows off then on, and report the origin
    #: egress A/B from the pair
    egress_ab: bool = False


def _chaos(name: str, description: str, **fields: Any) -> Scenario:
    """A fault experiment: 8 viewers of the chaos document, retry on."""
    fields = {"replica": True, "retry": True, **fields}
    return Scenario(name=name, description=description, n_clients=8,
                    seed=23, smoke_clients=4, smoke_duration_s=4.0,
                    document="chaos", plan=name, **fields)


SCENARIOS: dict[str, Scenario] = {
    s.name: s
    for s in (
        Scenario(
            name="population_clean",
            description="synchronized A/V population, impairment-free",
        ),
        Scenario(
            name="population_lossy",
            description="same population over a bursty-loss access link",
            config={"loss_p_gb": 0.05, "loss_bad": 0.3},
        ),
        Scenario(
            name="cdn_hot",
            description="2-region CDN, one hot document, shared-flow "
                        "batching A/B (origin egress + QoE parity)",
            topology="cdn",
            n_clients=32,
            stagger_s=0.0,
            smoke_clients=8,
            # admission must clear 32 concurrent viewers (batching
            # shares delivery, not per-session contract reservations)
            config={"admission_capacity_bps": 400e6, "shared_flows": True},
            document="av",  # one hot continuous A/V document
            egress_ab=True,
        ),
        _chaos("none", "empty plan — the inertness baseline",
               replica=False, retry=False),
        _chaos("crash", "media server crashes mid-stream; replica failover"),
        _chaos("flap", "server access link flaps under active streams",
               replica=False),
        _chaos("partition",
               "control path partitions; RPC retry rides it out",
               replica=False, heartbeat=True),
        _chaos("combo", "impaired control, link flaps and a crash at once",
               heartbeat=True),
        _chaos("replica-crash",
               "a regional edge replica crashes; its viewers fail over "
               "to the origin",
               topology="cdn",
               replica=False),  # replicas come from the placement layer
    )
}


def scenario_named(name: str) -> Scenario:
    """The shipped scenario a command line names; UsageError if none."""
    scenario = SCENARIOS.get(name)
    if scenario is None:
        raise UsageError(f"unknown scenario {name!r}; "
                         f"available: {', '.join(sorted(SCENARIOS))}")
    return scenario


def build_engine(scenario: Scenario, *, n_clients: int, seed: int,
                 tracer: Any = None) -> Any:
    """The engine one population of ``scenario`` runs on, viewers not
    yet added: config, topology, document (``"doc"`` on ``"srv1"``, as
    long as the row's ``duration_s``), sampler, replica and the fault
    plan at this shape, with the row's retry, recovery and
    heartbeats."""
    from repro.core.config import EngineConfig
    from repro.core.engine import ServiceEngine
    from repro.core.experiments import av_markup

    duration_s = scenario.duration_s
    layers = None
    if scenario.topology == "cdn":
        from repro.net import cdn_stack

        layers = cdn_stack(clients_per_region=max(1, n_clients // 2))
    if scenario.document == "chaos":
        document = (chaos_markup(duration_s), "chaos")
    else:
        document = (av_markup(duration_s, scenario.document == "av+images"),
                    "bench")
    eng = ServiceEngine(EngineConfig(seed=seed, **scenario.config),
                        tracer=tracer, layers=layers)
    eng.add_server("srv1", documents={"doc": document})
    eng.attach_timeseries()
    if scenario.replica:
        eng.add_media_replica("srv1", "media")
    plan = build_plan(scenario.plan, n_clients=n_clients,
                      stagger_s=scenario.stagger_s, duration_s=duration_s)
    eng.install_faults(plan, retry=DEFAULT_RETRY if scenario.retry else None,
                       recovery=scenario.recovery,
                       heartbeat=scenario.heartbeat)
    return eng


def populate(scenario: Scenario, n_clients: int, seed: int, *,
             first: int = 0, tracer: Any = None) -> tuple[Any, Any]:
    """One engine from :func:`build_engine`, one ``run_population`` of
    ``n_clients`` viewers, the first of them at global index ``first``;
    (engine, population)."""
    eng = build_engine(scenario, n_clients=n_clients, seed=seed,
                       tracer=tracer)
    pop = eng.orchestrator.run_population(
        n_clients, "srv1", "doc", stagger_s=scenario.stagger_s,
        horizon_s=HORIZON_S, first=first,
    )
    eng.faults.stop()
    return eng, pop


def chaos_markup(duration_s: float = 6.0) -> str:
    """A synchronized A/V pair with *both* streams on one media server."""
    from repro.hml import DocumentBuilder, serialize

    return serialize(
        DocumentBuilder("Chaos document")
        .text("chaos workload")
        .audio_video("media:/a.au", "media:/v.mpg", "A", "V",
                     startime=0.0, duration=duration_s)
        .build()
    )


def _crash_at(n_clients: int, stagger_s: float, duration_s: float) -> float:
    """A crash instant inside every viewer's active playout window."""
    return (n_clients - 1) * stagger_s + 0.3 * duration_s


def build_plan(name: str, *, n_clients: int, stagger_s: float,
               duration_s: float) -> FaultPlan:
    """The fault schedule ``name`` (``"none"`` is the empty plan) at one
    population shape."""
    crash_at = _crash_at(n_clients, stagger_s, duration_s)
    server_link = ("router", "host:srv1")
    if name == "none":
        return FaultPlan()
    if name == "crash":
        return FaultPlan((
            ServerCrashFault(server="srv1", media_server="media",
                             at=crash_at),
        ))
    if name == "flap":
        return FaultPlan((
            LinkFlapFault(src=server_link[0], dst=server_link[1],
                          at=1.5, period_s=1.2, down_s=0.3, count=3),
        ))
    if name == "partition":
        return FaultPlan((
            ControlPartitionFault(at=0.5 * (n_clients - 1) * stagger_s,
                                  duration_s=1.2),
        ))
    if name == "combo":
        return FaultPlan((
            ControlImpairFault(at=0.5, duration_s=1.5, drop_prob=0.2),
            LinkFlapFault(src=server_link[0], dst=server_link[1],
                          at=1.0, period_s=1.5, down_s=0.25, count=2),
            ServerCrashFault(server="srv1", media_server="media",
                             at=crash_at),
        ))
    if name == "replica-crash":
        return FaultPlan((
            ServerCrashFault(server="srv1", media_server="media@east",
                             at=crash_at),
        ))
    raise KeyError(f"no fault plan named {name!r}")
