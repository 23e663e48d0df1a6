"""Canned chaos scenarios behind ``python -m repro chaos`` and CI.

Each scenario builds a fresh engine with one multimedia server whose
continuous media all live on a single media server (``media:``), so a
scheduled crash interrupts every active stream at once. A standby
replica is provisioned where the scenario expects failover. The same
harness backs the CLI, the CI smoke job and the end-to-end tests, so
all three exercise the identical code path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.faults.control import RetryPolicy
from repro.faults.digest import population_digest
from repro.faults.plan import (
    ControlImpairFault,
    ControlPartitionFault,
    FaultPlan,
    LinkFlapFault,
    ServerCrashFault,
)
from repro.ioutil import UsageError

if TYPE_CHECKING:
    from repro.analysis.report import Reporter

__all__ = [
    "ChaosScenario",
    "CHAOS_SCENARIOS",
    "ChaosRun",
    "chaos_markup",
    "build_plan",
    "run_chaos",
    "check_determinism",
    "chaos_command",
]

CHAOS_SCHEMA = "repro.chaos"
CHAOS_SCHEMA_VERSION = 1

#: retry policy used whenever a scenario enables control-path retry
DEFAULT_RETRY = RetryPolicy(timeout_s=1.0, max_attempts=5, backoff=2.0,
                            max_timeout_s=8.0, jitter_frac=0.1)


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


@dataclass(slots=True)
class ChaosScenario:
    """One canned fault experiment over a viewer population."""

    name: str
    description: str
    n_clients: int = 8
    duration_s: float = 6.0
    stagger_s: float = 0.4
    seed: int = 23
    horizon_s: float = 60.0
    detect_delay_s: float = 0.5
    #: provision a standby media server for failover
    replica: bool = True
    #: hand every session the DEFAULT_RETRY policy
    retry: bool = True
    #: HeartbeatMonitor kwargs per session (None = no heartbeats)
    heartbeat: dict[str, Any] | None = None
    #: smoke mode scales the scenario down for CI gate runs
    smoke_clients: int = 4
    smoke_duration_s: float = 4.0
    #: "star" = classic single-router shape; "cdn" = two regions with
    #: POPs and per-region media replicas from the placement layer
    topology: str = "star"


CHAOS_SCENARIOS: dict[str, ChaosScenario] = {
    s.name: s
    for s in (
        ChaosScenario(
            name="none",
            description="empty plan — the inertness baseline",
            replica=False, retry=False,
        ),
        ChaosScenario(
            name="crash",
            description="media server crashes mid-stream; replica failover",
        ),
        ChaosScenario(
            name="flap",
            description="server access link flaps under active streams",
            replica=False,
        ),
        ChaosScenario(
            name="partition",
            description="control path partitions; RPC retry rides it out",
            replica=False,
            heartbeat={"interval_s": 0.5, "timeout_s": 0.4, "miss_limit": 2},
        ),
        ChaosScenario(
            name="combo",
            description="impaired control, link flaps and a crash at once",
            heartbeat={"interval_s": 0.5, "timeout_s": 0.4, "miss_limit": 2},
        ),
        ChaosScenario(
            name="replica-crash",
            description="a regional edge replica crashes; its viewers "
                        "fail over to the origin",
            topology="cdn",
            replica=False,  # replicas come from the placement layer
        ),
    )
}


def _crash_at(n_clients: int, stagger_s: float, duration_s: float) -> float:
    """A crash instant inside every viewer's active playout window."""
    return (n_clients - 1) * stagger_s + 0.3 * duration_s


def build_plan(name: str, *, n_clients: int, stagger_s: float,
               duration_s: float) -> FaultPlan:
    """The fault schedule for one scenario at one population shape."""
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
    raise KeyError(
        f"unknown chaos scenario {name!r}; available: "
        f"{sorted(CHAOS_SCENARIOS)}"
    )


@dataclass(slots=True)
class ChaosRun:
    """Everything one chaos run produced."""

    scenario: str
    population: Any
    digest: str
    artifact: dict[str, Any] = field(default_factory=dict)
    #: the FlightRecorder when ``flight_dump`` was requested — lets
    #: callers trigger a post-run dump (e.g. on an SLO violation)
    flight_recorder: Any = None
    #: the engine the run used, for end-of-run invariant checks
    engine: Any = None


def run_chaos(
    name: str = "crash",
    *,
    smoke: bool = False,
    seed: int | None = None,
    n_clients: int | None = None,
    duration_s: float | None = None,
    recovery: bool = True,
    retry: bool | None = None,
    trace: bool = True,
    flight_dump: str | None = None,
) -> ChaosRun:
    """Run one chaos scenario end to end and return its results.

    ``recovery=False`` and ``retry=False`` disable the corresponding
    defence while keeping the identical fault schedule — the control
    arm of the experiment.

    The run records only when a dump is asked for: ``flight_dump``
    installs a :class:`~repro.obs.flightrec.FlightRecorder` (an
    unbounded, full-detail one when ``trace`` is on, the control-tier
    ring otherwise) that auto-dumps its trailing window (the
    recorder's default 30 sim-seconds) to that path on the first
    injected fault;
    the dump metadata lands in the artifact under ``flight_dump``.
    Results and digest are the same either way.
    An unknown ``name`` is a :class:`~repro.ioutil.UsageError`.
    """
    from repro.core.config import EngineConfig
    from repro.core.engine import ServiceEngine

    scenario = CHAOS_SCENARIOS.get(name)
    if scenario is None:
        raise UsageError(
            f"unknown chaos scenario {name!r}; available: "
            f"{', '.join(sorted(CHAOS_SCENARIOS))}"
        )
    n = n_clients if n_clients is not None else (
        scenario.smoke_clients if smoke else scenario.n_clients)
    duration = duration_s if duration_s is not None else (
        scenario.smoke_duration_s if smoke else scenario.duration_s)
    seed = seed if seed is not None else scenario.seed
    use_retry = scenario.retry if retry is None else retry

    recorder = None
    if flight_dump is not None:
        from repro.obs.flightrec import FlightRecorder

        # Traced: a complete recording with dumps on top; untraced:
        # the default control-tier ring.
        full: dict[str, Any] = {"max_events": None} if trace else {}
        recorder = FlightRecorder(dump_path=flight_dump, **full)
    layers = None
    if scenario.topology == "cdn":
        from repro.net import cdn_stack

        layers = cdn_stack(clients_per_region=max(1, n // 2))
    eng = ServiceEngine(EngineConfig(seed=seed), tracer=recorder,
                        layers=layers)
    eng.add_server(
        "srv1",
        documents={"doc": (chaos_markup(duration), "chaos")},
    )
    eng.attach_timeseries()
    if scenario.replica:
        eng.add_media_replica("srv1", "media")
    plan = build_plan(name, n_clients=n, stagger_s=scenario.stagger_s,
                      duration_s=duration)
    eng.install_faults(
        plan,
        retry=DEFAULT_RETRY if use_retry else None,
        recovery=recovery,
        heartbeat=scenario.heartbeat,
        detect_delay_s=scenario.detect_delay_s,
    )
    pop = eng.orchestrator.run_population(
        n, "srv1", "doc", stagger_s=scenario.stagger_s,
        horizon_s=scenario.horizon_s,
    )
    eng.faults.stop()
    digest = population_digest(pop)
    watchdog = eng.watchdogs.get("srv1")
    artifact = {
        "schema": CHAOS_SCHEMA,
        "version": CHAOS_SCHEMA_VERSION,
        "scenario": name,
        "smoke": smoke,
        "seed": seed,
        "clients": n,
        "duration_s": duration,
        "recovery": recovery,
        "retry": use_retry,
        "faults": plan.to_dict(),
        "sessions": len(pop),
        "completed": len(pop.completed()),
        "delivered": len(pop.delivered()),
        "retries": sum(o.result.retries for o in pop),
        "recoveries": sum(o.result.recoveries for o in pop),
        "digest": digest,
    }
    if watchdog is not None:
        artifact["watchdog"] = {
            "detections": watchdog.detections,
            "streams_failed_over": watchdog.streams_failed_over,
            "streams_lost": watchdog.streams_lost,
            "sessions_saved": len(watchdog.sessions_saved),
        }
    if pop.service:
        artifact["service"] = pop.service
    if pop.timeseries:
        artifact["timeseries"] = pop.timeseries
    artifact["qoe"] = pop.qoe_summary()
    if recorder is not None:
        artifact["flight_dump"] = dict(recorder.last_dump)
    return ChaosRun(scenario=name, population=pop, digest=digest,
                    artifact=artifact, flight_recorder=recorder, engine=eng)


def check_determinism(name: str = "crash", *, digest: str | None = None,
                      **options: Any) -> tuple[bool, str, str]:
    """Replay ``run_chaos(name, **options)`` untraced and compare its
    digest with ``digest`` (default: a first run of the same call);
    (identical?, digest, replay digest)."""
    if digest is None:
        digest = run_chaos(name, **options).digest
    replay = run_chaos(name, **options).digest
    return digest == replay, digest, replay


def chaos_command(report: Reporter, *, scenario: str, smoke: bool,
                  seed: int | None, clients: int | None, recovery: bool,
                  retry: bool | None, check_det: bool, out: str | None,
                  flight_dump: str | None) -> int:
    """``repro chaos``: one fault-injection run, held to the scenario's
    shipped SLO spec; exit 1 on a failed rule or a failed check."""
    from repro.obs.slo import DEFAULT_SLOS, evaluate, parse_spec, report_gate

    options: dict[str, Any] = {"smoke": smoke, "seed": seed,
                               "n_clients": clients, "recovery": recovery,
                               "retry": retry}
    run = run_chaos(scenario, flight_dump=flight_dump, **options)
    a = run.artifact
    watchdog = a.get("watchdog", {})
    report.table(
        f"Chaos run — {scenario}" + (" (smoke)" if smoke else ""),
        ["metric", "value"],
        [
            ["sessions", a["sessions"]],
            ["completed", a["completed"]],
            ["delivered", a["delivered"]],
            ["control retries", a["retries"]],
            ["stream recoveries", a["recoveries"]],
            ["streams failed over", watchdog.get("streams_failed_over", 0)],
            ["streams lost", watchdog.get("streams_lost", 0)],
            ["sessions saved", watchdog.get("sessions_saved", 0)],
            ["digest", a["digest"][:16]],
        ],
    )
    checks = evaluate(parse_spec(DEFAULT_SLOS[scenario]), a)
    failed = False
    recorder = run.flight_recorder
    if recorder is not None:
        # A fault may already have dumped; otherwise a violated rule
        # is itself the incident worth forensics.
        if not recorder.last_dump and not all(c.ok for c in checks):
            recorder.dump(trigger="slo.violation")
            a["flight_dump"] = dict(recorder.last_dump)
        dump = a["flight_dump"]
        if dump:
            report.value("flight_dump", dump["path"])
            report.value("flight_dump_events", dump["events"])
            report.value("flight_dump_trigger", dump["trigger"])
        elif a["faults"]["faults"]:
            # Faults were scheduled but no trigger fired the recorder —
            # the crash forensics the caller asked for don't exist.
            report.value("failure",
                         "flight recorder never dumped despite a "
                         "non-empty fault plan")
            failed = True
    if out:
        report.artifact(f"chaos:{scenario}", out, a)
    if check_det:
        # the reported run's own arguments, replayed without a recorder
        same, d1, d2 = check_determinism(scenario, digest=a["digest"],
                                         **options)
        report.value("deterministic", same)
        if not same:
            report.value("digest_a", d1)
            report.value("digest_b", d2)
            failed = True
    violations = report_gate(report, checks, a)
    return 1 if failed or violations else 0
