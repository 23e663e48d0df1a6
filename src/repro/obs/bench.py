"""The scenario runner, behind ``python -m repro bench``.

:func:`run_scenario` runs one row of the scenario table
(:data:`repro.faults.scenarios.SCENARIOS`) on one engine, through the
table's :func:`~repro.faults.scenarios.populate`, and every run
emits one ``BENCH_<name>.json`` artifact. Nothing in it is timed (host
speed is ``benchmarks/e2e``'s job; only the sharded ``--clients`` /
``--scale-curve`` path keeps a wall clock), so the artifact is a pure
function of code and seed and ``--update-baseline`` is idempotent.

The regression gate is :func:`repro.obs.slo.evaluate`, the one
comparator: each fresh artifact must hold its scenario's shipped SLO
spec plus the rules its reference in the store
(``benchmarks/baseline/``, one artifact per ``(scenario, smoke)``)
generates (:func:`repro.obs.slo.baseline_rules`).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.faults.scenarios import SCENARIOS, populate, scenario_named
from repro.ioutil import UsageError
from repro.obs import BENCH_SCHEMA, BENCH_SCHEMA_VERSION
from repro.obs.slo import (
    DEFAULT_SLOS,
    DEFAULT_STORE,
    baseline_rules,
    evaluate,
    load_store,
    parse_spec,
)

if TYPE_CHECKING:
    from repro.analysis.report import Reporter

__all__ = ["ScenarioRun", "run_scenario", "bench_command"]


@dataclass(slots=True)
class ScenarioRun:
    """Everything one scenario run produced."""

    population: Any
    digest: str
    artifact: dict[str, Any]
    #: the FlightRecorder when ``flight_dump`` was requested — lets
    #: callers trigger a post-run dump (e.g. on an SLO violation)
    flight_recorder: Any = None
    #: the engine of the reported run, for end-of-run invariant checks
    engine: Any = None


def run_scenario(name: str, *, smoke: bool, seed: int | None = None,
                 n_clients: int | None = None, recovery: bool = True,
                 retry: bool | None = None, tracer: Any = None,
                 flight_dump: str | None = None) -> ScenarioRun:
    """Run one scenario end to end; its population, digest and artifact.

    ``recovery=False`` and ``retry=False`` disable the corresponding
    defence while keeping the identical fault schedule — the control
    arm of the experiment. ``tracer`` watches the run; ``flight_dump``
    instead installs a complete :class:`~repro.obs.flightrec.
    FlightRecorder` that auto-dumps its trailing window (30
    sim-seconds) to that path on the first injected fault, and the
    dump metadata lands in the artifact under ``flight_dump``. Results
    and digest are the same whoever watches.

    An ``egress_ab`` scenario runs its population twice — shared flows
    off, then on — and reports the shared run plus the A/B
    (``egress_reduction`` is the headline: independent-flow bytes over
    shared-flow bytes off the serving media hosts); only the shared
    run is watched. An unknown ``name`` is a
    :class:`~repro.ioutil.UsageError`.
    """
    from repro.faults.digest import population_digest

    scenario = scenario_named(name)
    n = n_clients if n_clients is not None else (
        scenario.smoke_clients if smoke else scenario.n_clients)
    duration = scenario.smoke_duration_s if smoke else scenario.duration_s
    seed = scenario.seed if seed is None else seed
    use_retry = scenario.retry if retry is None else retry
    recorder = None
    if flight_dump is not None:
        from repro.obs.flightrec import FlightRecorder

        if tracer is not None:
            raise ValueError("pass tracer= or flight_dump=, not both")
        tracer = recorder = FlightRecorder(dump_path=flight_dump,
                                           max_events=None)
    options = {"recovery": recovery, "retry": use_retry}
    unshared = None
    if scenario.egress_ab:
        _, unshared = populate(scenario, n, duration, seed,
                               shared_flows=False, **options)
    eng, pop = populate(scenario, n, duration, seed, tracer=tracer,
                        shared_flows=True if scenario.egress_ab else None,
                        **options)
    digest = population_digest(pop)
    artifact: dict[str, Any] = {
        "schema": BENCH_SCHEMA,
        "version": BENCH_SCHEMA_VERSION,
        "name": name,
        "scenario": name,
        "description": scenario.description,
        "smoke": smoke,
        "seed": seed,
        "clients": n,
        "duration_s": duration,
        "topology": scenario.topology,
        "recovery": recovery,
        "retry": use_retry,
        "faults": eng.faults.plan.to_dict(),
        "sim_time_s": eng.sim.now,
        "events": eng.sim.events_fired,
        "sessions": len(pop),
        "completed": len(pop.completed()),
        "delivered": len(pop.delivered()),
        "retries": sum(o.result.retries for o in pop),
        "recoveries": sum(o.result.recoveries for o in pop),
        "digest": digest,
        "qoe": pop.qoe_summary(),
        # off every serving media host, origin and replicas alike
        "origin_egress_bytes": pop.service["egress"]["total_bytes"],
        "service": pop.service,
        "timeseries": pop.timeseries,
    }
    watchdog = eng.watchdogs.get("srv1")
    if watchdog is not None:
        artifact["watchdog"] = {
            "detections": watchdog.detections,
            "streams_failed_over": watchdog.streams_failed_over,
            "streams_lost": watchdog.streams_lost,
            "sessions_saved": len(watchdog.sessions_saved),
        }
    if unshared is not None:
        unshared_egress = unshared.service["egress"]["total_bytes"]
        egress = artifact["origin_egress_bytes"]
        artifact["origin_egress_bytes_unshared"] = unshared_egress
        artifact["qoe_unshared"] = unshared.qoe_summary()
        artifact["egress_reduction"] = (unshared_egress / egress
                                        if egress else 0.0)
    if recorder is not None:
        artifact["flight_dump"] = dict(recorder.last_dump)
    return ScenarioRun(population=pop, digest=digest, artifact=artifact,
                       flight_recorder=recorder, engine=eng)


#: flags of one path, named by option dest; either path refuses the
#: other's, so none is ever silently ignored
_SCENARIO_FLAGS = {
    "update_baseline": "--update-baseline", "baseline": "--baseline",
    "scenario": "--scenario", "topology": "--topology",
    "recovery": "--no-recovery", "retry": "--no-retry",
    "check_determinism": "--check-determinism",
    "flight_dump": "--flight-dump",
}
_SHARDED_FLAGS = {
    "shards": "--shards", "cell": "--cell", "seed": "--seed",
    "duration": "--duration",
    "tolerate_shard_failures": "--tolerate-shard-failures",
}


def _selected(scenario: list[str], topology: list[str]) -> list[str]:
    """The scenario names ``--scenario`` / ``--topology`` select, in
    command-line order (default: every scenario)."""
    names = [scenario_named(name).name for name in scenario]
    for wanted in topology:
        matching = [s.name for s in SCENARIOS.values()
                    if s.topology == wanted]
        if not matching:
            known = sorted({s.topology for s in SCENARIOS.values()})
            raise UsageError(f"no scenarios with topology {wanted!r}; "
                             f"known: {', '.join(known)}")
        names.extend(matching)
    return list(dict.fromkeys(names)) or list(SCENARIOS)


def bench_command(report: Reporter, *, smoke: bool, out: str,
                  **options: Any) -> int:
    """``repro bench``: run the selected scenarios, emit BENCH_*.json,
    and hold each to its shipped SLO spec plus the rules its reference
    in the store generates; exit 1 on any failed rule or check.
    ``--clients`` / ``--scale-curve`` go to the sharded bench instead.

    ``options`` holds only the flags given on the command line, so a
    flag of the path not taken is a usage error.
    """
    sharded = ("clients" in options) or ("scale_curve" in options)
    stray = [flag for dest, flag in
             (_SCENARIO_FLAGS if sharded else _SHARDED_FLAGS).items()
             if dest in options]
    if stray:
        path = ("the scenario runs, not to --clients / --scale-curve"
                if sharded else "--clients / --scale-curve only")
        raise UsageError(f"{stray[0]} applies to {path}")
    if sharded:
        from repro.shard.bench import sharded_bench_command

        if "scale_curve" in options and (
                "clients" in options or "duration" in options):
            raise UsageError("--scale-curve sweeps its own N and duration: "
                             "no --clients / --duration")

        return sharded_bench_command(report, smoke=smoke, out=out,
                                     **options)
    update_baseline = options.get("update_baseline", False)
    if update_baseline:
        for dest in ("recovery", "retry", "flight_dump"):
            if dest in options:
                raise UsageError(f"{_SCENARIO_FLAGS[dest]} does not go with "
                                 "--update-baseline: a reference is the "
                                 "plain run")
    recovery = options.get("recovery", True)
    retry = options.get("retry")
    flight_dump = options.get("flight_dump")
    names = _selected(options.get("scenario", []),
                      options.get("topology", []))
    if flight_dump is not None and len(names) != 1:
        raise UsageError(f"--flight-dump records one run; {len(names)} "
                         "scenarios are selected (use --scenario)")
    baseline = options.get("baseline", DEFAULT_STORE)

    os.makedirs(out, exist_ok=True)
    if update_baseline:
        os.makedirs(baseline, exist_ok=True)
    # the store by (scenario, smoke); not read when it is being re-recorded
    references = {} if update_baseline else load_store(baseline)
    summary: list[list[Any]] = []
    gate: list[list[Any]] = []
    for name in names:
        run = run_scenario(name, smoke=smoke, recovery=recovery,
                           retry=retry, flight_dump=flight_dump)
        artifact = run.artifact
        qoe = artifact["qoe"]
        summary.append([
            name, artifact["clients"],
            f"{artifact['completed']}/{artifact['sessions']}",
            f"{artifact['delivered']}/{artifact['sessions']}",
            f"{qoe.get('score', {}).get('p50', 0.0):.1f}",
            artifact["recoveries"], artifact["digest"][:16],
        ])
        if update_baseline:
            suffix = ".smoke.json" if smoke else ".json"
            report.artifact(f"baseline:{name}", os.path.join(
                baseline, f"BENCH_{name}{suffix}"), artifact)
        else:
            gate.extend(_gate(run, references.get((name, smoke)), report))
        report.artifact(f"artifact:{name}",
                        os.path.join(out, f"BENCH_{name}.json"), artifact)
        if options.get("check_determinism"):
            # the reported run's own arguments, replayed without a recorder
            replay = run_scenario(name, smoke=smoke, recovery=recovery,
                                  retry=retry).digest
            gate.append([name, "replay digest == digest", replay[:16],
                         "PASS" if replay == run.digest else "FAIL"])
    report.table(
        "Benchmark trajectory" + (" (smoke)" if smoke else ""),
        ["scenario", "clients", "completed", "delivered", "qoe_p50",
         "recoveries", "digest"],
        summary,
    )
    if update_baseline and not gate:
        return 0
    report.table(
        "Gate: shipped SLO spec + reference rules",
        ["scenario", "rule", "value", "status"],
        gate,
    )
    violations = sum(1 for row in gate if row[3] == "FAIL")
    report.value("violations", violations)
    return 1 if violations else 0


def _gate(run: ScenarioRun, reference: dict[str, Any] | None,
          report: Reporter) -> list[list[Any]]:
    """Gate rows of one run: its shipped SLO spec plus the rules its
    reference generates, and whether a requested flight dump exists."""
    artifact = run.artifact
    name = artifact["name"]
    rules = parse_spec(DEFAULT_SLOS[name])
    # keyed by scale too: a smoke run never meets a full reference
    if reference is None:
        report.value(f"baseline:{name}", "missing (not compared)")
    else:
        rules += baseline_rules(reference)
    checks = evaluate(rules, artifact)
    rows = [[name, c.rule.text, c.value_text, "PASS" if c.ok else "FAIL"]
            for c in checks]
    recorder = run.flight_recorder
    if recorder is not None:
        # A fault may already have dumped; otherwise a violated rule is
        # itself the incident worth forensics.
        if not recorder.last_dump and not all(c.ok for c in checks):
            recorder.dump(trigger="slo.violation")
            artifact["flight_dump"] = dict(recorder.last_dump)
        dump = artifact["flight_dump"]
        if dump:
            report.value("flight_dump", dump["path"])
            report.value("flight_dump_events", dump["events"])
            report.value("flight_dump_trigger", dump["trigger"])
        # scheduled faults that never fired the recorder: the forensics
        # the caller asked for do not exist
        scheduled = artifact["faults"]["faults"]
        rows.append([name, "flight recorder dumped",
                     "yes" if dump else "no",
                     "PASS" if dump or not scheduled else "FAIL"])
    return rows
