"""The scenario runner, behind ``python -m repro bench``.

``bench`` runs each selected row of the scenario table
(:data:`repro.faults.scenarios.SCENARIOS`) at its smoke or full size
(:func:`workload`): on one engine (:func:`run_scenario`, through the
table's :func:`~repro.faults.scenarios.populate`) or, under
``--shards K``, as a supervised sharded run whose cells populate
slices of the same row (:func:`repro.shard.bench.run_sharded`). Either
way the run's population document becomes one ``BENCH_<name>.json``
artifact through one builder (:func:`bench_artifact`), and each path
adds only the keys only it can fill: the fault plan, simulated end
time, egress A/B and flight dump of one engine; the shard lifecycle,
completeness and wall clock of a sharded run. Nothing else is timed
(host speed is ``benchmarks/e2e``'s job), so an unsharded artifact is
a pure function of code and seed and ``--update-baseline`` is
idempotent.

The regression gate is :func:`repro.obs.slo.evaluate`, the one
comparator: each fresh artifact must hold its scenario's shipped SLO
spec plus, when it is the plain run a reference in the store
(``benchmarks/baseline/``) was recorded from
(:func:`repro.obs.slo.reference_for`), the rules that reference
generates (:func:`repro.obs.slo.baseline_rules`).
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Sequence

from repro.faults.digest import population_digest
from repro.faults.scenarios import (
    SCENARIOS,
    Scenario,
    populate,
    scenario_named,
)
from repro.ioutil import UsageError
from repro.obs import BENCH_SCHEMA, BENCH_SCHEMA_VERSION
from repro.obs.qoe import population_qoe
from repro.obs.slo import (
    DEFAULT_SLOS,
    DEFAULT_STORE,
    SloRule,
    baseline_rules,
    evaluate,
    load_store,
    parse_spec,
    reference_for,
)

if TYPE_CHECKING:
    from repro.analysis.report import Reporter

__all__ = ["ScenarioRun", "workload", "run_scenario", "bench_artifact",
           "delivered", "bench_command"]


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


def workload(name: str, *, smoke: bool, recovery: bool = True,
             retry: bool | None = None) -> Scenario:
    """Row ``name`` as one bench run runs it: at its smoke or full size
    (``n_clients``, ``duration_s``), and with ``recovery=False`` or
    ``retry=False`` turning that defence off under the identical fault
    schedule (the control arms). An unknown ``name`` is a
    :class:`~repro.ioutil.UsageError`."""
    row = scenario_named(name)
    if smoke:
        row = dataclasses.replace(row, n_clients=row.smoke_clients,
                                  duration_s=row.smoke_duration_s)
    return dataclasses.replace(
        row, recovery=recovery, retry=row.retry if retry is None else retry)


def delivered(result: dict[str, Any]) -> bool:
    """Whether one session document completed *and* delivered its media.

    Under faults a session can limp to completion while most of its
    playout was gaps; it counts as delivered only when at most a
    quarter of its frames were gaps.
    """
    streams = result["streams"].values()
    gaps = sum(s["gaps"] for s in streams)
    frames = gaps + sum(s["frames_played"] for s in streams)
    return bool(result["completed"]) and (
        gaps / frames if frames else 0.0) <= 0.25


def bench_artifact(row: Scenario, doc: dict[str, Any], *, smoke: bool,
                   seed: int, clients: int, events: int) -> dict[str, Any]:
    """The artifact of one run of ``row`` (sized by :func:`workload`)
    from its population document ``doc``: one engine's
    ``PopulationResult.to_dict()`` or a sharded run's merged cell
    documents. ``events`` counts kernel heap entries fired."""
    results = [o["result"] for o in doc["outcomes"]]
    artifact: dict[str, Any] = {
        "schema": BENCH_SCHEMA,
        "version": BENCH_SCHEMA_VERSION,
        "name": row.name,
        "scenario": row.name,
        "description": row.description,
        "smoke": smoke,
        "seed": seed,
        "clients": clients,
        "duration_s": row.duration_s,
        "topology": row.topology,
        "recovery": row.recovery,
        "retry": row.retry,
        "events": events,
        "sessions": len(results),
        "completed": sum(1 for r in results if r["completed"]),
        "delivered": sum(1 for r in results if delivered(r)),
        "retries": sum(r["retries"] for r in results),
        "recoveries": sum(r["recoveries"] for r in results),
        "digest": population_digest(doc),
        "qoe": population_qoe(r["qoe"] for r in results),
    }
    service = doc.get("service")
    if service:
        # off every serving media host, origin and replicas alike
        artifact["origin_egress_bytes"] = service["egress"]["total_bytes"]
        artifact["service"] = service
        artifact["timeseries"] = doc["timeseries"]
    return artifact


def run_scenario(name: str, *, smoke: bool, seed: int | None = None,
                 n_clients: int | None = None, recovery: bool = True,
                 retry: bool | None = None, tracer: Any = None,
                 flight_dump: str | None = None) -> ScenarioRun:
    """Run one scenario on one engine; its population, digest and
    artifact.

    ``recovery`` and ``retry`` choose the control arm
    (:func:`workload`). ``tracer`` watches the run; ``flight_dump``
    instead installs a complete :class:`~repro.obs.flightrec.
    FlightRecorder` that auto-dumps its trailing window (30
    sim-seconds) to that path on the first injected fault, and the
    dump metadata lands in the artifact under ``flight_dump``. Results
    and digest are the same whoever watches.

    An ``egress_ab`` scenario first runs its population with shared
    flows off and reports the A/B beside the row's own run
    (``egress_reduction`` is the headline: independent-flow bytes over
    shared-flow bytes off the serving media hosts); only the row's run
    is watched.
    """
    row = workload(name, smoke=smoke, recovery=recovery, retry=retry)
    n = row.n_clients if n_clients is None else n_clients
    seed = row.seed if seed is None else seed
    recorder = None
    if flight_dump is not None:
        from repro.obs.flightrec import FlightRecorder

        if tracer is not None:
            raise ValueError("pass tracer= or flight_dump=, not both")
        tracer = recorder = FlightRecorder(dump_path=flight_dump,
                                           max_events=None)
    unshared = None
    if row.egress_ab:
        _, unshared = populate(dataclasses.replace(
            row, config={**row.config, "shared_flows": False}), n, seed)
    eng, pop = populate(row, n, seed, tracer=tracer)
    artifact = bench_artifact(row, pop.to_dict(), smoke=smoke, seed=seed,
                              clients=n, events=eng.sim.events_fired)
    artifact["faults"] = eng.faults.plan.to_dict()
    artifact["sim_time_s"] = eng.sim.now
    if unshared is not None:
        unshared_egress = unshared.service["egress"]["total_bytes"]
        egress = artifact["origin_egress_bytes"]
        artifact["origin_egress_bytes_unshared"] = unshared_egress
        artifact["qoe_unshared"] = unshared.qoe_summary()
        artifact["egress_reduction"] = (unshared_egress / egress
                                        if egress else 0.0)
    if recorder is not None:
        artifact["flight_dump"] = dict(recorder.last_dump)
    return ScenarioRun(population=pop, digest=artifact["digest"],
                       artifact=artifact, flight_recorder=recorder,
                       engine=eng)


def _run_sharded(row: Scenario, *, smoke: bool, seed: int | None,
                 clients: int | None, shards: int, cell: int) -> ScenarioRun:
    """``row`` (sized by :func:`workload`) as a supervised sharded run,
    cells of ``cell`` viewers on ``shards`` workers. Shards that exhaust
    their retries leave a partial result (``completeness < 1``), which
    the gate judges."""
    from repro.shard.bench import run_sharded

    result = run_sharded(
        row.n_clients if clients is None else clients, shards,
        seed=row.seed if seed is None else seed, cell_clients=cell,
        workload=row, tolerate_failures=True)
    artifact = bench_artifact(row, result.merged, smoke=smoke,
                              seed=result.seed, clients=result.clients,
                              events=result.events)
    # what only a sharded run fills: lifecycle, completeness, wall clock
    artifact.update((key, value) for key, value in result.to_dict().items()
                    if key not in artifact and key != "merged")
    return ScenarioRun(population=result.merged, digest=artifact["digest"],
                       artifact=artifact)


def _selected(scenario: Sequence[str],
              topology: Sequence[str]) -> list[str]:
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


#: what ``--scale-curve`` takes besides ``--smoke`` / ``--out``
_CURVE_OPTIONS = {"shards", "cell", "seed", "tolerate_shard_failures"}


def bench_command(report: Reporter, *, smoke: bool, out: str,
                  scale_curve: bool = False, **options: Any) -> int:
    """``repro bench``: run the selected scenarios, emit BENCH_*.json,
    and hold each to its shipped SLO spec plus, for a plain run, the
    rules its reference generates; exit 1 on any failed rule or check.
    ``--scale-curve`` sweeps N in its own loop instead.

    ``options`` holds only the flags given on the command line.
    """
    if scale_curve:
        if set(options) - _CURVE_OPTIONS:
            raise UsageError("--scale-curve sweeps its own scenario and N: "
                             "it takes --shards, --cell, --seed and "
                             "--tolerate-shard-failures only")
        from repro.shard.bench import scale_curve_command

        return scale_curve_command(report, smoke=smoke, out=out, **options)
    return _bench(report, smoke=smoke, out=out, **options)


def _bench(report: Reporter, *, smoke: bool, out: str,
           scenario: Sequence[str] = (), topology: Sequence[str] = (),
           update_baseline: bool = False, baseline: str = DEFAULT_STORE,
           recovery: bool = True, retry: bool | None = None,
           check_determinism: bool = False, flight_dump: str | None = None,
           clients: int | None = None, seed: int | None = None,
           shards: int | None = None, cell: int | None = None,
           tolerate_shard_failures: bool = False) -> int:
    """The one loop: each selected row on one engine, or sharded."""
    if shards is None and (cell is not None or tolerate_shard_failures):
        raise UsageError("--cell and --tolerate-shard-failures apply to a "
                         "sharded run (--shards K)")
    if update_baseline and not (
            recovery and retry is not False and flight_dump is None
            and clients is None and seed is None and shards is None):
        raise UsageError("--update-baseline records the plain run: no "
                         "--no-recovery, --no-retry, --flight-dump, "
                         "--clients, --seed or --shards")
    names = _selected(scenario, topology)
    if flight_dump is not None and len(names) != 1:
        raise UsageError(f"--flight-dump records one run; {len(names)} "
                         "scenarios are selected (use --scenario)")
    if shards is not None:
        if flight_dump is not None:
            raise UsageError("--flight-dump records one engine; the cells "
                             "of a sharded run carry no recorder")
        unplaceable = [n for n in names if SCENARIOS[n].topology != "star"]
        if unplaceable:
            raise UsageError(f"--shards runs star scenarios only (a cell "
                             f"adds its viewers at the core router); "
                             f"{unplaceable[0]} is "
                             f"{SCENARIOS[unplaceable[0]].topology}")

    def run(name: str, dump: str | None) -> ScenarioRun:
        if shards is None:
            return run_scenario(name, smoke=smoke, seed=seed,
                                n_clients=clients, recovery=recovery,
                                retry=retry, flight_dump=dump)
        row = workload(name, smoke=smoke, recovery=recovery, retry=retry)
        return _run_sharded(row, smoke=smoke, seed=seed, clients=clients,
                            shards=shards, cell=8 if cell is None else cell)

    os.makedirs(out, exist_ok=True)
    if update_baseline:
        os.makedirs(baseline, exist_ok=True)
    # the store by (scenario, smoke); not read when it is being re-recorded
    references = {} if update_baseline else load_store(baseline)
    summary: list[list[Any]] = []
    gate: list[list[Any]] = []
    for name in names:
        scenario_run = run(name, flight_dump)
        artifact = scenario_run.artifact
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
            rules = parse_spec(DEFAULT_SLOS[name])
            reference = reference_for(references, artifact)
            if reference is None:
                report.value(f"baseline:{name}", "missing (not compared)")
            else:
                rules += baseline_rules(reference)
            if shards is not None and not tolerate_shard_failures:
                rules += parse_spec(["completeness >= 1"])
            gate.extend(_gate(scenario_run, rules, report))
        report.artifact(f"artifact:{name}",
                        os.path.join(out, f"BENCH_{name}.json"), artifact)
        if shards is not None:
            _shard_report(report, artifact)
            if artifact["interrupted"]:
                return 130
        if check_determinism:
            # the reported run's own arguments, replayed without a recorder
            replay = run(name, None).digest
            gate.append([name, "replay digest == digest", replay[:16],
                         "PASS" if replay == scenario_run.digest
                         else "FAIL"])
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


def _shard_report(report: Reporter, artifact: dict[str, Any]) -> None:
    """A sharded run's lifecycle: per shard, and what it left out."""
    report.table(
        f"Shard lifecycle: {artifact['name']} (K={artifact['shards']}, "
        f"wall {artifact['wall_s']:.2f} s)",
        ["shard", "cells", "status", "attempts", "retries", "failures"],
        [[s["shard"], len(s["cells"]), s["status"], s["attempts"],
          s["retries"], "; ".join(s["failures"]) or "-"]
         for s in artifact["shard_lifecycle"]],
    )
    if artifact["completeness"] < 1.0:
        report.value("degraded",
                     f"partial result: completeness "
                     f"{artifact['completeness']:.2f}, missing cells "
                     f"{artifact['missing_cells']}")
    if artifact["interrupted"]:
        report.value("interrupted", True)


def _gate(run: ScenarioRun, rules: list[SloRule],
          report: Reporter) -> list[list[Any]]:
    """Gate rows of one run: ``rules`` evaluated on its artifact, and
    whether a requested flight dump exists."""
    artifact = run.artifact
    name = artifact["name"]
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
