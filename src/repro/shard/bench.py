"""Sharded population benchmarks: single points and scaling curves.

Backs ``python -m repro bench --clients N --shards K`` and
``--scale-curve``. A *point* runs one supervised sharded population
and reports the merged metrics, digest, completeness and per-shard
lifecycle; a *curve* sweeps N and emits the scaling artifact
(``BENCH_population_scale.json``: events/sec and wall_s vs N) for the
bench trajectory. Cells run untraced, so ``events`` counts kernel heap
entries fired, not trace emits, and QoE comes from the sessions'
endpoints.

Per-cell admission: each cell is its own engine, so the admission
controller sees one cell's concurrency, not the population's. The
default config raises per-cell capacity so a full cell admits all its
viewers; population-level admission studies stay on the monolithic
path where one controller sees every session.
"""

from __future__ import annotations

import dataclasses
import os
from typing import TYPE_CHECKING, Any

from repro.faults.scenarios import SCENARIOS, Scenario
from repro.obs import BENCH_SCHEMA, BENCH_SCHEMA_VERSION
from repro.shard.plan import ShardPlan
from repro.shard.result import ShardedRunResult, ShardFailure, ShardStatus
from repro.shard.supervisor import ShardSupervisor

if TYPE_CHECKING:
    from repro.analysis.report import Reporter

__all__ = ["shard_workload", "run_sharded", "sharded_artifact",
           "run_scale_curve", "sharded_bench_command", "SCALE_POINTS",
           "SCALE_SMOKE_POINTS"]

#: default N sweep of the scaling curve (>= 10^4 at the top)
SCALE_POINTS = (64, 256, 1024, 10240)
SCALE_SMOKE_POINTS = (8, 16, 32)
#: the curve's lighter cell (see :func:`run_scale_curve`)
SCALE_DURATION_S = 2.0
SCALE_STAGGER_S = 0.25

#: default per-cell EngineConfig overrides (see module docstring)
DEFAULT_CELL_CONFIG = {"admission_capacity_bps": 400e6}


def shard_workload(duration_s: float = 6.0, stagger_s: float = 0.4,
                   with_images: bool = True) -> Scenario:
    """The standard bench workload: population_clean's A/V document at
    this duration and stagger, under :data:`DEFAULT_CELL_CONFIG`."""
    return dataclasses.replace(
        SCENARIOS["population_clean"], duration_s=duration_s,
        stagger_s=stagger_s,
        document="av+images" if with_images else "av",
        config=dict(DEFAULT_CELL_CONFIG))


def run_sharded(
    n_clients: int,
    n_shards: int,
    *,
    seed: int = 11,
    cell_clients: int = 8,
    duration_s: float | None = None,
    stagger_s: float | None = None,
    workload: Scenario | None = None,
    tolerate_failures: bool = False,
    tracer: Any | None = None,
    **supervisor_kwargs: Any,
) -> ShardedRunResult:
    """One supervised sharded population run of ``workload`` (default:
    :func:`shard_workload` at ``duration_s`` and ``stagger_s``, 6.0 and
    0.4 unless given). A ``workload`` carries its own duration and
    stagger, so passing either beside it is a ``ValueError``.

    Raises :class:`~repro.shard.result.ShardFailure` when shards fail
    permanently and ``tolerate_failures`` is off.
    """
    if workload is None:
        workload = shard_workload(
            6.0 if duration_s is None else duration_s,
            0.4 if stagger_s is None else stagger_s)
    elif duration_s is not None or stagger_s is not None:
        raise ValueError("a workload carries its own duration_s and "
                         "stagger_s: pass neither with workload=")
    plan = ShardPlan(n_clients=n_clients, n_shards=n_shards,
                     cell_clients=cell_clients, seed=seed)
    supervisor = ShardSupervisor(
        plan, workload, tolerate_failures=tolerate_failures,
        tracer=tracer, **supervisor_kwargs,
    )
    return supervisor.run()


def sharded_artifact(result: ShardedRunResult, *, smoke: bool = False,
                     duration_s: float = 6.0) -> dict[str, Any]:
    """A ``repro.bench`` artifact for one sharded point.

    Carries the standard trajectory keys (wall_s, events — kernel
    heap entries fired across the cells —, events_per_sec, sessions,
    completed, qoe, service, timeseries) plus the sharding extras:
    digest, completeness, shard lifecycle.
    """
    from repro.obs.qoe import population_qoe

    events_per_sec = (result.events / result.wall_s
                      if result.wall_s > 0 else 0.0)
    artifact: dict[str, Any] = {
        "schema": BENCH_SCHEMA,
        "version": BENCH_SCHEMA_VERSION,
        "name": "population_shard",
        "scenario": "population_shard",
        "description": "supervised sharded population run",
        "smoke": smoke,
        "seed": result.seed,
        "clients": result.clients,
        "duration_s": duration_s,
        "topology": "star",
        "shards": result.n_shards,
        "cell_clients": result.cell_clients,
        "wall_s": result.wall_s,
        "cpu_wall_s": result.cpu_wall_s,
        "events": result.events,
        "events_per_sec": events_per_sec,
        "sessions": result.sessions(),
        "completed": result.completed_sessions(),
        "qoe": population_qoe(o["result"].get("qoe")
                              for o in result.merged["outcomes"]),
        "digest": result.digest,
        "completeness": result.completeness,
        "cells_total": result.cells_total,
        "cells_merged": result.cells_merged,
        "missing_cells": list(result.missing_cells),
        "shard_lifecycle": [s.to_dict() for s in result.shards],
        "interrupted": result.interrupted,
    }
    if result.merged.get("service"):
        artifact["service"] = result.merged["service"]
    if result.merged.get("timeseries"):
        artifact["timeseries"] = result.merged["timeseries"]
    return artifact


def run_scale_curve(*, n_shards: int = 4, seed: int = 11,
                    cell_clients: int = 8, smoke: bool = False,
                    tolerate_failures: bool = False) -> dict[str, Any]:
    """Sweep population sizes; the scaling-curve artifact.

    The curve uses a lighter cell than the headline bench (short
    duration, no discrete images) so the 10^4-client point stays
    tractable on one machine; throughput comparisons hold within the
    curve, not against other scenarios. The artifact's top-level
    metrics mirror the largest point so the gate and the report read
    it like any bench artifact.
    """
    points = SCALE_SMOKE_POINTS if smoke else SCALE_POINTS
    workload = shard_workload(SCALE_DURATION_S, SCALE_STAGGER_S,
                              with_images=False)
    rows: list[dict[str, Any]] = []
    for n in points:
        result = run_sharded(
            n, n_shards, seed=seed, cell_clients=cell_clients,
            workload=workload, tolerate_failures=tolerate_failures,
        )
        rows.append({
            "clients": n,
            "wall_s": result.wall_s,
            "cpu_wall_s": result.cpu_wall_s,
            "events": result.events,
            "events_per_sec": (result.events / result.wall_s
                               if result.wall_s > 0 else 0.0),
            "sessions": result.sessions(),
            "completed": result.completed_sessions(),
            "completeness": result.completeness,
            "digest": result.digest,
        })
    top = rows[-1]
    return {
        "schema": BENCH_SCHEMA,
        "version": BENCH_SCHEMA_VERSION,
        "name": "population_scale",
        "scenario": "population_scale",
        "description": "sharded population scaling curve "
                       "(events/sec and wall_s vs N)",
        "smoke": smoke,
        "seed": seed,
        "shards": n_shards,
        "cell_clients": cell_clients,
        "duration_s": SCALE_DURATION_S,
        "topology": "star",
        "points": rows,
        # headline = the largest point, for the gate and the report
        "clients": top["clients"],
        "wall_s": top["wall_s"],
        "events": top["events"],
        "events_per_sec": top["events_per_sec"],
        "sessions": top["sessions"],
        "completed": top["completed"],
        "completeness": top["completeness"],
    }


def _shard_lifecycle_table(report: Reporter,
                           shards: list[ShardStatus]) -> None:
    report.table(
        "Shard lifecycle",
        ["shard", "cells", "status", "attempts", "retries", "failures"],
        [[s.shard, len(s.cells), s.status, s.attempts, s.retries,
          "; ".join(s.failures) or "-"] for s in shards],
    )


def sharded_bench_command(report: Reporter, *, smoke: bool, out: str,
                          clients: int | None = None,
                          scale_curve: bool = False, shards: int = 4,
                          cell: int = 8, seed: int = 11,
                          duration: float = 6.0,
                          tolerate_shard_failures: bool = False) -> int:
    """``repro bench --clients N`` / ``--scale-curve``: one supervised
    sharded point, held to the ``population_shard`` SLO spec (exit 1 on
    a failed rule), or the scaling curve."""
    os.makedirs(out, exist_ok=True)
    if scale_curve:
        artifact = run_scale_curve(
            n_shards=shards, seed=seed, cell_clients=cell,
            smoke=smoke, tolerate_failures=tolerate_shard_failures)
        out_path = os.path.join(out, "BENCH_population_scale.json")
        report.artifact("artifact:population_scale", out_path, artifact)
        report.table(
            "Population scaling curve"
            + (" (smoke)" if smoke else ""),
            ["clients", "wall_s", "events/s", "completed",
             "completeness", "digest"],
            [[p["clients"], f"{p['wall_s']:.2f}",
              f"{p['events_per_sec']:.0f}",
              f"{p['completed']}/{p['sessions']}",
              f"{p['completeness']:.2f}", p["digest"][:16]]
             for p in artifact["points"]],
        )
        return 0

    assert clients is not None
    try:
        result = run_sharded(
            clients, shards, seed=seed, cell_clients=cell,
            duration_s=duration,
            tolerate_failures=tolerate_shard_failures)
    except ShardFailure as exc:
        result = exc.result
        report.text(f"sharded run failed: {exc}")
        _shard_lifecycle_table(report, result.shards)
        return 1

    artifact = sharded_artifact(result, smoke=smoke, duration_s=duration)
    out_path = os.path.join(out, "BENCH_population_shard.json")
    report.artifact("artifact:population_shard", out_path, artifact)
    qoe = artifact.get("qoe") or {}
    report.table(
        "Sharded population" + (" (smoke)" if smoke else ""),
        ["clients", "shards", "wall_s", "events/s", "completed",
         "completeness", "qoe_p50", "digest"],
        [[result.clients, result.n_shards, f"{result.wall_s:.3f}",
          f"{artifact['events_per_sec']:.0f}",
          f"{artifact['completed']}/{artifact['sessions']}",
          f"{result.completeness:.2f}",
          f"{qoe.get('score', {}).get('p50', 0.0):.1f}",
          result.digest[:16]]],
    )
    _shard_lifecycle_table(report, result.shards)
    if result.completeness < 1.0:
        report.value("degraded",
                     f"partial result: completeness "
                     f"{result.completeness:.2f}, missing cells "
                     f"{result.missing_cells}")
    if result.interrupted:
        report.value("interrupted", True)
        return 130
    # imported here: a shard run stamps the bench schema without
    # loading the gate
    from repro.obs.slo import DEFAULT_SLOS, evaluate, parse_spec, report_gate

    checks = evaluate(parse_spec(DEFAULT_SLOS["population_shard"]),
                      artifact)
    return 1 if report_gate(report, checks, artifact) else 0
