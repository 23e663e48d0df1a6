"""Sharded population runs and the scaling curve.

:func:`run_sharded` runs one supervised sharded population of a
scenario row: ``python -m repro bench --shards K`` runs each selected
row through it (the artifact is built in :mod:`repro.obs.bench`, like
every bench artifact). ``--scale-curve`` sweeps N over
:func:`shard_workload` and emits the scaling artifact
(``BENCH_population_scale.json``: events/sec and wall_s vs N). Cells
run untraced, so ``events`` counts kernel heap entries fired, not
trace emits, and QoE comes from the sessions' endpoints.

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
from repro.shard.result import ShardedRunResult
from repro.shard.supervisor import ShardSupervisor

if TYPE_CHECKING:
    from repro.analysis.report import Reporter

__all__ = ["shard_workload", "run_sharded", "run_scale_curve",
           "scale_curve_command", "SCALE_POINTS", "SCALE_SMOKE_POINTS"]

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
    """The scaling curve's workload: population_clean's A/V document at
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
    return ShardSupervisor(plan, workload,
                           tolerate_failures=tolerate_failures,
                           tracer=tracer).run()


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


def scale_curve_command(report: Reporter, *, smoke: bool, out: str,
                        shards: int = 4, cell: int = 8, seed: int = 11,
                        tolerate_shard_failures: bool = False) -> int:
    """``repro bench --scale-curve``: the scaling curve's artifact and
    table."""
    os.makedirs(out, exist_ok=True)
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
