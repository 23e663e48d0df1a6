# lint: allow-file(det-wall-clock)
"""Worker-process side of the sharded runner.

A worker executes its shard's cells sequentially (each an untraced
engine: sessions are scored from their endpoints and ``events`` is the
kernel's own count, so a worker carries no recorder), sending each cell
document back over its private pipe the moment it completes, plus
wall-clock heartbeats from a daemon thread so the supervisor can tell
a slow shard from a dead one. Everything a worker computes is a pure
function of the workload and the cell's ``(lo, hi, seed)`` — no state
crosses cells or processes — so a retried shard reproduces the lost
attempt byte for byte.

Each worker is the **sole writer** of its connection (sends are
serialized by an in-process lock that dies with the process), which is
what makes supervision wedge-proof: if the worker dies mid-frame —
SIGKILL included — the supervisor's read end sees end-of-file and
discards the partial message, instead of blocking on bytes that will
never arrive. A shared queue cannot give that guarantee (a killed
writer can leave a truncated frame, or die holding the queue's
cross-process write lock).

Wall-clock reads are confined to measurement and liveness (heartbeat
pacing, per-cell timing); simulation time inside a cell comes from
that cell engine's DES clock as everywhere else.
"""

from __future__ import annotations

import os
import threading
import time
import traceback
from multiprocessing import connection as mp_connection
from typing import Any

from repro.shard.plan import ShardWorkload

__all__ = ["import_cell_modules", "run_cell", "worker_main"]


def import_cell_modules() -> None:
    """Import what a cell imports that a shard run's parent has not.

    The supervisor calls this before its first spawn, so a forked worker
    inherits these modules instead of importing them again on its first
    cell (the engine itself comes with the ``repro`` package). Not
    imported at module level: building a supervisor stays as cheap as
    it was.
    """
    import repro.faults.digest  # noqa: F401
    import repro.obs.qoe  # noqa: F401
    import repro.obs.service_metrics  # noqa: F401
    import repro.obs.timeseries  # noqa: F401


def run_cell(workload: ShardWorkload, cell: int, lo: int, hi: int,
             seed: int) -> dict[str, Any]:
    """Run one cell as a complete engine; return its picklable doc.

    Clients carry their *global* identity — node ``client{g+1}``,
    user ``viewer{g+1}`` and (post-run) session ``sess-{g+1}`` for
    global index ``g`` — so merged outcome lists read exactly like a
    monolithic population run. Start times are cell-local
    (``local_index * stagger_s``): every cell is its own arrival
    wave, which keeps a cell's dynamics independent of its position
    in the population.
    """
    from repro.core.config import EngineConfig
    from repro.core.engine import ServiceEngine
    from repro.core.orchestrator import PopulationResult, SessionSpec
    from repro.faults.digest import population_digest
    from repro.obs.service_metrics import service_doc

    eng = ServiceEngine(EngineConfig(seed=seed, **dict(workload.config)))
    eng.add_server(
        workload.server,
        documents={workload.document: (workload.markup, workload.topic)},
    )
    sampler = eng.attach_timeseries()
    if workload.fault_plan is not None:
        from repro.faults.plan import FaultPlan

        eng.install_faults(FaultPlan.from_dict(workload.fault_plan))
    specs = []
    for j, g in enumerate(range(lo, hi)):
        eng.add_client(node_id=f"client{g + 1}")
        specs.append(SessionSpec(
            server=workload.server, document=workload.document,
            user_id=f"viewer{g + 1}", contract=workload.contract,
            start_at=j * workload.stagger_s,
            client_node=f"client{g + 1}",
        ))
    t0 = time.perf_counter()
    pop = PopulationResult(eng.orchestrator.run_workload(
        specs, horizon_s=workload.horizon_s))
    wall_s = time.perf_counter() - t0
    if eng.faults is not None:
        eng.faults.stop()
    # Per-engine session ids restart at sess-1; rewrite them to the
    # session's global index so merged outcomes are unambiguous.
    for j, outcome in enumerate(pop.outcomes):
        outcome.session_id = f"sess-{lo + j + 1}"
        outcome.result.qoe["session"] = outcome.session_id
    pop_doc = pop.to_dict()
    series_doc = sampler.series.to_dict()
    return {
        "cell": cell,
        "lo": lo,
        "hi": hi,
        "population": pop_doc,
        "service": service_doc(eng, series_doc),
        "timeseries": series_doc,
        "events": eng.sim.events_fired,
        "wall_s": wall_s,
        "digest": population_digest(pop_doc),
    }


def _send(conn: mp_connection.Connection, lock: threading.Lock,
          msg: tuple) -> None:
    """One whole frame per message; returns only once fully written."""
    with lock:
        conn.send(msg)


def _heartbeat_loop(conn: mp_connection.Connection, lock: threading.Lock,
                    shard: int, attempt: int,
                    stop: threading.Event, interval_s: float) -> None:
    while not stop.wait(interval_s):
        try:
            _send(conn, lock, ("hb", shard, attempt))
        except Exception:
            return


def worker_main(conn: mp_connection.Connection, workload: ShardWorkload,
                shard: int, attempt: int,
                cells: list[tuple[int, int, int, int]],
                hb_interval_s: float) -> None:
    """Process entry point: run ``cells``, stream results, heartbeat.

    The supervisor owns SIGINT (a ^C must interrupt the *supervisor*,
    which then tears workers down in order), so workers ignore it;
    SIGTERM keeps its default die-now behaviour for teardown.
    """
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    lock = threading.Lock()
    stop = threading.Event()
    threading.Thread(
        target=_heartbeat_loop, args=(conn, lock, shard, attempt, stop,
                                      hb_interval_s),
        daemon=True,
    ).start()
    try:
        t0 = time.perf_counter()
        done_cells = 0
        for cell, lo, hi, seed in cells:
            if (workload.hang_shard == shard
                    and attempt <= workload.hang_attempts
                    and done_cells >= workload.fault_after_cells):
                stop.set()  # go silent: no heartbeats, no progress
                while True:
                    time.sleep(3600.0)
            doc = run_cell(workload, cell, lo, hi, seed)
            if workload.cell_delay_s > 0:
                time.sleep(workload.cell_delay_s)
            _send(conn, lock, ("cell", shard, attempt, doc))
            done_cells += 1
            if (workload.fail_shard == shard
                    and attempt <= workload.fail_attempts
                    and done_cells >= workload.fault_after_cells):
                # Simulated hard crash. send() already returned, so
                # the cell's frame is fully in the pipe — the drill
                # tests supervision, not stream corruption.
                os._exit(17)
        _send(conn, lock, ("done", shard, attempt,
                           time.perf_counter() - t0))
        stop.set()
        conn.close()
    except BaseException:
        try:
            _send(conn, lock, ("fatal", shard, attempt,
                               traceback.format_exc()))
        except Exception:
            pass
        os._exit(1)
