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

from repro.faults.scenarios import Scenario, populate

__all__ = ["import_cell_modules", "run_cell", "worker_main"]


def import_cell_modules() -> None:
    """Import what a cell imports that a shard run's parent has not.

    The supervisor calls this before its first spawn, so a forked worker
    inherits these modules instead of importing them again on its first
    cell (the engine itself comes with the ``repro`` package). Not
    imported at module level: building a supervisor stays as cheap as
    it was.
    """
    import repro.core.experiments  # noqa: F401
    import repro.obs.qoe  # noqa: F401
    import repro.obs.service_metrics  # noqa: F401
    import repro.obs.timeseries  # noqa: F401


def run_cell(workload: Scenario, cell: int, lo: int, hi: int,
             seed: int) -> dict[str, Any]:
    """Run one cell, the ``[lo, hi)`` slice of ``workload``'s
    population, through the ``populate`` step every population run
    takes; return its picklable doc.

    The slice is ``run_population`` from global index ``lo``: clients
    carry their *global* identity — node ``client{g+1}``, user
    ``viewer{g+1}`` and session ``sess-{g+1}`` for global index ``g``
    — so merged outcome lists read exactly like a monolithic
    population run. Start times and the fault plan are cell-local
    (``local_index * stagger_s``; the plan at ``hi - lo`` viewers):
    every cell is its own arrival wave, which keeps a cell's dynamics
    independent of its position in the population. The doc's
    ``population`` is the population document, ``service`` and
    ``timeseries`` inline; ``wall_s`` times the whole cell, engine
    build included.
    """
    if workload.topology != "star":
        raise ValueError(f"a cell adds its viewers at the core router: "
                         f"topology {workload.topology!r} cannot be sharded")
    t0 = time.perf_counter()
    eng, pop = populate(workload, hi - lo, seed, first=lo)
    return {
        "cell": cell,
        "lo": lo,
        "hi": hi,
        "population": pop.to_dict(),
        "events": eng.sim.events_fired,
        "wall_s": time.perf_counter() - t0,
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


def worker_main(conn: mp_connection.Connection, workload: Scenario,
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
        for cell, lo, hi, seed in cells:
            doc = run_cell(workload, cell, lo, hi, seed)
            _send(conn, lock, ("cell", shard, attempt, doc))
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
