"""Supervised sharded runs: K-invariance, crash drills, degradation.

Every drill asserts against ``REFERENCE`` — the undisturbed K=1
digest of the same plan — because the contract under test is not
"the supervisor survives" but "what it produces afterwards is
byte-identical to a run where nothing went wrong".

A drill substitutes a test double for the worker entry the supervisor
forks (``repro.shard.supervisor.worker_main``) or for the cell function
the worker calls (``repro.shard.worker.run_cell``); the forked worker
inherits the substitute, so production code carries no drill hooks.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.faults.scenarios import SCENARIOS
from repro.shard import ShardFailure, ShardPlan, ShardSupervisor
from repro.shard import supervisor as supervisor_module
from repro.shard import worker as worker_module
from repro.shard.bench import run_sharded, shard_workload
from repro.shard.worker import run_cell, worker_main

N_CLIENTS = 16
CELL = 4  # -> 4 cells; drills need the faulty shard to own >= 2
SEED = 7


def _workload():
    return shard_workload(duration_s=1.5, stagger_s=0.25,
                          with_images=False)


def _crash_after_one_cell(conn, workload, shard, attempt, cells,
                          hb_interval_s):
    """Send the first cell's frame whole, then die hard (``os._exit``):
    the drill tests supervision, not stream corruption."""
    conn.send(("cell", shard, attempt, run_cell(workload, *cells[0])))
    os._exit(17)


def _go_silent(conn, workload, shard, attempt, cells, hb_interval_s):
    """No heartbeat, no progress."""
    time.sleep(3600.0)


def _fork_instead(monkeypatch, faulty, *, shard=1, attempts=1):
    """Fork ``faulty`` in place of the worker on ``shard``'s first
    ``attempts`` attempts; later attempts run the real worker."""
    def entry(conn, workload, s, attempt, cells, hb_interval_s):
        run = faulty if s == shard and attempt <= attempts else worker_main
        run(conn, workload, s, attempt, cells, hb_interval_s)

    monkeypatch.setattr(supervisor_module, "worker_main", entry)


def _slow_cells(monkeypatch, delay_s):
    """A wall-clock pause after each cell (widens kill-race windows)."""
    def slow(*args):
        doc = run_cell(*args)
        time.sleep(delay_s)
        return doc

    monkeypatch.setattr(worker_module, "run_cell", slow)


def _run(n_shards=1, **kwargs):
    return run_sharded(N_CLIENTS, n_shards, seed=SEED, cell_clients=CELL,
                       workload=_workload(), **kwargs)


@pytest.fixture(scope="module")
def reference():
    """The undisturbed K=1 run all drills must reproduce."""
    result = _run(n_shards=1)
    assert result.ok and result.completeness == 1.0
    return result


def test_digest_is_shard_count_invariant(reference):
    for k in (2, 4):
        result = _run(n_shards=k)
        assert result.ok
        assert result.digest == reference.digest
        assert result.sessions() == N_CLIENTS


def test_merged_sessions_are_globally_named(reference):
    ids = [o["session_id"] for o in reference.merged["outcomes"]]
    assert ids == [f"sess-{i + 1}" for i in range(N_CLIENTS)]


def test_worker_crash_is_retried_byte_identically(reference, monkeypatch):
    """A worker that dies mid-shard is rerun; the retry's cells are
    byte-identical to the lost attempt, so the digest is undisturbed."""
    _fork_instead(monkeypatch, _crash_after_one_cell)
    result = _run(n_shards=2, backoff_base_s=0.05)
    assert result.ok
    assert result.digest == reference.digest
    status = result.shards[1]
    assert status.retries == 1
    assert any("exited(17)" in f for f in status.failures)


def test_sigkilled_worker_is_retried_byte_identically(reference,
                                                      monkeypatch):
    """The real thing: SIGKILL a live worker process, no cooperation
    from the worker at all."""
    killed = []

    def on_spawn(shard, attempt, proc):
        if shard == 1 and attempt == 1:
            os.kill(proc.pid, signal.SIGKILL)
            killed.append(proc.pid)

    plan = ShardPlan(n_clients=N_CLIENTS, n_shards=2,
                     cell_clients=CELL, seed=SEED)
    _slow_cells(monkeypatch, 0.2)
    supervisor = ShardSupervisor(plan, _workload(), backoff_base_s=0.05,
                                 on_spawn=on_spawn)
    result = supervisor.run()
    assert killed
    assert result.ok
    assert result.digest == reference.digest
    assert result.shards[1].retries >= 1


def test_hung_worker_is_detected_and_retried(reference, monkeypatch):
    _fork_instead(monkeypatch, _go_silent)
    result = _run(
        n_shards=2, heartbeat_interval_s=0.1, heartbeat_timeout_s=0.6,
        backoff_base_s=0.05)
    assert result.ok
    assert result.digest == reference.digest
    assert any("heartbeat-lost" in f
               for f in result.shards[1].failures)


def test_wall_deadline_is_opt_in_and_enforced(monkeypatch):
    """shard_timeout_s is None by default (slow is not dead — only
    stale heartbeats kill); when set, an overrunning shard fails."""
    _slow_cells(monkeypatch, 0.5)
    result = _run(
        n_shards=2, shard_timeout_s=0.3, max_retries=0, tolerate_failures=True)
    assert not result.ok
    assert any("timeout" in f for s in result.shards
               for f in s.failures)


def test_exhausted_retries_degrade_under_tolerate_flag(monkeypatch):
    """fail on every attempt -> the shard's undelivered cells are
    lost, and the run completes as a stamped partial result."""
    _fork_instead(monkeypatch, _crash_after_one_cell, attempts=99)
    result = _run(
        n_shards=2, max_retries=1, backoff_base_s=0.05, tolerate_failures=True)
    assert not result.ok
    assert result.completeness < 1.0
    assert result.missing_cells  # cell 3 never arrived
    assert result.shards[1].status == "failed"
    # the cells that DID arrive are intact and globally consistent
    doc = result.to_dict()
    assert doc["completeness"] == result.completeness
    assert result.sessions() == result.cells_merged * CELL


def test_exhausted_retries_raise_without_tolerate_flag(monkeypatch):
    _fork_instead(monkeypatch, _crash_after_one_cell, attempts=99)
    with pytest.raises(ShardFailure) as excinfo:
        _run(n_shards=2, max_retries=1, backoff_base_s=0.05)
    result = excinfo.value.result
    assert 1 in result.failed_shards
    assert result.completeness < 1.0


def test_interrupt_returns_partial_result_under_tolerate(monkeypatch):
    plan = ShardPlan(n_clients=N_CLIENTS, n_shards=1,
                     cell_clients=CELL, seed=SEED)
    _slow_cells(monkeypatch, 0.4)
    supervisor = ShardSupervisor(plan, _workload(), tolerate_failures=True)
    timer = threading.Timer(0.5, supervisor.request_interrupt)
    timer.start()
    try:
        result = supervisor.run()
    finally:
        timer.cancel()
    assert result.interrupted
    assert not result.ok
    assert result.completeness < 1.0


def test_sigint_tears_down_workers_cleanly(monkeypatch):
    """SIGINT mid-run: the supervisor catches it, kills the worker
    pool (no orphans) and reports an interrupted partial result."""
    plan = ShardPlan(n_clients=N_CLIENTS, n_shards=2,
                     cell_clients=CELL, seed=SEED)
    pids = []
    _slow_cells(monkeypatch, 0.4)
    supervisor = ShardSupervisor(
        plan, _workload(), tolerate_failures=True,
        on_spawn=lambda shard, attempt, proc: pids.append(proc.pid))
    timer = threading.Timer(
        0.5, lambda: os.kill(os.getpid(), signal.SIGINT))
    timer.start()
    try:
        result = supervisor.run()
    finally:
        timer.cancel()
    assert result.interrupted
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


def test_more_shards_than_cells_is_fine(reference):
    result = _run(n_shards=8)  # only 4 cells exist
    assert result.ok
    assert result.digest == reference.digest


# -- a cell runs a Scenario slice ----------------------------------------------


def test_a_fault_scenario_runs_sharded_and_k_invariant():
    """Every cell installs its scenario's fault plan, replica and retry:
    each cell's media server crashes and its watchdog fails the streams
    over to the replica, and the merged digest does not depend on K."""
    k1, k2 = (run_sharded(8, k, cell_clients=4, workload=SCENARIOS["crash"])
              for k in (1, 2))
    assert k1.ok and k2.ok
    assert k1.digest == k2.digest
    recovery = k2.merged["service"]["recovery"]
    assert recovery["detections"] >= k2.cells_total == 2
    assert recovery["streams_failed_over"] > 0


@pytest.mark.parametrize("name", ["cdn_hot", "replica-crash"])
def test_a_cell_refuses_a_topology_it_cannot_place(name):
    """A cell adds its viewers at the core router; a cdn scenario's
    viewers are per-region nodes."""
    with pytest.raises(ValueError, match="topology 'cdn' cannot be sharded"):
        run_cell(SCENARIOS[name], 0, 0, 4, SEED)


#: a shard run in a fresh interpreter: at each spawn, a second child
#: forked from the supervisor (so holding what the worker inherited)
#: runs the worker's cell and reports the ``repro`` modules it imported
_FIRST_CELL_IMPORTS = """
import multiprocessing as mp
import sys

from repro.shard import ShardPlan, ShardSupervisor
from repro.shard.bench import shard_workload
from repro.shard.worker import run_cell

plan = ShardPlan(n_clients=2, n_shards=1, cell_clients=2, seed=7)
workload = shard_workload(duration_s=0.5, stagger_s=0.25, with_images=False)
imported = []


def first_cell(conn):
    before = set(sys.modules)
    run_cell(workload, *plan.worker_cells(0)[0])
    conn.send(sorted(m for m in set(sys.modules) - before
                     if m.startswith("repro")))


def on_spawn(shard, attempt, proc):
    ctx = mp.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    probe = ctx.Process(target=first_cell, args=(send,))
    probe.start()
    send.close()
    imported.append(recv.recv())
    probe.join()


supervisor = ShardSupervisor(plan, workload, on_spawn=on_spawn)
assert "repro.obs.qoe" not in sys.modules  # building one stays cheap
assert supervisor.run().ok
print(imported)
"""


def test_a_worker_inherits_what_its_cells_import():
    """Each forked worker used to import ``repro.obs.qoe`` (and what
    else its first cell needed) by itself: the supervisor now imports it
    once, before the first spawn, and not when it is built."""
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    done = subprocess.run(
        [sys.executable, "-c", _FIRST_CELL_IMPORTS], capture_output=True,
        text=True, timeout=300, env=dict(os.environ, PYTHONPATH=src))
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["[[]]"]
