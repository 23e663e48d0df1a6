# lint: allow-file(det-wall-clock)
"""Shard supervision: spawn, probe, retry, tear down, merge.

The supervisor owns K worker processes and treats them as crashable:

* **liveness** — workers heartbeat over their private pipes; a shard
  whose heartbeats go stale (or whose optional wall-clock deadline
  passes) is killed and handled like a crash. Slow is not dead: with
  no deadline set, a shard may take as long as it keeps heartbeating;
* **retry** — a crashed/hung/timed-out shard is relaunched up to
  ``max_retries`` times with exponential backoff plus deterministic
  jitter (drawn from the shard's own seed stream, so two operators
  replaying the same failure schedule get the same pacing). A retry
  re-runs the shard's cells from their seed streams, making it
  byte-identical to the lost attempt;
* **teardown** — SIGINT/SIGTERM flip an interrupt flag; the run loop
  exits and a ``finally`` block terminates every live worker (no
  orphans), restores the previous signal handlers, and — under
  ``tolerate_failures`` — merges whatever cells arrived into a
  partial result stamped ``completeness < 1.0``;
* **degradation** — with retries exhausted, ``tolerate_failures``
  merges the surviving shards instead of aborting; without it the
  run raises :class:`~repro.shard.result.ShardFailure` carrying the
  per-shard failure report.

Transport: one simplex pipe per shard attempt, with the worker as its
sole writer. The parent closes its copy of the write end the moment
the worker has forked, so worker death — clean exit, crash, SIGKILL
mid-message — always surfaces as end-of-file on the read end, never
as a read blocked on a truncated frame. (A shared queue fails exactly
there: a killed writer can wedge every other participant.) A retried
shard gets a fresh pipe, so a lost attempt's stragglers cannot leak
into the new attempt's stream.

Everything here is wall-clock territory (real processes, real
deadlines); determinism lives inside the cells and the merge.
"""

from __future__ import annotations

import multiprocessing as mp
import signal
import time
from multiprocessing import connection as mp_connection
from typing import Any, Callable

import numpy as np

from repro.faults.scenarios import Scenario
from repro.shard.merge import empty_population_doc, merge_cell_docs
from repro.shard.plan import ShardPlan
from repro.shard.result import ShardedRunResult, ShardFailure, ShardStatus
from repro.shard.worker import import_cell_modules, worker_main

__all__ = ["ShardSupervisor"]


class _Shard:
    """Supervisor-side state of one shard."""

    __slots__ = ("status", "cells", "proc", "conn", "attempt", "last_hb",
                 "deadline", "respawn_at", "rng")

    def __init__(self, status: ShardStatus,
                 cells: list[tuple[int, int, int, int]],
                 rng: np.random.Generator) -> None:
        self.status = status
        self.cells = cells  # (cell, lo, hi, seed) tuples
        self.proc: mp.process.BaseProcess | None = None
        #: read end of the current attempt's pipe
        self.conn: mp_connection.Connection | None = None
        self.attempt = 0
        self.last_hb = 0.0
        self.deadline = float("inf")
        self.respawn_at = 0.0
        self.rng = rng


class ShardSupervisor:
    """Runs a :class:`ShardPlan` under supervision; returns the merge."""

    def __init__(
        self,
        plan: ShardPlan,
        workload: Scenario,
        *,
        max_retries: int = 2,
        heartbeat_interval_s: float = 0.5,
        heartbeat_timeout_s: float = 15.0,
        shard_timeout_s: float | None = None,
        backoff_base_s: float = 0.25,
        backoff_max_s: float = 5.0,
        jitter_frac: float = 0.25,
        tolerate_failures: bool = False,
        poll_interval_s: float = 0.05,
        tracer: Any | None = None,
        on_spawn: Callable[[int, int, Any], None] | None = None,
    ) -> None:
        self.plan = plan
        self.workload = workload
        self.max_retries = max_retries
        self.heartbeat_interval_s = heartbeat_interval_s
        self.heartbeat_timeout_s = heartbeat_timeout_s
        #: optional per-attempt wall deadline; None = heartbeats alone
        #: decide liveness (a slow shard that still beats is healthy)
        self.shard_timeout_s = shard_timeout_s
        self.backoff_base_s = backoff_base_s
        self.backoff_max_s = backoff_max_s
        self.jitter_frac = jitter_frac
        self.tolerate_failures = tolerate_failures
        self.poll_interval_s = poll_interval_s
        self.tracer = tracer
        #: test/ops hook called as (shard, attempt, process) after spawn
        self.on_spawn = on_spawn
        self._interrupted = False
        self._t0 = 0.0
        self._shards: list[_Shard] = []

    # -- lifecycle helpers ---------------------------------------------------
    def _now(self) -> float:
        return time.monotonic() - self._t0

    def _emit(self, kind: str, name: str = "", **args: Any) -> None:
        if self.tracer is not None and getattr(self.tracer, "enabled",
                                               True):
            self.tracer.emit(self._now(), kind, name, **args)

    def request_interrupt(self) -> None:
        """Ask the run loop to stop (signal-handler safe)."""
        self._interrupted = True

    def _backoff_s(self, shard: _Shard) -> float:
        base = min(self.backoff_max_s,
                   self.backoff_base_s * (2 ** (shard.status.retries - 1)))
        # Deterministic jitter: the shard's seed stream, not wall
        # entropy, so a replayed failure schedule paces identically.
        return base * (1.0 + self.jitter_frac * float(shard.rng.random()))

    def _spawn(self, shard: _Shard) -> None:
        shard.attempt += 1
        shard.status.attempts = shard.attempt
        shard.status.status = "running"
        now = time.monotonic()
        shard.last_hb = now
        shard.deadline = (now + self.shard_timeout_s
                          if self.shard_timeout_s is not None
                          else float("inf"))
        recv_conn, send_conn = self._ctx.Pipe(duplex=False)
        proc = self._ctx.Process(
            target=worker_main,
            args=(send_conn, self.workload, shard.status.shard,
                  shard.attempt, shard.cells, self.heartbeat_interval_s),
            name=f"shard-{shard.status.shard}",
            daemon=True,  # orphan backstop: dies with the supervisor
        )
        proc.start()
        # Close our copy of the write end IMMEDIATELY: the worker must
        # be the pipe's only writer, and no later-forked sibling may
        # inherit this fd — that is what guarantees EOF on its death.
        send_conn.close()
        shard.proc = proc
        shard.conn = recv_conn
        self._emit("shard.spawn", f"shard-{shard.status.shard}",
                   shard=shard.status.shard, attempt=shard.attempt,
                   cells=len(shard.cells), pid=proc.pid)
        if self.on_spawn is not None:
            self.on_spawn(shard.status.shard, shard.attempt, proc)

    def _close_conn(self, shard: _Shard) -> None:
        if shard.conn is not None:
            try:
                shard.conn.close()
            except OSError:
                pass
            shard.conn = None

    def _fail_attempt(self, shard: _Shard, reason: str) -> None:
        """One attempt died; kill remains, schedule retry or give up."""
        s = shard.status
        s.failures.append(reason)
        if shard.proc is not None and shard.proc.is_alive():
            shard.proc.terminate()
            shard.proc.join(timeout=2.0)
            if shard.proc.is_alive():
                shard.proc.kill()
                shard.proc.join(timeout=2.0)
        shard.proc = None
        self._close_conn(shard)
        self._emit("fault.shard", f"shard-{s.shard}", shard=s.shard,
                   attempt=shard.attempt, reason=reason)
        if s.retries >= self.max_retries:
            s.status = "failed"
            return
        s.retries += 1
        s.status = "retry-wait"
        delay = self._backoff_s(shard)
        shard.respawn_at = time.monotonic() + delay
        self._emit("shard.retry", f"shard-{s.shard}", shard=s.shard,
                   attempt=shard.attempt, backoff_s=round(delay, 3))

    # -- the run loop --------------------------------------------------------
    def run(self) -> ShardedRunResult:
        """Supervise the plan to completion; return the merged result.

        Raises :class:`ShardFailure` when shards fail permanently (or
        the run is interrupted) and ``tolerate_failures`` is off.
        """
        plan = self.plan
        self._t0 = time.monotonic()
        self._ctx = mp.get_context()
        import_cell_modules()  # once here, not once per worker
        self._shards = []
        for s in range(plan.n_shards):
            cells = plan.worker_cells(s)
            status = ShardStatus(shard=s, cells=[c[0] for c in cells])
            rng = np.random.default_rng(plan.shard_seed(s))
            self._shards.append(_Shard(status, cells, rng))

        cell_docs: dict[int, dict] = {}
        attempt_wall: dict[int, float] = {}
        old_int = signal.getsignal(signal.SIGINT)
        old_term = signal.getsignal(signal.SIGTERM)

        def _on_signal(signum: int, frame: Any) -> None:
            self.request_interrupt()

        try:
            signal.signal(signal.SIGINT, _on_signal)
            signal.signal(signal.SIGTERM, _on_signal)
        except ValueError:
            old_int = old_term = None  # not the main thread (tests)

        try:
            for shard in self._shards:
                if shard.cells:
                    self._spawn(shard)
                else:
                    shard.status.status = "done"
            while not self._interrupted:
                self._drain(cell_docs, attempt_wall)
                now = time.monotonic()
                for shard in self._shards:
                    s = shard.status
                    if s.status == "running":
                        if shard.proc is not None \
                                and not shard.proc.is_alive():
                            # Consume everything the dead worker left
                            # in its pipe (racing final messages, then
                            # EOF) before declaring the exit a crash.
                            while shard.conn is not None:
                                self._drain_conn(shard, cell_docs,
                                                 attempt_wall)
                            if s.status != "done":
                                code = shard.proc.exitcode
                                self._fail_attempt(shard,
                                                   f"exited({code})")
                            continue
                        if now - shard.last_hb > self.heartbeat_timeout_s:
                            self._fail_attempt(shard, "heartbeat-lost")
                        elif now > shard.deadline:
                            self._fail_attempt(shard, "timeout")
                    elif s.status == "retry-wait" \
                            and now >= shard.respawn_at:
                        # Discard the lost attempt's cells: the retry
                        # re-runs them byte-identically.
                        for cell, _lo, _hi, _seed in shard.cells:
                            cell_docs.pop(cell, None)
                        self._spawn(shard)
                if all(sh.status.status in ("done", "failed")
                       for sh in self._shards):
                    break
        finally:
            if old_int is not None:
                signal.signal(signal.SIGINT, old_int)
                signal.signal(signal.SIGTERM, old_term)
            self._teardown()

        return self._finish(cell_docs, attempt_wall)

    def _drain(self, cell_docs: dict[int, dict],
               attempt_wall: dict[int, float]) -> None:
        """Service every readable shard pipe (or sleep one poll tick)."""
        by_conn = {shard.conn: shard for shard in self._shards
                   if shard.conn is not None}
        if not by_conn:
            time.sleep(self.poll_interval_s)
            return
        ready = mp_connection.wait(list(by_conn),
                                   timeout=self.poll_interval_s)
        for conn in ready:
            self._drain_conn(by_conn[conn], cell_docs, attempt_wall)

    def _drain_conn(self, shard: _Shard, cell_docs: dict[int, dict],
                    attempt_wall: dict[int, float]) -> None:
        """Dispatch all complete frames currently in one shard's pipe.

        End-of-file — including mid-frame, the SIGKILL-during-send
        case — closes the pipe; the run loop's liveness checks decide
        what the death means. A frame whose first bytes have arrived
        blocks only until its live writer finishes the send.
        """
        while shard.conn is not None:
            try:
                if not shard.conn.poll(0):
                    return
                msg = shard.conn.recv()
            except (EOFError, OSError):
                self._close_conn(shard)
                return
            tag, _shard_idx, attempt = msg[0], msg[1], msg[2]
            if attempt != shard.attempt:
                continue  # straggler from a superseded attempt
            if tag == "hb":
                shard.last_hb = time.monotonic()
            elif tag == "cell":
                shard.last_hb = time.monotonic()
                cell_docs[msg[3]["cell"]] = msg[3]
            elif tag == "done":
                s = shard.status
                s.status = "done"
                s.wall_s = msg[3]
                attempt_wall[s.shard] = msg[3]
                self._emit("shard.exit", f"shard-{s.shard}",
                           shard=s.shard, attempt=attempt,
                           wall_s=round(msg[3], 3))
                if shard.proc is not None:
                    shard.proc.join(timeout=5.0)
                self._close_conn(shard)
            elif tag == "fatal":
                self._fail_attempt(shard, f"exception: {msg[3]}")

    def _teardown(self) -> None:
        """Kill every live worker and close every pipe — no orphans."""
        for shard in self._shards:
            proc = shard.proc
            if proc is not None and proc.is_alive():
                proc.terminate()
                proc.join(timeout=2.0)
                if proc.is_alive():
                    proc.kill()
                    proc.join(timeout=2.0)
            shard.proc = None
            self._close_conn(shard)

    def _finish(self, cell_docs: dict[int, dict],
                attempt_wall: dict[int, float]) -> ShardedRunResult:
        from repro.faults.digest import population_digest

        plan = self.plan
        wall_s = time.monotonic() - self._t0
        docs = [cell_docs[c] for c in sorted(cell_docs)]
        missing = [c for c in range(plan.n_cells) if c not in cell_docs]
        merged_clients = sum(d["hi"] - d["lo"] for d in docs)
        completeness = merged_clients / plan.n_clients
        merged = merge_cell_docs(docs) if docs else empty_population_doc()
        digest = population_digest(merged)
        self._emit("shard.merge", "merge", cells=len(docs),
                   missing=len(missing),
                   completeness=round(completeness, 4))
        result = ShardedRunResult(
            clients=plan.n_clients,
            cell_clients=plan.cell_clients,
            n_shards=plan.n_shards,
            seed=plan.seed,
            merged=merged,
            digest=digest,
            completeness=completeness,
            cells_total=plan.n_cells,
            cells_merged=len(docs),
            missing_cells=missing,
            shards=[sh.status for sh in self._shards],
            events=sum(d["events"] for d in docs),
            wall_s=wall_s,
            cpu_wall_s=sum(d["wall_s"] for d in docs),
            interrupted=self._interrupted,
        )
        if not result.ok and not self.tolerate_failures:
            failed = result.failed_shards
            what = "interrupted" if self._interrupted else (
                f"shards {failed} exhausted retries")
            raise ShardFailure(
                f"sharded run incomplete ({what}): merged "
                f"{result.cells_merged}/{result.cells_total} cells, "
                f"completeness {completeness:.3f}; rerun with "
                f"tolerate_failures to accept a partial result",
                result,
            )
        return result
