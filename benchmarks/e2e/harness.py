# lint: allow-file(det-wall-clock)
# (measuring host time is this file's job)
"""Measurement primitives of the e2e benchmark; imports nothing from repro.

Host time on a shared 2-vCPU box wanders by tens of percent between
windows, so CPU seconds of the program are never reported alone: every
timed repetition is bracketed by a fixed calibration loop and its cost
is the ratio of the two (unit ``cal``). See README.md, "Calibration".
"""

from __future__ import annotations

import contextlib
import gc
import heapq
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from typing import Any, Callable, Iterator

CAL_POPS = 300_000
CAL_PROCS = 32
#: CPU seconds one calibration loop takes on this class of host in a
#: quiet period; turns a cost in ``cal`` back into reference-host seconds
CAL_REF_S = 0.25


class _CalEvent:
    __slots__ = ("callbacks", "value")

    def __init__(self) -> None:
        self.callbacks: list | None = []
        self.value = None


def _ticker(period: float) -> Iterator[float]:
    while True:
        yield period


def calibration_loop() -> None:
    """A mini-DES with the kernel's instruction mix and a small heap.

    ``CAL_PROCS`` generators reschedule themselves through slotted event
    objects with callback lists on a ``heapq`` of ``(time, seq, event)``
    tuples. The working set stays at that many entries on purpose: in
    the sizing behind the benchmark a large-heap variant tracked the
    simulator 5x worse (26% spread against 5%), because it measures the
    cache, not the interpreter.
    """
    heap: list[tuple[float, int, _CalEvent]] = []
    seq = 0

    def schedule(at: float, gen: Iterator[float]) -> None:
        nonlocal seq
        event = _CalEvent()
        event.callbacks.append(lambda now: schedule(now + next(gen), gen))
        seq += 1
        heapq.heappush(heap, (at, seq, event))

    for i in range(CAL_PROCS):
        schedule(0.0, _ticker(0.001 * (i + 1)))
    for _ in range(CAL_POPS):
        now, _seq, event = heapq.heappop(heap)
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(now)


def cpu_seconds() -> float:
    """CPU of this process plus every child it has reaped so far."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """High-water RSS, the larger of this process and any reaped child."""
    kb = max(resource.getrusage(who).ru_maxrss
             for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return kb / 1024.0


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``; a single sample is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def rel_iqr(values: list[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


class Spans:
    """In-memory span log, written out as a Chrome trace at the end."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: list[dict[str, Any]] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **args: Any) -> Iterator[dict[str, Any]]:
        record = {"id": len(self.spans), "name": name, "track": 0,
                  "parent": self._stack[-1] if self._stack else None,
                  "start": time.perf_counter(), "end": None, "args": args}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def add(self, name: str, start: float, end: float, parent: int,
            track: int, **args: Any) -> None:
        """A span reconstructed from what a callee reported.

        It gets a display track of its own, since reported durations
        need not nest inside the parent's slice.
        """
        self.spans.append({"id": len(self.spans), "name": name,
                           "track": track, "parent": parent,
                           "start": start, "end": end, "args": args})

    def to_chrome(self) -> dict[str, Any]:
        t0 = min((s["start"] for s in self.spans), default=0.0)
        events = []
        for s in self.spans:
            events.append({
                "name": s["name"], "ph": "X", "pid": 1, "tid": s["track"],
                "ts": (s["start"] - t0) * 1e6,
                "dur": (s["end"] - s["start"]) * 1e6,
                "args": dict(s["args"], id=s["id"], parent=s["parent"],
                             workload=self.workload),
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}


def calibration_cpu_s() -> float:
    c0 = time.process_time()
    calibration_loop()
    return time.process_time() - c0


def timed_calibration(spans: Spans) -> float:
    with spans.span("calibrate"):
        return calibration_cpu_s()


def calibrated_repetitions(
    run_once: Callable[[int], dict[str, Any]],
    spans: Spans,
    seconds: float,
    min_reps: int = 3,
) -> list[dict[str, Any]]:
    """Repeat ``run_once`` while one more fits in ``seconds``.

    ``run_once(rep)`` returns a dict that carries at least ``cpu_s``;
    this adds ``cal_s`` (mean of the two bracketing calibrations) and
    ``ratio`` (``cpu_s / cal_s``). Neighbouring repetitions share the
    calibration between them.
    """
    t_end = time.perf_counter() + seconds
    reps: list[dict[str, Any]] = []
    before = timed_calibration(spans)
    took = 0.0  # wall of the last repetition with its calibration
    while len(reps) < min_reps or time.perf_counter() + took < t_end:
        t0 = time.perf_counter()
        gc.collect()
        rep = run_once(len(reps))
        after = timed_calibration(spans)
        rep["cal_s"] = (before + after) / 2.0
        rep["ratio"] = rep["cpu_s"] / rep["cal_s"]
        reps.append(rep)
        before = after
        took = time.perf_counter() - t0
    return reps


def host_stamp() -> dict[str, Any]:
    affinity = (sorted(os.sched_getaffinity(0))
                if hasattr(os, "sched_getaffinity") else None)
    return {
        "cpu_count": os.cpu_count(),
        "affinity": affinity,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "executable": sys.executable,
    }


def git_commit(root: str) -> str | None:
    """HEAD of the checkout at ``root``; None when it is not a git repo."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        out = subprocess.run(
            ["git", "-C", root, "rev-parse", "HEAD"], env=env,
            capture_output=True, text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None
