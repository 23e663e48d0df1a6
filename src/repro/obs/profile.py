# lint: allow-file(det-wall-clock)
"""Opt-in DES kernel profiler: where does the wall time go?

The kernel speed program (ROADMAP item 2) needs attribution before
optimisation. A :class:`KernelProfiler` sets the dispatch hook of one
:class:`~repro.des.kernel.Simulator` *instance* (and wraps its
``run``) — the kernel's one seam for observers of single steps. An
uninstalled simulator keeps its inline run loop, so the hook costs
exactly nothing when off. Installed, ``run()`` falls back to
``step()``, which pops, advances the clock and hands each heap entry
here; the profiler fires it, times it and charges it to its entry
kind (Timeout, Call, Process...) and to its handler: ``process:<name>``
for a process resumption, otherwise the qualified name of the callback
or of the function ``call_later`` / ``call_at`` scheduled
(``Link._propagated``, ``ReliableSender._on_timer``).

Wall-clock reads are deliberate here — a profiler measures real time
by definition — and never feed back into simulation state, so
determinism is untouched (file-wide ``det-wall-clock`` pragma above).

Outputs: a hot-spot table, a collapsed-stack export (one
``kernel;<kind>;<handler> <microseconds>`` line per stack, the format
flamegraph.pl and speedscope ingest directly) and a
``PROFILE_<name>.json`` artifact via ``python -m repro profile`` or
``bench --profile``.
"""

from __future__ import annotations

import os
import time
from typing import TYPE_CHECKING, Any

from repro.des.kernel import entry_kind
from repro.ioutil import atomic_write_text

if TYPE_CHECKING:
    from repro.analysis.report import Reporter

__all__ = ["KernelProfiler", "PROFILE_SCHEMA", "PROFILE_SCHEMA_VERSION",
           "profile_command"]

PROFILE_SCHEMA = "repro.profile"
PROFILE_SCHEMA_VERSION = 1


def _handler_name(cb: Any) -> str:
    """A stable, human-readable label for one event callback."""
    self_obj = getattr(cb, "__self__", None)
    if self_obj is not None:
        name = getattr(self_obj, "name", None)
        if name is not None and getattr(cb, "__name__", "") == "_resume":
            return f"process:{name}"
        return f"{type(self_obj).__name__}.{getattr(cb, '__name__', '?')}"
    qualname = getattr(cb, "__qualname__", None)
    if qualname:
        return qualname
    return repr(cb)


class KernelProfiler:
    """Attributes kernel wall time per event kind and per handler."""

    def __init__(self) -> None:
        self._sim: Any = None
        self._orig_run: Any = None
        #: event kind -> [count, nanoseconds] (whole-step time)
        self.per_kind: dict[str, list[int]] = {}
        #: (event kind, handler) -> [count, nanoseconds]
        self.per_handler: dict[tuple[str, str], list[int]] = {}
        #: total wall time spent inside ``run()`` (ns)
        self.kernel_ns = 0
        self.steps = 0
        #: end timestamp of the previous step within the current
        #: run() — lets a step absorb the loop overhead that led to
        #: it, so per-kind attribution covers the whole run loop
        self._last_end: int | None = None

    # -- install / uninstall ------------------------------------------------
    @property
    def installed(self) -> bool:
        return self._sim is not None

    def install(self, sim: Any) -> "KernelProfiler":
        """Hook one simulator instance; returns self for chaining."""
        if self._sim is not None:
            raise RuntimeError("profiler is already installed")
        if sim._running:
            # run() decided at its start whether to observe steps.
            raise RuntimeError("cannot install the profiler during run()")
        self._sim = sim
        self._orig_run = sim.run
        sim._dispatch_hook = self._dispatch
        sim.run = self._profiled_run
        return self

    def uninstall(self) -> None:
        """Clear the hook and restore the simulator's ``run``."""
        if self._sim is None:
            return
        self._sim._dispatch_hook = None
        # Deleting the instance attribute re-exposes the class method,
        # leaving the simulator exactly as it was built.
        del self._sim.run
        self._sim = None
        self._orig_run = None

    # -- kernel hooks ---------------------------------------------------------
    def _dispatch(self, fn: Any, args: tuple[Any, ...]) -> None:
        """The kernel's dispatch hook: fire one heap entry and time it.

        The whole firing is charged to the entry's handler; the rare
        event with several callbacks gets their names joined by ``+``.
        """
        kind = entry_kind(fn)
        handlers = ((fn,) if kind == "Call"
                    else tuple(fn.__self__.callbacks or ()))
        c0 = time.perf_counter_ns()
        # Charge from the previous step's end when inside run(), so
        # the heap pop and the run loop's own bookkeeping land on some
        # entry kind instead of vanishing from the attribution.
        start = self._last_end if self._last_end is not None else c0
        fn(*args)
        t1 = time.perf_counter_ns()
        if handlers:
            key = (kind, "+".join(map(_handler_name, handlers)))
            rec = self.per_handler.get(key)
            if rec is None:
                rec = self.per_handler[key] = [0, 0]
            rec[0] += 1
            rec[1] += t1 - c0
        krec = self.per_kind.get(kind)
        if krec is None:
            krec = self.per_kind[kind] = [0, 0]
        krec[0] += 1
        krec[1] += t1 - start
        if self._last_end is not None:
            self._last_end = t1
        self.steps += 1

    def _profiled_run(self, until: Any = None) -> Any:
        t0 = time.perf_counter_ns()
        self._last_end = t0
        try:
            return self._orig_run(until)
        finally:
            self.kernel_ns += time.perf_counter_ns() - t0
            self._last_end = None

    # -- results ------------------------------------------------------------
    @property
    def attributed_ns(self) -> int:
        """Nanoseconds charged to some event kind (step-time sum)."""
        return sum(ns for _, ns in self.per_kind.values())

    @property
    def coverage(self) -> float:
        """Attributed fraction of measured kernel time (target >=0.95)."""
        if self.kernel_ns <= 0:
            return 1.0 if self.attributed_ns == 0 else 0.0
        return min(1.0, self.attributed_ns / self.kernel_ns)

    def hotspots(self, top: int = 15) -> list[dict[str, Any]]:
        """The costliest (kind, handler) pairs, hottest first."""
        rows = [
            {
                "kind": kind,
                "handler": handler,
                "count": count,
                "total_us": ns / 1e3,
                "mean_us": (ns / count) / 1e3 if count else 0.0,
            }
            for (kind, handler), (count, ns) in self.per_handler.items()
        ]
        rows.sort(key=lambda r: (-r["total_us"], r["kind"], r["handler"]))
        return rows[:top]

    def kind_table(self) -> list[dict[str, Any]]:
        """Per-event-kind attribution, hottest first."""
        total = self.attributed_ns or 1
        rows = [
            {
                "kind": kind,
                "count": count,
                "total_us": ns / 1e3,
                "mean_us": (ns / count) / 1e3 if count else 0.0,
                "share": ns / total,
            }
            for kind, (count, ns) in self.per_kind.items()
        ]
        rows.sort(key=lambda r: (-r["total_us"], r["kind"]))
        return rows

    def collapsed_stacks(self) -> list[str]:
        """Flamegraph-compatible lines: ``kernel;kind;handler <us>``.

        Kernel overhead not spent in any callback (heap pop, clock
        bookkeeping) folds into a ``kernel;<kind>;(kernel)`` frame so
        the flame graph's total matches the per-kind attribution.
        """
        lines = []
        handler_ns_by_kind: dict[str, int] = {}
        for (kind, handler), (_count, ns) in sorted(
                self.per_handler.items()):
            lines.append(f"kernel;{kind};{handler} {max(1, ns // 1000)}")
            handler_ns_by_kind[kind] = handler_ns_by_kind.get(kind, 0) + ns
        for kind in sorted(self.per_kind):
            _, kind_ns = self.per_kind[kind]
            overhead = kind_ns - handler_ns_by_kind.get(kind, 0)
            if overhead > 0:
                lines.append(f"kernel;{kind};(kernel) "
                             f"{max(1, overhead // 1000)}")
        return lines

    def to_artifact(self, name: str, extra: dict[str, Any] | None = None
                    ) -> dict[str, Any]:
        """The ``PROFILE_<name>.json`` document."""
        doc: dict[str, Any] = {
            "schema": PROFILE_SCHEMA,
            "version": PROFILE_SCHEMA_VERSION,
            "name": name,
            "steps": self.steps,
            "kernel_ms": self.kernel_ns / 1e6,
            "attributed_ms": self.attributed_ns / 1e6,
            "coverage": self.coverage,
            "by_kind": self.kind_table(),
            "hotspots": self.hotspots(),
            "collapsed_stacks": self.collapsed_stacks(),
        }
        if extra:
            doc.update(extra)
        return doc


def profile_command(report: Reporter, *, smoke: bool, scenario: list[str],
                    out: str, top: int) -> int:
    """``repro profile``: kernel attribution over bench scenarios."""
    from repro.obs.bench import bench_scenario, run_scenario

    scenarios = [bench_scenario(name)
                 for name in scenario or ["population_clean"]]
    os.makedirs(out, exist_ok=True)
    for bench in scenarios:
        name = bench.name
        prof = run_scenario(bench, smoke=smoke, profile=True)["profile"]
        out_path = os.path.join(out, f"PROFILE_{name}.json")
        report.artifact(f"profile:{name}", out_path, prof)
        collapsed_path = os.path.join(out, f"PROFILE_{name}.collapsed.txt")
        atomic_write_text(
            collapsed_path,
            "".join(line + "\n" for line in prof["collapsed_stacks"]))
        report.value(f"collapsed:{name}", collapsed_path)
        report.table(
            f"Kernel time by event kind — {name}"
            + (" (smoke)" if smoke else ""),
            ["kind", "count", "total_us", "mean_us", "share"],
            [[r["kind"], r["count"], f"{r['total_us']:.0f}",
              f"{r['mean_us']:.2f}", f"{r['share']:.1%}"]
             for r in prof["by_kind"]],
        )
        report.table(
            f"Hot spots — {name}",
            ["kind", "handler", "count", "total_us", "mean_us"],
            [[r["kind"], r["handler"], r["count"],
              f"{r['total_us']:.0f}", f"{r['mean_us']:.2f}"]
             for r in prof["hotspots"][:top]],
        )
        report.value(f"kernel_ms:{name}", round(prof["kernel_ms"], 2))
        report.value(f"coverage:{name}", round(prof["coverage"], 4))
    return 0
