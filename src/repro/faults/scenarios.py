"""What the chaos scenarios inject: their fault plans, their document and
the retry policy their sessions carry.

The scenarios themselves are rows of the one table,
:data:`repro.obs.bench.SCENARIOS`, run by
:func:`repro.obs.bench.run_scenario` like every other population. The
chaos document keeps its continuous media on a single media server
(``media:``), so a scheduled crash interrupts every active stream at
once.
"""

from __future__ import annotations

from repro.faults.control import RetryPolicy
from repro.faults.plan import (
    ControlImpairFault,
    ControlPartitionFault,
    FaultPlan,
    LinkFlapFault,
    ServerCrashFault,
)

__all__ = ["DEFAULT_RETRY", "chaos_markup", "build_plan"]

#: retry policy used whenever a scenario enables control-path retry
DEFAULT_RETRY = RetryPolicy(timeout_s=1.0, max_attempts=5, backoff=2.0,
                            max_timeout_s=8.0, jitter_frac=0.1)


def chaos_markup(duration_s: float = 6.0) -> str:
    """A synchronized A/V pair with *both* streams on one media server."""
    from repro.hml import DocumentBuilder, serialize

    return serialize(
        DocumentBuilder("Chaos document")
        .text("chaos workload")
        .audio_video("media:/a.au", "media:/v.mpg", "A", "V",
                     startime=0.0, duration=duration_s)
        .build()
    )


def _crash_at(n_clients: int, stagger_s: float, duration_s: float) -> float:
    """A crash instant inside every viewer's active playout window."""
    return (n_clients - 1) * stagger_s + 0.3 * duration_s


def build_plan(name: str, *, n_clients: int, stagger_s: float,
               duration_s: float) -> FaultPlan:
    """The fault schedule ``name`` (``"none"`` is the empty plan) at one
    population shape."""
    crash_at = _crash_at(n_clients, stagger_s, duration_s)
    server_link = ("router", "host:srv1")
    if name == "none":
        return FaultPlan()
    if name == "crash":
        return FaultPlan((
            ServerCrashFault(server="srv1", media_server="media",
                             at=crash_at),
        ))
    if name == "flap":
        return FaultPlan((
            LinkFlapFault(src=server_link[0], dst=server_link[1],
                          at=1.5, period_s=1.2, down_s=0.3, count=3),
        ))
    if name == "partition":
        return FaultPlan((
            ControlPartitionFault(at=0.5 * (n_clients - 1) * stagger_s,
                                  duration_s=1.2),
        ))
    if name == "combo":
        return FaultPlan((
            ControlImpairFault(at=0.5, duration_s=1.5, drop_prob=0.2),
            LinkFlapFault(src=server_link[0], dst=server_link[1],
                          at=1.0, period_s=1.5, down_s=0.25, count=2),
            ServerCrashFault(server="srv1", media_server="media",
                             at=crash_at),
        ))
    if name == "replica-crash":
        return FaultPlan((
            ServerCrashFault(server="srv1", media_server="media@east",
                             at=crash_at),
        ))
    raise KeyError(f"no fault plan named {name!r}")
