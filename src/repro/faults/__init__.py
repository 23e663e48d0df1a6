"""Deterministic fault injection and recovery.

The paper's service is built to survive degraded delivery (skew
control, media-quality grading, suspend-grace navigation); this
package makes *component failure* a schedulable, reproducible workload
dimension on top of those mechanisms:

* :mod:`repro.faults.plan` — declarative :class:`FaultPlan`: link
  down/flap, media-server crash/restart, control-channel partition
  and impairment, all pinned to the DES clock;
* :mod:`repro.faults.injector` — installs a plan on a
  :class:`~repro.core.engine.ServiceEngine` before a run;
* :mod:`repro.faults.control` — control-path machinery: endpoint
  drop/delay state, RPC retry policy, heartbeat monitoring;
* :mod:`repro.faults.recovery` — media-server failure detection and
  stream failover to replicas (or the restarted primary);
* :mod:`repro.faults.digest` — canonical result hashing for
  determinism assertions;
* :mod:`repro.faults.scenarios` — the one scenario table
  (:data:`~repro.faults.scenarios.SCENARIOS`: the service baselines
  and the chaos runs), its fault plans, chaos document and retry
  policy, and the engine builder every population run uses.

Everything is driven by the engine's seeded RNG registry: identical
seed + identical plan reproduces identical outcomes, and an empty
plan leaves a run byte-identical to one without the subsystem.
"""

from repro.faults.control import ControlFaultState, HeartbeatMonitor, RetryPolicy
from repro.faults.digest import population_digest
from repro.faults.injector import FaultInjector
from repro.faults.plan import (
    ControlImpairFault,
    ControlPartitionFault,
    FaultPlan,
    LinkDownFault,
    LinkFlapFault,
    ServerCrashFault,
)
from repro.faults.recovery import MediaWatchdog

__all__ = [
    "FaultPlan",
    "LinkDownFault",
    "LinkFlapFault",
    "ServerCrashFault",
    "ControlPartitionFault",
    "ControlImpairFault",
    "FaultInjector",
    "ControlFaultState",
    "RetryPolicy",
    "HeartbeatMonitor",
    "MediaWatchdog",
    "population_digest",
]
