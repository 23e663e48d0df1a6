"""Control-path fault machinery: drop/delay state, retry, heartbeats.

The reliable control transport (go-back-N) retransmits forever, so a
*network* outage only delays control RPCs. What it cannot survive is
endpoint-level loss — a partitioned or crashed peer — which is what
:class:`ControlFaultState` models and :class:`RetryPolicy` plus
:class:`HeartbeatMonitor` defend against.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.des import Interrupt, Simulator
from repro.service.messages import ControlEndpoint

__all__ = ["ControlFaultState", "RetryPolicy", "HeartbeatMonitor"]

#: a heartbeat monitor probes this often, waits this long for the ack,
#: and declares failure after this many misses in a row
HEARTBEAT_INTERVAL_S = 0.5
HEARTBEAT_TIMEOUT_S = 0.4
HEARTBEAT_MISS_LIMIT = 2


class ControlFaultState:
    """Shared drop/delay switch applied to control endpoints.

    The injector flips ``partitioned``/``impaired`` at the scheduled
    fault times; every endpoint carrying ``fault = state`` consults
    :meth:`decide` per delivered message. The RNG is drawn **only
    while a fault window is open**, so installing the state with an
    empty plan perturbs nothing.
    """

    def __init__(self, rng) -> None:
        self.rng = rng
        self.partitioned = False
        self.impaired = False
        self.drop_prob = 0.0
        self.delay_s = 0.0
        self.jitter_s = 0.0

    def impair(self, drop_prob: float, delay_s: float,
               jitter_s: float) -> None:
        self.impaired = True
        self.drop_prob = drop_prob
        self.delay_s = delay_s
        self.jitter_s = jitter_s

    def clear_impair(self) -> None:
        self.impaired = False
        self.drop_prob = 0.0
        self.delay_s = 0.0
        self.jitter_s = 0.0

    def decide(self, now: float) -> tuple[str, float]:
        """("pass" | "drop" | "delay", delay_s) for one message."""
        if self.partitioned:
            return "drop", 0.0
        if not self.impaired:
            return "pass", 0.0
        if self.drop_prob > 0 and self.rng.random() < self.drop_prob:
            return "drop", 0.0
        delay = self.delay_s
        if self.jitter_s > 0:
            delay += self.jitter_s * float(self.rng.random())
        if delay > 0:
            return "delay", delay
        return "pass", 0.0


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """Timeout + exponential backoff + deterministic jitter for RPCs."""

    timeout_s: float = 2.0
    max_attempts: int = 4
    backoff: float = 2.0
    max_timeout_s: float = 15.0
    #: each backoff step is scaled by ``1 ± jitter_frac * u``, u drawn
    #: from the session's seeded retry stream — desynchronises client
    #: herds without breaking replay
    jitter_frac: float = 0.1

    def __post_init__(self) -> None:
        if self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")

    def next_timeout(self, current_s: float, rng=None) -> float:
        nxt = min(current_s * self.backoff, self.max_timeout_s)
        if rng is not None and self.jitter_frac > 0:
            nxt *= 1.0 + self.jitter_frac * (2.0 * float(rng.random()) - 1.0)
        return nxt


class HeartbeatMonitor:
    """Periodic liveness probing over a control endpoint.

    Sends an ``hb`` request every ``HEARTBEAT_INTERVAL_S``; the remote
    endpoint acks at the transport layer (see ControlEndpoint), so a
    missing ack within ``HEARTBEAT_TIMEOUT_S`` means the path or peer is
    gone, not just busy. ``HEARTBEAT_MISS_LIMIT`` consecutive misses
    declare failure (``hb.fail``) once per outage; a later ack clears
    the state (``hb.ok``).
    """

    def __init__(self, sim: Simulator, endpoint: ControlEndpoint,
                 name: str = "") -> None:
        self.sim = sim
        self.endpoint = endpoint
        self.name = name or endpoint.name
        self.misses = 0
        self.consecutive_misses = 0
        self.failed = False
        self._stopped = False
        self.process = sim.process(self._run(), name=f"hb:{self.name}")

    def stop(self) -> None:
        self._stopped = True
        if self.process.is_alive:
            self.process.interrupt("monitor stopped")

    def _run(self):
        sim = self.sim
        try:
            while not self._stopped:
                yield sim.timeout(HEARTBEAT_INTERVAL_S)
                if self._stopped:
                    return
                _, ev = self.endpoint.request("hb", {})
                yield sim.any_of([ev, sim.timeout(HEARTBEAT_TIMEOUT_S)])
                if ev.triggered:
                    if self.failed:
                        self.failed = False
                        if sim._tracing:
                            sim._tracer.emit(sim.now, "hb.ok", self.name)
                    self.consecutive_misses = 0
                else:
                    self.misses += 1
                    self.consecutive_misses += 1
                    if sim._tracing:
                        sim._tracer.emit(sim.now, "hb.miss", self.name,
                                         consecutive=self.consecutive_misses)
                    if (self.consecutive_misses >= HEARTBEAT_MISS_LIMIT
                            and not self.failed):
                        self.failed = True
                        if sim._tracing:
                            sim._tracer.emit(sim.now, "hb.fail", self.name,
                                             misses=self.consecutive_misses)
        except Interrupt:
            return
