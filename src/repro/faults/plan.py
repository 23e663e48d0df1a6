"""Declarative, schedulable fault plans.

A :class:`FaultPlan` is a list of frozen fault records, each pinned to
an absolute simulation time. Plans are pure data — they carry no
behaviour — so a bench artifact records its plan as a dict
(:meth:`FaultPlan.to_dict`), and two runs given the same seed and plan
replay identically.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

__all__ = [
    "LinkDownFault",
    "LinkFlapFault",
    "ServerCrashFault",
    "ControlPartitionFault",
    "ControlImpairFault",
    "FaultPlan",
]


@dataclass(frozen=True, slots=True)
class LinkDownFault:
    """Cut the ``src``→``dst`` link (both directions) for a while."""

    src: str
    dst: str
    at: float
    duration_s: float
    kind: str = field(init=False, default="link-down")


@dataclass(frozen=True, slots=True)
class LinkFlapFault:
    """Repeatedly cut and restore a link: ``count`` outages of
    ``down_s`` seconds, one every ``period_s`` starting at ``at``."""

    src: str
    dst: str
    at: float
    period_s: float
    down_s: float
    count: int
    kind: str = field(init=False, default="link-flap")


@dataclass(frozen=True, slots=True)
class ServerCrashFault:
    """Fail-stop one media server for the rest of the run."""

    server: str
    media_server: str
    at: float
    kind: str = field(init=False, default="server-crash")


@dataclass(frozen=True, slots=True)
class ControlPartitionFault:
    """Total control-plane partition: every control message delivered
    during the window is lost (the transport keeps retransmitting, but
    endpoint-level drops defeat it — this is what RPC retry is for)."""

    at: float
    duration_s: float
    kind: str = field(init=False, default="control-partition")


@dataclass(frozen=True, slots=True)
class ControlImpairFault:
    """Lossy/slow control plane: messages are independently dropped
    with ``drop_prob`` and the survivors delayed by ``delay_s`` plus
    uniform jitter in ``[0, jitter_s)``."""

    at: float
    duration_s: float
    drop_prob: float = 0.0
    delay_s: float = 0.0
    jitter_s: float = 0.0
    kind: str = field(init=False, default="control-impair")


Fault = (LinkDownFault | LinkFlapFault | ServerCrashFault
         | ControlPartitionFault | ControlImpairFault)


@dataclass(frozen=True, slots=True)
class FaultPlan:
    """An ordered set of scheduled faults for one run."""

    faults: tuple[Fault, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))
        for f in self.faults:
            self._validate(f)

    @staticmethod
    def _validate(f: Fault) -> None:
        """Reject malformed faults at construction, not mid-run.

        A NaN activation time or a zero-length flap window would not
        crash the injector — it would silently schedule nonsense (a
        NaN comparison is always false; a zero-period flap fires all
        its outages at once) — so the plan refuses them up front with
        a clear error. Target existence (links, servers) is checked
        at ``install_faults`` where the topology is known.
        """

        def positive(name: str, value: float) -> None:
            if not math.isfinite(value) or value <= 0:
                raise ValueError(
                    f"{f.kind}: {name} must be a positive finite "
                    f"number, got {value!r}: {f}")

        def non_negative(name: str, value: float) -> None:
            if not math.isfinite(value) or value < 0:
                raise ValueError(
                    f"{f.kind}: {name} must be a finite number >= 0, "
                    f"got {value!r}: {f}")

        non_negative("at", f.at)
        if isinstance(f, LinkFlapFault):
            positive("period_s", f.period_s)
            positive("down_s", f.down_s)
            if f.count < 1:
                raise ValueError(
                    f"{f.kind}: count must be >= 1, got {f.count}: {f}")
        elif isinstance(f, (LinkDownFault, ControlPartitionFault)):
            positive("duration_s", f.duration_s)
        elif isinstance(f, ControlImpairFault):
            positive("duration_s", f.duration_s)
            non_negative("delay_s", f.delay_s)
            non_negative("jitter_s", f.jitter_s)
            if not 0.0 <= f.drop_prob <= 1.0 or math.isnan(f.drop_prob):
                raise ValueError(
                    f"{f.kind}: drop_prob must be in [0, 1], "
                    f"got {f.drop_prob!r}: {f}")

    def __len__(self) -> int:
        return len(self.faults)

    def __iter__(self):
        return iter(self.faults)

    def to_dict(self) -> dict:
        return {"faults": [asdict(f) for f in self.faults]}
