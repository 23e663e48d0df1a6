"""Engine and experiment configuration."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.net.service_topology import AccessLinkSpec
from repro.server.qos_manager import GradingPolicy

__all__ = ["TrafficConfig", "EngineConfig"]


@dataclass(frozen=True, slots=True)
class TrafficConfig:
    """One cross-traffic source loading the client's access link."""

    kind: str = "onoff"  # "onoff" | "poisson"
    rate_bps: float = 2e6  # mean rate (poisson) / peak rate (onoff)
    on_mean_s: float = 1.0
    off_mean_s: float = 1.0
    start_at: float = 0.0
    stop_at: float = float("inf")
    packet_bytes: int = 1000
    #: destination client node; None targets the default client, so a
    #: population run can aim congestion at one viewer's access link.
    target: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("onoff", "poisson"):
            raise ValueError(f"unknown traffic kind {self.kind!r}")


@dataclass(frozen=True, slots=True)
class EngineConfig:
    """Knobs of a full-service simulation run."""

    seed: int = 0
    # topology (paper-era broadband access)
    access_rate_bps: float = 10e6  # router -> client (the bottleneck)
    access_queue_packets: int = 60
    #: give the access link an ATM cell layer (§7 future-work testbed)
    atm_access: bool = False
    # optional random loss on the access link
    loss_p_gb: float = 0.0
    loss_p_bg: float = 0.3
    loss_bad: float = 0.3
    # feedback / grading
    rtcp_interval_s: float = 1.0
    #: "periodically or in specifically calculated intervals" (§4):
    #: adaptive reporters shrink the interval under congestion and
    #: relax it when conditions are clear
    rtcp_adaptive: bool = False
    grading_policy: GradingPolicy | None = None
    # client
    time_window_s: float | None = None  # None: statistical sizing
    skew_control: bool = True
    # service
    suspend_grace_s: float = 30.0
    admission_capacity_bps: float = 50e6
    #: merge concurrent requests for the same hot object into one
    #: shared egress flow, fanned out at the viewers' POP
    shared_flows: bool = False
    # cross traffic
    traffic: list[TrafficConfig] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.access_rate_bps <= 0:
            raise ValueError("link rates must be positive")
        if self.rtcp_interval_s <= 0:
            raise ValueError("rtcp_interval_s must be positive")

    def access_link_spec(self, loss_model=None) -> AccessLinkSpec:
        """One client's access-link parameters.

        Population runs stamp out many clients from this template, each
        with its own ``loss_model``.
        """
        return AccessLinkSpec(
            rate_bps=self.access_rate_bps,
            queue_packets=self.access_queue_packets,
            atm=self.atm_access,
            loss_model=loss_model,
        )
