"""Connection admission control (§4).

"This mechanism evaluates a set of parameters concerning the network
and the connection's request options, to decide on connection
admission or rejection ... The above parameters are evaluated in
conjunction with the pricing contract of the specific user (a user
who pays more should be serviced, even though it affects the other
users)."

Model: the controller guards the service's access capacity. A
baseline fraction is open to everyone; the remaining *reserve*
headroom is progressively unlocked by contract weight, so premium
users still get in when the open pool is full.

A connection is admitted on a ticket (:data:`TICKET_BPS` by default);
at ``request-doc`` it re-states its demand as the document's peak
(:meth:`AdmissionController.restate`, the same rule).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.server.accounts import PricingContract

__all__ = ["AdmissionRequest", "AdmissionResult", "AdmissionController",
           "TICKET_BPS"]

#: the connect-time admission ticket a client declares by default
TICKET_BPS = 2e6
#: the contract weight that unlocks the whole capacity
MAX_WEIGHT = 4.0


@dataclass(frozen=True, slots=True)
class AdmissionRequest:
    """Resource demand of one new connection.

    ``min_bw_bps`` is the negotiation floor — the bandwidth of the
    *lowest* quality the user accepts ("the lower thresholds in QoS
    and Quality of Presentation the user is willing to accept", §4).
    When set, the controller may admit the connection *partially*, at
    any bandwidth in [min_bw_bps, required_bw_bps], instead of
    rejecting it outright.
    """

    session_id: str
    user_id: str
    contract: PricingContract
    required_bw_bps: float
    min_bw_bps: float | None = None

    def __post_init__(self) -> None:
        if self.required_bw_bps <= 0:
            raise ValueError("required_bw_bps must be positive")
        if self.min_bw_bps is not None and not (
            0 < self.min_bw_bps <= self.required_bw_bps
        ):
            raise ValueError(
                "min_bw_bps must be in (0, required_bw_bps]"
            )


@dataclass(frozen=True, slots=True)
class AdmissionResult:
    admitted: bool
    reason: str
    reserved_bw_bps: float = 0.0
    negotiated: bool = False  # admitted below the requested bandwidth
    #: granted / requested; callers translate it into an initial grade
    grant_ratio: float = 1.0


@dataclass(slots=True)
class AdmissionStats:
    requests: int = 0
    admitted: int = 0
    rejected: int = 0
    by_contract: dict[str, list[int]] = field(default_factory=dict)

    def record(self, contract: str, admitted: bool) -> None:
        self.requests += 1
        adm, rej = self.by_contract.setdefault(contract, [0, 0])
        if admitted:
            self.admitted += 1
            self.by_contract[contract][0] = adm + 1
        else:
            self.rejected += 1
            self.by_contract[contract][1] = rej + 1

    def admit_rate(self, contract: str | None = None) -> float:
        if contract is None:
            return 0.0 if self.requests == 0 else self.admitted / self.requests
        adm, rej = self.by_contract.get(contract, [0, 0])
        total = adm + rej
        return 0.0 if total == 0 else adm / total


class AdmissionController:
    """Capacity-based CAC with pricing-weighted reserve headroom and
    [KRI 94]-style renegotiation.

    Sessions admitted with a negotiation floor are *negotiable*: when
    a newcomer does not fit, the controller may shrink negotiable
    sessions toward their floors to free capacity (connection-oriented
    service renegotiation for scalable video delivery — the protocol
    the paper cites for dynamically adjustable connections). When a
    session departs, shrunk sessions are re-expanded toward their
    requested bandwidth. ``on_regrant(session_id, new_bw_bps)`` fires
    on every live reallocation so the flow machinery can re-grade.
    """

    def __init__(
        self,
        capacity_bps: float,
        open_fraction: float = 0.7,
        on_regrant=None,
    ) -> None:
        """``open_fraction`` of capacity admits any contract; the rest
        opens linearly with contract weight up to ``MAX_WEIGHT``
        (weight >= MAX_WEIGHT unlocks the full capacity)."""
        if capacity_bps <= 0:
            raise ValueError("capacity_bps must be positive")
        if not (0.0 < open_fraction <= 1.0):
            raise ValueError("open_fraction must be in (0, 1]")
        self.capacity_bps = capacity_bps
        self.open_fraction = open_fraction
        self.on_regrant = on_regrant
        self.reserved_bps = 0.0
        #: session_id -> [granted, min (or granted if fixed), required]
        self._sessions: dict[str, list[float]] = {}
        self.renegotiations = 0
        self.stats = AdmissionStats()

    def _limit_for(self, contract: PricingContract) -> float:
        unlocked = (min(contract.weight, MAX_WEIGHT) - 1.0) / (
            MAX_WEIGHT - 1.0)
        share = self.open_fraction + (1.0 - self.open_fraction) * unlocked
        return self.capacity_bps * share

    def _shrinkable_bps(self) -> float:
        return sum(g - m for g, m, _ in self._sessions.values() if g > m)

    def _shrink(self, needed: float) -> None:
        """Free ``needed`` b/s by shrinking negotiable sessions
        proportionally toward their floors."""
        slack = self._shrinkable_bps()
        if slack <= 0:
            return
        factor = min(1.0, needed / slack)
        for sid, entry in self._sessions.items():
            granted, floor, _req = entry
            give = (granted - floor) * factor
            if give > 0:
                entry[0] = granted - give
                self.reserved_bps -= give
                self.renegotiations += 1
                if self.on_regrant is not None:
                    self.on_regrant(sid, entry[0])

    def _expand(self) -> None:
        """Re-expand shrunk sessions toward their requests with any
        free capacity (the up-direction of [KRI 94])."""
        headroom = self.capacity_bps - self.reserved_bps
        want = sum(r - g for g, _m, r in self._sessions.values() if r > g)
        if headroom <= 0 or want <= 0:
            return
        factor = min(1.0, headroom / want)
        for sid, entry in self._sessions.items():
            granted, _floor, req = entry
            take = (req - granted) * factor
            if take > 0:
                entry[0] = granted + take
                self.reserved_bps += take
                self.renegotiations += 1
                if self.on_regrant is not None:
                    self.on_regrant(sid, entry[0])

    def decide(self, request: AdmissionRequest) -> AdmissionResult:
        """Admit fully, admit partially (negotiating existing
        sessions down if necessary), or reject."""
        if request.session_id in self._sessions:
            raise ValueError(f"session {request.session_id!r} already admitted")
        result = self._decide(request.session_id, request.contract,
                              request.required_bw_bps, request.min_bw_bps)
        self.stats.record(request.contract.name, result.admitted)
        return result

    def restate(self, session_id: str, contract: PricingContract,
                required_bw_bps: float,
                min_bw_bps: float | None = None) -> AdmissionResult:
        """A live session's new demand, decided as :meth:`decide` would
        with its own grant counted as headroom. A refusal leaves its
        grant as it was; the stats counted the session at connect."""
        held = self._sessions.pop(session_id)
        reserved = self.reserved_bps
        self.reserved_bps -= held[0]
        result = self._decide(session_id, contract, required_bw_bps,
                              min_bw_bps)
        if not result.admitted:
            self._sessions[session_id] = held
            self.reserved_bps = reserved
        return result

    def _decide(self, session_id: str, contract: PricingContract,
                required: float, floor: float | None) -> AdmissionResult:
        limit = self._limit_for(contract)
        headroom = limit - self.reserved_bps
        if required <= max(headroom, 0.0):
            granted = required
            result = AdmissionResult(
                admitted=True, reason="admitted", reserved_bw_bps=granted,
            )
        elif floor is not None and floor <= headroom + self._shrinkable_bps():
            # Take the headroom; if that is below the newcomer's floor,
            # renegotiate existing sessions down to make up the rest.
            granted = max(floor, min(required, headroom))
            deficit = granted - headroom
            if deficit > 0:
                self._shrink(deficit)
            result = AdmissionResult(
                admitted=True,
                reason=(
                    f"negotiated down to {granted / 1e6:.2f} Mb/s "
                    f"(requested {required / 1e6:.2f})"
                ),
                reserved_bw_bps=granted,
                negotiated=True,
                grant_ratio=granted / required,
            )
        else:
            return AdmissionResult(
                admitted=False,
                reason=(
                    f"load {(self.reserved_bps + required) / 1e6:.2f} "
                    f"Mb/s exceeds the {contract.name} limit "
                    f"{limit / 1e6:.2f} Mb/s"
                ),
            )
        self.reserved_bps += granted
        self._sessions[session_id] = [
            granted, floor if floor is not None else granted, required,
        ]
        return result

    def headroom_bps(self, session_id: str,
                     contract: PricingContract) -> float:
        """What ``contract``'s limit leaves a live session, its own
        grant counted as free."""
        return (self._limit_for(contract) - self.reserved_bps
                + self.granted_bps(session_id))

    def granted_bps(self, session_id: str) -> float:
        """Current grant of a live session (may change on renegotiation)."""
        try:
            return self._sessions[session_id][0]
        except KeyError:
            raise KeyError(f"no admitted session {session_id!r}") from None

    def release(self, session_id: str) -> None:
        """Return a departing session's reservation to the pool and
        re-expand shrunk sessions."""
        entry = self._sessions.pop(session_id, None)
        if entry is not None:
            self.reserved_bps = max(0.0, self.reserved_bps - entry[0])
            self._expand()

    @property
    def utilisation(self) -> float:
        return self.reserved_bps / self.capacity_bps

    def active_sessions(self) -> int:
        return len(self._sessions)
