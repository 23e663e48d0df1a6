"""Subscription, authentication and pricing primitives (§5, §6.2.1).

"If the user is not a member of the service, the application prompts
the user to fill in a subscription form ... By transmitting the form
to the service's server, the user accepts the pricing policy ... A
database entry of authorized users is updated while the pricing
mechanism is initialized."

The registry also captures the §6.2.1 audit trail: "specific
information about the exact time logged into the service, as well as
the lessons that are retrieved are captured".
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

__all__ = [
    "SubscriptionForm",
    "PricingContract",
    "CONTRACT_CLASSES",
    "UserAccount",
    "QoSPreferences",
    "AccountRegistry",
    "AuthenticationError",
]


class AuthenticationError(Exception):
    """Raised when credentials do not match an authorized user."""


@dataclass(frozen=True, slots=True)
class SubscriptionForm:
    """Personal data collected at subscription (§5)."""

    real_name: str
    address: str
    email: str
    telephone: str = ""

    def __post_init__(self) -> None:
        if not self.real_name.strip():
            raise ValueError("real_name is required")
        if "@" not in self.email:
            raise ValueError(f"invalid email {self.email!r}")


@dataclass(frozen=True, slots=True)
class PricingContract:
    """A pricing class; ``weight`` feeds admission control.

    "A user who pays more should be serviced, even though it affects
    the other users" (§4) — higher weight buys deeper access to the
    admission controller's reserve headroom.
    """

    name: str
    weight: float  # relative service priority, >= 1
    monthly_fee: float
    per_minute_fee: float

    def __post_init__(self) -> None:
        if self.weight < 1.0:
            raise ValueError("contract weight must be >= 1")


CONTRACT_CLASSES: dict[str, PricingContract] = {
    "basic": PricingContract("basic", weight=1.0, monthly_fee=5.0,
                             per_minute_fee=0.02),
    "premium": PricingContract("premium", weight=2.0, monthly_fee=15.0,
                               per_minute_fee=0.015),
    "gold": PricingContract("gold", weight=4.0, monthly_fee=40.0,
                            per_minute_fee=0.01),
}


@dataclass(frozen=True, slots=True)
class QoSPreferences:
    """The user's desired presentation parameters (§2).

    ``video_floor_grade`` / ``audio_floor_grade`` are the deepest
    ladder rungs the user accepts before preferring suspension —
    "taking into account at the same time the user's desired levels
    of presentation quality, as have been expressed during the
    connection request" (§4).
    """

    video_floor_grade: int = 4
    audio_floor_grade: int = 2
    allow_suspend: bool = True

    def __post_init__(self) -> None:
        if self.video_floor_grade < 0 or self.audio_floor_grade < 0:
            raise ValueError("floor grades must be >= 0")


@dataclass(slots=True)
class UserAccount:
    user_id: str
    form: SubscriptionForm
    contract: PricingContract
    credential: str
    #: the quality the user asks for; a new account takes the defaults
    qos: QoSPreferences = field(init=False, default_factory=QoSPreferences)
    #: audit trail: (event, time, detail)
    history: list[tuple[str, float, str]] = field(default_factory=list)
    balance_due: float = 0.0

    def log(self, event: str, time: float, detail: str = "") -> None:
        self.history.append((event, time, detail))


def _credential_for(user_id: str, secret: str) -> str:
    return hashlib.sha256(f"{user_id}:{secret}".encode()).hexdigest()


class AccountRegistry:
    """The coherent, centralized database of authorized users (§6.2.1)."""

    def __init__(self) -> None:
        self._accounts: dict[str, UserAccount] = {}

    def __contains__(self, user_id: str) -> bool:
        return user_id in self._accounts

    def __len__(self) -> int:
        return len(self._accounts)

    def subscribe(
        self,
        user_id: str,
        form: SubscriptionForm,
        secret: str,
        contract: str = "basic",
    ) -> UserAccount:
        """Register a new user; returns the account (with credential)."""
        if user_id in self._accounts:
            raise ValueError(f"user {user_id!r} already subscribed")
        if contract not in CONTRACT_CLASSES:
            raise KeyError(f"unknown contract class {contract!r}")
        account = UserAccount(
            user_id=user_id,
            form=form,
            contract=CONTRACT_CLASSES[contract],
            credential=_credential_for(user_id, secret),
        )
        account.balance_due += account.contract.monthly_fee
        self._accounts[user_id] = account
        return account

    def authenticate(self, user_id: str, secret: str) -> UserAccount:
        """Verify credentials; raises :class:`AuthenticationError`."""
        account = self._accounts.get(user_id)
        if account is None:
            raise AuthenticationError(f"unknown user {user_id!r}")
        if account.credential != _credential_for(user_id, secret):
            raise AuthenticationError(f"bad credential for {user_id!r}")
        return account

    def get(self, user_id: str) -> UserAccount:
        try:
            return self._accounts[user_id]
        except KeyError:
            raise KeyError(f"no account {user_id!r}") from None

    def charge_session(self, user_id: str, minutes: float) -> float:
        """Pricing primitive: bill connection time; returns the charge."""
        account = self.get(user_id)
        charge = minutes * account.contract.per_minute_fee
        account.balance_due += charge
        return charge
