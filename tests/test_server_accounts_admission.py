"""Unit tests for accounts, pricing and admission control."""

import pytest

from repro.server import (
    AccountRegistry,
    AdmissionController,
    AdmissionRequest,
    CONTRACT_CLASSES,
    SubscriptionForm,
)
from repro.server.accounts import AuthenticationError, QoSPreferences


def form(name="Ada Lovelace"):
    return SubscriptionForm(real_name=name, address="1 Analytical St",
                            email="ada@example.org", telephone="555-1")


# ---------------------------------------------------------------- accounts
def test_subscribe_then_authenticate():
    reg = AccountRegistry()
    reg.subscribe("ada", form(), secret="pw", contract="premium")
    account = reg.authenticate("ada", "pw")
    assert account.contract.name == "premium"
    assert account.form == form()
    assert "ada" in reg and len(reg) == 1


def test_authenticate_failures():
    reg = AccountRegistry()
    reg.subscribe("ada", form(), secret="pw")
    with pytest.raises(AuthenticationError, match="unknown user"):
        reg.authenticate("bob", "pw")
    with pytest.raises(AuthenticationError, match="bad credential"):
        reg.authenticate("ada", "wrong")


def test_double_subscription_rejected():
    reg = AccountRegistry()
    reg.subscribe("ada", form(), secret="pw")
    with pytest.raises(ValueError):
        reg.subscribe("ada", form(), secret="pw2")
    with pytest.raises(KeyError):
        reg.subscribe("bob", form("Bob"), secret="x", contract="diamond")


def test_form_validation():
    with pytest.raises(ValueError):
        SubscriptionForm(real_name="", address="a", email="e@x.com")
    with pytest.raises(ValueError):
        SubscriptionForm(real_name="A", address="a", email="not-an-email")


def test_pricing_charges():
    reg = AccountRegistry()
    account = reg.subscribe("ada", form(), secret="pw", contract="basic")
    base = account.balance_due
    assert base == CONTRACT_CLASSES["basic"].monthly_fee
    charge = reg.charge_session("ada", minutes=10.0)
    assert charge == pytest.approx(10 * 0.02)
    assert account.balance_due == pytest.approx(base + charge)


def test_audit_trail():
    reg = AccountRegistry()
    account = reg.subscribe("ada", form(), secret="pw")
    account.log("login", 12.5, "srv1")
    account.log("retrieve", 13.0, "lesson-1")
    account.log("retrieve", 14.0, "lesson-2")
    assert [t for e, t, _ in account.history if e == "login"] == [12.5]
    assert [d for e, _, d in account.history if e == "retrieve"] == \
        ["lesson-1", "lesson-2"]


def test_qos_preferences_validation():
    QoSPreferences(video_floor_grade=2)
    with pytest.raises(ValueError):
        QoSPreferences(video_floor_grade=-1)


def test_contract_weights_ordered():
    assert (CONTRACT_CLASSES["basic"].weight
            < CONTRACT_CLASSES["premium"].weight
            < CONTRACT_CLASSES["gold"].weight)


# ---------------------------------------------------------------- admission
def ctrl(capacity=10e6, open_fraction=0.5):
    return AdmissionController(capacity, open_fraction=open_fraction)


def req(sid, contract_name, bw):
    return AdmissionRequest(session_id=sid, user_id=f"u-{sid}",
                            contract=CONTRACT_CLASSES[contract_name],
                            required_bw_bps=bw)


def test_admission_within_open_pool():
    c = ctrl()
    assert c.decide(req("s1", "basic", 2e6)).admitted
    assert c.decide(req("s2", "basic", 2e6)).admitted
    assert c.utilisation == pytest.approx(0.4)


def test_basic_rejected_beyond_open_fraction():
    c = ctrl()
    assert c.decide(req("s1", "basic", 4e6)).admitted
    r = c.decide(req("s2", "basic", 2e6))  # would hit 6e6 > 5e6 open pool
    assert not r.admitted
    assert "exceeds" in r.reason


def test_paying_user_admitted_where_basic_rejected():
    # "A user who pays more should be serviced."
    c = ctrl()
    assert c.decide(req("s1", "basic", 4.5e6)).admitted
    assert not c.decide(req("s2", "basic", 2e6)).admitted
    assert c.decide(req("s3", "gold", 2e6)).admitted  # full capacity open
    assert c.active_sessions() == 2


def test_premium_gets_intermediate_headroom():
    c = ctrl()
    # premium (weight 2) unlocks 0.5 + 0.5*(1/3) = 2/3 of capacity.
    assert c.decide(req("s1", "basic", 5e6)).admitted
    assert not c.decide(req("s2", "basic", 1e6)).admitted
    assert c.decide(req("s3", "premium", 1.5e6)).admitted
    assert not c.decide(req("s4", "premium", 1e6)).admitted  # > 6.67e6


def test_release_returns_capacity():
    c = ctrl()
    c.decide(req("s1", "basic", 4e6))
    c.release("s1")
    assert c.utilisation == 0.0
    assert c.decide(req("s2", "basic", 4e6)).admitted
    c.release("unknown")  # no-op


def test_admission_stats_by_contract():
    c = ctrl()
    c.decide(req("s1", "basic", 4e6))
    c.decide(req("s2", "basic", 4e6))
    c.decide(req("s3", "gold", 4e6))
    assert c.stats.requests == 3
    assert c.stats.admit_rate("basic") == pytest.approx(0.5)
    assert c.stats.admit_rate("gold") == 1.0
    assert c.stats.admit_rate() == pytest.approx(2 / 3)


def test_admission_validation():
    with pytest.raises(ValueError):
        AdmissionController(0)
    with pytest.raises(ValueError):
        AdmissionController(1e6, open_fraction=0.0)
    c = ctrl()
    with pytest.raises(ValueError):
        req("s1", "basic", 0)
    c.decide(req("s1", "basic", 1e6))
    with pytest.raises(ValueError):
        c.decide(req("s1", "basic", 1e6))  # duplicate session
