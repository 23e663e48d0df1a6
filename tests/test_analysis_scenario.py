"""Scenario-analyzer rules: each fires on its known-bad fixture, every
shipped scenario lints clean, and the static bandwidth verdict agrees
with the runtime admission controller."""

import os

from repro.analysis import (
    SCENARIO_RULES,
    Severity,
    analyze_document,
    analyze_set,
)
from repro.analysis.corpus import shipped_scenario_sets
from repro.analysis.runner import lint_hml_paths
from repro.analysis.scenario_rules import ScenarioSet
from repro.core.experiments import av_markup
from repro.des import Simulator
from repro.hml import parse
from repro.model import PresentationScenario, check_bandwidth
from repro.server import AccountRegistry, MultimediaDatabase, MultimediaServer
from repro.server.accounts import PricingContract, SubscriptionForm
from repro.server.admission import (
    TICKET_BPS,
    AdmissionController,
    AdmissionRequest,
)
from repro.media.encodings import default_registry
from tests.helpers import add_document

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures", "hml")

CONTRACT = PricingContract("basic", 1.0, 0.0, 0.0)


def fixture(name):
    return os.path.join(FIXTURES, name)


def rule_ids(diags):
    return {d.rule_id for d in diags}


def test_registry_lists_all_scenario_rules():
    assert set(SCENARIO_RULES.ids()) == {
        "scenario-sync-interval", "scenario-link-window",
        "scenario-link-dangling", "scenario-bandwidth",
    }


def test_sync_interval_rule_fires():
    diags = lint_hml_paths([fixture("bad_sync_interval.hml")])
    assert "scenario-sync-interval" in rule_ids(diags)
    bad = [d for d in diags if d.rule_id == "scenario-sync-interval"]
    assert all(d.is_error for d in bad)


def test_link_window_rule_fires():
    diags = lint_hml_paths([fixture("bad_link_window.hml")])
    window = [d for d in diags if d.rule_id == "scenario-link-window"]
    assert len(window) == 1 and window[0].is_error
    assert "outside" in window[0].message


def test_dangling_rule_errors_in_closed_set():
    diags = lint_hml_paths([fixture("dangling_set")], closed=True)
    dangling = [d for d in diags if d.rule_id == "scenario-link-dangling"]
    assert len(dangling) == 1
    assert dangling[0].is_error
    assert "missing-doc" in dangling[0].message


def test_dangling_rule_warns_in_open_set():
    diags = lint_hml_paths([fixture("dangling_set")], closed=False)
    dangling = [d for d in diags if d.rule_id == "scenario-link-dangling"]
    assert len(dangling) == 1
    assert dangling[0].severity is Severity.WARNING


def test_bandwidth_rule_degraded_feasible_is_warning():
    diags = lint_hml_paths([fixture("bad_bandwidth.hml")],
                           capacity_bps=2e6)
    bw = [d for d in diags if d.rule_id == "scenario-bandwidth"]
    assert len(bw) == 1
    assert bw[0].severity is Severity.WARNING
    assert "degradation" in bw[0].message


def test_bandwidth_rule_infeasible_is_error():
    diags = lint_hml_paths([fixture("bad_bandwidth.hml")],
                           capacity_bps=0.5e6)
    bw = [d for d in diags if d.rule_id == "scenario-bandwidth"]
    assert len(bw) == 1
    assert bw[0].is_error


def test_shipped_scenarios_lint_clean():
    sets = shipped_scenario_sets()
    # the builtin corpus plus every example module's hook
    assert {"figure2", "experiment-av", "hermes-routing"} <= set(sets)
    assert {"quickstart", "virtual_gallery", "adaptive_news_service",
            "service_operator", "distance_education"} <= set(sets)
    for sset in sets.values():
        errors = [d for d in analyze_set(sset) if d.is_error]
        assert errors == [], errors


def test_analyze_document_defaults_to_open_singleton_set():
    doc = parse(av_markup(5.0, True))
    diags = analyze_document("solo", doc)
    assert not [d for d in diags if d.is_error]


# -- static verdict vs the runtime admission controller ----------------

def _server_charge(markup: str) -> float:
    """What a live server reserves for a session once it requested
    ``markup``, with capacity to spare."""
    db = MultimediaDatabase()
    add_document(db, "doc", parse(markup))
    server = MultimediaServer(
        Simulator(), "srv1", "host:srv1", db, AccountRegistry(),
        default_registry(), {},
        admission=AdmissionController(100e6, open_fraction=1.0))
    user = server.accounts.subscribe(
        "u", SubscriptionForm(real_name="U", address="x", email="u@e.org"),
        "pw")
    server.connect("s1", user, TICKET_BPS)
    server.fetch_document("s1", "doc")
    return server.admission.granted_bps("s1")


def _peak_and_verdict(markup: str, capacity_bps: float):
    scenario = PresentationScenario.from_markup(markup)
    verdict = check_bandwidth(scenario.schedule, capacity_bps)
    return _server_charge(markup), verdict


def _runtime_admits(peak_bps: float, capacity_bps: float) -> bool:
    # open_fraction=1.0: the whole capacity admits any contract, so
    # the controller's limit equals the analyzer's declared capacity.
    ctrl = AdmissionController(capacity_bps, open_fraction=1.0)
    result = ctrl.decide(AdmissionRequest(
        session_id="s1", user_id="u", contract=CONTRACT,
        required_bw_bps=peak_bps))
    return result.admitted


def test_static_peak_matches_flow_scenario_peak():
    markup = av_markup(10.0, True)
    peak, verdict = _peak_and_verdict(markup, 10e6)
    assert abs(peak - verdict.peak_bps) < 1e-6


def test_bandwidth_verdict_agrees_with_admission_feasible():
    markup = av_markup(10.0, True)  # one A/V pair, ~1.564 Mb/s
    peak, verdict = _peak_and_verdict(markup, 10e6)
    assert verdict.feasible
    assert _runtime_admits(peak, 10e6)


def test_bandwidth_verdict_agrees_with_admission_infeasible():
    markup = av_markup(10.0, True)
    peak, verdict = _peak_and_verdict(markup, 1e6)  # below the pair's rate
    assert not verdict.feasible
    assert not _runtime_admits(peak, 1e6)


def test_degraded_verdict_matches_negotiated_admission():
    markup = av_markup(10.0, True)
    peak, verdict = _peak_and_verdict(markup, 1e6)
    # Statically: infeasible at best grades, feasible at bottom rungs.
    assert not verdict.feasible
    assert verdict.feasible_degraded
    # At runtime the same gap is bridged by negotiating the session
    # down toward its floor instead of rejecting it.
    ctrl = AdmissionController(1e6, open_fraction=1.0)
    result = ctrl.decide(AdmissionRequest(
        session_id="s1", user_id="u", contract=CONTRACT,
        required_bw_bps=peak, min_bw_bps=verdict.degraded_peak_bps))
    assert result.admitted and result.negotiated


def test_closed_set_resolution_across_documents():
    sset = ScenarioSet(
        name="pair",
        documents={
            "a": parse("<TITLE> A </TITLE>\n"
                       "<AU> STARTIME=0 DURATION=2 SOURCE=s:/a.au ID=X "
                       "</AU>\n<HLINK> AT 2 b </HLINK>\n"),
            "b": parse("<TITLE> B </TITLE>\n"
                       "<AU> STARTIME=0 DURATION=2 SOURCE=s:/b.au ID=Y "
                       "</AU>\n"),
        },
        closed=True,
    )
    assert not [d for d in analyze_set(sset) if d.is_error]
