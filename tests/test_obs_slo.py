"""SLO gates: rule parsing, evaluation semantics, CLI exit codes."""

import json

import pytest

from repro.__main__ import main
from repro.obs.slo import (
    DEFAULT_SLOS,
    SloRule,
    evaluate,
    flatten_metrics,
    parse_rule,
    parse_spec,
)

ARTIFACT = {
    "schema": "repro.bench",
    "name": "population_clean",
    "sessions": 4,
    "completed": 4,
    "delivered": 3,
    "events": 1000,
    "qoe": {"score": {"p50": 88.0, "p95": 95.0}},
    "service": {
        "admission": {"requests": 4, "rejected": 1,
                      "blocking_prob": 0.25},
        "recovery": {"streams_lost": 0,
                     "time_to_recover_s": {"p95": 0.6}},
        "egress": {"origin_bytes": 5_000_000,
                   "origin_egress_bps": 4e6},
    },
}


# -- parsing ------------------------------------------------------------------

def test_parse_rule_forms():
    assert parse_rule("qoe_p50 >= 70") == SloRule("qoe_p50", ">=", 70.0)
    assert parse_rule("blocking_prob<=0.05") == \
        SloRule("blocking_prob", "<=", 0.05)
    assert parse_rule("origin_egress_bps < 4e7").threshold == 4e7
    assert parse_rule("streams_lost == 0").op == "=="
    assert parse_rule("x != 1  # trailing comment").op == "!="


@pytest.mark.parametrize("bad", ["qoe_p50", ">= 70", "qoe_p50 >= banana",
                                 "qoe_p50 ~ 3"])
def test_parse_rule_rejects_garbage(bad):
    with pytest.raises(ValueError):
        parse_rule(bad)


def test_parse_spec_skips_blanks_and_comments():
    rules = parse_spec(["# full spec", "", "qoe_p50 >= 70",
                        "blocking_prob <= 0.05  # inline"])
    assert [r.metric for r in rules] == ["qoe_p50", "blocking_prob"]


def test_shipped_default_specs_parse():
    for key, spec in DEFAULT_SLOS.items():
        rules = parse_spec(spec)
        assert rules, key


def test_every_run_scenario_has_one_shipped_spec():
    from repro.obs.bench import SCENARIOS

    assert set(DEFAULT_SLOS) == set(SCENARIOS)


# -- flattening + evaluation --------------------------------------------------

def test_flatten_resolves_aliases_and_ratios():
    flat = flatten_metrics(ARTIFACT)
    assert flat["qoe_p50"] == 88.0
    assert flat["blocking_prob"] == 0.25
    assert flat["time_to_recover_p95"] == 0.6
    assert flat["origin_egress_bps"] == 4e6
    assert flat["completed_ratio"] == 1.0
    assert flat["delivered_ratio"] == 0.75
    assert flat["streams_lost"] == 0


def test_evaluate_pass_fail_and_dotted_fallback():
    rules = parse_spec([
        "qoe_p50 >= 70",             # pass
        "blocking_prob <= 0.05",     # fail (0.25)
        "service.admission.requests == 4",  # dotted path, pass
    ])
    checks = evaluate(rules, ARTIFACT)
    assert [c.ok for c in checks] == [True, False, True]
    assert checks[1].value == 0.25


def test_missing_metric_fails_closed():
    checks = evaluate([parse_rule("no_such_metric <= 1")], ARTIFACT)
    assert checks[0].value is None
    assert not checks[0].ok


# -- CLI ----------------------------------------------------------------------

def _write_artifact(tmp_path):
    path = tmp_path / "BENCH_population_clean.json"
    path.write_text(json.dumps(ARTIFACT))
    return str(path)


def test_cli_exit_zero_on_passing_rules(tmp_path, capsys):
    path = _write_artifact(tmp_path)
    rc = main(["slo", "--artifact", path,
               "--rule", "qoe_p50 >= 70",
               "--rule", "completed_ratio >= 0.95"])
    assert rc == 0
    assert "PASS" in capsys.readouterr().out


def test_cli_exit_one_on_violated_spec(tmp_path, capsys):
    path = _write_artifact(tmp_path)
    rc = main(["slo", "--artifact", path,
               "--rule", "blocking_prob <= 0.05"])
    assert rc == 1
    assert "FAIL" in capsys.readouterr().out


def test_cli_default_spec_keyed_by_artifact_name(tmp_path, capsys):
    # population_clean defaults apply; blocking_prob 0.25 violates
    path = _write_artifact(tmp_path)
    rc = main(["slo", "--artifact", path])
    assert rc == 1
    out = capsys.readouterr().out
    assert "spec: population_clean" in out


def test_cli_spec_file(tmp_path, capsys):
    path = _write_artifact(tmp_path)
    spec = tmp_path / "ops.slo"
    spec.write_text("# operator spec\nqoe_p50 >= 70\n"
                    "origin_egress_bps <= 1e7\n")
    rc = main(["slo", "--artifact", path, "--spec-file", str(spec)])
    assert rc == 0
    assert "PASS" in capsys.readouterr().out


def test_cli_rejects_ambiguous_sources(tmp_path):
    path = _write_artifact(tmp_path)
    assert main(["slo", "--artifact", path,
                 "--scenario", "population_clean"]) == 2
    assert main(["slo"]) == 2


def test_cli_json_mode(tmp_path, capsys):
    path = _write_artifact(tmp_path)
    rc = main(["slo", "--artifact", path, "--json",
               "--rule", "qoe_p50 >= 70"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["values"]["violations"] == 0
    assert doc["service_report"]["admission"]["blocking_prob"] == 0.25


def test_a_sharded_bench_run_is_gated_by_its_spec(tmp_path, monkeypatch,
                                                  capsys):
    from repro.obs import slo

    argv = ["bench", "--smoke", "--scenario", "population_clean",
            "--clients", "4", "--shards", "1", "--cell", "4",
            "--out", str(tmp_path)]
    assert main(argv) == 0
    assert "violations: 0" in capsys.readouterr().out
    monkeypatch.setitem(slo.DEFAULT_SLOS, "population_clean",
                        ("qoe_p50 >= 101",))
    assert main(argv) == 1
    assert "violations: 1" in capsys.readouterr().out
