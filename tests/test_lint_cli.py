"""End-to-end ``python -m repro lint`` behaviour: exit codes, JSON
output, rule listing."""

import json
import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURES = os.path.join(REPO, "tests", "fixtures")


def run_lint(*args):
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    return subprocess.run(
        [sys.executable, "-m", "repro", "lint", *args],
        capture_output=True, text=True, env=env, cwd=REPO, timeout=300,
    )


def test_self_lint_exits_zero():
    proc = run_lint("--self")
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_scenarios_lint_exits_zero():
    proc = run_lint("--scenarios")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "shipped scenarios" in proc.stdout


def test_bad_fixture_exits_nonzero():
    proc = run_lint(os.path.join(FIXTURES, "hml", "bad_link_window.hml"))
    assert proc.returncode == 1
    assert "scenario-link-window" in proc.stdout


def test_warning_only_run_exits_zero():
    proc = run_lint(os.path.join(FIXTURES, "lint", "bad_port_pairing.py"))
    assert proc.returncode == 0
    assert "det-port-pairing" in proc.stdout


def test_python_fixture_errors_exit_nonzero():
    proc = run_lint(os.path.join(FIXTURES, "lint", "bad_wall_clock.py"))
    assert proc.returncode == 1
    assert "det-wall-clock" in proc.stdout


def test_json_output_is_machine_readable():
    proc = run_lint(os.path.join(FIXTURES, "lint", "bad_wall_clock.py"),
                    "--json")
    assert proc.returncode == 1
    doc = json.loads(proc.stdout)
    assert doc  # one structured document, not free text


def test_list_rules_names_all_families():
    proc = run_lint("--list-rules")
    assert proc.returncode == 0
    for rule in ("det-wall-clock", "det-global-random",
                 "det-unordered-iter", "det-tracer-guard",
                 "det-port-pairing", "scenario-sync-interval",
                 "scenario-link-window", "scenario-link-dangling",
                 "scenario-bandwidth",
                 # PR 10 families: taint, trace-schema
                 "det-taint", "trace-unknown-kind",
                 "trace-field-mismatch", "trace-detail-guard",
                 "trace-unused-kind", "trace-dynamic-kind"):
        assert rule in proc.stdout


def test_github_format_emits_annotations():
    proc = run_lint(os.path.join(FIXTURES, "lint", "bad_wall_clock.py"),
                    "--format", "github")
    assert proc.returncode == 1
    assert "::error file=" in proc.stdout
    assert "line=" in proc.stdout
    assert "[det-wall-clock]" in proc.stdout


def test_unknown_format_rejected():
    proc = run_lint("--self", "--format", "sarif")
    assert proc.returncode == 2


def test_new_family_fixture_fails_via_cli():
    proc = run_lint(os.path.join(FIXTURES, "lint", "bad_taint_chain.py"))
    assert proc.returncode == 1
    assert "det-taint" in proc.stdout


def test_pragma_is_the_one_suppression(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("import time\ndef f():\n    return time.time()\n")
    assert run_lint(str(bad)).returncode == 1
    bad.write_text("import time\ndef f():\n"
                   "    return time.time()  # lint: allow(det-wall-clock)\n")
    assert run_lint(str(bad)).returncode == 0
    assert run_lint(str(bad), "--baseline", "x.json").returncode == 2


def test_no_targets_prints_usage_and_exits_2():
    proc = run_lint()
    assert proc.returncode == 2


def test_capacity_flag_drives_bandwidth_rule():
    path = os.path.join(FIXTURES, "hml", "bad_bandwidth.hml")
    assert run_lint(path, "--capacity-mbps", "0.5").returncode == 1
    assert run_lint(path, "--capacity-mbps", "10").returncode == 0
