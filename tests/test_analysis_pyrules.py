"""Determinism-linter rules: each fires on its known-bad fixture, the
clean fixture and the whole ``repro`` package lint clean."""

import os

from repro.analysis import PY_RULES, Severity, load_program
from repro.analysis.runner import lint_python_program, self_lint_root

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures", "lint")


def lint_file(path):
    """The determinism rules over one file, as ``repro lint`` parses it."""
    program, diags = load_program([str(path)])
    return diags + [d for mod in program.modules for d in PY_RULES.run(mod)]


def fixture(name):
    return os.path.join(FIXTURES, name)


def rule_ids(diags):
    return {d.rule_id for d in diags}


def test_registry_lists_all_determinism_rules():
    assert set(PY_RULES.ids()) == {
        "det-wall-clock", "det-global-random", "det-unordered-iter",
        "det-tracer-guard", "det-port-pairing",
    }


def test_wall_clock_rule_fires():
    diags = lint_file(fixture("bad_wall_clock.py"))
    assert rule_ids(diags) == {"det-wall-clock"}
    assert sorted(d.span.line for d in diags) == [8, 9]
    assert all(d.severity is Severity.ERROR for d in diags)


def test_global_random_rule_fires():
    diags = lint_file(fixture("bad_global_random.py"))
    assert rule_ids(diags) == {"det-global-random"}
    # import random, np.random.seed, random.random()/np.random.uniform
    assert len(diags) >= 3


def test_unordered_iter_rule_fires():
    diags = lint_file(fixture("bad_unordered_iter.py"))
    assert rule_ids(diags) == {"det-unordered-iter"}
    assert sorted(d.span.line for d in diags) == [6, 8]


def test_tracer_guard_rule_fires():
    diags = lint_file(fixture("bad_tracer_guard.py"))
    assert rule_ids(diags) == {"det-tracer-guard"}
    assert [d.span.line for d in diags] == [9]


def test_port_pairing_rule_fires_as_warning():
    diags = lint_file(fixture("bad_port_pairing.py"))
    assert rule_ids(diags) == {"det-port-pairing"}
    assert all(d.severity is Severity.WARNING for d in diags)


def test_clean_fixture_has_no_findings():
    assert lint_file(fixture("clean.py")) == []


def test_line_pragma_suppresses():
    assert lint_file(fixture("suppressed.py")) == []


def test_file_pragma_suppresses(tmp_path):
    src = tmp_path / "inline.py"
    src.write_text(
        "# lint: allow-file(det-wall-clock)\n"
        "import time\n"
        "def f():\n"
        "    return time.time()\n"
    )
    assert lint_file(src) == []


def test_syntax_error_becomes_diagnostic(tmp_path):
    broken = tmp_path / "broken.py"
    broken.write_text("def broken(:\n")
    diags = lint_file(broken)
    assert [d.rule_id for d in diags] == ["det-syntax"]
    assert diags[0].is_error


def test_repro_package_self_lints_clean():
    diags = lint_python_program([self_lint_root()], full=True)
    assert diags == [], diags
