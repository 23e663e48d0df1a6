"""The ``argparse`` table in ``repro.__main__`` is the CLI's one source
of truth: registry, documented command lines, flag set, error paths."""

from __future__ import annotations

import argparse
import dataclasses
import os
import re
import shlex

import pytest

import repro.core.experiments as experiments
import repro.obs.bench as bench
from repro.__main__ import EXPERIMENTS, build_parser, main
from repro.core.config import EngineConfig

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def subcommands(parser: argparse.ArgumentParser) -> dict:
    """``{name: subparser}`` of the table."""
    (action,) = [a for a in parser._actions
                 if isinstance(a, argparse._SubParsersAction)]
    return dict(action.choices)


# -- the registry -------------------------------------------------------------

def test_every_runner_is_registered_exactly_once():
    assert len(EXPERIMENTS) == 14
    # no key declares what another already does; E10 / E10b are the one
    # pair that shares a job (they differ in the placement axis)
    declared = [(exp.job, exp.cases) for exp in EXPERIMENTS.values()]
    assert all(declared.count(d) == 1 for d in declared)
    assert len({job for job, _ in declared}) == 13
    assert EXPERIMENTS["e10"].job is EXPERIMENTS["e10b"].job
    # ... and no job sits in the module unregistered
    jobs = {fn for name, fn in vars(experiments).items()
            if re.fullmatch(r"_e\d+", name)}
    assert jobs == {job for job, _ in declared}


# the five that run no network simulation (well under a second together)
@pytest.mark.parametrize("key", ["e4", "e5", "e6", "e7", "e12"])
def test_run_is_one_row_per_case_and_repeatable(key):
    exp = EXPERIMENTS[key]
    headers, rows = experiments.run(key)
    assert headers == exp.headers
    assert len(rows) == len(exp.cases) * len(exp.job(**exp.cases[0]))
    assert all(len(row) == len(headers) for row in rows)
    assert experiments.run(key)[1] == rows


@pytest.mark.parametrize("key", ["e12", "e13"])
def test_late_experiments_are_reachable(key, capsys):
    assert main(["run", key]) == 0
    assert key.upper() in capsys.readouterr().out
    assert main(["list"]) == 0
    assert f"\n{key} " in capsys.readouterr().out


# -- help is generated --------------------------------------------------------

@pytest.mark.parametrize("argv", [[], ["help"], ["--help"]] + [
    [cmd, "--help"] for cmd in subcommands(build_parser())])
def test_help_exits_zero_and_says_something(argv, capsys):
    assert main(argv) == 0
    assert "usage: repro" in capsys.readouterr().out


# -- outside input never ends in a traceback ----------------------------------

@pytest.fixture
def not_json(tmp_path):
    path = tmp_path / "BENCH_broken.json"
    path.write_text("{ not json")
    return str(path)


@pytest.mark.parametrize("argv", [
    ["bench", "--scenario", "bogus"],
    ["bench", "--topology", "bogus"],
    # chaos folded into bench: the command no longer parses
    ["chaos", "--scenario", "bogus"],
    # a sharding flag without --shards is refused, not ignored
    ["bench", "--cell", "4"],
    ["bench", "--duration", "1.0"],
    ["bench", "--tolerate-shard-failures"],
    # a cell adds its viewers at the core router and carries no recorder
    ["bench", "--scenario", "cdn_hot", "--shards", "2"],
    ["bench", "--topology", "cdn", "--shards", "2"],
    ["bench", "--scenario", "crash", "--flight-dump", "F", "--shards", "2"],
    # the scale curve sweeps its own scenario and N
    ["bench", "--scale-curve", "--flight-dump", "F"],
    ["bench", "--clients", "4", "--scale-curve"],
    ["bench", "--scale-curve", "--duration", "1.0"],
    ["bench", "--scale-curve", "--scenario", "crash"],
    # a reference is the plain run: no control arm, recording, size,
    # seed or shards
    ["bench", "--clients", "4", "--update-baseline"],
    ["bench", "--seed", "5", "--update-baseline"],
    ["bench", "--shards", "2", "--update-baseline"],
    ["bench", "--update-baseline", "--no-recovery"],
    ["bench", "--update-baseline", "--no-retry"],
    ["bench", "--scenario", "crash", "--update-baseline", "--flight-dump",
     "F"],
    # one recording per run: --flight-dump needs one selected scenario
    ["bench", "--flight-dump", "F"],
    ["bench", "--topology", "cdn", "--flight-dump", "F"],
    ["trace", "--scenario", "crash"],
    ["trace", "--record", "F", "--scenario", "bogus"],
    # slo judges saved files only: no live-run source, and no artifact
    # is a usage error
    ["slo", "--chaos", "bogus"],
    ["slo", "--scenario", "bogus"],
    ["slo", "--rule", "x >= 1"],
    ["trace", "--bogus"],
    ["lint", "--bogus"],
    ["slo", "--artifact", "/nonexistent.json"],
    ["slo", "--artifact", "NOT_JSON"],
    ["slo", "--artifact", "NOT_JSON", "--rule", "no operator here"],
    ["report", "--artifact", "/nonexistent.json"],
    ["report", "--artifact", "NOT_JSON"],
    ["bench", "--clients", "0"],
    ["bench", "--clients", "8", "--shards", "0"],
], ids=" ".join)
def test_bad_outside_input_is_one_line_and_exit_2(argv, not_json, capsys):
    argv = [not_json if a == "NOT_JSON" else a for a in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("repro") and err.count("\n") == 1
    assert "Traceback" not in err


def test_bench_runs_nothing_on_a_flag_of_the_other_path(tmp_path):
    """Two command lines that once exited 0 having dropped flags: the
    first wrote ``seed: 11, duration_s: 3.0``, the second never created
    the store it was told to record. (The paths are one since; the
    first now names a flag that is gone, the second sizes a reference.)"""
    out, store = tmp_path / "out", tmp_path / "store"
    assert main(["bench", "--smoke", "--scenario", "population_clean",
                 "--seed", "5", "--duration", "1.0", "--out", str(out)]) == 2
    assert main(["bench", "--clients", "4", "--shards", "1", "--cell", "4",
                 "--update-baseline", "--baseline", str(store),
                 "--out", str(out)]) == 2
    assert not out.exists() and not store.exists()


class Ran(Exception):
    """Raised by a stubbed runner: the command line got past every check
    and started its first run."""


@pytest.mark.parametrize("argv", [
    # once refused because bench had two paths, a scenario run and a
    # sharded point; each is one bench run now (tests/test_bench_shards.py)
    ["bench", "--smoke", "--scenario", "population_clean", "--seed", "5"],
    ["bench", "--scenario", "crash", "--shards", "2"],
    ["bench", "--clients", "4", "--baseline", "DIR"],
    ["bench", "--clients", "4", "--scenario", "crash"],
    ["bench", "--clients", "4", "--topology", "cdn"],
    ["bench", "--clients", "4", "--no-recovery"],
    ["bench", "--clients", "4", "--no-retry"],
    ["bench", "--clients", "4", "--check-determinism"],
], ids=" ".join)
def test_lines_the_two_paths_refused_are_accepted(argv, tmp_path,
                                                  monkeypatch):
    def ran(*args, **kwargs):
        raise Ran

    monkeypatch.setattr(bench, "run_scenario", ran)
    monkeypatch.setattr(bench, "_run_sharded", ran)
    with pytest.raises(Ran):
        main(argv + ["--out", str(tmp_path)])


# -- the documentation only shows command lines the table accepts -------------

def documented_command_lines() -> list[list[str]]:
    lines = []
    for rel in ("README.md", "EXPERIMENTS.md", ".github/workflows/ci.yml"):
        with open(os.path.join(REPO, rel), encoding="utf-8") as fh:
            text = re.sub(r"\\\n\s*", " ", fh.read())
        for match in re.finditer(r"python -m repro\b([^\n`]*)", text):
            rest = re.split(r"\s#|\s>\s", match.group(1))[0]
            if rest.strip() and not re.search(r"\[|<|\.\.\.|\$", rest):
                lines.append(shlex.split(rest))
    return lines


def test_documented_command_lines_parse():
    lines = documented_command_lines()
    assert len(lines) >= 60  # the extractor still finds the docs
    parser = build_parser()
    for argv in lines:
        try:
            parser.parse_args(argv)  # UsageError names the stale line
        except SystemExit as exc:  # a documented --help
            assert exc.code == 0


# -- the flag set is pinned ---------------------------------------------------

FLAGS = {
    "list": set(), "run": set(), "demo": set(),
    "trace": {"--record", "--chrome", "--top", "--scenario"},
    "bench": {"--smoke", "--update-baseline", "--out", "--baseline",
              "--scenario", "--topology", "--clients", "--shards", "--cell",
              "--seed", "--tolerate-shard-failures",
              "--scale-curve", "--no-recovery", "--no-retry",
              "--check-determinism", "--flight-dump"},
    "slo": {"--artifact", "--spec-file", "--rule"},
    "report": {"--artifact", "--out", "--baseline"},
    "lint": {"--self", "--scenarios", "--closed-set", "--capacity-mbps",
             "--format", "--list-rules"},
}


def test_flag_set_is_the_sixty_of_the_hand_rolled_loops():
    table = {
        cmd: {opt for action in sub._actions
              for opt in action.option_strings} - {"-h", "--help", "--json"}
        for cmd, sub in subcommands(build_parser()).items()
    }
    assert table == FLAGS
    # the sixty, less the two wall-clock gate thresholds, the two lint
    # baseline flags (pragmas are the one suppression), the kernel
    # profiler's five, the trend comparator's four (the baseline is a
    # generated SLO spec), slo's live-run five and chaos's two floors
    # (the SLO spec is the one gate), and two knobs with no caller
    # (--flight-window, --examples-dir); then chaos folded into bench
    # (its --scenario, --smoke and --out are bench's, its --seed and
    # --clients Python keywords only, and trace --record runs a table
    # scenario instead of --clients viewers), and bench's --duration (a
    # scenario row carries its size); eight commands
    assert sum(map(len, FLAGS.values())) == 32
    assert len(FLAGS) == 8


# every EngineConfig knob has a caller that sets it; a value no caller
# changes is a constant beside the component that uses it
ENGINE_FIELDS = (
    "seed", "access_rate_bps", "access_queue_packets", "atm_access",
    "loss_p_gb", "loss_p_bg", "loss_bad", "rtcp_interval_s",
    "rtcp_adaptive", "grading_policy", "time_window_s", "skew_control",
    "suspend_grace_s", "admission_capacity_bps", "shared_flows", "traffic",
)


def test_engine_config_fields_are_pinned():
    assert tuple(f.name for f in dataclasses.fields(EngineConfig)) \
        == ENGINE_FIELDS
    assert len(ENGINE_FIELDS) == 16


def test_json_is_accepted_anywhere_on_the_line():
    parser = build_parser()
    for argv in (["--json", "list"], ["list", "--json"],
                 ["slo", "--artifact", "F", "--json", "--rule", "x >= 1"]):
        assert parser.parse_args(argv).json is True
    assert not hasattr(parser.parse_args(["list"]), "json")


def test_no_flag_abbreviations(capsys):
    assert main(["bench", "--topo", "cdn"]) == 2
    assert "--topo" in capsys.readouterr().err
