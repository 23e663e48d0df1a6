"""Command-line front end: experiments, figures, demos and traces.

Usage:
    python -m repro list
    python -m repro run e3            # an experiment (e1..e11)
    python -m repro run fig2          # a figure/table artefact
    python -m repro demo              # the quickstart delivery
    python -m repro trace FILE.jsonl  # summarize a recorded trace
    python -m repro trace --record OUT.jsonl [--chrome OUT.json]
                                      # record a traced population run
    python -m repro bench [--smoke] [--profile]
                                      # benchmark trajectory artifacts
                                      # (BENCH_<name>.json + baseline
                                      # regression check; --profile
                                      # adds kernel attribution)
    python -m repro bench --clients N --shards K
                                      # supervised sharded population
                                      # run (worker processes, retry,
                                      # partial-result degradation
                                      # under --tolerate-shard-failures)
    python -m repro bench --scale-curve [--smoke]
                                      # sharded scaling curve artifact
                                      # (events/sec and wall_s vs N)
    python -m repro profile [--scenario NAME] [--smoke]
                                      # DES kernel profiler: hot-spot
                                      # tables, PROFILE_<name>.json and
                                      # a collapsed-stack export for
                                      # flamegraph/speedscope
    python -m repro slo [--artifact FILE | --scenario NAME | --chaos NAME]
                                      # evaluate SLO rules against a
                                      # saved artifact or a live run;
                                      # exit 1 on any violated rule
    python -m repro chaos [--scenario crash] [--smoke]
                                      # fault-injection run: scheduled
                                      # crashes/flaps/partitions with
                                      # failover + retry defences;
                                      # --flight-dump FILE captures the
                                      # flight-recorder window around
                                      # the first injected fault
    python -m repro trend [--history DIR ...] [--artifact FILE ...]
                                      # judge the newest artifact of
                                      # each scenario against its
                                      # history (median + MAD bands);
                                      # exit 1 on any regression
    python -m repro report --artifact FILE [--out FILE.md]
                                      # one markdown dashboard: QoE,
                                      # service, time-series plots,
                                      # SLO status, trend verdicts
    python -m repro lint --self --scenarios
                                      # static analysis: determinism
                                      # linter over src/repro + HML
                                      # scenario analyzer over the
                                      # shipped scenario corpus
    python -m repro lint PATH [...]   # lint .py files/trees and .hml
                                      # scenario files/directories

Any command accepts ``--json`` to emit one machine-readable document
instead of text tables.
"""

from __future__ import annotations

import os
import sys

from repro.analysis import Reporter
from repro.ioutil import atomic_write_text

EXPERIMENTS = {
    "e1": ("run_time_window_sweep", "media time window vs quality"),
    "e2": ("run_skew_control_matrix", "short-term skew control"),
    "e3": ("run_grading_comparison", "long-term quality grading"),
    "e4": ("run_admission_sweep", "admission by pricing class"),
    "e5": ("run_watermark_comparison", "buffer watermarks [LIT 92]"),
    "e6": ("run_navigation_grace", "suspend grace interval"),
    "e7": ("run_search_experiment", "distributed search"),
    "e8": ("run_grading_order_ablation", "degrade-order ablation"),
    "e9": ("run_interplay_experiment", "short- vs long-term timing"),
    "e10": ("run_scaling_experiment", "concurrent-session scaling"),
    "e10b": ("run_population_scaling", "population on per-client links"),
    "e11": ("run_atm_comparison", "ATM access link (future work)"),
}

FIGURES = {
    "table1": "the keyword table",
    "fig1": "the grammar BNF",
    "fig2": "the example scenario timeline",
    "fig4": "the session state machine",
}


class _UsageError(Exception):
    """A flag's value is missing or malformed; ``main`` exits 2."""


_VALUE_KINDS = {int: "an integer", float: "a number", str: "a value"}


def _value(args: list[str], i: int, convert: type = str):
    """The value at ``args[i]`` of the flag before it, converted."""
    try:
        return convert(args[i])
    except (IndexError, ValueError):
        raise _UsageError(
            f"{args[i - 1]} needs {_VALUE_KINDS[convert]}") from None


def _run_experiment(key: str, report: Reporter) -> int:
    import repro.core.experiments as exp

    fn_name, title = EXPERIMENTS[key]
    out = getattr(exp, fn_name)()
    headers, rows = out[0], out[1]
    report.table(f"{key.upper()} — {title}", headers, rows)
    return 0


def _run_figure(key: str, report: Reporter) -> int:
    if key == "table1":
        from repro.hml.tokens import keyword_table_rows

        report.table("Table 1 — Description of basic keywords",
                     ["Keyword", "Description"], keyword_table_rows())
    elif key == "fig1":
        from repro.hml.grammar import grammar_text

        report.text("Figure 1 — Grammar of the language in BNF notation",
                    grammar_text())
    elif key == "fig2":
        from repro.hml.examples import figure2_document
        from repro.model import ascii_timeline, build_playout_schedule

        report.text("Figure 2 — the example scenario's playout timeline",
                    ascii_timeline(build_playout_schedule(figure2_document())))
    elif key == "fig4":
        from repro.service.states import transition_table_rows

        report.table("Figure 4 — application state transitions",
                     ["state", "event", "next state"],
                     transition_table_rows())
    return 0


def _demo(report: Reporter) -> int:
    from repro.core import ServiceEngine
    from repro.core.experiments import av_markup

    eng = ServiceEngine()
    eng.add_server("srv1", documents={"demo": (av_markup(6.0, True), "demo")})
    result = eng.orchestrator.run_full_session("srv1", "demo")
    report.table(
        "Demo delivery (6 s synchronized A/V + images)",
        ["stream", "frames", "gaps"],
        [[sid, s.frames_played, s.gaps]
         for sid, s in sorted(result.streams.items())],
    )
    report.value("worst_skew_ms", round(result.worst_skew_s() * 1e3, 1))
    report.value("startup_s", round(result.startup_latency_s, 2))
    return 0


def _record_trace(out_path: str, chrome_path: str | None,
                  n_clients: int, report: Reporter) -> int:
    """Run a traced population and export JSONL (+ Chrome trace)."""
    from repro.core import ServiceEngine
    from repro.core.config import EngineConfig
    from repro.core.experiments import av_markup
    from repro.obs import RecordingTracer, write_chrome_trace, write_jsonl

    tracer = RecordingTracer()
    eng = ServiceEngine(EngineConfig(), tracer=tracer)
    eng.add_server("srv1", documents={"doc": (av_markup(5.0, True), "demo")})
    pop = eng.orchestrator.run_population(n_clients, "srv1", "doc",
                                          stagger_s=0.5)
    n = write_jsonl(tracer.events, out_path)
    report.value("sessions_completed", len(pop.completed()))
    report.value("jsonl_events", n)
    report.value("jsonl_path", out_path)
    if chrome_path:
        m = write_chrome_trace(tracer.events, chrome_path)
        report.value("chrome_records", m)
        report.value("chrome_path", chrome_path)
    return 0


def _trace(args: list[str], report: Reporter) -> int:
    """``trace`` subcommand: summarize or record structured traces."""
    from repro.obs import read_jsonl, summarize_trace, write_chrome_trace

    record_to: str | None = None
    chrome_to: str | None = None
    top = 12
    n_clients = 3
    inputs: list[str] = []
    i = 0
    while i < len(args):
        a = args[i]
        if a == "--record":
            i += 1
            record_to = _value(args, i)
        elif a == "--chrome":
            i += 1
            chrome_to = _value(args, i)
        elif a == "--top":
            i += 1
            top = _value(args, i, int)
        elif a == "--clients":
            i += 1
            n_clients = _value(args, i, int)
        else:
            inputs.append(a)
        i += 1
    if record_to is not None:
        return _record_trace(record_to, chrome_to, n_clients, report)
    if not inputs:
        report.text("usage: python -m repro trace <file.jsonl> "
                    "[--top N] [--chrome OUT.json]")
        report.text("       python -m repro trace --record OUT.jsonl "
                    "[--chrome OUT.json] [--clients N]")
        return 2
    for path in inputs:
        events = read_jsonl(path)
        for section in summarize_trace(events, top=top):
            report.table(section["title"], section["headers"],
                         section["rows"])
        if chrome_to:
            m = write_chrome_trace(events, chrome_to)
            report.value("chrome_records", m)
            report.value("chrome_path", chrome_to)
    return 0


def _bench(args: list[str], report: Reporter) -> int:
    """``bench`` subcommand: run scenarios, emit BENCH_*.json, compare."""
    import json
    import os

    from repro.obs.bench import (
        DEFAULT_PERF_THRESHOLD,
        DEFAULT_THRESHOLD,
        SCENARIOS,
        compare_to_baseline,
        run_benchmarks,
    )

    smoke = False
    update_baseline = False
    profile = False
    out_dir = "."
    baseline_dir = os.path.join("benchmarks", "baseline")
    threshold = DEFAULT_THRESHOLD
    perf_threshold = DEFAULT_PERF_THRESHOLD
    names: list[str] = []
    clients: int | None = None
    shards = 4
    cell_clients = 8
    shard_seed = 11
    duration_s = 6.0
    tolerate = False
    scale_curve = False
    i = 0
    while i < len(args):
        a = args[i]
        if a == "--smoke":
            smoke = True
        elif a == "--profile":
            profile = True
        elif a == "--update-baseline":
            update_baseline = True
        elif a == "--out":
            i += 1
            out_dir = _value(args, i)
        elif a == "--baseline":
            i += 1
            baseline_dir = _value(args, i)
        elif a == "--threshold":
            i += 1
            threshold = _value(args, i, float)
        elif a == "--perf-threshold":
            i += 1
            perf_threshold = _value(args, i, float)
        elif a == "--scenario":
            i += 1
            names.append(_value(args, i))
        elif a == "--clients":
            i += 1
            clients = _value(args, i, int)
        elif a == "--shards":
            i += 1
            shards = _value(args, i, int)
        elif a == "--cell":
            i += 1
            cell_clients = _value(args, i, int)
        elif a == "--seed":
            i += 1
            shard_seed = _value(args, i, int)
        elif a == "--duration":
            i += 1
            duration_s = _value(args, i, float)
        elif a == "--tolerate-shard-failures":
            tolerate = True
        elif a == "--scale-curve":
            scale_curve = True
        elif a == "--topology":
            i += 1
            topology = _value(args, i)
            matching = [s.name for s in SCENARIOS.values()
                        if s.topology == topology]
            if not matching:
                known = sorted({s.topology for s in SCENARIOS.values()})
                report.text(f"no scenarios with topology {topology!r}; "
                            f"known: {', '.join(known)}")
                return 2
            names.extend(matching)
        elif a in ("-h", "--help"):
            report.text(
                "usage: python -m repro bench [--smoke] [--profile] "
                "[--out DIR] "
                "[--baseline DIR] [--threshold F] [--perf-threshold F] "
                "[--scenario NAME ...] [--topology star|cdn] "
                "[--update-baseline]")
            report.text(
                "sharded: python -m repro bench --clients N "
                "[--shards K] [--cell N] [--seed N] [--duration F] "
                "[--tolerate-shard-failures] | --scale-curve "
                "[--smoke] [--out DIR]")
            report.text(f"scenarios: {', '.join(sorted(SCENARIOS))}")
            return 0
        else:
            report.text(f"unknown bench option {a!r}")
            return 2
        i += 1

    if clients is not None or scale_curve:
        return _bench_sharded(
            report, clients=clients, shards=shards,
            cell_clients=cell_clients, seed=shard_seed,
            duration_s=duration_s, tolerate=tolerate,
            scale_curve=scale_curve, smoke=smoke, out_dir=out_dir)

    os.makedirs(out_dir, exist_ok=True)
    artifacts = run_benchmarks(names or None, smoke=smoke,
                               profile=profile)
    problems: list[str] = []
    rows = []
    for name, artifact in artifacts.items():
        out_path = os.path.join(out_dir, f"BENCH_{name}.json")
        report.artifact(f"artifact:{name}", out_path, artifact)
        if profile and "profile" in artifact:
            prof_path = os.path.join(out_dir, f"PROFILE_{name}.json")
            report.artifact(f"profile:{name}", prof_path,
                            artifact["profile"])
            report.value(f"profile_coverage:{name}",
                         round(artifact["profile"]["coverage"], 4))
        qoe = artifact.get("qoe") or {}
        rows.append([
            name, artifact["clients"],
            f"{artifact['wall_s']:.3f}",
            f"{artifact['events_per_sec']:.0f}",
            f"{artifact['completed']}/{artifact['sessions']}",
            f"{qoe.get('score', {}).get('p50', 0.0):.1f}",
        ])
        base_name = f"BENCH_{name}.smoke.json" if smoke \
            else f"BENCH_{name}.json"
        base_path = os.path.join(baseline_dir, base_name)
        if update_baseline:
            os.makedirs(baseline_dir, exist_ok=True)
            report.artifact(f"baseline:{name}", base_path, artifact)
        elif os.path.exists(base_path):
            with open(base_path, encoding="utf-8") as fh:
                baseline = json.load(fh)
            problems.extend(compare_to_baseline(
                artifact, baseline,
                threshold=threshold, perf_threshold=perf_threshold,
            ))
        else:
            report.value(f"baseline:{name}", "missing (not compared)")
    report.table(
        "Benchmark trajectory" + (" (smoke)" if smoke else ""),
        ["scenario", "clients", "wall_s", "events/s", "completed",
         "qoe_p50"],
        rows,
    )
    for problem in problems:
        report.value("regression", problem)
    return 1 if problems else 0


def _shard_lifecycle_table(report: Reporter, shards) -> None:
    report.table(
        "Shard lifecycle",
        ["shard", "cells", "status", "attempts", "retries", "failures"],
        [[s.shard, len(s.cells), s.status, s.attempts, s.retries,
          "; ".join(s.failures) or "-"] for s in shards],
    )


def _bench_sharded(report: Reporter, *, clients: int | None,
                   shards: int, cell_clients: int, seed: int,
                   duration_s: float, tolerate: bool,
                   scale_curve: bool, smoke: bool,
                   out_dir: str) -> int:
    """Sharded bench paths: one supervised point or the scaling curve."""
    import os

    from repro.shard.bench import (
        run_scale_curve,
        run_sharded,
        sharded_artifact,
    )
    from repro.shard.result import ShardFailure

    os.makedirs(out_dir, exist_ok=True)
    if scale_curve:
        artifact = run_scale_curve(
            n_shards=shards, seed=seed, cell_clients=cell_clients,
            smoke=smoke, tolerate_failures=tolerate)
        out_path = os.path.join(out_dir, "BENCH_population_scale.json")
        report.artifact("artifact:population_scale", out_path, artifact)
        report.table(
            "Population scaling curve"
            + (" (smoke)" if smoke else ""),
            ["clients", "wall_s", "events/s", "completed",
             "completeness", "digest"],
            [[p["clients"], f"{p['wall_s']:.2f}",
              f"{p['events_per_sec']:.0f}",
              f"{p['completed']}/{p['sessions']}",
              f"{p['completeness']:.2f}", p["digest"][:16]]
             for p in artifact["points"]],
        )
        return 0

    assert clients is not None
    try:
        result = run_sharded(
            clients, shards, seed=seed, cell_clients=cell_clients,
            duration_s=duration_s, tolerate_failures=tolerate)
    except ShardFailure as exc:
        result = exc.result
        report.text(f"sharded run failed: {exc}")
        _shard_lifecycle_table(report, result.shards)
        return 1

    artifact = sharded_artifact(result, smoke=smoke,
                                duration_s=duration_s)
    out_path = os.path.join(out_dir, "BENCH_population_shard.json")
    report.artifact("artifact:population_shard", out_path, artifact)
    qoe = artifact.get("qoe") or {}
    report.table(
        "Sharded population" + (" (smoke)" if smoke else ""),
        ["clients", "shards", "wall_s", "events/s", "completed",
         "completeness", "qoe_p50", "digest"],
        [[result.clients, result.n_shards, f"{result.wall_s:.3f}",
          f"{artifact['events_per_sec']:.0f}",
          f"{artifact['completed']}/{artifact['sessions']}",
          f"{result.completeness:.2f}",
          f"{qoe.get('score', {}).get('p50', 0.0):.1f}",
          result.digest[:16]]],
    )
    _shard_lifecycle_table(report, result.shards)
    if result.completeness < 1.0:
        report.value("degraded",
                     f"partial result: completeness "
                     f"{result.completeness:.2f}, missing cells "
                     f"{result.missing_cells}")
    if result.interrupted:
        report.value("interrupted", True)
        return 130
    return 0


def _profile(args: list[str], report: Reporter) -> int:
    """``profile`` subcommand: kernel attribution over a bench run."""
    import os

    from repro.obs.bench import SCENARIOS, run_scenario

    smoke = False
    out_dir = "."
    top = 15
    names: list[str] = []
    i = 0
    while i < len(args):
        a = args[i]
        if a == "--smoke":
            smoke = True
        elif a == "--scenario":
            i += 1
            names.append(_value(args, i))
        elif a == "--out":
            i += 1
            out_dir = _value(args, i)
        elif a == "--top":
            i += 1
            top = _value(args, i, int)
        elif a in ("-h", "--help"):
            report.text(
                "usage: python -m repro profile [--scenario NAME ...] "
                "[--smoke] [--out DIR] [--top N]")
            report.text(f"scenarios: {', '.join(sorted(SCENARIOS))}")
            return 0
        else:
            report.text(f"unknown profile option {a!r}")
            return 2
        i += 1

    if not names:
        names = ["population_clean"]
    os.makedirs(out_dir, exist_ok=True)
    for name in names:
        scenario = SCENARIOS.get(name)
        if scenario is None:
            report.text(f"unknown bench scenario {name!r}; "
                        f"available: {', '.join(sorted(SCENARIOS))}")
            return 2
        artifact = run_scenario(scenario, smoke=smoke, profile=True)
        prof = artifact["profile"]
        out_path = os.path.join(out_dir, f"PROFILE_{name}.json")
        report.artifact(f"profile:{name}", out_path, prof)
        collapsed_path = os.path.join(out_dir,
                                      f"PROFILE_{name}.collapsed.txt")
        atomic_write_text(
            collapsed_path,
            "".join(line + "\n" for line in prof["collapsed_stacks"]))
        report.value(f"collapsed:{name}", collapsed_path)
        report.table(
            f"Kernel time by event kind — {name}"
            + (" (smoke)" if smoke else ""),
            ["kind", "count", "total_us", "mean_us", "share"],
            [[r["kind"], r["count"], f"{r['total_us']:.0f}",
              f"{r['mean_us']:.2f}", f"{r['share']:.1%}"]
             for r in prof["by_kind"]],
        )
        report.table(
            f"Hot spots — {name}",
            ["kind", "handler", "count", "total_us", "mean_us"],
            [[r["kind"], r["handler"], r["count"],
              f"{r['total_us']:.0f}", f"{r['mean_us']:.2f}"]
             for r in prof["hotspots"][:top]],
        )
        report.value(f"kernel_ms:{name}", round(prof["kernel_ms"], 2))
        report.value(f"coverage:{name}", round(prof["coverage"], 4))
    return 0


def _slo(args: list[str], report: Reporter) -> int:
    """``slo`` subcommand: evaluate SLO rules, exit 1 on violation."""
    import json

    from repro.obs.slo import DEFAULT_SLOS, evaluate, parse_spec

    artifact_path: str | None = None
    scenario: str | None = None
    chaos: str | None = None
    spec_key: str | None = None
    spec_file: str | None = None
    rules_text: list[str] = []
    smoke = False
    flight_dump: str | None = None
    i = 0
    while i < len(args):
        a = args[i]
        if a == "--artifact":
            i += 1
            artifact_path = _value(args, i)
        elif a == "--scenario":
            i += 1
            scenario = _value(args, i)
        elif a == "--chaos":
            i += 1
            chaos = _value(args, i)
        elif a == "--spec":
            i += 1
            spec_key = _value(args, i)
        elif a == "--spec-file":
            i += 1
            spec_file = _value(args, i)
        elif a == "--rule":
            i += 1
            rules_text.append(_value(args, i))
        elif a == "--smoke":
            smoke = True
        elif a == "--flight-dump":
            i += 1
            flight_dump = _value(args, i)
        elif a in ("-h", "--help"):
            report.text(
                "usage: python -m repro slo (--artifact FILE | "
                "--scenario NAME | --chaos NAME) [--smoke] "
                "[--spec KEY] [--spec-file FILE] "
                "[--rule 'metric op N']... [--flight-dump FILE]")
            report.text(
                "--flight-dump (with --chaos) captures the flight-"
                "recorder window on fault injection or SLO violation")
            report.text(f"shipped specs: {', '.join(sorted(DEFAULT_SLOS))}")
            return 0
        else:
            report.text(f"unknown slo option {a!r}")
            return 2
        i += 1

    sources = [s for s in (artifact_path, scenario, chaos) if s]
    if len(sources) != 1:
        report.text("slo needs exactly one of --artifact / --scenario / "
                    "--chaos (see --help)")
        return 2
    if flight_dump is not None and chaos is None:
        report.text("--flight-dump needs a live --chaos run")
        return 2
    chaos_run = None

    if artifact_path is not None:
        with open(artifact_path, encoding="utf-8") as fh:
            artifact = json.load(fh)
        default_key = artifact.get("name") or artifact.get("scenario")
        if artifact.get("schema") == "repro.chaos":
            default_key = "chaos"
    elif scenario is not None:
        from repro.obs.bench import SCENARIOS, run_scenario

        bench_scenario = SCENARIOS.get(scenario)
        if bench_scenario is None:
            report.text(f"unknown bench scenario {scenario!r}; "
                        f"available: {', '.join(sorted(SCENARIOS))}")
            return 2
        artifact = run_scenario(bench_scenario, smoke=smoke)
        default_key = scenario
    else:
        from repro.faults.scenarios import run_chaos

        chaos_run = run_chaos(chaos, smoke=smoke,
                              flight_dump=flight_dump)
        artifact = chaos_run.artifact
        default_key = "chaos"

    rules = []
    if spec_file is not None:
        with open(spec_file, encoding="utf-8") as fh:
            rules.extend(parse_spec(fh.read().splitlines()))
    if rules_text:
        rules.extend(parse_spec(rules_text))
    if not rules:
        key = spec_key if spec_key is not None else default_key
        spec = DEFAULT_SLOS.get(key or "")
        if spec is None:
            report.text(
                f"no SLO spec for {key!r}: pass --spec "
                f"({', '.join(sorted(DEFAULT_SLOS))}), --spec-file or "
                "--rule")
            return 2
        report.value("spec", key)
        rules = parse_spec(spec)

    checks = evaluate(rules, artifact)
    report.table(
        "SLO evaluation",
        ["rule", "value", "status"],
        [[c.rule.text,
          "missing" if c.value is None else f"{c.value:g}",
          "PASS" if c.ok else "FAIL"]
         for c in checks],
    )
    service = artifact.get("service")
    if isinstance(service, dict) and service:
        report.service_report(service)
    violations = [c for c in checks if not c.ok]
    recorder = (chaos_run.flight_recorder if chaos_run is not None
                else None)
    if recorder is not None:
        # A fault may already have dumped; otherwise a violated gate
        # is itself the incident worth forensics.
        if violations and not recorder.last_dump:
            recorder.dump(trigger="slo.violation")
        if recorder.last_dump:
            report.value("flight_dump", recorder.last_dump["path"])
            report.value("flight_dump_trigger",
                         recorder.last_dump["trigger"])
    report.value("violations", len(violations))
    return 1 if violations else 0


def _chaos(args: list[str], report: Reporter) -> int:
    """``chaos`` subcommand: fault-injection scenarios + assertions."""
    from repro.faults.scenarios import (
        CHAOS_SCENARIOS,
        check_determinism,
        run_chaos,
    )

    name = "crash"
    smoke = False
    seed: int | None = None
    n_clients: int | None = None
    recovery = True
    retry: bool | None = None
    check_det = False
    min_delivered: float | None = None
    min_completed: float | None = None
    out_path: str | None = None
    flight_dump: str | None = None
    flight_window_s = 30.0
    i = 0
    while i < len(args):
        a = args[i]
        if a == "--scenario":
            i += 1
            name = _value(args, i)
        elif a == "--smoke":
            smoke = True
        elif a == "--seed":
            i += 1
            seed = _value(args, i, int)
        elif a == "--clients":
            i += 1
            n_clients = _value(args, i, int)
        elif a == "--no-recovery":
            recovery = False
        elif a == "--no-retry":
            retry = False
        elif a == "--check-determinism":
            check_det = True
        elif a == "--min-delivered":
            i += 1
            min_delivered = _value(args, i, float)
        elif a == "--min-completed":
            i += 1
            min_completed = _value(args, i, float)
        elif a == "--out":
            i += 1
            out_path = _value(args, i)
        elif a == "--flight-dump":
            i += 1
            flight_dump = _value(args, i)
        elif a == "--flight-window":
            i += 1
            flight_window_s = _value(args, i, float)
        elif a in ("-h", "--help"):
            report.text(
                "usage: python -m repro chaos [--scenario NAME] [--smoke] "
                "[--seed N] [--clients N] [--no-recovery] [--no-retry] "
                "[--check-determinism] [--min-delivered FRAC] "
                "[--min-completed FRAC] [--out FILE] "
                "[--flight-dump FILE] [--flight-window SECONDS]")
            report.text(f"scenarios: {', '.join(sorted(CHAOS_SCENARIOS))}")
            return 0
        else:
            report.text(f"unknown chaos option {a!r}")
            return 2
        i += 1

    run = run_chaos(name, smoke=smoke, seed=seed, n_clients=n_clients,
                    recovery=recovery, retry=retry,
                    flight_dump=flight_dump,
                    flight_window_s=flight_window_s)
    a = run.artifact
    report.table(
        f"Chaos run — {name}" + (" (smoke)" if smoke else ""),
        ["metric", "value"],
        [
            ["sessions", a["sessions"]],
            ["completed", a["completed"]],
            ["delivered", a["delivered"]],
            ["control retries", a["retries"]],
            ["stream recoveries", a["recoveries"]],
            ["streams failed over",
             a.get("watchdog", {}).get("streams_failed_over", 0)],
            ["streams lost",
             a.get("watchdog", {}).get("streams_lost", 0)],
            ["sessions saved",
             a.get("watchdog", {}).get("sessions_saved", 0)],
            ["digest", a["digest"][:16]],
        ],
    )
    if isinstance(a.get("service"), dict) and a["service"]:
        report.service_report(a["service"])
    if out_path:
        report.artifact(f"chaos:{name}", out_path, a)
    failed = False
    if flight_dump is not None:
        dump = a.get("flight_dump") or {}
        if dump:
            report.value("flight_dump", dump.get("path"))
            report.value("flight_dump_events", dump.get("events"))
            report.value("flight_dump_trigger", dump.get("trigger"))
        elif a.get("faults", {}).get("faults"):
            # Faults were scheduled but no trigger fired the recorder —
            # the crash forensics the caller asked for don't exist.
            report.value("failure",
                         "flight recorder never dumped despite a "
                         "non-empty fault plan")
            failed = True
    if check_det:
        same, d1, d2 = check_determinism(name, smoke=smoke, seed=seed)
        report.value("deterministic", same)
        if not same:
            report.value("digest_a", d1)
            report.value("digest_b", d2)
            failed = True
    if min_delivered is not None:
        frac = a["delivered"] / a["sessions"] if a["sessions"] else 0.0
        report.value("delivered_fraction", round(frac, 3))
        if frac < min_delivered:
            report.value(
                "failure",
                f"delivered {frac:.2f} < required {min_delivered:.2f}")
            failed = True
    if min_completed is not None:
        frac = a["completed"] / a["sessions"] if a["sessions"] else 0.0
        report.value("completed_fraction", round(frac, 3))
        if frac < min_completed:
            report.value(
                "failure",
                f"completed {frac:.2f} < required {min_completed:.2f}")
            failed = True
    return 1 if failed else 0


def _trend(args: list[str], report: Reporter) -> int:
    """``trend`` subcommand: newest run vs history, exit 1 on regress."""
    import os

    from repro.obs.trend import (
        analyze_group,
        group_history,
        load_history,
        sparkline,
    )

    history_paths: list[str] = []
    artifact_paths: list[str] = []
    threshold: float | None = None
    perf_threshold: float | None = None
    i = 0
    while i < len(args):
        a = args[i]
        if a == "--history":
            i += 1
            history_paths.append(_value(args, i))
        elif a == "--artifact":
            i += 1
            artifact_paths.append(_value(args, i))
        elif a == "--threshold":
            i += 1
            threshold = _value(args, i, float)
        elif a == "--perf-threshold":
            i += 1
            perf_threshold = _value(args, i, float)
        elif a in ("-h", "--help"):
            report.text(
                "usage: python -m repro trend [--history DIR|FILE ...] "
                "[--artifact FILE ...] [--threshold F] "
                "[--perf-threshold F]")
            report.text(
                "--history defaults to benchmarks/history; --artifact "
                "files are appended as the newest point of their group.")
            return 0
        else:
            report.text(f"unknown trend option {a!r}")
            return 2
        i += 1

    if not history_paths:
        default_dir = os.path.join("benchmarks", "history")
        if os.path.isdir(default_dir):
            history_paths.append(default_dir)
    # --artifact files load after the history so they land as the
    # newest (judged) point of their scenario group.
    history = load_history(history_paths + artifact_paths)
    if not history:
        report.text("no artifacts found; pass --history DIR and/or "
                    "--artifact FILE (see --help)")
        return 2

    kwargs: dict[str, float] = {}
    if threshold is not None:
        kwargs["threshold"] = threshold
    if perf_threshold is not None:
        kwargs["perf_threshold"] = perf_threshold
    regressions = 0
    rows = []
    for (name, smoke), docs in sorted(group_history(history).items()):
        label = name + (" (smoke)" if smoke else "")
        for row in analyze_group(docs, **kwargs):
            rows.append([
                label, row.metric, sparkline(row.values),
                f"{row.median:g}", f"{row.last:g}", row.verdict,
            ])
            if row.verdict == "regressed":
                regressions += 1
                report.value("regression", f"{label}: {row.detail}")
    report.table(
        "Trend verdicts (newest vs median ± MAD band)",
        ["scenario", "metric", "history", "median", "last", "verdict"],
        rows,
    )
    report.value("regressions", regressions)
    return 1 if regressions else 0


def _report(args: list[str], report: Reporter) -> int:
    """``report`` subcommand: markdown dashboard for one artifact."""
    import json

    from repro.obs.slo import DEFAULT_SLOS, evaluate, parse_spec
    from repro.obs.trend import (
        analyze_group,
        group_history,
        load_history,
        render_markdown_report,
    )

    artifact_path: str | None = None
    out_path: str | None = None
    history_paths: list[str] = []
    i = 0
    while i < len(args):
        a = args[i]
        if a == "--artifact":
            i += 1
            artifact_path = _value(args, i)
        elif a == "--out":
            i += 1
            out_path = _value(args, i)
        elif a == "--history":
            i += 1
            history_paths.append(_value(args, i))
        elif a in ("-h", "--help"):
            report.text(
                "usage: python -m repro report --artifact FILE "
                "[--out FILE.md] [--history DIR|FILE ...]")
            return 0
        elif artifact_path is None and not a.startswith("-"):
            artifact_path = a
        else:
            report.text(f"unknown report option {a!r}")
            return 2
        i += 1
    if artifact_path is None:
        report.text("report needs an artifact: python -m repro report "
                    "--artifact BENCH_x.json [--out report.md]")
        return 2

    with open(artifact_path, encoding="utf-8") as fh:
        artifact = json.load(fh)

    spec_key = artifact.get("scenario") or artifact.get("name")
    if artifact.get("schema") == "repro.chaos":
        spec_key = "chaos"
    spec = DEFAULT_SLOS.get(spec_key or "")
    slo_checks = evaluate(parse_spec(spec), artifact) if spec else None

    trend_rows = None
    if history_paths:
        history = load_history(history_paths)
        key = (str(artifact.get("scenario") or artifact.get("name")
                   or "?"), bool(artifact.get("smoke")))
        docs = group_history(history).get(key, [])
        docs.append(artifact)
        trend_rows = analyze_group(docs)

    markdown = render_markdown_report(artifact, trend_rows=trend_rows,
                                      slo_checks=slo_checks)
    if out_path:
        atomic_write_text(out_path, markdown + "\n")
        report.value("report_path", out_path)
    else:
        report.text(markdown)
    if slo_checks:
        report.value("slo_violations",
                     sum(1 for c in slo_checks if not c.ok))
    return 0


def _lint(args: list[str], report: Reporter) -> int:
    """``lint`` subcommand: scenario analyzer + determinism linter."""
    from repro.analysis.runner import list_rules, run_lint

    self_lint = False
    scenarios = False
    closed = False
    capacity_bps: float | None = None
    examples_dir: str | None = None
    fmt = "text"
    baseline_path: str | None = None
    write_baseline: str | None = None
    paths: list[str] = []
    i = 0
    while i < len(args):
        a = args[i]
        if a == "--self":
            self_lint = True
        elif a == "--scenarios":
            scenarios = True
        elif a == "--closed-set":
            closed = True
        elif a == "--capacity-mbps":
            i += 1
            capacity_bps = _value(args, i, float) * 1e6
        elif a == "--examples-dir":
            i += 1
            examples_dir = _value(args, i)
        elif a == "--format":
            i += 1
            fmt = _value(args, i)
            if fmt not in ("text", "github"):
                report.text(f"unknown --format {fmt!r} "
                            "(want text or github)")
                return 2
        elif a == "--baseline":
            i += 1
            baseline_path = _value(args, i)
        elif a == "--write-baseline":
            i += 1
            write_baseline = _value(args, i)
        elif a == "--list-rules":
            return list_rules(report)
        elif a in ("-h", "--help"):
            report.text(
                "usage: python -m repro lint [PATH ...] [--self] "
                "[--scenarios] [--capacity-mbps F] [--closed-set] "
                "[--examples-dir DIR] [--format text|github] "
                "[--baseline FILE] [--write-baseline FILE] "
                "[--list-rules]")
            report.text(
                "PATHs ending in .py (or directories of Python code) go "
                "to the Python linter (determinism + fork-safety + taint "
                "+ trace-schema families); .hml files/directories go to "
                "the scenario analyzer as one scenario set. --baseline "
                "filters findings through a reason-annotated suppression "
                "file; --write-baseline snapshots current findings.")
            return 0
        else:
            paths.append(a)
        i += 1
    if self_lint and baseline_path is None:
        default_baseline = os.path.join(os.getcwd(), "lint-baseline.json")
        if os.path.exists(default_baseline):
            baseline_path = default_baseline
    return run_lint(report, paths=paths, self_lint=self_lint,
                    scenarios=scenarios, capacity_bps=capacity_bps,
                    closed=closed, examples_dir=examples_dir, fmt=fmt,
                    baseline_path=baseline_path,
                    write_baseline=write_baseline)


def main(argv: list[str] | None = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    json_mode = "--json" in args
    if json_mode:
        args = [a for a in args if a != "--json"]
    report = Reporter(json_mode=json_mode)
    try:
        if not args or args[0] in ("-h", "--help", "help"):
            print(__doc__)
            return 0
        cmd = args[0]
        if cmd == "list":
            report.table("experiments", ["key", "title"],
                         [[k, title] for k, (_, title) in
                          EXPERIMENTS.items()])
            report.table("figures", ["key", "title"],
                         [[k, title] for k, title in FIGURES.items()])
            return 0
        if cmd == "demo":
            return _demo(report)
        if cmd == "trace":
            return _trace(args[1:], report)
        if cmd == "bench":
            return _bench(args[1:], report)
        if cmd == "chaos":
            return _chaos(args[1:], report)
        if cmd == "profile":
            return _profile(args[1:], report)
        if cmd == "slo":
            return _slo(args[1:], report)
        if cmd == "trend":
            return _trend(args[1:], report)
        if cmd == "report":
            return _report(args[1:], report)
        if cmd == "lint":
            return _lint(args[1:], report)
        if cmd == "run":
            if len(args) < 2:
                report.text("usage: python -m repro run "
                            "<e1..e11|table1|fig1|fig2|fig4>")
                return 2
            key = args[1].lower()
            if key in EXPERIMENTS:
                return _run_experiment(key, report)
            if key in FIGURES:
                return _run_figure(key, report)
            report.text(f"unknown target {key!r}; "
                        "try 'python -m repro list'")
            return 2
        report.text(f"unknown command {cmd!r}; try 'python -m repro help'")
        return 2
    except _UsageError as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return 2
    finally:
        report.close()


if __name__ == "__main__":
    raise SystemExit(main())
