# lint: allow-file(det-wall-clock)
# (measuring host time is this file's job)
"""Measure one workload in this process; print one JSON document.

``run.py`` starts this in a fresh interpreter per workload and trace
mode, so peak RSS and import time belong to that workload alone.

``--trace 0`` times untraced repetitions for ``--seconds`` and reports
the end-to-end metrics. ``--trace 1`` reports the per-layer metrics: a
shorter untraced series for the baseline and the exact counts, then one
observed repetition (the repo's own tracer and samplers) and one under
cProfile, both after the timed series so they cannot disturb it.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import statistics
import subprocess
import sys
import time

_T0 = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import harness  # noqa: E402
import layers  # noqa: E402

#: share of ``--seconds`` the untraced baseline gets under ``--trace 1``
TRACED_BASELINE_SHARE = 0.35
#: fresh interpreters timed from start to a runnable system for setup_s
SETUP_PROBES = 5


def _load_workload(args: argparse.Namespace):
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    return workload.tiny() if args.scale == "tiny" else workload


def report_cold_setup(args: argparse.Namespace) -> dict[str, float]:
    """Import, set the workload up once, then calibrate the moment."""
    _load_workload(args).setup(args.seed)
    wall_s = time.perf_counter() - _T0
    return {"wall_s": wall_s, "cal_s": harness.calibration_cpu_s()}


def cold_setup_samples(args: argparse.Namespace,
                       spans: harness.Spans) -> list[dict[str, float]]:
    """From interpreter start to a runnable system, cold, several times.

    Import of the repro stack plus the workload's ``setup``, each
    sample in an interpreter of its own, because a second import in
    this process would be a dictionary lookup. Each sample carries a
    calibration taken right after it: raw seconds of this step moved by
    60% between batches of five on a bad afternoon, the calibrated
    value by 31%.
    """
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--scale", args.scale]
    samples = []
    for i in range(SETUP_PROBES):
        with spans.span("setup_probe", rep=i):
            done = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=60, check=True)
        samples.append(json.loads(done.stdout))
    return samples


def measure(args: argparse.Namespace) -> dict[str, object]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    spans = harness.Spans(args.workload)
    with spans.span("import") as importing:
        workload = _load_workload(args)
    session_seconds = workload.sessions * workload.duration_s
    seconds = args.seconds * (TRACED_BASELINE_SHARE if args.trace else 1.0)

    setups = [] if args.trace else cold_setup_samples(args, spans)
    with spans.span("warmup"):  # lazy imports, caches, allocator arenas
        workload.repetition(args.seed, spans, -1)
    reps = harness.calibrated_repetitions(
        lambda rep: workload.repetition(args.seed, spans, rep),
        spans, seconds)
    rss_untraced = harness.peak_rss_mb()
    quartiles = [q / session_seconds for q in
                 harness.quartiles([r["ratio"] for r in reps])]
    stats = reps[-1]["stats"]
    checks = [
        ("digest identical across repetitions",
         len({r["digest"] for r in reps}) == 1),
        ("every repetition complete",
         all(r["completeness"] == 1.0 for r in reps)),
    ]
    if args.trace:
        values, extra, more = _per_layer(
            args, workload, spans, reps, rss_untraced,
            [m["name"] for m in spec["per_layer"]])
        checks += more
        values["harness.import_s"] = importing["end"] - importing["start"]
        section = "per_layer"
    else:
        values = {
            "host_cost": quartiles[1],
            # seconds of a host whose calibration loop takes CAL_REF_S
            "setup_s": harness.CAL_REF_S * statistics.median(
                s["wall_s"] / s["cal_s"] for s in setups),
            "peak_rss_mb": rss_untraced,
            "sessions_completed_frac":
                1.0 - stats["sessions_failed"] / stats["sessions_attempted"],
            "startup_s_p50": stats["startup_s_p50"],
            "continuity_p50": 1.0 - stats["gap_ratio_p50"],
        }
        extra = {"host_cost_quartiles": quartiles,
                 "setup_samples": setups}
        section = "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "scale": args.scale,
        "seconds": args.seconds,
        "session_seconds": session_seconds,
        "repetitions": [
            {k: r[k] for k in ("cpu_s", "wall_s", "cal_s", "ratio",
                               "build_s", "collect_s", "digest")}
            for r in reps],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
        **extra,
        "checks": [{"name": n, "ok": bool(ok)} for n, ok in checks],
        "correct": all(ok for _n, ok in checks),
        "attempted": stats["sessions_attempted"] * len(reps),
        "failed": sum(r["stats"]["sessions_failed"] for r in reps),
        "child_wall_s": time.perf_counter() - _T0,
        "spans": spans.to_chrome(),
    }


def _per_layer(args, workload, spans, reps, rss_untraced, names):
    """The ``--trace 1`` half: exact counts, observed run, profile run."""
    import repro

    def median_of(key: str, group: str | None = None) -> float:
        return statistics.median(
            (r[group] if group else r)[key] for r in reps)

    ratios = [r["ratio"] for r in reps]
    ratio_med = statistics.median(ratios)
    session_seconds = workload.sessions * workload.duration_s
    last = reps[-1]
    checks = []
    # What a workload cannot observe reads 0: engine counters when the
    # engines live in worker processes, shard.* without shards.
    values = dict.fromkeys(names, 0.0)
    values.update({k: v for k, v in last["stats"].items() if k in values})
    values.update(last.get("observed", {}))
    for key in last.get("shard", {}):
        values[key] = median_of(key, "shard")
    values["core.collect_s"] = median_of("collect_s")

    if workload.CAN_RUN_OBSERVED:
        # the system while the repo's own recorder and samplers watch
        obs_rep, = harness.calibrated_repetitions(
            lambda rep: workload.repetition(args.seed, spans, rep,
                                            observed=True),
            spans, 0.0, min_reps=1)
        values.update(obs_rep["observed"])
        values["obs.tax"] = obs_rep["ratio"] / ratio_med
        values["obs.rss_ratio"] = harness.peak_rss_mb() / rss_untraced
        checks.append(("observed run leaves session results unchanged",
                       obs_rep["projection"] == last["projection"]))

    # where the time goes, by layer
    profile = cProfile.Profile()
    prof_rep, = harness.calibrated_repetitions(
        lambda rep: workload.profile_run(args.seed, spans, profile),
        spans, 0.0, min_reps=1)
    budget = layers.layer_budget(
        profile, os.path.dirname(os.path.abspath(repro.__file__)))
    total_s = sum(budget["self_s"].values())
    shares = {k: v / total_s for k, v in budget["self_s"].items()}
    for layer, share in shares.items():
        values[f"{layer}.self_share"] = share
        values[f"{layer}.py_calls"] = \
            budget["calls"][layer] / session_seconds
    run_span = next(s for s in reversed(spans.spans) if s["name"] == "run")
    run_span["args"]["layer_self_share"] = shares
    checks.append(("profile run leaves session results unchanged",
                   prof_rep["projection"] == last["projection"]))
    checks.append(("layer self shares sum to 1",
                   abs(sum(shares.values()) - 1.0) <= 0.01))

    values["harness.cpu_s"] = median_of("cpu_s")
    values["harness.wall_s"] = median_of("wall_s")
    values["harness.cal_s"] = median_of("cal_s")
    values["harness.build_s"] = median_of("build_s")
    values["harness.ratio_iqr"] = harness.rel_iqr(ratios)
    values["harness.profile_overhead"] = prof_rep["ratio"] / ratio_med
    return values, {"layer_self_s": budget["self_s"]}, checks


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="0: just the minimum of three repetitions")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--setup-probe", action="store_true",
                        help="import, set the workload up, print the time")
    args = parser.parse_args(argv)
    if args.setup_probe:
        print(json.dumps(report_cold_setup(args)))
        return 0
    doc = measure(args)
    print(json.dumps(doc))
    return 0 if doc["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
