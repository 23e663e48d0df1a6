"""The repo's benchmark of record: one command, every metric by name.

    python3 benchmarks/e2e/run.py [--workload W] [--seed 11] [--out DIR]
    python3 benchmarks/e2e/run.py --compare A.json B.json

Each workload runs in a fresh interpreter (``child.py``), once untraced
for the end-to-end metrics and once more for the per-layer metrics;
``--trace 0|1`` picks one of the two. Every metric is printed with its
unit, ``BENCH_e2e.json`` and ``TRACE_<workload>.json`` land in ``--out``,
and the exit code is non-zero if any correctness check fails. The last
line of output is a one-object JSON summary of the last run made.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import compare  # noqa: E402
import harness  # noqa: E402

from repro.ioutil import atomic_write_json  # noqa: E402

SCHEMA_VERSION = 1
#: a child that has not answered by then is stuck, not slow
CHILD_TIMEOUT_S = 170.0


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_child(workload: str, trace: int, args: argparse.Namespace,
              spec: dict) -> dict:
    """One workload in one mode; the child's document, checks extended."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace),
           "--scale", args.scale]
    # Its own process group, so a stuck run takes its shard workers
    # down with it instead of leaving them behind.
    # A fixed hash seed: string-keyed dict and set layouts, and with them
    # a few percent of host time, otherwise differ from process to process.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True,
                            env=dict(os.environ, PYTHONHASHSEED="0"))
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"{workload}: no result within "
                         f"{CHILD_TIMEOUT_S:g} s") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    lines = stdout.strip().splitlines()
    if not lines or proc.returncode not in (0, 1):
        raise SystemExit(f"{workload}: measuring process failed "
                         f"(exit {proc.returncode})")
    doc = json.loads(lines[-1])
    section = "per_layer" if trace else "end_to_end"
    declared = [m["name"] for m in spec[section]]
    doc["checks"].append({
        "name": f"metric names equal BENCHMARK.json {section}",
        "ok": sorted(doc["metrics"]) == sorted(declared)})
    doc["correct"] = all(c["ok"] for c in doc["checks"])
    return doc


def report(doc: dict) -> None:
    mode = "per-layer" if doc["trace"] else "end-to-end"
    print(f"== {doc['workload']} [{mode}] seed={doc['seed']} "
          f"R={len(doc['repetitions'])} "
          f"session_seconds={doc['session_seconds']:g}")
    for name, m in doc["metrics"].items():
        print(f"  {name:<28} {m['value']:>16.6g} {m['unit']}")
    for check in doc["checks"]:
        if not check["ok"]:
            print(f"  CHECK FAILED: {check['name']}")


def contract_line(doc: dict) -> str:
    return json.dumps({"correct": doc["correct"],
                       "attempted": doc["attempted"],
                       "failed": doc["failed"],
                       "metrics": doc["metrics"]})


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=names, action="append",
                        help="repeatable; default: every workload")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]),
                        help="how long each run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end only, 1: per-layer only; "
                             "default both")
    parser.add_argument("--scale", choices=("full", "tiny"),
                        default="full",
                        help="tiny shrinks every workload (self-test)")
    parser.add_argument("--out", default=os.path.join(
        ROOT, "benchmarks", "out", "e2e"))
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare.main(*args.compare, spec)

    artifact = {
        "schema": compare.SCHEMA, "version": SCHEMA_VERSION,
        "commit": harness.git_commit(ROOT), "seed": args.seed,
        "seconds": args.seconds, "scale": args.scale,
        "host": harness.host_stamp(), "workloads": {},
    }
    ok = True
    last = ""
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    for workload in args.workload or names:
        entry = artifact["workloads"].setdefault(
            workload, {"why": whys[workload]})
        for trace in (0, 1) if args.trace is None else (args.trace,):
            doc = run_child(workload, trace, args, spec)
            report(doc)
            ok &= doc["correct"]
            last = contract_line(doc)
            spans = doc.pop("spans")
            entry["session_seconds"] = doc.pop("session_seconds")
            entry["per_layer" if trace else "end_to_end"] = doc
            os.makedirs(args.out, exist_ok=True)
            atomic_write_json(
                os.path.join(args.out, f"TRACE_{workload}.json"), spans,
                indent=None)
    atomic_write_json(os.path.join(args.out, "BENCH_e2e.json"), artifact,
                      indent=1, sort_keys=False)
    print(last)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
