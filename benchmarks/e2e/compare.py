"""``run.py --compare A.json B.json``: B against A, metric by metric.

For every workload and end-to-end metric, how much worse B's value is
than A's as a share of A's, against the bound ``BENCHMARK.json`` fixes.
A host-time metric whose own run-to-run spread (the quartile distance
of the calibrated ratios, either side) is wider than its bound is
*unresolved*, never *unchanged*: the runs cannot tell. Per-layer values
that are counts must repeat exactly on one commit, so any that differ
are listed.
"""

from __future__ import annotations

import json

SCHEMA = "repro.bench.e2e"
#: per-layer units whose values are exact for a seed
EXACT_UNITS = ("count", "bytes", "1/sess_s", "score")
#: end-to-end metrics measured in host time through the calibrated ratio
CALIBRATED = ("host_cost",)


def _load(path: str) -> dict:
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("schema") != SCHEMA:
        raise SystemExit(f"{path}: not a {SCHEMA} artifact")
    return doc


def worse_by(a: float, b: float, better: str) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a``."""
    delta = (b - a) if better == "lower" else (a - b)
    return delta / abs(a) if a else (0.0 if delta == 0 else float("inf"))


def _ratio_iqr(section: dict) -> float:
    q1, med, q3 = section["host_cost_quartiles"]
    return (q3 - q1) / med


def main(path_a: str, path_b: str, spec: dict) -> int:
    a, b = _load(path_a), _load(path_b)
    for key, side_a, side_b in (
            [(k, a["host"][k], b["host"][k]) for k in ("python", "cpu_count")]
            + [(k, a[k], b[k]) for k in ("seed", "scale", "seconds")]):
        if side_a != side_b:
            print(f"refusing to compare: {key} differs "
                  f"({side_a} vs {side_b})")
            return 2
    print(f"A: {path_a} commit={a['commit']}\nB: {path_b} "
          f"commit={b['commit']}")
    regressions = unresolved = 0
    for workload in (w["name"] for w in spec["workloads"]):
        wa = a["workloads"].get(workload, {})
        wb = b["workloads"].get(workload, {})
        ea, eb = wa.get("end_to_end"), wb.get("end_to_end")
        if ea and eb:
            print(f"== {workload}")
            for m in spec["end_to_end"]:
                name, bound = m["name"], m["bound"]
                va = ea["metrics"][name]["value"]
                vb = eb["metrics"][name]["value"]
                worse = worse_by(va, vb, m["better"])
                verdict = "ok"
                if worse > bound:
                    verdict = "REGRESSION"
                    regressions += 1
                elif name in CALIBRATED and max(
                        _ratio_iqr(ea), _ratio_iqr(eb)) > bound:
                    verdict = "unresolved"
                    unresolved += 1
                print(f"  {name:<26} {va:>14.6g} -> {vb:<14.6g} "
                      f"{worse:+8.2%} worse (bound {bound:.1%}) {verdict}")
        la, lb = wa.get("per_layer"), wb.get("per_layer")
        if la and lb:
            for name, ma in la["metrics"].items():
                mb = lb["metrics"].get(name)
                if (mb and ma["unit"] in EXACT_UNITS
                        and ma["value"] != mb["value"]):
                    print(f"  exact count differs: {name} "
                          f"{ma['value']} -> {mb['value']}")
    print(f"{regressions} regression(s), {unresolved} unresolved")
    return 1 if regressions else 0
