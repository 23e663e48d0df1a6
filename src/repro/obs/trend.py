"""Trend analytics over artifact histories, plus the markdown dashboard.

This module is the repo's one regression comparator. It reads a
*trajectory* — BENCH_* / CHAOS_* artifacts in chronological order —
and judges the newest point of each ``(scenario, smoke)`` group
against the robust spread of the points before it. Per metric of
:data:`TREND_METRICS`:

* the history (every point but the newest) yields a median and a MAD
  (median absolute deviation — outlier-proof, unlike stddev);
* the tolerance band is ``max(3 * 1.4826 * MAD, floor * |median|)``
  with the relative floor ``threshold`` (default 10%), so an
  all-identical history (MAD 0) still tolerates small drift;
* the newest point regresses when it leaves the band in the metric's
  bad direction (``higher`` metrics flag drops, ``lower`` metrics
  flag rises, ``stable`` metrics flag both).

A baseline is a history of length one: MAD is 0, the band is
``threshold * |baseline|``, and a ``higher`` metric flags exactly
``(baseline - run) / baseline > threshold``. That is how ``python -m
repro bench`` gates a fresh run against its checked-in reference
(``benchmarks/baseline/``, the one store ``trend`` and ``report`` read
by default too). Every gated metric is simulated — the same on any
host for a given seed and code; host speed is ``benchmarks/e2e``'s
business.

``python -m repro trend`` renders the verdicts as a sparkline table
and exits 1 on any regression; ``python -m repro report`` combines
QoE, the service rollup, time-series plots, SLO status and trend
verdicts into one markdown dashboard.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.ioutil import UsageError, atomic_write_text, read_json
from repro.obs.slo import (
    DEFAULT_SLOS,
    evaluate,
    flatten_metrics,
    load_artifact,
    parse_spec,
)

if TYPE_CHECKING:
    from repro.analysis.report import Reporter

__all__ = ["TrendMetric", "TrendRow", "TREND_METRICS", "DEFAULT_THRESHOLD",
           "DEFAULT_STORE", "load_history", "group_history", "analyze_group",
           "sparkline", "render_markdown_report", "trend_command",
           "report_command"]

#: default relative floor of the band (fraction of the history median)
DEFAULT_THRESHOLD = 0.10
#: the checked-in reference store: one point per (scenario, smoke)
DEFAULT_STORE = os.path.join("benchmarks", "baseline")
#: MAD -> sigma-equivalent scale for normally distributed noise
_MAD_SCALE = 1.4826
#: how many robust sigmas of drift the band tolerates
_BAND_SIGMAS = 3.0

_SPARK_GLYPHS = "▁▂▃▄▅▆▇█"


@dataclass(slots=True, frozen=True)
class TrendMetric:
    """One tracked metric: where it lives and which drift is bad."""

    name: str
    #: "higher" = drop is a regression; "lower" = rise is;
    #: "stable" = any departure from the band is
    direction: str = "higher"


#: the standard trajectory metrics, resolved via ``flatten_metrics``
TREND_METRICS: tuple[TrendMetric, ...] = (
    TrendMetric("completed_ratio", direction="higher"),
    TrendMetric("delivered_ratio", direction="higher"),
    TrendMetric("qoe_p50", direction="higher"),
    # cdn scenarios only: independent-flow over shared-flow egress
    TrendMetric("egress_reduction", direction="higher"),
    TrendMetric("origin_egress_bytes", direction="stable"),
    TrendMetric("peak_link_utilization", direction="lower"),
    TrendMetric("max_queue_depth", direction="lower"),
    # ``events`` (kernel heap entries fired) stays in the artifact
    # ungated: fewer entries is what a cheaper data path looks like
)


@dataclass(slots=True)
class TrendRow:
    """Verdict for one metric over one artifact group."""

    metric: str
    values: list[float] = field(default_factory=list)
    median: float = 0.0
    band: float = 0.0
    last: float = 0.0
    #: "ok" | "regressed" | "insufficient" (fewer than 2 points)
    verdict: str = "insufficient"
    detail: str = ""

    def to_dict(self) -> dict[str, Any]:
        return {
            "metric": self.metric,
            "n": len(self.values),
            "median": self.median,
            "band": self.band,
            "last": self.last,
            "verdict": self.verdict,
            "detail": self.detail,
        }


# -- history loading ---------------------------------------------------------

def load_history(paths: list[str],
                 schema: str | None = None) -> list[dict[str, Any]]:
    """Load artifacts from files and/or directories, oldest first.

    Directories contribute their ``*.json`` files in name order —
    the convention is zero-padded sequence names
    (``BENCH_x.000.json`` < ``BENCH_x.001.json``), so lexicographic
    order *is* chronological. Non-artifact JSON (no recognised
    schema) is skipped, unless the caller says which ``schema`` its
    store holds: then any other file is a usage error, not a
    reference that silently stopped gating.
    """
    files: list[str] = []
    for path in paths:
        if os.path.isdir(path):
            files.extend(
                os.path.join(path, entry)
                for entry in sorted(os.listdir(path))
                if entry.endswith(".json")
            )
        else:
            files.append(path)
    history = []
    for file in files:
        doc = read_json(file)
        found = doc.get("schema") if isinstance(doc, dict) else None
        if schema is not None and found != schema:
            raise UsageError(f"{file} is not a {schema} artifact")
        if isinstance(found, str):
            doc["_path"] = file
            history.append(doc)
    return history


def group_history(history: list[dict[str, Any]]
                  ) -> dict[tuple[str, bool], list[dict[str, Any]]]:
    """Split a history into comparable groups.

    Runs compare only within the same scenario at the same scale:
    the key is ``(scenario-or-name, smoke)``. Order within each
    group preserves the input (chronological) order.
    """
    groups: dict[tuple[str, bool], list[dict[str, Any]]] = {}
    for doc in history:
        name = doc.get("scenario") or doc.get("name") or "?"
        key = (str(name), bool(doc.get("smoke")))
        groups.setdefault(key, []).append(doc)
    return groups


# -- analysis ----------------------------------------------------------------

def _median(values: list[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def analyze_group(artifacts: list[dict[str, Any]],
                  metrics: tuple[TrendMetric, ...] = TREND_METRICS,
                  threshold: float = DEFAULT_THRESHOLD) -> list[TrendRow]:
    """Judge the newest artifact against its history, per metric.

    Metrics absent from every artifact in the group are skipped
    (star topologies have no ``egress_reduction``; pre-time-series
    baselines have no ``peak_link_utilization``).
    """
    flats = [flatten_metrics(doc) for doc in artifacts]
    rows: list[TrendRow] = []
    for metric in metrics:
        values = [flat[metric.name] for flat in flats
                  if metric.name in flat]
        if not values:
            continue
        row = TrendRow(metric=metric.name, values=values,
                       last=values[-1])
        if len(values) < 2:
            row.median = values[-1]
            row.detail = "needs >= 2 comparable runs"
            rows.append(row)
            continue
        history = values[:-1]
        med = _median(history)
        mad = _median([abs(v - med) for v in history])
        band = max(_BAND_SIGMAS * _MAD_SCALE * mad, threshold * abs(med))
        row.median = med
        row.band = band
        delta = values[-1] - med
        bad = (
            (metric.direction == "higher" and delta < -band)
            or (metric.direction == "lower" and delta > band)
            or (metric.direction == "stable" and abs(delta) > band)
        )
        row.verdict = "regressed" if bad else "ok"
        if bad:
            row.detail = (
                f"{metric.name} {values[-1]:g} vs median {med:g} "
                f"(band ±{band:g}, direction {metric.direction})"
            )
        rows.append(row)
    return rows


# -- rendering ---------------------------------------------------------------

def sparkline(values: list[float], width: int = 24) -> str:
    """A unicode mini-plot of a series, downsampled to ``width``."""
    if not values:
        return ""
    if len(values) > width:
        # Max-of-bucket keeps transient spikes visible when shrinking.
        step = len(values) / width
        values = [
            max(values[int(i * step):max(int(i * step) + 1,
                                         int((i + 1) * step))])
            for i in range(width)
        ]
    lo, hi = min(values), max(values)
    span = hi - lo
    if span <= 0:
        return _SPARK_GLYPHS[0] * len(values)
    return "".join(
        _SPARK_GLYPHS[min(len(_SPARK_GLYPHS) - 1,
                          int((v - lo) / span * len(_SPARK_GLYPHS)))]
        for v in values
    )


def _md_table(headers: list[str], rows: list[list[Any]]) -> list[str]:
    lines = ["| " + " | ".join(str(h) for h in headers) + " |",
             "|" + "|".join(" --- " for _ in headers) + "|"]
    lines.extend("| " + " | ".join(str(c) for c in row) + " |"
                 for row in rows)
    return lines


def render_markdown_report(artifact: dict[str, Any],
                           trend_rows: list[TrendRow] | None = None,
                           slo_checks: list[Any] | None = None) -> str:
    """One markdown dashboard for one artifact.

    Sections (each only when the artifact carries the data): run
    header, QoE summary, service report highlights, time-series
    sparklines, SLO status, trend verdicts.
    """
    name = artifact.get("scenario") or artifact.get("name") or "run"
    lines = [f"# Run report — {name}", ""]
    facts = [
        ("schema", artifact.get("schema")),
        ("seed", artifact.get("seed")),
        ("clients", artifact.get("clients")),
        ("duration_s", artifact.get("duration_s")),
        ("smoke", artifact.get("smoke")),
        ("completed", artifact.get("completed")),
        ("sessions", artifact.get("sessions")),
    ]
    lines.extend(_md_table(["key", "value"],
                           [[k, v] for k, v in facts if v is not None]))
    lines.append("")

    qoe = artifact.get("qoe") or {}
    score = qoe.get("score") or {}
    if score:
        lines.extend(["## QoE", ""])
        lines.extend(_md_table(
            ["metric", "p50", "p95"],
            [[key,
              f"{(qoe.get(key) or {}).get('p50', 0.0):.2f}",
              f"{(qoe.get(key) or {}).get('p95', 0.0):.2f}"]
             for key in ("score", "startup_s", "stall_time_s")
             if isinstance(qoe.get(key), dict)],
        ))
        lines.append("")

    service = artifact.get("service") or {}
    if service.get("servers"):
        lines.extend(["## Service", ""])
        lines.extend(_md_table(
            ["media server", "region", "mean streams", "peak"],
            [[srv, entry.get("region", "?"),
              f"{entry.get('mean_streams', 0.0):.2f}",
              entry.get("peak_streams", 0)]
             for srv, entry in sorted(service["servers"].items())],
        ))
        admission = service.get("admission") or {}
        if admission.get("requests"):
            lines.append("")
            lines.append(
                f"Admission: {admission.get('admitted', 0)} admitted, "
                f"{admission.get('rejected', 0)} rejected "
                f"(blocking {admission.get('blocking_prob', 0.0):.4f})"
            )
        lines.append("")

    ts = artifact.get("timeseries") or {}
    columns = ts.get("columns") or {}
    if columns:
        lines.extend([
            "## Time series",
            "",
            f"interval {ts.get('interval_s')}s · {ts.get('ticks')} ticks",
            "",
        ])
        rows = []
        for col in sorted(columns):
            values = [float(v) for v in columns[col].get("values", ())]
            peak = max(values) if values else 0.0
            rows.append([f"`{col}`", sparkline(values), f"{peak:g}"])
        lines.extend(_md_table(["column", "trajectory", "peak"], rows))
        lines.append("")

    if slo_checks:
        lines.extend(["## SLO", ""])
        lines.extend(_md_table(
            ["rule", "value", "status"],
            [[check.rule.text,
              "missing" if check.value is None else f"{check.value:g}",
              "ok" if check.ok else "**VIOLATED**"]
             for check in slo_checks],
        ))
        lines.append("")

    if trend_rows:
        lines.extend(["## Trend", ""])
        lines.extend(_md_table(
            ["metric", "history", "median", "last", "verdict"],
            [[row.metric, sparkline(row.values), f"{row.median:g}",
              f"{row.last:g}",
              "**REGRESSED**" if row.verdict == "regressed"
              else row.verdict]
             for row in trend_rows],
        ))
        lines.append("")

    return "\n".join(lines)


# -- the two commands ---------------------------------------------------------

def _or_default_store(history: list[str]) -> list[str]:
    """``--history`` as given, else the checked-in store if present."""
    if history or not os.path.isdir(DEFAULT_STORE):
        return history
    return [DEFAULT_STORE]


def trend_command(report: Reporter, *, history: list[str],
                  artifact: list[str],
                  threshold: float = DEFAULT_THRESHOLD) -> int:
    """``repro trend``: newest run vs history; 1 on any regression."""
    # --artifact files load after the history so they land as the
    # newest (judged) point of their scenario group.
    docs = load_history(_or_default_store(history) + artifact)
    if not docs:
        raise UsageError("no artifacts found; pass --history DIR and/or "
                         "--artifact FILE")

    regressions = 0
    rows = []
    for (name, smoke), group in sorted(group_history(docs).items()):
        label = name + (" (smoke)" if smoke else "")
        for row in analyze_group(group, threshold=threshold):
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


def report_command(report: Reporter, *, artifact: str | None,
                   out: str | None, history: list[str]) -> int:
    """``repro report``: the markdown dashboard for one artifact."""
    if artifact is None:
        raise UsageError("needs an artifact: --artifact BENCH_x.json")
    doc, spec_key = load_artifact(artifact)
    spec = DEFAULT_SLOS.get(spec_key or "")
    slo_checks = evaluate(parse_spec(spec), doc) if spec else None

    trend_rows = None
    history = _or_default_store(history)
    if history:
        groups = group_history(load_history(history) + [doc])
        # the artifact is the newest point of whichever group it joined
        trend_rows = analyze_group(next(
            group for group in groups.values() if group[-1] is doc))

    markdown = render_markdown_report(doc, trend_rows=trend_rows,
                                      slo_checks=slo_checks)
    if out:
        atomic_write_text(out, markdown + "\n")
        report.value("report_path", out)
    else:
        report.text(markdown)
    if slo_checks:
        report.value("slo_violations",
                     sum(1 for c in slo_checks if not c.ok))
    return 0
