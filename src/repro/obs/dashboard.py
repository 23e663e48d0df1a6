"""The markdown dashboard behind ``python -m repro report``.

One artifact in, one markdown page out: run header, QoE summary,
service rollup highlights, time-series sparklines, the shipped SLO
spec's status and, when the artifact is the plain run a reference in
the store was recorded from (:func:`repro.obs.slo.reference_for`), the
status of the rules that reference generates
(:func:`repro.obs.slo.baseline_rules`, the same gate ``python -m repro
bench`` applies).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.ioutil import UsageError, atomic_write_text
from repro.obs.slo import (
    DEFAULT_SLOS,
    DEFAULT_STORE,
    SloCheck,
    baseline_rules,
    evaluate,
    load_artifact,
    load_store,
    parse_spec,
    reference_for,
)

if TYPE_CHECKING:
    from repro.analysis.report import Reporter

__all__ = ["sparkline", "render_markdown_report", "report_command"]

_SPARK_GLYPHS = "▁▂▃▄▅▆▇█"
#: glyphs in a sparkline: a longer series is downsampled to this
SPARK_WIDTH = 24


def sparkline(values: list[float]) -> str:
    """A unicode mini-plot of a series, downsampled to ``SPARK_WIDTH``."""
    width = SPARK_WIDTH
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


def _checks_section(title: str, checks: list[SloCheck],
                    failed: str) -> list[str]:
    lines = [f"## {title}", ""]
    lines.extend(_md_table(
        ["rule", "value", "status"],
        [[check.rule.text, check.value_text, "ok" if check.ok else failed]
         for check in checks],
    ))
    lines.append("")
    return lines


def render_markdown_report(artifact: dict[str, Any],
                           slo_checks: list[SloCheck] | None = None,
                           baseline_checks: list[SloCheck] | None = None
                           ) -> str:
    """One markdown dashboard for one artifact.

    Sections (each only when the artifact carries the data): run
    header, QoE summary, service report highlights, time-series
    sparklines, SLO status, status against the reference ("Trend").
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
        lines.extend(_checks_section("SLO", slo_checks, "**VIOLATED**"))
    if baseline_checks:
        lines.extend(_checks_section("Trend", baseline_checks,
                                     "**REGRESSED**"))
    return "\n".join(lines)


def report_command(report: Reporter, *, artifact: str | None,
                   out: str | None, baseline: str = DEFAULT_STORE) -> int:
    """``repro report``: the markdown dashboard for one artifact."""
    if artifact is None:
        raise UsageError("needs an artifact: --artifact BENCH_x.json")
    doc, spec_key = load_artifact(artifact)
    spec = DEFAULT_SLOS.get(spec_key or "")
    slo_checks = evaluate(parse_spec(spec), doc) if spec else None
    reference = reference_for(load_store(baseline), doc)
    baseline_checks = (evaluate(baseline_rules(reference), doc)
                       if reference is not None else None)

    markdown = render_markdown_report(doc, slo_checks=slo_checks,
                                      baseline_checks=baseline_checks)
    if out:
        atomic_write_text(out, markdown + "\n")
        report.value("report_path", out)
    else:
        report.text(markdown)
    if slo_checks:
        report.value("slo_violations",
                     sum(1 for c in slo_checks if not c.ok))
    return 0
