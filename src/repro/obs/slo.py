"""Declarative SLO gates over run artifacts.

The paper's operator sells QoS *contracts*; an SLO spec is the
operator-side mirror — the service levels a run must hold. A spec is
a list of plain-text rules::

    qoe_p50 >= 70
    blocking_prob <= 0.05
    time_to_recover_p95 <= 2.0
    origin_egress_bps <= 40e6

evaluated against the flattened metrics of a ``BENCH_*.json``
artifact. Well-known aliases
(:data:`METRIC_ALIASES`) cover the headline service metrics; any
other metric name is resolved as a dotted path into the artifact
(``service.admission.requests``). ``python -m repro slo`` judges a
saved artifact and exits 1 on any violated rule.

Every run is gated here and nowhere else: ``python -m repro bench``
holds each scenario's artifact, from one engine or sharded, to its
shipped spec, plus the rules its checked-in reference generates
(:func:`baseline_rules`) when it is the plain run that reference was
recorded from (:func:`reference_for`, which ``repro report`` asks
too).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.ioutil import UsageError, read_json
from repro.obs import BENCH_SCHEMA

if TYPE_CHECKING:
    from repro.analysis.report import Reporter

__all__ = ["SloRule", "SloCheck", "parse_rule", "parse_spec",
           "flatten_metrics", "timeseries_metrics", "evaluate",
           "load_artifact", "report_gate", "slo_command", "DEFAULT_SLOS",
           "METRIC_ALIASES", "TREND_METRICS", "BASELINE_TOLERANCE",
           "DEFAULT_STORE", "baseline_rules", "store_key", "load_store",
           "reference_for"]

#: comparison operators, longest first so ``<=`` wins over ``<``
_OPS: tuple[tuple[str, Any], ...] = (
    ("<=", lambda a, b: a <= b),
    (">=", lambda a, b: a >= b),
    ("==", lambda a, b: a == b),
    ("!=", lambda a, b: a != b),
    ("<", lambda a, b: a < b),
    (">", lambda a, b: a > b),
)

#: alias -> dotted artifact paths tried in order (first hit wins)
METRIC_ALIASES: dict[str, tuple[str, ...]] = {
    "qoe_p50": ("qoe.score.p50",),
    "qoe_p95": ("qoe.score.p95",),
    "startup_p95": ("qoe.startup_s.p95",),
    "blocking_prob": ("service.admission.blocking_prob",),
    "admission_requests": ("service.admission.requests",),
    "time_to_detect_p95": ("service.recovery.time_to_detect_s.p95",),
    "time_to_recover_p95": ("service.recovery.time_to_recover_s.p95",),
    "recoveries": ("service.recovery.streams_failed_over",),
    "streams_lost": ("service.recovery.streams_lost",),
    "origin_egress_bytes": ("service.egress.origin_bytes",
                            "origin_egress_bytes"),
    "origin_egress_bps": ("service.egress.origin_egress_bps",),
    "egress_reduction": ("egress_reduction",),
    "events": ("events",),
}

#: what every chaos scenario must hold besides its delivery floor
_CHAOS: tuple[str, ...] = (
    "blocking_prob <= 0.05",
    "time_to_recover_p95 <= 2.0",
    "streams_lost <= 0",
    "peak_link_utilization <= 0.9",
    "max_queue_depth <= 10000",
)

#: shipped default specs, keyed by scenario name
DEFAULT_SLOS: dict[str, tuple[str, ...]] = {
    "population_clean": (
        "qoe_p50 >= 70",
        "completed_ratio >= 0.95",
        "blocking_prob <= 0.05",
        "time_to_recover_p95 <= 2.0",
        "peak_link_utilization <= 0.9",  # transient saturation guard
    ),
    "population_lossy": (
        "qoe_p50 >= 40",
        "completed_ratio >= 0.95",
        "blocking_prob <= 0.05",
    ),
    "cdn_hot": (
        "qoe_p50 >= 60",
        "completed_ratio >= 0.95",
        "blocking_prob <= 0.05",
        "egress_reduction >= 2.0",
        "peak_link_utilization <= 0.9",
        "max_queue_depth <= 10000",  # event-queue blow-up guard
    ),
    # one per chaos scenario: the common rules behind its delivery floor
    "none": ("delivered_ratio >= 0.75", *_CHAOS),
    "crash": ("delivered_ratio >= 0.8", *_CHAOS),
    "flap": ("delivered_ratio >= 0.75", "completed_ratio >= 1.0", *_CHAOS),
    "partition": ("delivered_ratio >= 0.75", *_CHAOS),
    "combo": ("delivered_ratio >= 0.75", *_CHAOS),
    "replica-crash": ("delivered_ratio >= 1.0", *_CHAOS),
}

#: the metrics a reference artifact gates, each with its bad direction:
#: "higher" = a drop regresses, "lower" = a rise does, "stable" = both
TREND_METRICS: tuple[tuple[str, str], ...] = (
    ("completed_ratio", "higher"),
    ("delivered_ratio", "higher"),
    ("qoe_p50", "higher"),
    # cdn scenarios only: independent-flow over shared-flow egress
    ("egress_reduction", "higher"),
    ("origin_egress_bytes", "stable"),
    ("peak_link_utilization", "lower"),
    ("max_queue_depth", "lower"),
    # ``events`` (kernel heap entries fired) stays in the artifact
    # ungated: fewer entries is what a cheaper data path looks like
)

#: how far a run may drift from its reference, as a share of |reference|
BASELINE_TOLERANCE = 0.10
#: the checked-in reference store: one artifact per (scenario, smoke)
DEFAULT_STORE = os.path.join("benchmarks", "baseline")


@dataclass(slots=True, frozen=True)
class SloRule:
    """One parsed rule: ``metric op threshold``."""

    metric: str
    op: str
    threshold: float

    @property
    def text(self) -> str:
        return f"{self.metric} {self.op} {self.threshold:g}"


@dataclass(slots=True)
class SloCheck:
    """The outcome of one rule against one artifact."""

    rule: SloRule
    value: float | None
    ok: bool

    @property
    def value_text(self) -> str:
        return "missing" if self.value is None else f"{self.value:g}"

    def to_dict(self) -> dict[str, Any]:
        return {
            "rule": self.rule.text,
            "metric": self.rule.metric,
            "op": self.rule.op,
            "threshold": self.rule.threshold,
            "value": self.value,
            "ok": self.ok,
        }


def parse_rule(text: str) -> SloRule:
    """Parse ``"qoe_p50 >= 70"`` into an :class:`SloRule`."""
    stripped = text.split("#", 1)[0].strip()
    for op, _fn in _OPS:
        if op in stripped:
            left, _, right = stripped.partition(op)
            metric = left.strip()
            try:
                threshold = float(right.strip())
            except ValueError:
                raise ValueError(
                    f"bad SLO threshold in {text!r}: {right.strip()!r}"
                ) from None
            if not metric:
                raise ValueError(f"bad SLO rule (no metric): {text!r}")
            return SloRule(metric=metric, op=op, threshold=threshold)
    raise ValueError(
        f"bad SLO rule {text!r}: expected '<metric> <op> <number>' "
        f"with op one of {[op for op, _ in _OPS]}"
    )


def parse_spec(lines: list[str] | tuple[str, ...]) -> list[SloRule]:
    """Parse a spec: one rule per line; blanks and ``#`` comments skip."""
    rules = []
    for line in lines:
        stripped = line.split("#", 1)[0].strip()
        if stripped:
            rules.append(parse_rule(stripped))
    return rules


def _dig(doc: Any, path: str) -> float | None:
    node = doc
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        return None
    return float(node)


def flatten_metrics(artifact: dict[str, Any]) -> dict[str, float]:
    """Metric name -> value view of one artifact.

    Includes every alias that resolves, plus derived ratios
    (``completed_ratio``, ``delivered_ratio``) when the artifact
    carries session counts. Rule evaluation falls back to dotted
    paths for anything not precomputed here.
    """
    out: dict[str, float] = {}
    for alias in sorted(METRIC_ALIASES):
        for path in METRIC_ALIASES[alias]:
            value = _dig(artifact, path)
            if value is not None:
                out[alias] = value
                break
    sessions = _dig(artifact, "sessions")
    if sessions:
        completed = _dig(artifact, "completed")
        if completed is not None:
            out["completed_ratio"] = completed / sessions
        delivered = _dig(artifact, "delivered")
        if delivered is not None:
            out["delivered_ratio"] = delivered / sessions
    out.update(timeseries_metrics(artifact))
    return out


def timeseries_metrics(artifact: dict[str, Any]) -> dict[str, float]:
    """Peaks derived from the artifact's ``timeseries`` trajectory.

    End-of-run means hide transient saturation; these read the
    sampled series so a rule like ``peak_link_utilization <= 0.9``
    catches a brief hot interval. Empty when the artifact carries no
    time series (pre-PR-8 baselines age gracefully; rules naming
    these metrics then fail closed, as always).
    """
    ts = artifact.get("timeseries")
    if not isinstance(ts, dict):
        return {}
    columns = ts.get("columns", {})

    def _values(name: str) -> list[float]:
        # canonical_json (digest serialization) stringifies floats,
        # so coerce on the way in.
        raw = (columns.get(name) or {}).get("values") or ()
        return [float(v) for v in raw]

    def peak(name: str) -> float | None:
        values = _values(name)
        return max(values) if values else None

    out: dict[str, float] = {}
    util = peak("link_utilization")
    if util is not None:
        out["peak_link_utilization"] = util
    depth = peak("event_queue_depth")
    if depth is not None:
        out["max_queue_depth"] = depth
    # Population-wide concurrency: sum the per-server stream levels
    # tick-wise, then take the peak tick.
    stream_cols = [_values(name) for name in columns
                   if name.startswith("streams.")]
    if stream_cols:
        ticks = max(len(v) for v in stream_cols)
        out["peak_concurrent_streams"] = max(
            (sum(v[i] for v in stream_cols if i < len(v))
             for i in range(ticks)), default=0.0)
    return out


def _resolve(metric: str, flat: dict[str, float],
             artifact: dict[str, Any]) -> float | None:
    if metric in flat:
        return flat[metric]
    return _dig(artifact, metric)


def evaluate(rules: list[SloRule],
             artifact: dict[str, Any]) -> list[SloCheck]:
    """Check every rule; a missing metric fails its rule.

    Failing closed on absent metrics is deliberate: an SLO that
    silently passes because the run stopped reporting the metric is
    worse than a red gate.
    """
    flat = flatten_metrics(artifact)
    checks = []
    for rule in rules:
        value = _resolve(rule.metric, flat, artifact)
        if value is None:
            checks.append(SloCheck(rule=rule, value=None, ok=False))
            continue
        fn = dict(_OPS)[rule.op]
        checks.append(SloCheck(rule=rule, value=value,
                               ok=bool(fn(value, rule.threshold))))
    return checks


def load_artifact(path: str) -> tuple[dict[str, Any], str | None]:
    """A saved artifact and the key of its shipped default spec."""
    artifact = read_json(path)
    if not isinstance(artifact, dict):
        raise UsageError(f"{path} is not a run artifact (a JSON object)")
    return artifact, artifact.get("name") or artifact.get("scenario")


def baseline_rules(reference: dict[str, Any]) -> list[SloRule]:
    """The spec a reference artifact stands for.

    Per :data:`TREND_METRICS` entry the reference carries, with ``b``
    its value and ``t`` :data:`BASELINE_TOLERANCE`: a ``higher``
    metric must stay ``>= b - t*|b|``, a ``lower`` one ``<= b + t*|b|``
    and a ``stable`` one both. A run that stops reporting a gated
    metric fails its rule, as every rule does.
    """
    flat = flatten_metrics(reference)
    rules = []
    for metric, direction in TREND_METRICS:
        if metric not in flat:
            continue
        base = flat[metric]
        band = BASELINE_TOLERANCE * abs(base)
        if direction != "lower":
            rules.append(SloRule(metric=metric, op=">=",
                                 threshold=base - band))
        if direction != "higher":
            rules.append(SloRule(metric=metric, op="<=",
                                 threshold=base + band))
    return rules


def store_key(artifact: dict[str, Any]) -> tuple[str, bool]:
    """What a run and its reference share: scenario and scale."""
    name = artifact.get("scenario") or artifact.get("name") or "?"
    return str(name), bool(artifact.get("smoke"))


def load_store(directory: str) -> dict[tuple[str, bool], dict[str, Any]]:
    """The reference artifacts in ``directory`` by :func:`store_key`
    (none when there is no such directory).

    Every ``*.json`` there must be a bench artifact, and no two may
    share a key: either is a usage error, not a reference that silently
    stopped gating.
    """
    if not os.path.isdir(directory):
        return {}
    store: dict[tuple[str, bool], dict[str, Any]] = {}
    for entry in sorted(os.listdir(directory)):
        if not entry.endswith(".json"):
            continue
        path = os.path.join(directory, entry)
        doc = read_json(path)
        if not isinstance(doc, dict) or doc.get("schema") != BENCH_SCHEMA:
            raise UsageError(f"{path} is not a {BENCH_SCHEMA} artifact")
        key = store_key(doc)
        if key in store:
            raise UsageError(f"{path} is a second reference for "
                             f"{key[0]} (smoke={key[1]})")
        store[key] = doc
    return store


def reference_for(store: dict[tuple[str, bool], dict[str, Any]],
                  artifact: dict[str, Any]) -> dict[str, Any] | None:
    """The reference in ``store`` that gates ``artifact``, or None.

    A reference is the plain run of its scenario at one scale, and it
    gates only that run: unsharded, at the clients and seed it was
    recorded with. A resized, reseeded or sharded run has none.
    """
    reference = store.get(store_key(artifact))
    if reference is None or "shards" in artifact or any(
            artifact.get(key) != reference.get(key)
            for key in ("clients", "seed")):
        return None
    return reference


def report_gate(report: Reporter, checks: list[SloCheck],
                artifact: dict[str, Any]) -> int:
    """Print the check table, the artifact's service report and the
    ``violations`` count; return that count."""
    report.table(
        "SLO evaluation",
        ["rule", "value", "status"],
        [[c.rule.text, c.value_text, "PASS" if c.ok else "FAIL"]
         for c in checks],
    )
    service = artifact.get("service")
    if isinstance(service, dict) and service:
        report.service_report(service)
    violations = sum(1 for c in checks if not c.ok)
    report.value("violations", violations)
    return violations


def slo_command(report: Reporter, *, artifact: str,
                spec_file: str | None, rule: list[str]) -> int:
    """``repro slo``: evaluate SLO rules against a saved artifact; 1 on
    any violated rule. Without ``--spec-file`` / ``--rule`` the spec is
    the shipped one named like the artifact's scenario."""
    doc, key = load_artifact(artifact)
    try:
        lines: list[str] = []
        if spec_file is not None:
            with open(spec_file, encoding="utf-8") as fh:
                lines = fh.read().splitlines()
        rules = parse_spec(lines + rule)
    except (OSError, ValueError) as exc:
        raise UsageError(f"unusable SLO rules: {exc}") from None
    if not rules:
        shipped = DEFAULT_SLOS.get(key or "")
        if shipped is None:
            raise UsageError(f"no shipped SLO spec for {key!r}: pass "
                             "--spec-file or --rule")
        report.value("spec", key)
        rules = parse_spec(shipped)
    return 1 if report_gate(report, evaluate(rules, doc), doc) else 0
