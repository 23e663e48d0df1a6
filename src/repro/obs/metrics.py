"""Streaming histograms: bucketed distributions that merge.

A :class:`Histogram` keeps count/sum/min/max and per-bucket counts, so
percentiles come out of a bounded structure and two shards' histograms
add. The QoE scorer, the lifecycle join and the service report hold
theirs directly; nothing here knows who is observing.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Sequence

__all__ = ["Histogram", "log_buckets"]

#: default histogram bucket upper bounds (seconds-flavoured)
DEFAULT_BUCKETS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0,
                   60.0, float("inf"))

#: percentiles reported by :meth:`Histogram.percentiles` by default
QUANTILES = (0.50, 0.95, 0.99)


def log_buckets(lo: float, hi: float,
                per_decade: int = 9) -> tuple[float, ...]:
    """Logarithmically spaced bucket bounds from ``lo`` to past ``hi``.

    ``per_decade`` bounds per factor-of-ten keeps the relative
    quantile error bounded (~±12% at the default 9/decade) with a
    number of buckets that grows only with the dynamic range — the
    streaming-percentile trade-off the QoE scorer relies on. The
    returned tuple always ends with ``+inf``.
    """
    if lo <= 0 or hi <= lo:
        raise ValueError("need 0 < lo < hi")
    if per_decade < 1:
        raise ValueError("per_decade must be >= 1")
    factor = 10.0 ** (1.0 / per_decade)
    bounds = [lo]
    while bounds[-1] < hi:
        bounds.append(bounds[-1] * factor)
    bounds.append(float("inf"))
    return tuple(bounds)


@dataclass(slots=True)
class Histogram:
    """Bucketed distribution with count/sum/min/max summary."""

    bounds: tuple[float, ...] = DEFAULT_BUCKETS
    bucket_counts: list[int] = field(default_factory=list)
    count: int = 0
    total: float = 0.0
    min: float = float("inf")
    max: float = float("-inf")

    def __post_init__(self) -> None:
        if not self.bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if list(self.bounds) != sorted(self.bounds):
            raise ValueError("bucket bounds must be sorted")
        if not self.bucket_counts:
            self.bucket_counts = [0] * len(self.bounds)

    def observe(self, value: float) -> None:
        self.observe_many((value,))

    def observe_many(self, values: Sequence[float]) -> None:
        """Observe a batch in one call. A value counts in the first
        bucket whose bound is >= it (in none past the last bound);
        ``total`` adds in the given order, so a batch leaves exactly
        what observing each value in turn does."""
        if not values:
            return
        self.count += len(values)
        self.min = min(self.min, min(values))
        self.max = max(self.max, max(values))
        bounds = self.bounds
        buckets = self.bucket_counts
        total = self.total
        for value in values:
            total += value
            i = bisect_left(bounds, value)
            if i < len(buckets):
                buckets[i] += 1
        self.total = total

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimate the q-quantile from the buckets.

        Prometheus-style: locate the bucket holding the target rank
        and interpolate linearly inside it; the open-ended last bucket
        reports the observed maximum. The result is clamped to the
        observed [min, max], so exact at the extremes and within one
        bucket's width elsewhere.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        target = q * self.count
        cumulative = 0
        for i, n in enumerate(self.bucket_counts):
            previous = cumulative
            cumulative += n
            if cumulative >= target and n > 0:
                hi = self.bounds[i]
                if hi == float("inf"):
                    return self.max
                lo = self.bounds[i - 1] if i > 0 else 0.0
                est = lo + (hi - lo) * (target - previous) / n
                return min(max(est, self.min), self.max)
        return self.max

    def percentiles(self) -> dict[str, float]:
        """{"p50": ..., "p95": ...} for the ``QUANTILES``."""
        return {f"p{round(q * 100):d}": self.quantile(q)
                for q in QUANTILES}

    def merge(self, other: "Histogram") -> "Histogram":
        """A new histogram holding both distributions.

        Associative and commutative (bucket counts and totals add;
        min/max combine), so shard results can merge in any order.
        Both operands must share identical bucket bounds — merging
        differently bucketed histograms would silently misplace mass.
        """
        if self.bounds != other.bounds:
            raise ValueError(
                "cannot merge histograms with different bucket bounds"
            )
        merged = Histogram(
            bounds=self.bounds,
            bucket_counts=[a + b for a, b in
                           zip(self.bucket_counts, other.bucket_counts)],
            count=self.count + other.count,
            total=self.total + other.total,
            min=min(self.min, other.min),
            max=max(self.max, other.max),
        )
        return merged

    def summary(self) -> dict[str, float]:
        if not self.count:
            return {"count": 0, "sum": 0.0, "mean": 0.0,
                    "min": 0.0, "max": 0.0,
                    "p50": 0.0, "p95": 0.0, "p99": 0.0}
        return {"count": self.count, "sum": self.total, "mean": self.mean,
                "min": self.min, "max": self.max, **self.percentiles()}
