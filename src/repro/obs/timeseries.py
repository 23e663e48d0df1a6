"""Fixed-interval time-series telemetry on the DES clock.

A :class:`TimeSeriesSampler` — the engine's one telemetry process —
ticks every ``INTERVAL_S`` of simulated time and appends one row to a
columnar :class:`TimeSeries` (the columns are listed on the sampler).
Sampling rides the simulated clock, so the series is exactly
reproducible run-to-run; its schema-stamped form (``repro.timeseries``
v1) rides in BENCH_* artifacts under the ``timeseries`` key,
and the run's ``repro.service`` document reads its loads off it.

Shard-merge contract: every column declares how it combines *across
shards* (``merge``: level gauges and interval deltas add, engine-local
gauges take the max). :func:`merge_series_docs` folds documents by it;
the operation is associative and commutative with the empty series as
identity, so N shards sampled anywhere merge to one result.
"""

from __future__ import annotations

import operator
from itertools import zip_longest
from typing import Any, Callable, Iterable, Iterator

from repro.obs.service_metrics import egress_by_host

__all__ = ["TimeSeries", "TimeSeriesSampler", "merge_series_docs",
           "TIMESERIES_SCHEMA", "TIMESERIES_SCHEMA_VERSION"]

TIMESERIES_SCHEMA = "repro.timeseries"
TIMESERIES_SCHEMA_VERSION = 1
#: simulated seconds between two sampler ticks
INTERVAL_S = 0.25

#: column combine operations (cross-shard merge), by name
_COMBINE: dict[str, Callable[[float, float], float]] = {
    "sum": operator.add, "max": max}


class TimeSeries:
    """The live columnar series one sampler appends to.

    Row ``k`` covers simulated time ``(k*interval_s, (k+1)*interval_s]``.
    A column is held in its document form, ``{"merge", "values"}``; one
    declared mid-run (an edge replica spun up late) is zero-padded back
    to tick 0, so every column always has ``ticks`` values.
    """

    def __init__(self) -> None:
        self.interval_s = INTERVAL_S
        self.ticks = 0
        self.columns: dict[str, dict[str, Any]] = {}

    def ensure_column(self, name: str, merge: str = "sum") -> None:
        """Declare a column (idempotent); zero-pads to the current tick."""
        if name not in self.columns:
            if merge not in _COMBINE:
                raise ValueError(f"column merge op must be one of "
                                 f"{tuple(_COMBINE)}: {merge!r}")
            self.columns[name] = {"merge": merge,
                                  "values": [0.0] * self.ticks}

    def tick(self, row: dict[str, float]) -> None:
        """Append one sample row; absent columns record 0.0."""
        for name in row:
            if name not in self.columns:
                raise KeyError(
                    f"column {name!r} not declared; call ensure_column first"
                )
        for name, col in self.columns.items():
            col["values"].append(float(row.get(name, 0.0)))
        self.ticks += 1

    def values(self, name: str) -> list[float]:
        col = self.columns.get(name)
        return list(col["values"]) if col is not None else []

    def to_dict(self) -> dict[str, Any]:
        """Deterministic JSON form (sorted columns, plain lists)."""
        return {
            "schema": TIMESERIES_SCHEMA,
            "version": TIMESERIES_SCHEMA_VERSION,
            "interval_s": self.interval_s,
            "ticks": self.ticks,
            "columns": _copy_columns(self.columns),
        }


def _copy_columns(columns: dict[str, dict[str, Any]]) -> dict[str, Any]:
    """Sorted copies, without the ``resample`` key older writers added."""
    return {name: {"merge": col["merge"], "values": list(col["values"])}
            for name, col in sorted(columns.items())}


def merge_series_docs(docs: Iterable[dict[str, Any]]) -> dict[str, Any]:
    """Left-fold ``repro.timeseries`` documents into a new one.

    Column sets union; a column absent from a document (or a shorter
    document past its last tick) contributes zeros. ``sum`` columns
    add per tick, ``max`` columns take the per-tick max — so an empty
    series is the identity. Differing intervals, or one column merged
    by two ops, raise :class:`ValueError`.
    """
    out: dict[str, Any] | None = None
    for doc in docs:
        if out is None:
            out = {**doc, "columns": _copy_columns(doc["columns"])}
            continue
        if doc["interval_s"] != out["interval_s"]:
            raise ValueError(
                f"cannot merge series with different intervals "
                f"({out['interval_s']} != {doc['interval_s']})")
        ticks = max(out["ticks"], doc["ticks"])
        columns: dict[str, dict[str, Any]] = {}
        for name in sorted(set(out["columns"]) | set(doc["columns"])):
            a, b = out["columns"].get(name), doc["columns"].get(name)
            if a and b and a["merge"] != b["merge"]:
                raise ValueError(
                    f"column {name!r} has conflicting ops across shards")
            op = (a or b)["merge"]
            combine = _COMBINE[op]
            values = [combine(x, y) for x, y in zip_longest(
                a["values"] if a else [], b["values"] if b else [],
                fillvalue=0.0)]
            values += [0.0] * (ticks - len(values))
            columns[name] = {"merge": op, "values": values}
        out = {**out, "ticks": ticks, "columns": columns}
    if out is None:
        raise ValueError("merge needs at least one series document")
    return out


class TimeSeriesSampler:
    """The engine's one telemetry process: samples on the DES clock.

    Attach via ``engine.attach_timeseries()``; read the trajectory
    from :attr:`series`. Columns:

    ======================== ===== =======================================
    column                   merge meaning (per tick)
    ======================== ===== =======================================
    ``streams.<ms>``         sum   viewer legs one media server serves,
                                   shared or not (level)
    ``egress_bytes.<host>``  sum   bytes leaving a serving host during
                                   the interval (delta)
    ``link_utilization``     max   busiest link's busy-time fraction
                                   this interval
    ``admit_accepted.<srv>`` sum   admissions during interval
    ``admit_rejected.<srv>`` sum   refusals during interval
    ``buffer_occupancy_s``   max   fullest client media buffer
                                   (engine-local gauge)
    ``event_queue_depth``    max   DES heap entries of the *system*
                                   (engine-local), not the sampler's
                                   own timer: one per packet in a link
    ======================== ===== =======================================

    The two engine-local gauges describe *this* engine's internals, so
    after a shard merge they read "worst across shards", not a
    population-wide level — the other columns aggregate exactly.
    """

    #: columns that never compare across an engine boundary
    ENGINE_LOCAL = ("buffer_occupancy_s", "event_queue_depth")

    def __init__(self, engine: Any) -> None:
        self.engine = engine
        self.sim = engine.sim
        self.interval_s = INTERVAL_S
        self.series = TimeSeries()
        self._started = False
        self._last_egress: dict[str, int] = {}
        self._last_busy: dict[Any, float] = {}
        self._last_admit: dict[str, tuple[int, int]] = {}

    def start(self) -> None:
        """Spawn the sampler process (idempotent)."""
        if self._started:
            return
        self._started = True
        self.sim.process(self._sampler(), name="timeseries-sampler")

    def _sampler(self) -> Iterator[Any]:
        while True:
            yield self.sim.timeout(self.interval_s)
            self.sample()

    # -- one tick ------------------------------------------------------------
    def sample(self) -> None:
        eng = self.engine
        series = self.series
        row: dict[str, float] = {}

        # Viewer legs served per media server (level gauge): a shared
        # pump is registered once per leg.
        for name in sorted(eng.servers):
            for ms in eng.servers[name].all_media_servers():
                col = f"streams.{ms.name}"
                series.ensure_column(col, merge="sum")
                row[col] = float(len(ms.streams))

        # Per-interval egress off each serving host (delta counter).
        for host, entry in egress_by_host(eng).items():
            col = f"egress_bytes.{host}"
            series.ensure_column(col, merge="sum")
            cur = entry["bytes"]
            row[col] = float(cur - self._last_egress.get(host, 0))
            self._last_egress[host] = cur

        # Peak link utilization over the interval (busy-time delta).
        series.ensure_column("link_utilization", merge="max")
        peak_util = 0.0
        for key, link in eng.network.links.items():
            busy = link.stats.busy_time
            util = (busy - self._last_busy.get(key, 0.0)) / self.interval_s
            self._last_busy[key] = busy
            if util > peak_util:
                peak_util = util
        row["link_utilization"] = min(1.0, peak_util)

        # Admission accept/reject deltas per multimedia server.
        for name in sorted(eng.servers):
            stats = eng.servers[name].admission.stats
            a_col = f"admit_accepted.{name}"
            r_col = f"admit_rejected.{name}"
            series.ensure_column(a_col, merge="sum")
            series.ensure_column(r_col, merge="sum")
            last_a, last_r = self._last_admit.get(name, (0, 0))
            row[a_col] = float(stats.admitted - last_a)
            row[r_col] = float(stats.rejected - last_r)
            self._last_admit[name] = (stats.admitted, stats.rejected)

        # Fullest client media buffer (engine-local gauge).
        series.ensure_column("buffer_occupancy_s", merge="max")
        occupancy = 0.0
        for comp in getattr(eng, "compositions", ()):
            for buf in comp.scheduler.buffers.values():
                if buf.occupancy_s > occupancy:
                    occupancy = buf.occupancy_s
        row["buffer_occupancy_s"] = occupancy

        # DES heap size (engine-local gauge); this process's next
        # timeout is scheduled only after the sample returns.
        series.ensure_column("event_queue_depth", merge="max")
        row["event_queue_depth"] = float(len(self.sim._heap))

        series.tick(row)
