"""Merge laws for sharded population results.

Two layers, with different algebraic strength:

* **Population documents** (outcome lists) merge exactly: outcomes
  concatenate and re-sort by global session index. Sorted union is
  associative and commutative with :func:`empty_population_doc` as
  identity — property-tested over arbitrary splits and orders.

* **Telemetry** merges are mathematically associative but sum
  floats, and float addition is not bit-exact under re-association.
  The final merge therefore always folds cell documents in
  **canonical order** (sorted by cell index), never incrementally per
  shard — so any permutation of any partition of the cells produces
  byte-identical merged telemetry, which is what makes the population
  digest shard-count-invariant. The series merge first
  (:func:`~repro.obs.timeseries.merge_series_docs`); the service
  documents then merge their counters and read their loads off the
  merged series (:func:`~repro.obs.service_metrics.merge_service_docs`),
  so the two never disagree.
"""

from __future__ import annotations

from typing import Any

__all__ = [
    "empty_population_doc",
    "session_index",
    "merge_population_docs",
    "merge_cell_docs",
]


def empty_population_doc() -> dict[str, Any]:
    """The merge identity: no outcomes."""
    return {"outcomes": []}


def session_index(outcome: dict[str, Any]) -> int:
    """Global session index from an outcome doc (``sess-17`` -> 17)."""
    sid = str(outcome.get("session_id", ""))
    try:
        return int(sid.rsplit("-", 1)[1])
    except (IndexError, ValueError):
        raise ValueError(f"outcome has no global session id: {sid!r}") \
            from None


def merge_population_docs(a: dict[str, Any],
                          b: dict[str, Any]) -> dict[str, Any]:
    """Exact merge of two population docs (see module docstring)."""
    outcomes = sorted(
        list(a.get("outcomes", [])) + list(b.get("outcomes", [])),
        key=session_index,
    )
    seen: set[int] = set()
    for o in outcomes:
        idx = session_index(o)
        if idx in seen:
            raise ValueError(
                f"duplicate session index {idx} in population merge")
        seen.add(idx)
    return {"outcomes": outcomes}


def merge_cell_docs(cell_docs: list[dict[str, Any]]) -> dict[str, Any]:
    """Fold cell documents into one population doc, canonically.

    Cells are sorted by index before folding, so the result is
    invariant under any permutation (or shard-partitioning) of the
    input — including the float-summing telemetry merges.
    """
    if not cell_docs:
        raise ValueError("merge needs at least one cell document")
    docs = sorted(cell_docs, key=lambda d: int(d["cell"]))
    seen_cells: set[int] = set()
    for d in docs:
        c = int(d["cell"])
        if c in seen_cells:
            raise ValueError(f"duplicate cell {c} in merge")
        seen_cells.add(c)

    pop = empty_population_doc()
    for d in docs:
        pop = merge_population_docs(pop, d["population"])

    merged: dict[str, Any] = dict(pop)
    # a cell's service document is read off its series: both or neither
    series_docs = [d["timeseries"] for d in docs if d.get("timeseries")]
    if series_docs:
        from repro.obs.service_metrics import merge_service_docs
        from repro.obs.timeseries import merge_series_docs

        series = merge_series_docs(series_docs)
        merged["service"] = merge_service_docs(
            [d["service"] for d in docs], series)
        merged["timeseries"] = series
    return merged
