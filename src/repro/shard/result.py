"""Result and failure types of a supervised sharded run."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

__all__ = ["ShardStatus", "ShardedRunResult", "ShardFailure"]


@dataclass(slots=True)
class ShardStatus:
    """Lifecycle of one shard across its attempts."""

    shard: int
    cells: list[int] = field(default_factory=list)
    status: str = "pending"  # pending|running|retry-wait|done|failed
    attempts: int = 0
    retries: int = 0
    #: per-attempt failure reasons ("exited(17)", "heartbeat-lost", ...)
    failures: list[str] = field(default_factory=list)
    wall_s: float = 0.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "shard": self.shard,
            "cells": list(self.cells),
            "status": self.status,
            "attempts": self.attempts,
            "retries": self.retries,
            "failures": list(self.failures),
            "wall_s": self.wall_s,
        }


@dataclass(slots=True)
class ShardedRunResult:
    """Everything a supervised sharded population run produced.

    ``merged`` is the canonical population document (outcomes,
    service, timeseries) over the cells that completed;
    ``completeness`` is the fraction of requested clients it covers
    — 1.0 for a full run, < 1.0 for a degraded partial result under
    ``tolerate_failures``. ``digest`` hashes only deterministic
    fields, so it is shard-count-invariant and retry-invariant.
    """

    clients: int
    cell_clients: int
    n_shards: int
    seed: int
    merged: dict[str, Any]
    digest: str
    completeness: float
    cells_total: int
    cells_merged: int
    missing_cells: list[int]
    shards: list[ShardStatus]
    #: kernel heap entries fired, summed over the merged cells
    events: int
    #: supervisor wall time (spawn -> merge), real parallel time
    wall_s: float
    #: sum of per-cell engine wall times (serial work content)
    cpu_wall_s: float
    interrupted: bool = False

    @property
    def ok(self) -> bool:
        return self.completeness >= 1.0 and not self.interrupted

    @property
    def failed_shards(self) -> list[int]:
        return [s.shard for s in self.shards if s.status == "failed"]

    def sessions(self) -> int:
        return len(self.merged.get("outcomes", []))

    def completed_sessions(self) -> int:
        return sum(1 for o in self.merged.get("outcomes", [])
                   if o.get("result", {}).get("completed"))

    def to_dict(self) -> dict[str, Any]:
        return {
            "clients": self.clients,
            "cell_clients": self.cell_clients,
            "shards": self.n_shards,
            "seed": self.seed,
            "digest": self.digest,
            "completeness": self.completeness,
            "cells_total": self.cells_total,
            "cells_merged": self.cells_merged,
            "missing_cells": list(self.missing_cells),
            "shard_lifecycle": [s.to_dict() for s in self.shards],
            "events": self.events,
            "wall_s": self.wall_s,
            "cpu_wall_s": self.cpu_wall_s,
            "interrupted": self.interrupted,
            "sessions": self.sessions(),
            "completed": self.completed_sessions(),
            "merged": self.merged,
        }


class ShardFailure(RuntimeError):
    """Raised when shards exhaust retries without tolerate-failures.

    Carries the partial :class:`ShardedRunResult` so callers can
    still render the per-shard failure report (and the surviving
    metrics) before exiting nonzero.
    """

    def __init__(self, message: str, result: ShardedRunResult) -> None:
        super().__init__(message)
        self.result = result
