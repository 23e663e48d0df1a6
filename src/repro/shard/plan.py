"""Deterministic decomposition of a population into cells and shards.

The unit of determinism is the **cell**: a fixed-size block of
clients that runs as a complete, self-contained engine. Cell count,
cell membership and every cell's seed derive only from the population
size, the cell size and the root seed — never from the shard count or
any runtime state — so the set of cell results is a pure function of
``(n_clients, cell_clients, seed)``. Shards are merely *assignments*
of cells to worker processes; changing K changes who computes a cell,
not what the cell computes. That is what makes the merged digest
shard-count-invariant and a retried shard byte-identical to the lost
attempt.

Seed streams: cell ``c`` seeds its engine from
``SeedSequence(entropy=seed, spawn_key=(0, c))``. Shards draw no
randomness: the supervisor's retry pacing is a fixed backoff.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ShardPlan"]

#: spawn-key namespace of the cell engines' seeds
_CELL_KEY = 0


@dataclass(frozen=True, slots=True)
class ShardPlan:
    """Partition of N clients into cells, and cells onto K shards."""

    n_clients: int
    n_shards: int
    cell_clients: int = 8
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_clients < 1:
            raise ValueError("n_clients must be >= 1")
        if self.n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        if self.cell_clients < 1:
            raise ValueError("cell_clients must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")

    # -- cells ---------------------------------------------------------------
    @property
    def n_cells(self) -> int:
        return -(-self.n_clients // self.cell_clients)

    def cell_bounds(self, cell: int) -> tuple[int, int]:
        """Global client-index range ``[lo, hi)`` of one cell."""
        if not 0 <= cell < self.n_cells:
            raise ValueError(f"cell {cell} out of range 0..{self.n_cells - 1}")
        lo = cell * self.cell_clients
        return lo, min(self.n_clients, lo + self.cell_clients)

    def cell_seed(self, cell: int) -> int:
        """The engine seed of one cell (independent of ``n_shards``)."""
        seq = np.random.SeedSequence(entropy=self.seed,
                                     spawn_key=(_CELL_KEY, cell))
        return int(seq.generate_state(1, np.uint64)[0])

    # -- shard assignment ----------------------------------------------------
    def shard_cells(self, shard: int) -> list[int]:
        """Cells owned by shard ``shard`` (round-robin by cell index)."""
        if not 0 <= shard < self.n_shards:
            raise ValueError(
                f"shard {shard} out of range 0..{self.n_shards - 1}")
        return [c for c in range(self.n_cells)
                if c % self.n_shards == shard]

    def worker_cells(self, shard: int) -> list[tuple[int, int, int, int]]:
        """``(cell, lo, hi, seed)`` tuples for one worker process."""
        out = []
        for c in self.shard_cells(shard):
            lo, hi = self.cell_bounds(c)
            out.append((c, lo, hi, self.cell_seed(c)))
        return out

    def to_dict(self) -> dict:
        return {"n_clients": self.n_clients, "n_shards": self.n_shards,
                "cell_clients": self.cell_clients, "seed": self.seed}
