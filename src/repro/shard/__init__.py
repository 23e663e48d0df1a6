"""Supervised multiprocess population runner (the sharded engine).

The paper's service is sized for a metropolitan population; one DES
kernel in one process tops out around tens of clients. This package
decomposes a population run into deterministic *cells* (fixed-size
blocks of clients, each a complete engine with its own derived seed),
executes disjoint cell sets on K worker processes under a supervisor
(heartbeats, timeouts, bounded retry, clean teardown), and merges the
per-cell results into one population document whose digest is
shard-count-invariant: K=1 and K=4 produce byte-identical digests.

See DESIGN.md ("Sharded population engine") for the seed-stream
derivation, the merge laws and the failure/retry/partial-result
contract.
"""

from repro.shard.merge import merge_cell_docs, merge_population_docs
from repro.shard.plan import ShardPlan, ShardWorkload
from repro.shard.result import ShardedRunResult, ShardFailure
from repro.shard.supervisor import ShardSupervisor

__all__ = [
    "ShardPlan",
    "ShardWorkload",
    "ShardSupervisor",
    "ShardedRunResult",
    "ShardFailure",
    "merge_cell_docs",
    "merge_population_docs",
]
