"""Per-node port allocation.

Every :class:`~repro.net.topology.Node` owns a :class:`PortAllocator`
that hands out ports from named well-known ranges, replacing the old
engine-global counters. Allocation is strictly sequential within a
range, so a fresh node always produces the same port sequence — the
property the deterministic-replay tests rely on — while two nodes
never share a namespace: ``client1`` and ``client2`` can both bind
port 40 000 without conflict.

Ranges mirror the engine's historical layout:

* ``control`` — control-channel blocks (go-back-N duplex pairs);
* ``rtcp``    — server-side RTCP report sinks;
* ``media``   — client-side RTP/discrete receivers and reporters.
"""

from __future__ import annotations

import heapq

__all__ = ["PortAllocator", "PortExhaustedError", "DEFAULT_PORT_RANGES"]

#: name -> (first port, one past the last port)
DEFAULT_PORT_RANGES: dict[str, tuple[int, int]] = {
    "control": (10_000, 30_000),
    "rtcp": (30_000, 40_000),
    "media": (40_000, 65_536),
}


class PortExhaustedError(RuntimeError):
    """A named port range on one node ran out of free ports."""

    def __init__(self, node_id: str, range_name: str,
                 bounds: tuple[int, int]) -> None:
        super().__init__(
            f"node {node_id!r}: {range_name!r} port range "
            f"[{bounds[0]}, {bounds[1]}) exhausted"
        )
        self.node_id = node_id


class PortAllocator:
    """Sequential allocation from named port ranges on one node."""

    def __init__(self, node_id: str = "") -> None:
        self.node_id = node_id
        self._ranges = dict(DEFAULT_PORT_RANGES)
        self._cursor = {name: lo for name, (lo, _hi) in self._ranges.items()}
        #: released single ports, reused lowest-first before the cursor
        #: advances (a heap keeps the reuse order deterministic)
        self._free: dict[str, list[int]] = {name: [] for name in self._ranges}

    def _bounds(self, range_name: str) -> tuple[int, int]:
        try:
            return self._ranges[range_name]
        except KeyError:
            raise KeyError(f"unknown port range {range_name!r}") from None

    def next_free(self, range_name: str = "media") -> int:
        """The next port :meth:`allocate` would return (without taking it)."""
        free = self._free[range_name]
        if free:
            return free[0]
        lo, hi = self._bounds(range_name)
        cursor = self._cursor[range_name]
        if cursor >= hi:
            raise PortExhaustedError(self.node_id, range_name, (lo, hi))
        return cursor

    def allocate(self, range_name: str = "media") -> int:
        """Take the next free port of ``range_name``.

        Released ports are reused (lowest first) before the range's
        sequential cursor advances, so long-lived hosts don't leak
        ports across session teardown while staying deterministic.
        """
        free = self._free[range_name]
        if free:
            return heapq.heappop(free)
        return self.allocate_block(1, range_name)

    def release(self, port: int, range_name: str = "media") -> None:
        """Return a single previously-allocated port to its range."""
        lo, _hi = self._bounds(range_name)
        if not (lo <= port < self._cursor[range_name]):
            raise ValueError(
                f"node {self.node_id!r}: port {port} of {range_name!r} "
                f"was never allocated"
            )
        if port in self._free[range_name]:
            raise ValueError(
                f"node {self.node_id!r}: port {port} of {range_name!r} "
                f"already released"
            )
        heapq.heappush(self._free[range_name], port)

    def allocate_block(self, n: int, range_name: str = "media") -> int:
        """Take ``n`` consecutive ports; returns the base port.

        Blocks always come from the sequential cursor, never from the
        released-port pool (which holds single ports only).
        """
        if n < 1:
            raise ValueError("block size must be >= 1")
        lo, hi = self._bounds(range_name)
        base = self._cursor[range_name]
        if base + n > hi:
            raise PortExhaustedError(self.node_id, range_name, (lo, hi))
        self._cursor[range_name] = base + n
        return base

    def claim(self, base: int, n: int = 1,
              range_name: str = "media") -> None:
        """Reserve ``[base, base+n)`` chosen by an outside coordinator.

        Used when one port block must be free on *two* nodes at once
        (both ends of a control channel bind ports from the block):
        the caller picks ``base = max(next_free(...))`` over the nodes
        and claims it on each. ``base`` may not lie below the cursor —
        those ports may already be in use.
        """
        lo, hi = self._bounds(range_name)
        if base < self._cursor[range_name]:
            raise ValueError(
                f"node {self.node_id!r}: cannot claim port {base} in "
                f"{range_name!r} below cursor {self._cursor[range_name]}"
            )
        if base < lo or base + n > hi:
            raise PortExhaustedError(self.node_id, range_name, (lo, hi))
        self._cursor[range_name] = base + n

    def allocated(self, range_name: str) -> int:
        """How many ports of ``range_name`` are currently handed out."""
        lo, _hi = self._bounds(range_name)
        return self._cursor[range_name] - lo - len(self._free[range_name])
