"""Deterministic discrete-event simulation kernel.

This package is the concurrency substrate of the reproduction: every
"process" of the 1996 service (media servers, playout threads, QoS
managers) runs as a cooperative generator on a single event queue,
giving bit-identical runs for identical seeds.

The design follows the classic process-interaction style (a minimal,
from-scratch SimPy-alike): generators yield :class:`Event` objects and
are resumed when those events trigger.
"""

from repro.des.kernel import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    Process,
    Simulator,
    Timeout,
)
from repro.des.rng import RngRegistry

__all__ = [
    "AllOf",
    "AnyOf",
    "Event",
    "Interrupt",
    "Process",
    "RngRegistry",
    "Simulator",
    "Timeout",
]
