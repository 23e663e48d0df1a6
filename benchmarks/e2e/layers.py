"""Layer budget from a cProfile run: self time and calls per repro subpackage.

A function belongs to the layer named by the ``repro/<pkg>/`` directory
of its code object, which is why ``Simulator.call_later``'s lambda no
longer hides the link model: the lambda's code lives in ``net/link.py``.
Built-ins, the standard library and third-party code have no layer of
their own; their time and calls are charged to whoever called them,
transitively, through the profiler's caller edges.
"""

from __future__ import annotations

import cProfile
import os
from typing import Any, Callable

#: layers reported by name; anything else lands in ``other``
LAYERS = ("des", "net", "rtp", "media", "server", "client", "service",
          "hml", "model", "core", "obs", "shard")
OTHER = "other"


def _layer_of(code: Any, repro_root: str) -> str | None:
    """Layer of a profiler entry's code, None when it has to be charged."""
    filename = getattr(code, "co_filename", None)
    if filename is None or not filename.startswith(repro_root + os.sep):
        return None
    head, _, rest = filename[len(repro_root) + 1:].partition(os.sep)
    return head if rest and head in LAYERS else OTHER


def layer_budget(profile: cProfile.Profile,
                 repro_root: str) -> dict[str, dict[str, float]]:
    """``{"self_s": {layer: seconds}, "calls": {layer: count}}``.

    Time follows edges weighted by cumulative time and calls follow
    edges weighted by call count, so the call budget depends on counts
    alone and repeats exactly for a deterministic run.
    """
    entries = profile.getstats()
    own = {id(e.code): _layer_of(e.code, repro_root) for e in entries}
    # callee id -> [(caller id, edge calls, edge cumulative time)]
    callers: dict[int, list[tuple[int, int, float]]] = {}
    for e in entries:
        for sub in e.calls or ():
            callers.setdefault(id(sub.code), []).append(
                (id(e.code), sub.callcount, sub.totaltime))

    def resolver(weight: Callable[[tuple[int, int, float]], float]
                 ) -> Callable[[int], dict[str, float]]:
        memo: dict[int, dict[str, float]] = {}

        def shares(key: int) -> dict[str, float]:
            if key in memo:
                return memo[key]
            if own.get(key) is not None:
                memo[key] = {own[key]: 1.0}
                return memo[key]
            memo[key] = {OTHER: 1.0}  # cycle guard and root default
            edges = callers.get(key, ())
            total = sum(weight(edge) for edge in edges)
            if total > 0:
                mix: dict[str, float] = {}
                for edge in edges:
                    for layer, frac in shares(edge[0]).items():
                        mix[layer] = mix.get(layer, 0.0) \
                            + frac * weight(edge) / total
                memo[key] = mix
            return memo[key]

        return shares

    by_time = resolver(lambda edge: edge[2])
    by_count = resolver(lambda edge: float(edge[1]))
    self_s = dict.fromkeys(LAYERS + (OTHER,), 0.0)
    calls = dict.fromkeys(LAYERS + (OTHER,), 0.0)
    for e in entries:
        for layer, frac in by_time(id(e.code)).items():
            self_s[layer] += e.inlinetime * frac
        for layer, frac in by_count(id(e.code)).items():
            calls[layer] += e.callcount * frac
    return {"self_s": self_s, "calls": calls}
