"""Seeded per-component random streams.

Every stochastic component (traffic source, loss channel, media trace
generator, user think-time model) draws from its *own* named
:class:`numpy.random.Generator`, spawned deterministically from one
root :class:`numpy.random.SeedSequence`. Adding a new component never
perturbs the draws of existing ones, so experiments stay comparable
across code revisions — the standard reproducibility discipline for
simulation studies.

A component that draws once per packet reads its stream a block ahead
(:func:`block_draws`) and so must be its only consumer:
:meth:`RngRegistry.stream` hands one out ``private`` on that condition.
"""

from __future__ import annotations

from collections.abc import Callable
from itertools import chain, repeat
from operator import methodcaller

import numpy as np

__all__ = ["RngRegistry", "block_draws"]

#: values per numpy call; a consumer holds one block, a few KB
_BLOCK = 256


def block_draws(sampler: Callable[[int], np.ndarray]) -> Callable[[], float]:
    """``sampler``'s values one Python float per call, drawn in blocks.

    ``sampler`` is a generator's sized draw (``rng.random``): the values
    are those of as many scalar calls, in order, as long as nothing else
    draws from that generator. The callable returned is the ``__next__``
    of a C iterator, so a draw enters no Python frame.
    """
    blocks = map(methodcaller("tolist"), map(sampler, repeat(_BLOCK)))
    return chain.from_iterable(blocks).__next__


class RngRegistry:
    """Hands out independent, reproducible RNG streams by name."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._streams: dict[str, np.random.Generator] = {}
        self._private: set[str] = set()

    def stream(self, name: str, private: bool = False) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use.

        The stream's seed derives from ``hash-independent`` stable
        material: the root seed plus the UTF-8 bytes of the name, so
        the mapping name → stream is identical across processes and
        Python versions. ``private=True`` is for a sole consumer: it raises
        if the name was ever given out, and so does every later request.
        """
        if name in self._private or (private and name in self._streams):
            raise ValueError(f"stream {name!r} has one consumer already")
        if private:
            self._private.add(name)
        gen = self._streams.get(name)
        if gen is None:
            material = np.frombuffer(name.encode("utf-8"), dtype=np.uint8)
            child = np.random.SeedSequence(
                entropy=self.seed, spawn_key=tuple(int(b) for b in material)
            )
            gen = np.random.default_rng(child)
            self._streams[name] = gen
        return gen

    def __contains__(self, name: str) -> bool:
        return name in self._streams

    def names(self) -> list[str]:
        """Names of all streams created so far, in creation order."""
        return list(self._streams)
