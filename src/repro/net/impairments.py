"""Stochastic impairment models.

:class:`GilbertElliottLoss` is the classic two-state Markov loss
process (good/bad states with state-dependent loss probabilities),
used to model bursty random loss beyond what drop-tail queues
produce.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.des.rng import block_draws

if TYPE_CHECKING:  # pragma: no cover
    from repro.des import Simulator

__all__ = ["GilbertElliottLoss"]

#: loss probability in the good state: 0 is Gilbert's special case, the
#: one the service runs
LOSS_GOOD = 0.0


class GilbertElliottLoss:
    """Two-state Markov (Gilbert–Elliott) packet loss model.

    Parameters
    ----------
    p_gb, p_bg:
        Per-packet transition probabilities good→bad and bad→good.
    loss_bad:
        Loss probability while in the bad state (``LOSS_GOOD`` in the
        good one).

    With defaults the stationary loss rate is
    ``pi_b * loss_bad + pi_g * loss_good`` where
    ``pi_b = p_gb / (p_gb + p_bg)``.

    A decision takes two uniforms, transition then loss, from blocks of
    ``rng`` (:func:`~repro.des.rng.block_draws`): no one else may draw.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        p_gb: float = 0.01,
        p_bg: float = 0.3,
        loss_bad: float = 0.3,
        sim: "Simulator | None" = None,
        name: str = "",
    ) -> None:
        for param, v in dict(p_gb=p_gb, p_bg=p_bg, loss_bad=loss_bad).items():
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"{param} must be a probability, got {v}")
        self._uniform = block_draws(rng.random)
        self.p_gb = p_gb
        self.p_bg = p_bg
        self.loss_good = LOSS_GOOD
        self.loss_bad = loss_bad
        self.in_bad = False
        #: optional tracing context: when attached to a simulator with a
        #: live tracer, state transitions and loss decisions are emitted
        self.sim = sim
        self.name = name

    def is_lost(self, flow: str = "", seq: int = -1,
                session: str = "", frame: int = -1) -> bool:
        """Advance the chain one packet and decide its fate.

        The keyword arguments are pure tracing context — callers on the
        hot path omit them when tracing is off so the untraced cost
        stays a plain ``is_lost()`` call.
        """
        uniform = self._uniform
        was_bad = self.in_bad
        if was_bad:
            if uniform() < self.p_bg:
                self.in_bad = False
        elif uniform() < self.p_gb:
            self.in_bad = True
        lost = uniform() < (self.loss_bad if self.in_bad else self.loss_good)
        sim = self.sim
        if sim is not None and sim._tracing:
            if self.in_bad != was_bad:
                sim._tracer.emit(sim.now, "impair.state", self.name,
                                 state="bad" if self.in_bad else "good")
            if lost and sim._tracing_detail:
                sim._tracer.emit(sim.now, "impair.loss", self.name,
                                 state="bad" if self.in_bad else "good",
                                 flow=flow, seq=seq, session=session,
                                 frame=frame)
        return lost
