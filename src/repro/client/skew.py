"""Intermedia skew control — the short-term recovery mechanism.

"If intermedia skew is introduced among synchronized streams ... the
scheduler may drop frames from the stream that leads in time or
duplicate frames of the lagging stream in order to maintain a better
synchronization. In this way, a *short term* synchronization
incoherence recovery method is provided" (§4).

Implementation: each sync group has a *master* (the audio stream —
users tolerate degraded video better than degraded audio) and
*slaves*. At each slave playout tick the controller compares
presented media positions:

* slave **ahead** of master beyond the threshold → the slave
  *duplicates* (replays) its current frame, holding its position
  until the master catches up;
* slave **behind** beyond the threshold → the slave *drops* (skips)
  buffered frames to jump forward.

Both primitives are exactly the paper's {drop, duplicate} toolset and
keep |skew| bounded near the threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.client.metrics import DEFAULT_SYNC_THRESHOLD_S, SkewSeries

if TYPE_CHECKING:
    from repro.des import Simulator

__all__ = ["SkewController", "SkewDecision"]

#: a slave that fell behind skips at most this many frames per tick
MAX_DROPS_PER_TICK = 3


@dataclass(frozen=True, slots=True)
class SkewDecision:
    """What a slave stream should do at this playout tick."""

    action: str  # "play" | "duplicate" | "drop"
    drop_count: int = 0  # frames to skip when action == "drop"


#: the two decisions that carry nothing but their action, built once:
#: ``decide`` runs on every slave tick
_PLAY = SkewDecision("play")
_DUPLICATE = SkewDecision("duplicate")


@dataclass(slots=True)
class SkewControllerStats:
    duplicates: int = 0
    drops: int = 0
    decisions: int = 0
    #: decisions that acted (one per ``skew.correct``; ``drops`` counts
    #: frames, so it cannot be derived from the other two)
    corrections: int = 0


class SkewController:
    """Skew measurement and drop/duplicate decisions for one group."""

    def __init__(
        self,
        group: str,
        master_id: str,
        enabled: bool = True,
        sim: Simulator | None = None,
        session: str = "",
    ) -> None:
        self.group = group
        self.master_id = master_id
        self.threshold_s = DEFAULT_SYNC_THRESHOLD_S
        self.enabled = enabled
        self.series = SkewSeries(group)
        self.stats = SkewControllerStats()
        self._positions: dict[str, float] = {}
        self._active: dict[str, bool] = {}
        #: drop/duplicate decisions are traced as ``skew.correct``
        #: through ``sim``'s tracer (``None``: a standalone controller)
        self.sim = sim
        self.session = session

    # -- position reporting ----------------------------------------------
    def report_position(self, stream_id: str, media_time_s: float,
                        active: bool = True) -> None:
        """Streams report their presented media position each tick."""
        self._positions[stream_id] = media_time_s
        self._active[stream_id] = active

    def master_position(self) -> float | None:
        if not self._active.get(self.master_id, False):
            return None
        return self._positions.get(self.master_id)

    def skew_of(self, stream_id: str) -> float | None:
        """Current skew (slave − master) in seconds, if both known."""
        master = self.master_position()
        slave = self._positions.get(stream_id)
        if master is None or slave is None:
            return None
        return slave - master

    # -- decisions -----------------------------------------------------------
    def decide(self, stream_id: str, now: float,
               frame_interval_s: float) -> SkewDecision:
        """Decision for a slave's next playout tick.

        Must be called by slaves only (the master never adjusts — it
        is the timing reference).
        """
        master_id = self.master_id
        if stream_id == master_id:
            raise ValueError("the sync master does not take skew decisions")
        # :meth:`skew_of` and :meth:`master_position`, inline
        if not self._active.get(master_id, False):
            return _PLAY
        master = self._positions.get(master_id)
        slave = self._positions.get(stream_id)
        if master is None or slave is None:
            return _PLAY
        skew = slave - master
        series = self.series  # one skew sample, appended inline
        series.times.append(now)
        series.skews.append(skew)
        stats = self.stats
        stats.decisions += 1
        if not self.enabled:
            return _PLAY
        if skew > self.threshold_s:
            stats.duplicates += 1
            stats.corrections += 1
            sim = self.sim
            if sim is not None and sim._tracing:
                sim._tracer.emit(now, "skew.correct", stream_id,
                                 session=self.session, action="duplicate",
                                 skew_s=round(skew, 6), group=self.group)
            return _DUPLICATE
        if skew < -self.threshold_s and frame_interval_s > 0:
            behind_frames = int(-skew / frame_interval_s)
            n = max(1, min(MAX_DROPS_PER_TICK, behind_frames))
            stats.drops += n
            stats.corrections += 1
            sim = self.sim
            if sim is not None and sim._tracing:
                sim._tracer.emit(now, "skew.correct", stream_id,
                                 session=self.session, action="drop",
                                 skew_s=round(skew, 6), group=self.group,
                                 drop_count=n)
            return SkewDecision("drop", drop_count=n)
        return _PLAY
