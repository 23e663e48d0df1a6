"""Buffer-occupancy monitoring with watermarks (after [LIT 92]).

"When the buffer monitoring mechanism experiences buffer underflow,
the presentation scheduler may lead to frame duplication in order to
avoid noticeable gaps in presentation. Correspondingly, when buffer's
occupancy exceeds some upper threshold, the scheduler should drop
frames to decrease the buffer's data." (§4)

The monitor classifies the buffer into LOW / NORMAL / HIGH zones
relative to its time window and recommends the corresponding action;
the playout process applies it and logs the outcome.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.client.buffers import MediaBuffer

if TYPE_CHECKING:
    from repro.des import Simulator

__all__ = ["BufferState", "BufferAction", "BufferMonitor"]

#: occupancy / time window below which a buffer is LOW, and above which
#: it is HIGH
LOW_WATERMARK = 0.25
HIGH_WATERMARK = 1.5


class BufferState(enum.Enum):
    LOW = "low"
    NORMAL = "normal"
    HIGH = "high"


class BufferAction(enum.Enum):
    NONE = "none"
    DUPLICATE = "duplicate"  # hold position: replay last frame
    DROP = "drop"  # shed buffered frames


@dataclass(slots=True)
class MonitorStats:
    low_entries: int = 0
    high_entries: int = 0
    duplicate_recommendations: int = 0
    drop_recommendations: int = 0
    state_trace: list[tuple[float, BufferState]] = field(default_factory=list)


class BufferMonitor:
    """Watermark-based occupancy classifier for one media buffer."""

    def __init__(
        self,
        buffer: MediaBuffer,
        max_consecutive_duplicates: int = 3,
        sim: Simulator | None = None,
        session: str = "",
    ) -> None:
        if max_consecutive_duplicates < 1:
            raise ValueError("max_consecutive_duplicates must be >= 1")
        self.buffer = buffer
        self.low_watermark = LOW_WATERMARK
        self.high_watermark = HIGH_WATERMARK
        self.max_consecutive_duplicates = max_consecutive_duplicates
        self.stats = MonitorStats()
        self._state = BufferState.NORMAL
        self._consecutive_duplicates = 0
        #: zone crossings are traced as ``buffer.watermark`` through
        #: ``sim``'s tracer (``None``: a standalone monitor)
        self.sim = sim
        self.session = session

    @property
    def state(self) -> BufferState:
        return self._state

    def check(self, now: float) -> BufferAction:
        """Reclassify and recommend an action for this playout tick."""
        # the buffer's occupancy ratio, computed here: once per tick of
        # every playout, three property calls otherwise
        buffer = self.buffer
        ratio = (buffer._ticks_buffered / buffer.clock_rate
                 / buffer.time_window_s)
        if ratio < self.low_watermark:
            new_state = BufferState.LOW
        elif ratio > self.high_watermark:
            new_state = BufferState.HIGH
        else:
            new_state = BufferState.NORMAL
        if new_state is not self._state:
            if new_state is BufferState.LOW:
                self.stats.low_entries += 1
            elif new_state is BufferState.HIGH:
                self.stats.high_entries += 1
            self.stats.state_trace.append((now, new_state))
            sim = self.sim
            if sim is not None and sim._tracing:
                sim._tracer.emit(
                    now, "buffer.watermark", buffer.stream_id,
                    session=self.session, state=new_state.value,
                    ratio=round(ratio, 4),
                )
            self._state = new_state
        if new_state is BufferState.LOW and buffer._frames:
            # Stretch what we have: recommend repeating frames so the
            # buffer refills before it runs completely dry — but cap
            # consecutive repeats so a stream whose source has simply
            # ended still drains (no duplication livelock).
            if self._consecutive_duplicates < self.max_consecutive_duplicates:
                self._consecutive_duplicates += 1
                self.stats.duplicate_recommendations += 1
                return BufferAction.DUPLICATE
            return BufferAction.NONE
        self._consecutive_duplicates = 0
        if new_state is BufferState.HIGH:
            self.stats.drop_recommendations += 1
            return BufferAction.DROP
        return BufferAction.NONE
