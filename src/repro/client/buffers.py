"""Per-stream media buffers and the media time window.

"One basic concept of the buffering layer is that after the
establishment of the parallel media connections, there is a relative
delay in the presentation start time ... inserted on purpose in order
to feed each involved media buffer with a quantity of data. This
quantity is statistically calculated at the buffer's setup time ...
This length of each media buffer corresponds to a playback time, and
we call this time interval, *media time window*." (§4)
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.media.types import Frame

__all__ = ["MediaBuffer", "compute_time_window", "BufferStats"]

#: jitter deviations a statistically sized window absorbs, and the
#: bounds of that window
SAFETY_FACTOR = 4.0
MIN_WINDOW_S = 0.2
MAX_WINDOW_S = 8.0
#: the delay variation and loss rate a window is sized for before the
#: first receiver report says anything
EXPECTED_JITTER_S = 0.02
EXPECTED_LOSS = 0.01


def compute_time_window(frame_interval_s: float) -> float:
    """Statistically size the media time window at buffer setup.

    The window must absorb (a) delay variation — ``SAFETY_FACTOR``
    standard deviations of ``EXPECTED_JITTER_S`` — and (b) the re-fill
    slack lost to ``EXPECTED_LOSS``, plus always at least a few frame
    intervals so a single late frame cannot starve playout; it stays
    within ``MIN_WINDOW_S`` .. ``MAX_WINDOW_S``.
    """
    if frame_interval_s <= 0:
        raise ValueError("frame_interval_s must be positive")
    jitter_term = SAFETY_FACTOR * EXPECTED_JITTER_S
    loss_term = (frame_interval_s
                 * (EXPECTED_LOSS / (1.0 - EXPECTED_LOSS)) * 10.0)
    floor_term = 3.0 * frame_interval_s
    window = max(MIN_WINDOW_S, floor_term, jitter_term + loss_term)
    return min(window, MAX_WINDOW_S)


@dataclass(slots=True)
class BufferStats:
    overflow_drops: int = 0
    #: rebuffering episodes, which the playout counts at a stream's first
    #: gap after a presented frame (or its start); a ``pop`` of an empty
    #: buffer counts one too
    underflow_events: int = 0


class MediaBuffer:
    """FIFO frame buffer with playback-time accounting.

    ``capacity_s`` bounds the buffer in *playback seconds* (the
    natural unit for the time-window design); frames beyond it are
    dropped at push (overflow), which the monitor observes. The
    buffer is the "multiple thread queue" thread of one stream.
    """

    def __init__(
        self,
        stream_id: str,
        clock_rate: int,
        time_window_s: float,
        capacity_s: float | None = None,
    ) -> None:
        if clock_rate <= 0:
            raise ValueError("clock_rate must be positive")
        if time_window_s <= 0:
            raise ValueError("time_window_s must be positive")
        self.stream_id = stream_id
        self.clock_rate = clock_rate
        self.time_window_s = time_window_s
        self.capacity_s = capacity_s if capacity_s is not None \
            else 2.0 * time_window_s
        if self.capacity_s < time_window_s:
            raise ValueError("capacity_s must be >= time_window_s")
        self._frames: deque[Frame] = deque()
        self._ticks_buffered = 0
        self.stats = BufferStats()

    # -- state ------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._frames)

    @property
    def occupancy_s(self) -> float:
        """Buffered playback time in seconds."""
        return self._ticks_buffered / self.clock_rate

    # -- operations -----------------------------------------------------------
    def push(self, frame: Frame) -> bool:
        """Append an arriving frame; False if dropped on overflow."""
        if (self._ticks_buffered + frame.duration) / self.clock_rate \
                > self.capacity_s:
            self.stats.overflow_drops += 1
            return False
        self._frames.append(frame)
        self._ticks_buffered += frame.duration
        return True

    def pop(self) -> Frame | None:
        """Remove and return the head frame; None on underflow."""
        if not self._frames:
            self.stats.underflow_events += 1
            return None
        frame = self._frames.popleft()
        self._ticks_buffered -= frame.duration
        return frame

    def peek(self) -> Frame | None:
        return self._frames[0] if self._frames else None

    def drop_head(self) -> Frame | None:
        """Discard the head frame (skew-controller drop action)."""
        if not self._frames:
            return None
        frame = self._frames.popleft()
        self._ticks_buffered -= frame.duration
        return frame
