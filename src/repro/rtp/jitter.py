"""RFC 3550 interarrival jitter estimator.

For packets i and j with RTP timestamps S and arrival times R, the
transit difference is D(i,j) = (Rj - Ri) - (Sj - Si); the smoothed
jitter estimate is updated per arriving packet as

    J += (|D| - J) / 16.

We keep everything in seconds (timestamps are converted using the
stream's media clock rate), matching how the client QoS manager
consumes the value. :class:`~repro.rtp.session.RtpReceiver` runs the
same update inline on its own ``jitter_s``; this estimator is the
public one and the receiver's referee (``tests/test_rtp_reference.py``).
"""

from __future__ import annotations

__all__ = ["InterarrivalJitterEstimator"]


class InterarrivalJitterEstimator:
    """Streaming jitter estimate per RFC 3550 §6.4.1 / A.8."""

    GAIN = 1.0 / 16.0

    def __init__(self, clock_rate: int) -> None:
        if clock_rate <= 0:
            raise ValueError("clock_rate must be positive")
        self.clock_rate = clock_rate
        self._prev_arrival: float | None = None
        self._prev_timestamp: int | None = None
        self._jitter_s = 0.0
        self.samples = 0

    @property
    def jitter_s(self) -> float:
        return self._jitter_s

    def observe(self, arrival_s: float, rtp_timestamp: int) -> float:
        """Feed one packet arrival; returns the updated estimate."""
        if self._prev_arrival is not None and self._prev_timestamp is not None:
            transit_delta = (arrival_s - self._prev_arrival) - (
                (rtp_timestamp - self._prev_timestamp) / self.clock_rate
            )
            self._jitter_s += (abs(transit_delta) - self._jitter_s) * self.GAIN
            self.samples += 1
        self._prev_arrival = arrival_s
        self._prev_timestamp = rtp_timestamp
        return self._jitter_s
