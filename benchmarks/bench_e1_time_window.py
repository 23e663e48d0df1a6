"""E1 — startup delay vs. the media time window.

Claim (§4): the intentional startup delay that pre-fills each media
buffer over its *media time window* absorbs network delay variation
before it reaches the presentation. Larger windows trade startup
latency for smoothness; too-small windows gap.
"""

from repro.analysis import render_table
from repro.core.experiments import run


def test_e1_time_window_sweep(report, once):
    headers, rows = once(run, "e1")
    report("e1_time_window",
           render_table("E1 — media time window vs presentation quality "
                        "(bursty 12 Mb/s cross traffic on a 10 Mb/s access)",
                        headers, rows))
    by_window = {r[0]: r for r in rows}
    # Startup latency equals the configured window (the intentional delay).
    for w, row in by_window.items():
        assert abs(row[1] - w) < 0.05
    # The smallest window gaps; the largest plays clean.
    assert by_window[0.1][2] > 0, "0.1 s window should show gaps"
    assert by_window[2.0][2] == 0, "2 s window should absorb all jitter"
    # Gap counts are non-increasing as the window grows.
    gaps = [row[2] for _, row in sorted(by_window.items())]
    assert gaps == sorted(gaps, reverse=True)
