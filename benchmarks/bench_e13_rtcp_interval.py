"""E13 (ablation) — the feedback-report interval.

Claim (§4): "the client QoS manager, periodically or in specifically
calculated intervals, sends feedback reports to the sending side."
The ablation compares fixed periods against the calculated (adaptive,
event-triggered) interval: reaction speed vs. control overhead.
"""

from repro.analysis import render_table
from repro.core.experiments import run


def test_e13_rtcp_interval(report, once):
    headers, rows = once(run, "e13")
    report("e13_rtcp_interval",
           render_table("E13 — feedback interval vs grading reaction "
                        "(congestion starts at t=5 s)", headers, rows))
    by = {r[0]: r for r in rows}
    # Fixed intervals: faster reporting reacts faster and costs more.
    assert by["fixed 0.25s"][1] < by["fixed 1s"][1] < by["fixed 4s"][1]
    assert by["fixed 0.25s"][3] > by["fixed 1s"][3] > by["fixed 4s"][3]
    # The calculated interval reacts nearly as fast as the fastest
    # fixed period...
    assert by["adaptive"][1] < by["fixed 1s"][1]
    assert by["adaptive"][1] < by["fixed 0.25s"][1] + 1.0
    # ...at a fraction of its overhead.
    assert by["adaptive"][3] < 0.5 * by["fixed 0.25s"][3]
