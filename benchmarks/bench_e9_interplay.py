"""E9 (ablation) — interplay of the short- and long-term mechanisms.

Claim (§4): buffer-level drop/duplication provides "a short term
synchronization incoherence recovery method ... before the long term
synchronization support mechanism in the sending side is activated to
provide media encoding grading." After a congestion step, the client
must act first; the server's grading follows on the RTCP timescale.
"""

from repro.analysis import render_table
from repro.core.experiments import run


def test_e9_short_before_long(report, once):
    headers, rows = once(run, "e9")
    report("e9_interplay",
           render_table("E9 — first reaction to a congestion step at t=5 s",
                        headers, rows))
    (_, first_short, _), (_, first_long, _) = rows
    assert first_short != "n/a", "client mechanism never acted"
    assert first_long != "n/a", "server grading never acted"
    # The client-side (short-term) mechanism reacts before the
    # server-side (long-term) grading loop.
    assert first_short < first_long
    # Grading needs at least one RTCP interval (1 s) of evidence.
    assert first_long >= 5.0 + 1.0 - 0.5
