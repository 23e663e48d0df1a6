"""E2 — short-term intermedia skew control (drop/duplicate).

Claim (§4): when buffer conditions introduce skew between
synchronized streams, dropping frames of the leading stream /
duplicating frames of the lagging stream "maintain[s] a better
synchronization" — the short-term recovery method.
"""

from repro.analysis import render_table
from repro.core.experiments import run


def test_e2_skew_control(report, once):
    headers, rows = once(run, "e2")
    report("e2_skew_control",
           render_table("E2 — intermedia skew with/without the short-term "
                        "controller (bursty congestion, deep queues)",
                        headers, rows))
    table = {(r[0], r[1]): r for r in rows}
    # Under the moderate-burst regime (12 Mb/s) the controller wins
    # decisively on time-in-sync.
    on = table[(12_000_000, "on")]
    off = table[(12_000_000, "off")]
    assert on[4] < off[4], "controller should cut out-of-sync time"
    assert on[3] < off[3], "controller should cut mean skew"
    # The mechanism actually fired (drops and/or duplicates).
    assert on[5] + on[6] > 0
    # The uncontrolled runs never drop/duplicate.
    for rate in (8_000_000, 12_000_000, 16_000_000):
        assert table[(rate, "off")][5] == 0
    # With no overload (8 Mb/s bursts) the pair stays in sync either way.
    assert table[(8_000_000, "on")][4] == 0
    assert table[(8_000_000, "off")][4] == 0
