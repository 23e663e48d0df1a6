"""E5 — buffer watermark monitoring (the [LIT 92] mechanism).

Claim (§4): "when the buffer monitoring mechanism experiences buffer
underflow, the presentation scheduler may lead to frame duplication
in order to avoid noticeable gaps in presentation. Correspondingly,
when buffer's occupancy exceeds some upper threshold, the scheduler
should drop frames to decrease the buffer's data."
"""

from repro.analysis import render_table
from repro.core.experiments import run


def test_e5_watermarks(report, once):
    headers, rows = once(run, "e5")
    report("e5_watermarks",
           render_table("E5 — watermark monitoring under a rate-deficit "
                        "phase followed by a 2x delivery burst",
                        headers, rows))
    on = next(r for r in rows if r[0] == "on")
    off = next(r for r in rows if r[0] == "off")
    # Underflow side: duplication eliminates (or sharply cuts) gaps.
    assert on[1] < off[1] / 4, "monitor should cut gaps by >4x"
    assert on[2] > 0, "monitor should have duplicated frames"
    # Overflow side: controlled dropping prevents forced overflow drops.
    assert on[4] < off[4], "monitor should avoid forced overflow drops"
    assert off[4] > 0, "without monitoring the burst must overflow"
