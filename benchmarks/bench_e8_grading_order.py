"""E8 (ablation) — the degrade ordering.

Claim (§4): "the service first applies the grading technique to the
video stream, since audio or voice is considered to be more important
to users, meaning that users can tolerate lower video quality rather
than 'not hear well'." The ablation compares video-first with
audio-first and type-agnostic orderings.
"""

from repro.analysis import render_table
from repro.core.experiments import run


def test_e8_grading_order(report, once):
    headers, rows = once(run, "e8")
    report("e8_grading_order",
           render_table("E8 — ablation of the degrade ordering under a "
                        "congestion epoch", headers, rows))
    by_order = {r[0]: r for r in rows}
    vf = by_order["video-first"]
    af = by_order["audio-first"]
    # Video-first keeps the audio untouched ("hear well"): grade 0.
    assert vf[1] == 0.0
    # Audio-first sacrifices audio quality instead.
    assert af[1] > 0.0
    # Video-first degrades video more than audio-first does.
    assert vf[2] >= af[2]
    # And audio presentation suffers most under audio-first.
    assert af[3] >= vf[3]
