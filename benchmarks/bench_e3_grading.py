"""E3 — long-term recovery by media quality grading.

Claim (§4): on congestion feedback the server "gracefully degrades
the stream's quality ... This results in less network traffic, thus
more available bandwidth", and upgrades again "when the network's
condition permits it". Grading should beat fixed full quality on
loss and gaps through a congestion epoch, at the cost of temporarily
lower video quality.
"""

from repro.analysis import render_table
from repro.core.experiments import EXPERIMENTS, grading_session, run


def test_e3_grading_on_off(report, once):
    headers, rows = once(run, "e3")
    report("e3_grading",
           render_table("E3 — quality grading through a congestion epoch "
                        "(cross traffic during [5, 20) s)",
                        headers, rows))
    on = next(r for r in rows if r[0] == "on")
    off = next(r for r in rows if r[0] == "off")
    # Grading cuts packet loss and presentation gaps decisively.
    assert on[1] < off[1] / 2, "grading should cut loss by >2x"
    assert on[2] < off[2], "grading should cut gap time"
    # The cost: degraded (but nonzero-quality) video during the epoch.
    assert 0 < on[3] <= 4
    # Audio untouched — video pays first.
    assert on[4] == 0
    # The loop closed in both directions: degrades AND recovery upgrades.
    assert on[5] > 0 and on[6] > 0
    # Fixed quality never grades.
    assert off[5] == 0 and off[6] == 0
    # Recovery: the video grade trajectory comes back up after the epoch
    # (the grading-on case again, for what the row does not carry).
    r_on = grading_session(**next(c for c in EXPERIMENTS["e3"].cases
                                  if c["grading"]))
    v_traj = r_on.grade_trajectories.get("V", [])
    assert v_traj, "video grade trajectory missing"
    worst = max(g for _, g in v_traj)
    final = v_traj[-1][1]
    assert final < worst, "grade should recover after the epoch"
