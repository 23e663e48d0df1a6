"""E10 — scaling the viewer population, shared vs. per-client access.

The service is "a set of multimedia servers distributed over a
broadband network" serving many users (§2). Two sweeps:

* **shared link** — N simultaneous viewers crammed onto one access
  bottleneck; the graceful-degradation machinery absorbs the overload;
* **per-client links** — the same population, each viewer on its own
  access link (the service's real shape); viewers couple only through
  the backbone and admission, so the load stays clean at every N.
"""

from repro.analysis import render_table
from repro.core.experiments import run


def test_e10_session_scaling(report, once):
    headers, rows = once(run, "e10")
    report("e10_scaling",
           render_table("E10 — concurrent viewers on an 8 Mb/s access "
                        "(each needs ~1.6 Mb/s)", headers, rows))
    by_n = {r[0]: r for r in rows}
    # Everyone admitted (capacity CAC is generous here; the *network*
    # is the constraint under study).
    for n, row in by_n.items():
        assert row[1] == n
    # Light load plays clean.
    assert by_n[1][2] == 0 and by_n[4][2] == 0
    # Overload (8 sessions ~ 12.8 Mb/s offered on 8 Mb/s) hurts, and
    # the long-term mechanism visibly engages.
    assert by_n[8][2] > 0, "overload should show gaps"
    assert by_n[8][5] > 0, "overload should trigger grading"
    assert by_n[8][4] > by_n[4][4], "video grade should degrade under load"


def test_e10b_population_scaling(report, once):
    shared_headers, shared_rows = run("e10")
    headers, rows = once(run, "e10b")
    report("e10b_population_scaling",
           render_table("E10b — the same viewers on per-client 8 Mb/s "
                        "access links", headers, rows)
           + "\n\n"
           + render_table("(reference) E10 — shared 8 Mb/s access link",
                          shared_headers, shared_rows))
    by_n = {r[0]: r for r in rows}
    shared_by_n = {r[0]: r for r in shared_rows}
    # Everyone admitted at every population size.
    for n, row in by_n.items():
        assert row[1] == n
    # Per-client access links carry every population size cleanly —
    # no gaps, no grading — because nothing contends on the access.
    for n in by_n:
        assert by_n[n][2] == 0, f"population {n}: per-client links gapped"
        assert by_n[n][5] == 0, f"population {n}: grading engaged"
    # The shared link chokes at 8 viewers where per-client links don't:
    # the isolation is the measurable win of the topology refactor.
    assert shared_by_n[8][2] > by_n[8][2]
    assert shared_by_n[8][5] > by_n[8][5]
