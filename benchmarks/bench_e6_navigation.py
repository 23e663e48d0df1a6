"""E6 — cross-server navigation and the suspend grace interval.

Claim (§5): following a link to a document on another server suspends
the current connection; "the suspended connection remains active for
a period of time, in case the user requests to view a previous
selected document. When this interval is passed the connection closes
and the attached client is informed about the event."
"""

from repro.analysis import render_table
from repro.core.experiments import run


def test_e6_suspend_grace(report, once):
    headers, rows = once(run, "e6")
    report("e6_navigation",
           render_table("E6 — returning to a suspended connection "
                        "(grace interval 5 s)", headers, rows))
    within = next(r for r in rows if r[0] == 2.0)
    after = next(r for r in rows if r[0] == 8.0)
    # Within the grace interval the session is reusable...
    assert within[2] == "resumed-conn"
    assert within[3] is True
    # ...after it, the server has closed and informed the client.
    assert after[2] == "expired"
    assert after[3] is False
