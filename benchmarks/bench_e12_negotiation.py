"""E12 — QoS negotiation at connection establishment (§4).

Claim: admission weighs "the lower thresholds in QoS and Quality of
Presentation the user is willing to accept" — i.e. a connection that
does not fit at full quality can still be admitted at a reduced one.
"""

from repro.analysis import render_table
from repro.core.experiments import run


def test_e12_negotiation(report, once):
    headers, rows = once(run, "e12")
    report("e12_negotiation",
           render_table("E12 — admission with/without a negotiation floor "
                        "(20 Mb/s capacity, 2 Mb/s requests, 0.5 Mb/s floor)",
                        headers, rows))
    table = {(r[0], r[1]): r for r in rows}
    for offered in (12, 16, 24):
        on = table[(offered, "on")]
        off = table[(offered, "off")]
        # Negotiation serves strictly more users under overload...
        assert on[2] > off[2]
        # ...at a (deeper) initial grade for the negotiated ones.
        assert on[4] >= off[4]
        assert on[3] > 0
    # No overload, no difference.
    assert table[(8, "on")][2] == table[(8, "off")][2]
    # Negotiation never oversubscribes the capacity.
    assert all(r[5] <= 100.0 for r in rows)
