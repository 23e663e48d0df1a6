"""E4 — connection admission control with pricing weight.

Claim (§4): admission weighs network load against the user's pricing
contract — "a user who pays more should be serviced, even though it
affects the other users".
"""

from repro.analysis import render_table
from repro.core.experiments import run


def test_e4_admission_by_contract(report, once):
    headers, rows = once(run, "e4")
    report("e4_admission",
           render_table("E4 — admit rate by pricing class vs offered load "
                        "(20 Mb/s capacity, 2 Mb/s per session)",
                        headers, rows))
    for row in rows:
        offered, basic, premium, gold, util = row
        # Paying more never hurts: admit rates are ordered by contract.
        assert gold >= premium >= basic
        assert util <= 100.0
    # At low load everyone gets in; under overload gold still leads.
    assert rows[0][1] == rows[0][2] == rows[0][3] == 100.0
    overload = rows[-1]
    assert overload[3] > overload[1], \
        "gold must beat basic under overload"
    # Overload protection: utilisation saturates instead of exceeding 100%.
    assert overload[4] == 100.0
