"""E11 — the service over an ATM access link (§7 future work).

"Future work will focus on ... the implementation of a testbed
application on an ATM network." The cell layer introduces two
effects the service must survive: the ~10% cell-header tax and
cell-loss amplification (one lost cell destroys the whole AAL5
frame).
"""

from repro.analysis import render_table
from repro.core.experiments import run
from repro.net.atm import CELL_BYTES, CELL_PAYLOAD_BYTES


def test_e11_atm_access(report, once):
    headers, rows = once(run, "e11")
    report("e11_atm",
           render_table("E11 — plain vs ATM access link "
                        f"(53-byte cells, {CELL_PAYLOAD_BYTES}B payload; "
                        "same nominal rate and cell-loss process)",
                        headers, rows))
    table = {(r[0], r[1]): r for r in rows}
    # Clean networks: the service runs identically over ATM (the cell
    # tax fits inside the provisioned headroom).
    assert table[("atm", "no")][3] == 0
    assert table[("plain", "no")][3] == 0
    # Loss amplification: the same cell-level loss process costs ATM
    # several times the frame loss of the plain link.
    plain_loss = table[("plain", "yes")][4]
    atm_loss = table[("atm", "yes")][4]
    assert atm_loss > 3 * plain_loss, \
        "one lost cell must kill a whole multi-cell frame"
    # And the presentation feels it (gaps appear under ATM loss).
    assert table[("atm", "yes")][3] > table[("plain", "yes")][3]
