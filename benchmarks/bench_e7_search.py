"""E7 — distributed search across the service's servers.

Claim (§6.2.2): a query is forwarded from the contacted server to all
other servers; "only the lessons which contain the item of interest
and the server location are transmitted and presented to the user".
"""

from repro.analysis import render_table
from repro.core.experiments import run


def test_e7_distributed_search(report, once):
    headers, rows = once(run, "e7")
    report("e7_search",
           render_table("E7 — distributed search over two Hermes servers",
                        headers, rows))
    by_query = {r[0]: r for r in rows}
    # Local-topic query hits only the local server.
    assert by_query["routing"][3] == "hermes-nets(3)"
    # Remote-topic query is answered via forwarding.
    assert by_query["fresco"][3] == "hermes-arts(2)"
    # A common term returns hits from every server, with locations.
    assert by_query["lesson"][1] == 2
    assert by_query["lesson"][2] == 5
    # No false positives: a miss returns nothing at all.
    assert by_query["quantum"][1] == 0 and by_query["quantum"][2] == 0
