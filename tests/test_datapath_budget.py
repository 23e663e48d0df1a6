"""The per-packet call budget of the untraced data path.

A count, not a timing: ``sys.setprofile`` sees one ``call`` event per
Python function entered (generator resumptions included), and a
deterministic run enters the same functions every time. The budget is
Python calls per RTP packet delivered, over everything a small
population run executes — kernel, links, RTP, media sources, playout —
so a helper added back on the packet path (a wrapper object per heap
entry, a ``_forward`` per hop, a property read per packet) shows up
here as a number before it shows up in a benchmark as noise.
"""

import sys

from repro.core.config import EngineConfig
from repro.core.engine import ServiceEngine
from repro.core.experiments import av_markup

#: Python calls per delivered RTP packet. 46.9 measured (35,847 calls,
#: 764 packets); the same run made 79.3 before the heap held bare
#: ``(time, seq, fn, args)`` entries and links scheduled themselves.
BUDGET = 48.0


def _profiled_run() -> tuple[int, int]:
    """(Python calls, RTP packets delivered) of a 2-viewer, 2 s star run."""
    eng = ServiceEngine(EngineConfig(seed=7))
    eng.add_server("srv1", documents={"doc": (av_markup(2.0, False), "t")})
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(count)
    try:
        pop = eng.orchestrator.run_population(2, "srv1", "doc",
                                              stagger_s=0.3)
    finally:
        sys.setprofile(None)
    assert len(pop.completed()) == 2
    return calls, eng.network.tap.count_by_protocol["RTP"]


def test_python_calls_per_delivered_rtp_packet_within_budget():
    _profiled_run()  # first use fills import-time and memo caches
    calls, packets = _profiled_run()
    assert packets == 764
    assert calls / packets <= BUDGET, (calls, packets)
    # and it is a count: the same run again enters the same functions
    assert _profiled_run() == (calls, packets)
