"""A law of every impaired run: each frame sent on an RTP stream ends in
exactly one terminal at its receiver.

The terminals are: reassembled (``frames_done``), given up on when a
newer frame completed (``frames_dropped_fragments``, one count per
frame), or lost on a link and never either (a fragment in the
network's ``frames_hit`` ledger). No frame a link hit is reassembled,
since RTP does not resend a fragment. The counters are the always-on
ones ``ServiceEngine`` already keeps; the runs are star populations
under Gilbert-Elliott loss and Poisson cross traffic, the
``star_impaired`` shape at a quarter of its size, on the seeds below
(chosen before the law was checked).
"""

from __future__ import annotations

import pytest

from repro.core import EngineConfig, ServiceEngine, TrafficConfig
from repro.core.engine import ClientComposition
from repro.core.experiments import av_markup

SEEDS = (11, 12, 13)
VIEWERS, DURATION_S, STAGGER_S = 6, 5.0, 0.4


def _impaired_run(seed, monkeypatch):
    """Run the population; return the engine and, per session, its
    composition and delivery account as the orchestrator took it."""
    accounts = {}
    account = ClientComposition.delivery_account

    def recorded(comp, session):
        accounts[session] = comp, account(comp, session)
        return accounts[session][1]

    monkeypatch.setattr(ClientComposition, "delivery_account", recorded)
    traffic = [TrafficConfig(kind="poisson", rate_bps=7.5e6,
                             packet_bytes=1500, start_at=0.5,
                             stop_at=VIEWERS * STAGGER_S + DURATION_S + 1.0,
                             target=f"client{i}")
               for i in range(1, VIEWERS + 1, 2)]
    eng = ServiceEngine(EngineConfig(
        seed=seed, admission_capacity_bps=400e6, loss_p_gb=0.005,
        loss_bad=0.3, traffic=traffic))
    eng.add_server("srv1", documents={"doc": (av_markup(DURATION_S), "t")})
    pop = eng.orchestrator.run_population(VIEWERS, "srv1", "doc",
                                          stagger_s=STAGGER_S)
    assert len(pop.completed()) == VIEWERS
    return eng, accounts


@pytest.mark.parametrize("seed", SEEDS)
def test_each_frame_sent_has_exactly_one_terminal_at_its_receiver(
        seed, monkeypatch):
    eng, accounts = _impaired_run(seed, monkeypatch)
    assert len(accounts) == VIEWERS
    given_up = 0
    for session, (comp, account) in sorted(accounts.items()):
        rows = list(eng.network.frames_sent[session])
        hit = eng.network.frames_hit.get(session, {})
        sent_total = lost_total = 0
        for sid, rx in sorted(comp.receivers.items()):
            sent = {seq for stream, seq in zip(rows[0::3], rows[1::3])
                    if stream == sid}
            done = set(rx.frames_done)
            hits = {seq: ts for (flow, seq), ts in hit.items() if flow == sid}
            assert not done & set(hits), (session, sid)
            lost = [seq for seq, ts in hits.items()
                    if seq not in done and ts not in rx.frames_stale]
            # every timestamp given up on is a sent frame's, counted once
            assert rx.stats.frames_dropped_fragments == len(
                rx.frames_stale) == sum(
                    ts in rx.frames_stale for ts in hits.values())
            assert len(sent) == (len(rx.stats.frames_done)
                                 + rx.stats.frames_dropped_fragments
                                 + len(lost)), (session, sid)
            sent_total += len(sent)
            lost_total += len(lost)
            given_up += rx.stats.frames_dropped_fragments
        assert (account["frames_sent"], account["frames_lost"]) == (
            sent_total, lost_total), session
    # the runs give frames up, so a count that stopped would show
    assert given_up > 0
