"""Tests for the ATM cell-layer link (§7 future-work testbed)."""

import pytest

from repro.core import EngineConfig, ServiceEngine
from repro.core.experiments import av_markup
from repro.des import RngRegistry, Simulator
from repro.net import GilbertElliottLoss, Network, Packet
from repro.net.atm import AtmLink, CELL_BYTES, cells_for


def test_cells_for():
    assert cells_for(1) == 1
    assert cells_for(48) == 1
    assert cells_for(49) == 2
    assert cells_for(1400) == 30
    with pytest.raises(ValueError):
        cells_for(0)


def test_cell_tax_slows_serialization():
    sim = Simulator()
    net = Network(sim)
    net.add_node("a")
    net.add_node("b")
    link = net.add_link("a", "b", rate_bps=1_000_000, delay_s=0.0, atm=True)
    assert isinstance(link, AtmLink)
    got = []
    net.node("b").bind(1, lambda p: got.append(sim.now))
    # 480 bytes = 10 cells = 530 wire bytes at 1 Mb/s = 4.24 ms.
    net.send(Packet(src="a", dst="b", size_bytes=480, protocol="UDP",
                    flow_id="f", dst_port=1))
    sim.run()
    assert got[0] == pytest.approx(10 * CELL_BYTES * 8 / 1e6)
    assert link.cells_tx == 10


def test_cell_loss_amplification():
    """A small per-cell loss rate destroys large packets much more
    often than small ones — the classic ATM effect."""

    def run(size_bytes):
        sim = Simulator()
        net = Network(sim)
        net.add_node("a")
        net.add_node("b")
        rng = RngRegistry(seed=4).stream(f"ge{size_bytes}")
        ge = GilbertElliottLoss(rng, p_gb=1.0, p_bg=0.0, loss_bad=0.01)
        net.add_link("a", "b", 100e6, 0.0, loss_model=ge, atm=True)
        got = []
        net.node("b").bind(1, lambda p: got.append(p.seq))

        def sender():
            for i in range(500):
                net.send(Packet(src="a", dst="b", size_bytes=size_bytes,
                                protocol="UDP", flow_id="f", dst_port=1,
                                seq=i))
                yield sim.timeout(0.001)

        sim.process(sender())
        sim.run()
        return 1.0 - len(got) / 500

    small_loss = run(48)  # 1 cell/packet
    big_loss = run(1440)  # 30 cells/packet
    assert small_loss == pytest.approx(0.01, abs=0.01)
    # P(packet lost) = 1-(1-p)^30 ~ 26%
    assert big_loss > 5 * small_loss
    assert big_loss == pytest.approx(1 - 0.99**30, abs=0.08)


def test_full_service_over_atm_access():
    """The whole on-demand service runs unchanged over an ATM access
    link — the paper's future-work deployment target."""
    eng = ServiceEngine(EngineConfig(atm_access=True))
    eng.add_server("srv1", documents={"doc": (av_markup(4.0), "demo")})
    link = eng.network.links[(ServiceEngine.ROUTER, ServiceEngine.CLIENT)]
    assert isinstance(link, AtmLink)
    result = eng.orchestrator.run_full_session("srv1", "doc")
    assert result.completed
    assert result.total_gap_ratio() < 0.05
    assert link.cells_tx > 0


def test_atm_vs_plain_wire_time():
    """Same traffic pays the ~10% cell tax in serialization time."""

    def busy_time(atm):
        sim = Simulator()
        net = Network(sim)
        net.add_node("a")
        net.add_node("b")
        link = net.add_link("a", "b", 10e6, 0.001, atm=atm)
        net.node("b").bind(1, lambda p: None)
        for i in range(100):
            net.send(Packet(src="a", dst="b", size_bytes=1440,
                            protocol="UDP", flow_id="f", dst_port=1, seq=i))
        sim.run()
        return link.stats.busy_time

    assert busy_time(True) > 1.08 * busy_time(False)
