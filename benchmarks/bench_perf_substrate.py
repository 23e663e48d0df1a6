"""Substrate performance micro-benchmarks.

Not a paper figure — these track the simulation engine's own cost
(events/second, packets/second, frames/second), the numbers that
bound how large an experiment the harness can run.
"""

from repro.des import RngRegistry, Simulator
from repro.media import default_registry
from repro.media.traces import FrameSource, VideoTraceGenerator
from repro.net import Network, Packet
from repro.rtp import RtpReceiver, RtpSender

REG = default_registry()


def test_kernel_event_throughput(benchmark):
    """Cost of scheduling + firing 10k timeout events."""

    def run():
        sim = Simulator()
        count = [0]

        def ticker():
            for _ in range(10_000):
                yield sim.timeout(0.001)
                count[0] += 1

        sim.process(ticker())
        sim.run()
        return count[0]

    assert benchmark(run) == 10_000


def test_network_forwarding_throughput(benchmark):
    """5k packets over a 3-hop path with queueing."""

    def run():
        sim = Simulator()
        net = Network(sim)
        for n in ("a", "r1", "r2", "b"):
            net.add_node(n)
        net.add_duplex_link("a", "r1", 100e6, 0.001, queue_packets=10_000)
        net.add_duplex_link("r1", "r2", 100e6, 0.001, queue_packets=10_000)
        net.add_duplex_link("r2", "b", 100e6, 0.001, queue_packets=10_000)
        got = [0]
        net.node("b").bind(1, lambda p: got.__setitem__(0, got[0] + 1))

        def sender():
            for i in range(5_000):
                net.send(Packet(src="a", dst="b", size_bytes=1000,
                                protocol="UDP", flow_id="f", dst_port=1,
                                seq=i))
                yield sim.timeout(1e-5)

        sim.process(sender())
        sim.run()
        return got[0]

    assert benchmark(run) == 5_000


def test_trace_generation_throughput(benchmark):
    """Bulk synthesis of a 60 s VBR video trace (1500 frames)."""
    rng = RngRegistry(seed=1)

    def run():
        gen = VideoTraceGenerator(REG.get("MPEG"), rng.stream("perf"))
        return gen.generate("v", duration_s=60.0)

    trace = benchmark(run)
    assert len(trace) == 1500


def test_frame_source_throughput(benchmark):
    """Frame-by-frame synthesis (the media server's hot loop)."""
    rng = RngRegistry(seed=2)

    def run():
        src = FrameSource("v", REG.get("MPEG"), rng.stream("perf2"))
        n = 0
        for _ in range(2_000):
            if src.next_frame() is not None:
                n += 1
        return n

    assert benchmark(run) == 2_000


def test_rtp_pipeline_throughput(benchmark):
    """Packetize + deliver + reassemble 500 large frames end-to-end."""
    from repro.media.types import Frame, FrameKind

    def run():
        sim = Simulator()
        net = Network(sim)
        net.add_node("s")
        net.add_node("c")
        net.add_duplex_link("s", "c", 1e9, 0.001, queue_packets=100_000)
        got = [0]
        RtpReceiver(net, "c", 5004, 90_000, "v",
                    on_frame=lambda f, t: got.__setitem__(0, got[0] + 1))
        tx = RtpSender(net, "s", 5005, "c", 5004, ssrc=1, payload_type=32,
                       stream_id="v")

        def sender():
            for i in range(500):
                tx.send_frame(Frame("v", seq=i, media_time=i * 3600,
                                    duration=3600, size_bytes=7_000,
                                    kind=FrameKind.I))
                yield sim.timeout(1e-4)

        sim.process(sender())
        sim.run()
        return got[0]

    assert benchmark(run) == 500
