"""Observability overhead benchmark.

Guards the tentpole's zero-overhead promise: with tracing disabled
(the default), the instrumented hot path — per-packet network
forwarding — must run within 5% of an uninstrumented baseline (the
same code with the trace branches removed). Kernel dispatch has no
trace branch left to strip (an untraced ``Simulator.run`` pops and
fires inline), so its gate is the other half of the promise: a
control-tier tracer, which asks for no per-step events, must keep
that inline loop and run within 5% of no tracer at all. With a
:class:`RecordingTracer` attached, the run must actually record the
events the instrumentation promises.

Run standalone for a timing table:

    PYTHONPATH=src python benchmarks/bench_perf_obs.py

or through pytest:

    PYTHONPATH=src python -m pytest benchmarks/bench_perf_obs.py -q

Set ``OBS_BENCH_SMOKE=1`` (CI) to shrink the workloads and relax the
threshold for noisy shared runners.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager

from repro.des import Simulator
from repro.net import Network, Packet
from repro.net.link import Link
from repro.net.topology import Node
from repro.obs import FlightRecorder, RecordingTracer

SMOKE = os.environ.get("OBS_BENCH_SMOKE", "") not in ("", "0")
#: max tolerated slowdown of instrumented-but-disabled vs baseline
THRESHOLD = 0.25 if SMOKE else 0.05
REPEATS = 3 if SMOKE else 7
KERNEL_EVENTS = 5_000 if SMOKE else 30_000
PACKETS = 1_000 if SMOKE else 5_000


# -- uninstrumented twins of the hot paths -----------------------------------

def _plain_enqueue(self, pkt) -> bool:
    if not self.up:
        self._drop_down(pkt)
        return False
    if not self._busy:
        self._busy = True
        ser = (self.serialization_delay(pkt.size_bytes)
               if self._ser_overridden
               else pkt.size_bytes * 8.0 / self.rate_bps)
        self.sim.call_later(ser, self._tx_done, pkt, ser)
    elif len(self._queue) < self.queue_packets:
        self._queue.append(pkt)
    else:
        self.stats.queue_drops += 1
        if self.on_drop is not None:
            self.on_drop(pkt, "drop-queue")
        return False
    return True


def _plain_propagated(self, pkt) -> None:
    if not self.up:
        self._drop_down(pkt)
        return
    if self.loss_model is not None and self.loss_model.is_lost():
        self.stats.loss_drops += 1
        if self.on_drop is not None:
            self.on_drop(pkt, "drop-loss")
        return
    if self.on_arrival is not None:
        pkt.hops += 1
        self.on_arrival(pkt)


def _plain_deliver(self, pkt) -> None:
    self.rx_packets += 1
    self.rx_bytes += pkt.size_bytes
    handler = self._ports.get(pkt.dst_port)
    if handler is not None:
        handler(pkt)
        return
    self.rx_discarded += 1
    self.network.tap.record_discard(self.network.sim.now, self.node_id, pkt)


@contextmanager
def uninstrumented():
    """Temporarily strip the trace branches from the hot paths."""
    saved = (Link.enqueue, Link._propagated, Node.deliver)
    Link.enqueue = _plain_enqueue
    Link._propagated = _plain_propagated
    Node.deliver = _plain_deliver
    try:
        yield
    finally:
        Link.enqueue, Link._propagated, Node.deliver = saved


# -- workloads (mirroring bench_perf_substrate) ------------------------------

def kernel_workload(tracer=None) -> int:
    sim = Simulator()
    if tracer is not None:
        sim.set_tracer(tracer)
    count = [0]

    def ticker():
        for _ in range(KERNEL_EVENTS):
            yield sim.timeout(0.001)
            count[0] += 1

    sim.process(ticker())
    sim.run()
    return count[0]


def network_workload(tracer=None) -> int:
    sim = Simulator()
    if tracer is not None:
        sim.set_tracer(tracer)
    net = Network(sim)
    for n in ("a", "r1", "r2", "b"):
        net.add_node(n)
    net.add_duplex_link("a", "r1", 100e6, 0.001, queue_packets=10_000)
    net.add_duplex_link("r1", "r2", 100e6, 0.001, queue_packets=10_000)
    net.add_duplex_link("r2", "b", 100e6, 0.001, queue_packets=10_000)
    got = [0]
    net.node("b").bind(1, lambda p: got.__setitem__(0, got[0] + 1))

    def sender():
        for i in range(PACKETS):
            net.send(Packet(src="a", dst="b", size_bytes=1000,
                            protocol="UDP", flow_id="f", dst_port=1, seq=i))
            yield sim.timeout(1e-5)

    sim.process(sender())
    sim.run()
    return got[0]


def best_of(fn, repeats: int = REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def measure(workload) -> tuple[float, float]:
    """(uninstrumented baseline, instrumented-with-tracing-disabled)."""
    workload()  # warm-up outside timing
    with uninstrumented():
        baseline = best_of(workload)
    disabled = best_of(workload)
    return baseline, disabled


def measure_kernel() -> tuple[float, float]:
    """(no tracer, control-tier tracer attached) on kernel dispatch."""
    kernel_workload()  # warm-up outside timing
    baseline = best_of(kernel_workload)
    disabled = best_of(lambda: kernel_workload(FlightRecorder()))
    return baseline, disabled


# -- pytest entry points ------------------------------------------------------

def test_disabled_tracing_kernel_overhead_under_threshold():
    baseline, disabled = measure_kernel()
    overhead = disabled / baseline - 1.0
    assert overhead < THRESHOLD, (
        f"a control-tier tracer costs {overhead:.1%} on kernel dispatch "
        f"(no tracer {baseline * 1e3:.1f} ms, "
        f"attached {disabled * 1e3:.1f} ms)"
    )


def test_disabled_tracing_network_overhead_under_threshold():
    baseline, disabled = measure(network_workload)
    overhead = disabled / baseline - 1.0
    assert overhead < THRESHOLD, (
        f"disabled tracing costs {overhead:.1%} on packet forwarding "
        f"(baseline {baseline * 1e3:.1f} ms, "
        f"disabled {disabled * 1e3:.1f} ms)"
    )


def test_enabled_tracing_records_the_kernel_workload():
    tracer = RecordingTracer()
    assert kernel_workload(tracer) == KERNEL_EVENTS
    counts = tracer.kind_counts()
    # A detail tracer forces the step() path: one kernel.event per
    # fired Timeout plus the ticker process's start and finish.
    assert counts["kernel.event"] >= KERNEL_EVENTS
    assert counts["process.spawn"] == 1
    assert counts["process.finish"] == 1


def test_enabled_tracing_records_the_network_workload():
    tracer = RecordingTracer()
    assert network_workload(tracer) == PACKETS
    counts = tracer.kind_counts()
    assert counts["net.deliver"] == PACKETS
    # Each packet is enqueued on every hop of the 3-link path.
    assert counts["link.enqueue"] == PACKETS * 3


# -- standalone report --------------------------------------------------------

def main() -> int:
    from repro.analysis import render_table

    rows = []
    for name, workload, (baseline, disabled) in (
            ("kernel dispatch", kernel_workload, measure_kernel()),
            ("packet forwarding", network_workload,
             measure(network_workload))):
        tracer = RecordingTracer()
        t0 = time.perf_counter()
        workload(tracer)
        enabled = time.perf_counter() - t0
        rows.append([
            name,
            f"{baseline * 1e3:.1f}",
            f"{disabled * 1e3:.1f}",
            f"{(disabled / baseline - 1.0) * 100:+.1f}%",
            f"{enabled * 1e3:.1f}",
            len(tracer.events),
        ])
    print(render_table(
        f"Tracing overhead (threshold {THRESHOLD:.0%}, "
        f"{'smoke' if SMOKE else 'full'} mode)",
        ["workload", "baseline_ms", "disabled_ms", "overhead",
         "enabled_ms", "events"],
        rows,
    ))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
