"""The four workloads and how one repetition of each is driven.

Every layer is measured from outside: through ``ServiceEngine``,
``SessionOrchestrator.run_population``, ``repro.shard.bench`` and the
public stats objects they leave behind. A repetition is the whole job a
user pays for — build the system, run the population, ``to_dict`` and
digest — under one CPU bracket, with a span around each phase.

All populations are closed: a fixed set of viewers, arrivals scheduled
on the DES clock by one generator process, nothing waits on host time.
"""

from __future__ import annotations

import cProfile
import dataclasses
import statistics
from dataclasses import dataclass, field
from typing import Any

from harness import Spans, cpu_seconds

from repro.core.config import EngineConfig, TrafficConfig
from repro.core.engine import ServiceEngine
from repro.core.experiments import av_markup
from repro.faults.digest import population_digest
from repro.net import cdn_stack
from repro.obs.tracer import RecordingTracer
from repro.shard.bench import run_sharded, shard_workload
from repro.shard.plan import ShardPlan
from repro.shard.supervisor import ShardSupervisor
from repro.shard.worker import run_cell

SERVER, DOCUMENT = "srv1", "doc"

def _projection_digest(doc: dict[str, Any]) -> str:
    """Digest of everything observation must not change.

    Per-session ``metrics``/``qoe`` and the population's ``metrics``/
    ``service``/``timeseries`` exist only when a tracer or sampler is
    attached; the rest has to be identical untraced, profiled, observed.
    """
    return population_digest({"outcomes": [
        dict(o, result={k: v for k, v in o["result"].items()
                        if k not in ("metrics", "qoe")})
        for o in doc["outcomes"]
    ]})


def session_stats(outcomes: list[dict[str, Any]],
                  attempted: int) -> dict[str, float]:
    """Simulated statistics and exact counts from outcome dicts."""
    results = [o["result"] for o in outcomes]
    streams = [s for r in results for s in r["streams"].values()]

    def total(key: str) -> int:
        return sum(s[key] for s in streams)

    def gap_ratio(result: dict[str, Any]) -> float:
        played = sum(s["frames_played"] for s in result["streams"].values())
        gaps = sum(s["gaps"] for s in result["streams"].values())
        return gaps / (played + gaps) if played + gaps else 0.0

    startups = [r["startup_latency_s"] for r in results
                if r["startup_latency_s"] is not None]
    completed = sum(1 for r in results if r["completed"])
    return {
        "sessions_attempted": attempted,
        "sessions_failed": attempted - completed,
        "startup_s_p50": statistics.median(startups) if startups else 0.0,
        "gap_ratio_p50": (statistics.median(map(gap_ratio, results))
                          if results else 1.0),
        "rtp.packets_received": total("packets_received"),
        "rtp.packets_lost": total("packets_lost"),
        "client.frames_played": total("frames_played"),
        "client.gaps": total("gaps"),
        "client.skew_actions": total("duplicates") + total("drops"),
        "client.buffer_underflows": total("buffer_underflows"),
        "server.grading_decisions": sum(
            len(r["grading"]["decisions"]) for r in results),
        "service.control_retries": sum(r["retries"] for r in results),
    }


def _engine_stats(eng: ServiceEngine) -> dict[str, float]:
    """Exact counts the engine's public stats objects hold after a run."""
    links = eng.network.links
    media_hosts = {ms.node_id for server in eng.servers.values()
                   for ms in server.all_media_servers()}
    managers = [s.shared_flows for s in eng.servers.values()
                if s.shared_flows is not None]
    flows = sum(m.flows_started for m in managers)
    return {
        "net.link_tx_packets": sum(
            l.stats.tx_packets for l in links.values()),
        "net.queue_drops": sum(l.stats.queue_drops for l in links.values()),
        "net.loss_drops": sum(l.stats.loss_drops for l in links.values()),
        # bytes off every serving media host, origin and replicas, as
        # `repro bench` defines egress
        "net.origin_egress_bytes": sum(
            l.stats.tx_bytes for (src, _dst), l in links.items()
            if src in media_hosts),
        "server.admitted": sum(
            s.admission.stats.admitted for s in eng.servers.values()),
        "server.rejected": sum(
            s.admission.stats.rejected for s in eng.servers.values()),
        "server.shared_fanout": (
            sum(m.joins for m in managers) / flows if flows else 0.0),
    }


@dataclass(frozen=True)
class Population:
    """A monolithic population on one engine."""

    name: str
    viewers: int
    duration_s: float
    stagger_s: float
    with_images: bool = True
    config: dict[str, Any] = field(default_factory=dict)
    #: cross traffic aimed at every other viewer's access link
    cross_traffic: bool = False
    #: two-region cdn_stack with edge replicas instead of the star
    cdn: bool = False

    CAN_RUN_OBSERVED = True

    @property
    def sessions(self) -> int:
        return self.viewers

    def tiny(self) -> "Population":
        return dataclasses.replace(self, viewers=4, duration_s=2.0)

    def setup(self, seed: int, tracer: Any = None) -> ServiceEngine:
        """From the workload's parameters to a system that can run."""
        config = dict(self.config, seed=seed)
        if self.cross_traffic:
            # Poisson, not on/off, and stopped when the last viewer's
            # document ends: the packet count then varies by 1% across
            # seeds instead of 10%, and a session that stalls past the
            # end (see README, "star_impaired") drags no traffic along.
            config["traffic"] = [
                TrafficConfig(kind="poisson", rate_bps=7.5e6,
                              packet_bytes=1500, start_at=0.5,
                              stop_at=(self.viewers * self.stagger_s
                                       + self.duration_s + 1.0),
                              target=f"client{i}")
                for i in range(1, self.viewers + 1, 2)
            ]
        layers = (cdn_stack(clients_per_region=self.viewers // 2)
                  if self.cdn else None)
        eng = ServiceEngine(EngineConfig(**config), tracer=tracer,
                            layers=layers)
        eng.add_server(SERVER, documents={
            DOCUMENT: (av_markup(self.duration_s, self.with_images),
                       "bench")})
        eng.client_nodes(self.viewers)
        return eng

    def repetition(self, seed: int, spans: Spans, rep: int,
                   observed: bool = False,
                   profile: cProfile.Profile | None = None
                   ) -> dict[str, Any]:
        """Build, run, collect: one CPU bracket, a span per phase.

        ``observed`` attaches what `repro bench` attaches today: a
        full-detail ``RecordingTracer`` and both DES-clock samplers.
        """
        tracer = RecordingTracer() if observed else None
        mode = ("observed" if observed
                else "profile" if profile is not None else "untraced")
        with spans.span("repetition", rep=rep, mode=mode) as whole:
            cpu0 = cpu_seconds()
            if profile is not None:
                profile.enable()
            with spans.span("build", rep=rep) as build:
                eng = self.setup(seed, tracer)
                if observed:
                    eng.attach_service_monitor()
                    eng.attach_timeseries()
            with spans.span("run", rep=rep):
                pop = eng.orchestrator.run_population(
                    self.viewers, SERVER, DOCUMENT,
                    stagger_s=self.stagger_s)
            with spans.span("collect", rep=rep) as collect:
                doc = pop.to_dict()
                digest = population_digest(doc)
            if profile is not None:
                profile.disable()
            cpu_s = cpu_seconds() - cpu0
        out = {
            "cpu_s": cpu_s,
            "wall_s": whole["end"] - whole["start"],
            "build_s": build["end"] - build["start"],
            "collect_s": collect["end"] - collect["start"],
            "digest": digest,
            "projection": _projection_digest(doc),
            "completeness": 1.0,
            "stats": {**session_stats(doc["outcomes"], self.viewers),
                      **_engine_stats(eng)},
        }
        if tracer is not None:
            scores = [o.result.qoe["score"] for o in pop.outcomes
                      if o.result.qoe]
            kinds = tracer.kind_counts()
            out["observed"] = {
                "obs.trace_events": sum(kinds.values()),
                "des.kernel_events": kinds.get("kernel.event", 0),
                "obs.qoe_score_p50": (statistics.median(scores)
                                      if scores else 0.0),
            }
        return out

    def profile_run(self, seed: int, spans: Spans,
                    profile: cProfile.Profile) -> dict[str, Any]:
        return self.repetition(seed, spans, 0, profile=profile)


@dataclass(frozen=True)
class Sharded:
    """A supervised sharded population: one worker process per shard."""

    name: str
    clients: int = 32
    shards: int = 2
    cell_clients: int = 8
    duration_s: float = 4.0
    stagger_s: float = 0.4

    #: cells always run observed, and only inside the workers
    CAN_RUN_OBSERVED = False

    @property
    def sessions(self) -> int:
        return self.clients

    def tiny(self) -> "Sharded":
        return dataclasses.replace(self, clients=4, cell_clients=2,
                                   duration_s=1.0)

    def _plan(self, seed: int) -> ShardPlan:
        return ShardPlan(n_clients=self.clients, n_shards=self.shards,
                         cell_clients=self.cell_clients, seed=seed)

    def setup(self, seed: int) -> ShardSupervisor:
        """What ``run_sharded`` constructs before it forks."""
        return ShardSupervisor(self._plan(seed), shard_workload(
            self.duration_s, self.stagger_s))

    def repetition(self, seed: int, spans: Spans,
                   rep: int) -> dict[str, Any]:
        with spans.span("repetition", rep=rep, mode="untraced") as whole:
            cpu0 = cpu_seconds()
            with spans.span("build", rep=rep) as build:
                self.setup(seed)  # timed alone; run_sharded redoes it
            with spans.span("supervise", rep=rep) as supervise:
                result = run_sharded(
                    self.clients, self.shards, seed=seed,
                    cell_clients=self.cell_clients,
                    duration_s=self.duration_s, stagger_s=self.stagger_s)
            cpu_s = cpu_seconds() - cpu0
        for status in result.shards:
            spans.add("shard", supervise["start"],
                      supervise["start"] + status.wall_s, supervise["id"],
                      track=1 + status.shard,
                      rep=rep, shard=status.shard, cells=status.cells,
                      attempts=status.attempts)
        outcomes = result.merged["outcomes"]
        scores = [o["result"]["qoe"]["score"] for o in outcomes
                  if o["result"].get("qoe")]
        return {
            "cpu_s": cpu_s,
            "wall_s": whole["end"] - whole["start"],
            "build_s": build["end"] - build["start"],
            "collect_s": 0.0,
            "digest": result.digest,
            "projection": _projection_digest(result.merged),
            "completeness": result.completeness,
            "stats": session_stats(outcomes, self.clients),
            "shard": {
                "shard.wall_s": result.wall_s,
                "shard.parallel_efficiency":
                    cpu_s / (self.shards * result.wall_s),
                # fork, engine build, pickling, pipes, merge: all CPU
                # that is not inside a cell's run_workload
                "shard.overhead_frac": 1.0 - result.cpu_wall_s / cpu_s,
                "shard.cell_wall_s_mean":
                    result.cpu_wall_s / max(1, result.cells_merged),
                "shard.trace_events": result.events,
                "shard.retries": sum(s.retries for s in result.shards),
            },
            "observed": {
                "obs.trace_events": result.events,
                "obs.qoe_score_p50": (statistics.median(scores)
                                      if scores else 0.0),
            },
        }

    def profile_run(self, seed: int, spans: Spans,
                    profile: cProfile.Profile) -> dict[str, Any]:
        """Every cell run in this process under the profiler.

        Workers cannot be profiled from outside, but a cell is a pure
        function of ``(workload, lo, hi, seed)``, so running the same
        cells here shows where a worker's time goes.
        """
        plan = self._plan(seed)
        workload = shard_workload(self.duration_s, self.stagger_s)
        with spans.span("repetition", rep=0, mode="profile"):
            cpu0 = cpu_seconds()
            profile.enable()
            with spans.span("run", rep=0):
                docs = [run_cell(workload, cell, lo, hi, cell_seed)
                        for shard in range(plan.n_shards)
                        for cell, lo, hi, cell_seed
                        in plan.worker_cells(shard)]
            profile.disable()
            cpu_s = cpu_seconds() - cpu0
        docs.sort(key=lambda d: d["cell"])
        merged = {"outcomes": [o for d in docs
                               for o in d["population"]["outcomes"]]}
        return {"cpu_s": cpu_s, "projection": _projection_digest(merged)}


WORKLOADS: dict[str, Population | Sharded] = {w.name: w for w in (
    Population(
        name="star_clean",
        viewers=12, duration_s=15.0, stagger_s=0.4,
        config={"admission_capacity_bps": 400e6},
    ),
    Population(
        name="star_impaired",
        viewers=8, duration_s=10.0, stagger_s=0.4,
        config={"admission_capacity_bps": 400e6,
                "loss_p_gb": 0.005, "loss_bad": 0.3},
        cross_traffic=True,
    ),
    Population(
        name="cdn_shared",
        viewers=24, duration_s=10.0, stagger_s=0.0, with_images=False,
        config={"admission_capacity_bps": 400e6, "shared_flows": True},
        cdn=True,
    ),
    Sharded(
        name="shard_k2",
    ),
)}
