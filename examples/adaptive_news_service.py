"""Multimedia news-on-demand under network congestion.

One of the paper's motivating applications ("multimedia news
services"). A news bulletin — anchor video synchronized with audio,
plus still photographs — is delivered while cross traffic congests
the subscriber's access link mid-session. The run shows both recovery
mechanisms working together:

* short-term: the client's buffer monitor and skew controller keep
  the anchor's lips in sync through the epoch;
* long-term: RTCP feedback drives the server's quality grading —
  video rate drops during the epoch and recovers after it, while the
  audio ("users can tolerate lower video quality rather than 'not
  hear well'") stays at full quality.

Run:  python examples/adaptive_news_service.py
"""

from repro.analysis import render_series, render_table
from repro.core import EngineConfig, ServiceEngine, TrafficConfig
from repro.hml import DocumentBuilder, serialize
from repro.server.qos_manager import GradingPolicy


#: the bulletin has no outgoing links; the set is self-contained
SCENARIO_CLOSED = True
#: the subscriber's access link, for the static bandwidth check
SCENARIO_CAPACITY_MBPS = 2.5


def scenario_documents() -> dict[str, str]:
    """The bulletin as markup, for the scenario analyzer."""
    return {"bulletin": news_bulletin()}


def news_bulletin(duration: float = 30.0) -> str:
    doc = (
        DocumentBuilder("Evening news bulletin")
        .heading(1, "The evening news")
        .text("Headlines: broadband networks reach the campus.")
        .image("imgsrv:/photo1.gif", "PHOTO1", startime=0.0,
               duration=duration / 2, note="lead photograph")
        .image("imgsrv:/photo2.gif", "PHOTO2", startime=duration / 2,
               duration=duration / 2)
        .audio_video("audsrv:/anchor.au", "vidsrv:/anchor.mpg",
                     "ANCHOR_A", "ANCHOR_V", startime=0.0,
                     duration=duration, note="news anchor")
        .build()
    )
    return serialize(doc)


def main() -> None:
    duration = 30.0
    cfg = EngineConfig(
        access_rate_bps=2.5e6,
        grading_policy=GradingPolicy(),  # paper defaults: video-first
        traffic=[TrafficConfig(kind="poisson", rate_bps=1.4e6,
                               start_at=8.0, stop_at=20.0)],
    )
    engine = ServiceEngine(cfg)
    engine.add_server("news-srv",
                      documents={"bulletin": (news_bulletin(duration),
                                              "news")})
    print("Delivering a 30 s news bulletin over a 2.5 Mb/s access link;")
    print("cross traffic congests it during [8, 20) s...\n")
    result = engine.orchestrator.run_full_session("news-srv", "bulletin",
                                     user_id="subscriber", contract="premium")
    assert result.completed

    print(render_table(
        "Per-stream outcome",
        ["stream", "frames", "gaps", "lost pkts", "mean grade"],
        [[sid, s.frames_played, s.gaps, s.packets_lost,
          f"{s.mean_grade:.2f}"]
         for sid, s in sorted(result.streams.items())],
    ))

    traj = result.grade_trajectories.get("ANCHOR_V", [])
    print("\n--- video grade trajectory (the long-term mechanism) ---")
    if traj:
        print(render_series("grade changes over time", "t (s)",
                            "grade (0=best)",
                            [(f"{t:.1f}", g) for t, g in traj]))
    decisions = result.grading_decisions
    degrades = sum(1 for d in decisions if d.action == "degrade")
    upgrades = sum(1 for d in decisions if d.action == "upgrade")
    print(f"\ngrading decisions: {degrades} degrades, {upgrades} upgrades")
    print(f"audio stayed at grade {result.mean_audio_grade():.1f} "
          "(video pays first)")
    print(f"worst lip-sync skew: {result.worst_skew_s() * 1e3:.0f} ms")


if __name__ == "__main__":
    main()
