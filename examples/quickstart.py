"""Quickstart: author a timed hypermedia document, deliver it
on-demand through the full simulated service, and inspect the
presentation quality.

Run:  python examples/quickstart.py
"""

from repro.analysis import render_table
from repro.core import ServiceEngine
from repro.hml import DocumentBuilder, parse, serialize, validate_document
from repro.model import PresentationScenario, ascii_timeline

#: the link target lives on another (unsimulated) server
SCENARIO_CLOSED = False


def scenario_documents() -> dict[str, str]:
    """The example's documents as markup, for the scenario analyzer."""
    # Author a document with the markup builder. STARTIME/DURATION
    # are the paper's temporal extension of HTML: each media element
    # knows when (relative to presentation start) and how long it
    # plays; AU_VI pairs are lip-synced.
    doc = (
        DocumentBuilder("Welcome to the on-demand service")
        .heading(1, "A first orchestrated presentation")
        .text("This text stays on screen for the whole scenario.")
        .image("imgsrv:/title.gif", "TITLE_CARD", startime=0.0, duration=4.0,
               width=320, height=240)
        .audio_video("audsrv:/intro.au", "vidsrv:/intro.mpg",
                     "INTRO_A", "INTRO_V", startime=2.0, duration=8.0,
                     note="talking-head introduction")
        .audio("audsrv:/outro.au", "OUTRO", startime=10.0, duration=3.0)
        .hyperlink("second-document", at_time=13.0)
        .build()
    )
    return {"welcome": serialize(doc)}


def main() -> None:
    # 1. Author the document (see scenario_documents).
    markup = scenario_documents()["welcome"]
    doc = parse(markup)

    # 2. The document is a text file on the wire; it round-trips.
    assert serialize(doc) == markup
    assert not [i for i in validate_document(doc) if i.is_error]
    print("--- markup (the presentation scenario, as transmitted) ---")
    print(markup)

    # 3. The client extracts the playout schedule (the E_i structures).
    scenario = PresentationScenario.from_markup(markup)
    print("--- playout timeline ---")
    print(ascii_timeline(scenario.schedule))
    print()

    # 4. Deliver it through the full service: admission, flow
    #    scheduling, parallel RTP streams, client buffering, playout.
    #    The default topology is the paper's single star; pass
    #    layers=repro.net.cdn_stack() for regional POPs with replicas.
    engine = ServiceEngine()
    engine.add_server("srv1", documents={"welcome": (markup, "demo")})
    result = engine.orchestrator.run_full_session("srv1", "welcome")

    assert result.completed
    rows = [
        [sid, s.media_type, s.frames_played, s.gaps,
         f"{s.mean_delay_s * 1e3:.1f}" if s.packets_received else "-",
         f"{s.time_window_s:.2f}" if s.time_window_s else "-"]
        for sid, s in sorted(result.streams.items())
    ]
    print(render_table(
        "Delivery report",
        ["stream", "type", "frames", "gaps", "mean delay ms", "window s"],
        rows,
    ))
    print(f"\nstartup latency: {result.startup_latency_s:.2f} s "
          f"(the intentional buffer-prefill delay)")
    print(f"worst intermedia skew: {result.worst_skew_s() * 1e3:.1f} ms")
    print(f"session charge: {result.charge:.4f} credits")


if __name__ == "__main__":
    main()
