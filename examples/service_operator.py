"""A service operator's view: many subscribers, finite capacity.

Exercises the machinery a deployment operator cares about:

* concurrent viewers sharing the broadband access (scaling);
* admission control with pricing classes under overload;
* QoS negotiation — admitting extra users at reduced quality by
  renegotiating live sessions toward their floors ([KRI 94], the
  renegotiation protocol the paper cites).

Run:  python examples/service_operator.py
"""

from repro.analysis import render_table
from repro.core import EngineConfig, ServiceEngine
from repro.core.experiments import av_markup, run


#: a single self-contained A/V document, no outgoing links
SCENARIO_CLOSED = True
#: the shared access link every viewer rides
SCENARIO_CAPACITY_MBPS = 8.0


def scenario_documents() -> dict[str, str]:
    """The operator's catalogue document, for the scenario analyzer."""
    return {"doc": av_markup(8.0)}


def main() -> None:
    # 1. Concurrent viewers on one access link.
    print("Scaling concurrent viewers on an 8 Mb/s access link")
    print("(each session needs ~1.6 Mb/s at full quality)\n")
    rows = []
    for n in (1, 4, 8):
        eng = ServiceEngine(EngineConfig(access_rate_bps=8e6,
                                         admission_capacity_bps=100e6))
        eng.add_server("srv1", documents={"doc": (av_markup(8.0), "demo")})
        results = eng.orchestrator.run_concurrent_sessions("srv1", "doc", n,
                                              stagger_s=0.25)
        done = [r for r in results if r.completed]
        rows.append([
            n, len(done),
            sum(r.total_gaps() for r in done),
            f"{max((r.worst_skew_s() for r in done), default=0) * 1e3:.0f}",
            f"{sum(r.mean_video_grade() for r in done) / len(done):.2f}",
        ])
    print(render_table("Concurrent sessions",
                       ["viewers", "completed", "total gaps",
                        "worst skew ms", "mean video grade"], rows))

    # 2. Admission by pricing class under overload.
    print("\nAdmission control: 'a user who pays more should be serviced'\n")
    headers, rows = run("e4")
    print(render_table("Admit rates by contract class", headers, rows))

    # 3. Negotiation: serve everyone, each at the quality that fits.
    print("\nQoS negotiation (0.5 Mb/s floors, [KRI 94] renegotiation)\n")
    headers, rows = run("e12")
    print(render_table("Admission with/without negotiation", headers, rows))
    print("\nWith negotiation the service never turns a paying user away "
          "while any floor-quality capacity remains — it renegotiates "
          "running sessions down (and back up when load clears).")


if __name__ == "__main__":
    main()
