"""Command-line front end; ``python -m repro --help`` is the manual.

:func:`build_parser` is the one table of commands and flags, and help is
generated from it. ``list``, ``run`` and ``demo`` are below; every other
command's body sits beside the code that builds the artifact it reports.
"""

from __future__ import annotations

import argparse
import importlib
import sys
from typing import Any, Callable, NoReturn

from repro.analysis import Reporter
from repro.core import ServiceEngine
from repro.core.experiments import EXPERIMENTS, FIGURES, av_markup, run
from repro.ioutil import UsageError

__all__ = ["EXPERIMENTS", "FIGURES", "build_parser", "main"]


def _list(report: Reporter) -> int:
    report.table("experiments", ["key", "title"],
                 [[k, exp.title] for k, exp in EXPERIMENTS.items()])
    report.table("figures", ["key", "title"],
                 [[k, entry[0]] for k, entry in FIGURES.items()])
    return 0


def _run(report: Reporter, *, target: str) -> int:
    if target in EXPERIMENTS:
        report.table(f"{target.upper()} — {EXPERIMENTS[target].title}",
                     *run(target))
    else:
        _, title, headers, produce = FIGURES[target]
        if headers is None:
            report.text(title, produce())
        else:
            report.table(title, headers, produce())
    return 0


def _demo(report: Reporter) -> int:
    eng = ServiceEngine()
    eng.add_server("srv1", documents={"demo": (av_markup(6.0, True), "demo")})
    result = eng.orchestrator.run_full_session("srv1", "demo")
    report.table(
        "Demo delivery (6 s synchronized A/V + images)",
        ["stream", "frames", "gaps"],
        [[sid, s.frames_played, s.gaps]
         for sid, s in sorted(result.streams.items())],
    )
    report.value("worst_skew_ms", round(result.worst_skew_s() * 1e3, 1))
    report.value("startup_s", round(result.startup_latency_s, 2))
    return 0


def _lazy(module: str, name: str) -> Callable[..., int]:
    """A command body that is imported when it runs, not with the table."""
    def handler(report: Reporter, **options: Any) -> int:
        return getattr(importlib.import_module(module), name)(
            report, **options)
    return handler


class _Parser(argparse.ArgumentParser):
    """Errors raise, so :func:`main` returns 2 instead of exiting."""

    def error(self, message: str) -> NoReturn:
        raise UsageError(f"{self.prog}: {message}")


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, not {value}")
    return value


def mbps(text: str) -> float:
    """Mb/s on the command line, bit/s inside."""
    return float(text) * 1e6


ON: dict[str, Any] = {"action": "store_true"}
MANY: dict[str, Any] = {"action": "append", "default": []}
#: left unset, the flag is absent and the body's default applies
UNSET: dict[str, Any] = {"default": argparse.SUPPRESS}


def build_parser() -> argparse.ArgumentParser:
    """Every command and flag, once. A body is called with its flags as
    keywords: ``--flight-dump`` is ``flight_dump=`` unless ``dest=``. A
    flag left unset with ``default=SUPPRESS`` takes the body's default."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--json", default=argparse.SUPPRESS, **ON,
        help="emit one machine-readable document instead of text tables")
    parser = _Parser(
        prog="repro", parents=[common], allow_abbrev=False,
        description="Experiments, figures, traces, benchmarks and gates "
                    "of the on-demand hypermedia service reproduction.")
    commands = parser.add_subparsers(dest="command", metavar="COMMAND",
                                     required=True)

    def command(name: str, handler: Callable[..., int],
                summary: str) -> argparse.ArgumentParser:
        sub = commands.add_parser(name, help=summary, description=summary,
                                  parents=[common], allow_abbrev=False)
        sub.set_defaults(handler=handler)
        return sub

    command("list", _list, "show the experiment and figure keys")
    command("run", _run, "run an experiment, regenerate a figure or table"
            ).add_argument("target", type=str.lower, metavar="KEY",
                           choices=[*EXPERIMENTS, *FIGURES],
                           help="a key from `repro list`")
    command("demo", _demo, "the quickstart delivery: 6 s of A/V + images")

    trace = command("trace", _lazy("repro.obs.summary", "trace_command"),
                    "summarize recorded JSONL traces, or record one")
    flag = trace.add_argument
    flag("inputs", nargs="*", metavar="FILE.jsonl")
    flag("--record", metavar="OUT.jsonl", help="record a scenario run")
    flag("--chrome", metavar="OUT.json", help="export a Chrome trace too")
    flag("--top", type=int, default=12)
    flag("--scenario", **UNSET,
         help="what --record runs, at smoke size (default: "
              "population_clean)")
    # the body prints this when given neither FILE nor --record
    trace.set_defaults(usage=trace.format_usage().strip())

    flag = command("bench", _lazy("repro.obs.bench", "bench_command"),
                   "run the scenarios: BENCH_<name>.json, exit 1 when one "
                   "fails its SLO spec, its reference or a check"
                   ).add_argument
    # left unset a flag is absent: the body's default applies, and
    # --scale-curve can refuse a flag its sweep does not take
    flag("--smoke", **ON, help="CI-sized run")
    flag("--out", default=".", metavar="DIR")
    flag("--scenario", action="append", **UNSET,
         help="one scenario (repeatable; default: all)")
    flag("--topology", action="append", **UNSET,
         help="every scenario on star or cdn")
    flag("--update-baseline", action="store_true", **UNSET,
         help="record each plain run as its reference")
    flag("--baseline", metavar="DIR", **UNSET,
         help="the reference store (default: benchmarks/baseline)")
    flag("--no-recovery", dest="recovery", action="store_false", **UNSET,
         help="control arm: same faults, no failover")
    flag("--no-retry", dest="retry", action="store_false", **UNSET,
         help="control arm: same faults, no control-path retry")
    flag("--check-determinism", action="store_true", **UNSET,
         help="replay each run untraced; its digest must match")
    flag("--flight-dump", metavar="FILE", **UNSET,
         help="record the one selected run; dump the window around its "
              "first injected fault or, failing that, a violated rule")
    flag("--clients", type=positive_int, **UNSET,
         help="viewers per run (default: the scenario's)")
    flag("--seed", type=int, **UNSET,
         help="root seed (default: the scenario's)")
    flag("--shards", type=positive_int, **UNSET,
         help="run each star scenario in cells on K worker processes")
    flag("--cell", type=positive_int, **UNSET,
         help="clients per cell (default 8)")
    flag("--tolerate-shard-failures", action="store_true", **UNSET,
         help="keep a partial sharded result: completeness is not gated")
    flag("--scale-curve", action="store_true", **UNSET,
         help="instead: sharded sweep over N")

    flag = command("slo", _lazy("repro.obs.slo", "slo_command"),
                   "evaluate SLO rules on a saved artifact; exit 1 on any "
                   "violated rule").add_argument
    flag("--artifact", metavar="FILE", required=True)
    flag("--spec-file", metavar="FILE",
         help="rules to use (default: the shipped spec named like the "
              "artifact's scenario)")
    flag("--rule", **MANY, metavar="'METRIC OP NUMBER'")

    flag = command("report", _lazy("repro.obs.dashboard", "report_command"),
                   "markdown dashboard of one artifact: QoE, service, "
                   "time series, SLO status, status against its "
                   "reference").add_argument
    flag("artifact", nargs="?", default=argparse.SUPPRESS, metavar="FILE")
    flag("--artifact", metavar="FILE")
    flag("--out", metavar="FILE.md")
    flag("--baseline", default=argparse.SUPPRESS, metavar="DIR",
         help="the reference store (default: benchmarks/baseline)")

    flag = command("lint", _lazy("repro.analysis.runner", "run_lint"),
                   "static analysis: Python trees to the determinism "
                   "linter, .hml files to the scenario analyzer").add_argument
    flag("paths", nargs="*", metavar="PATH")
    flag("--self", dest="self_lint", **ON, help="the installed package")
    flag("--scenarios", **ON, help="the shipped scenario corpus")
    flag("--closed-set", dest="closed", **ON)
    flag("--capacity-mbps", dest="capacity_bps", type=mbps, metavar="F")
    flag("--format", dest="fmt", choices=("text", "github"), default="text")
    flag("--list-rules", dest="rules_only", **ON)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if args in ([], ["help"]):
        args = ["--help"]
    try:
        options = vars(build_parser().parse_args(args))
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return 2
    except SystemExit as exc:  # --help printed
        return int(exc.code or 0)
    handler, command = options.pop("handler"), options.pop("command")
    report = Reporter(json_mode=options.pop("json", False))
    try:
        return handler(report, **options)
    except UsageError as exc:
        print(f"repro {command}: {exc}", file=sys.stderr)
        return 2
    finally:
        report.close()


if __name__ == "__main__":
    raise SystemExit(main())
