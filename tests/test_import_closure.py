"""Import closure: an unobserved run loads only what it uses.

Counts, not timings. Each check runs in a fresh interpreter in which
``networkx`` and ``scipy`` cannot be imported (``sys.modules[name] =
None`` makes any import of them raise), so a module-level import of
either that creeps back onto the engine's or the CLI's path fails here
before it shows up in ``setup_s`` or ``peak_rss_mb``.
"""

import json
import os
import subprocess
import sys

from repro.core.config import EngineConfig
from repro.core.engine import ServiceEngine
from repro.core.experiments import av_markup
from repro.faults import population_digest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")

BLOCKED = ("import sys\n"
           "sys.modules['networkx'] = None\n"
           "sys.modules['scipy'] = None\n")

#: layers an untraced engine has no business loading
WATCHERS = ("repro.obs", "repro.analysis", "repro.shard", "repro.faults",
            "repro.hermes")

#: what only a recording, an export or a report needs
LOOKERS = tuple(f"repro.obs.{name}" for name in (
    "tracer", "lifecycle", "export", "flightrec", "summary", "slo",
    "dashboard", "bench", "schema"))


def run_blocked(code):
    """Run ``code`` where importing networkx or scipy raises; its stdout."""
    proc = subprocess.run(
        [sys.executable, "-c", BLOCKED + code], capture_output=True,
        text=True, cwd=REPO, timeout=300,
        env=dict(os.environ, PYTHONPATH=SRC))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout


def two_viewer_digest():
    eng = ServiceEngine(EngineConfig(seed=5))
    eng.add_server("srv1", documents={"doc": (av_markup(1.0, False), "t")})
    pop = eng.orchestrator.run_population(2, "srv1", "doc", stagger_s=0.2)
    assert len(pop.completed()) == 2
    return population_digest(pop)


def test_a_population_runs_and_digests_without_networkx_or_scipy():
    out = run_blocked(
        "import repro.core.engine\n"
        "from tests.test_import_closure import two_viewer_digest\n"
        "print(two_viewer_digest())\n")
    assert out.split()[-1] == two_viewer_digest()


def test_cli_cold_path_needs_neither():
    out = run_blocked(
        "from repro.__main__ import main\n"
        "codes = [main(['--help']), main(['list']),\n"
        "         main(['report', '--help'])]\n"
        "print('exit codes', codes)\n")
    assert out.splitlines()[-1] == "exit codes [0, 0, 0]"


def test_engine_import_loads_no_watcher_layer():
    out = run_blocked(
        "import json\n"
        "import repro.core.engine\n"
        "print(json.dumps(sorted(m for m in sys.modules\n"
        "                        if m.split('.')[0] == 'repro')))\n")
    loaded = json.loads(out)
    assert "repro.core.engine" in loaded and "repro.net.topology" in loaded
    assert [m for m in loaded if m.startswith(WATCHERS)] == []
    # 69 when last measured; a few more is growth, many more is a
    # layer pulled in by accident
    assert len(loaded) <= 75, len(loaded)


def test_an_untraced_sampled_run_loads_no_recorder_or_report_code():
    """Scoring QoE and sampling telemetry import what they use, not the
    package: ``repro.obs`` re-exports lazily."""
    out = run_blocked(
        "import json\n"
        "from repro.core.config import EngineConfig\n"
        "from repro.core.engine import ServiceEngine\n"
        "from repro.core.experiments import av_markup\n"
        "eng = ServiceEngine(EngineConfig(seed=5))\n"
        "eng.add_server('srv1',\n"
        "               documents={'doc': (av_markup(1.0, False), 't')})\n"
        "eng.attach_timeseries()\n"
        "pop = eng.orchestrator.run_population(2, 'srv1', 'doc')\n"
        "assert pop.service and pop.timeseries\n"
        "assert all(o.result.qoe['score'] > 0 for o in pop.outcomes)\n"
        "print(json.dumps(sorted(m for m in sys.modules\n"
        "                        if m.startswith('repro.obs'))))\n")
    loaded = json.loads(out)
    assert {"repro.obs.qoe", "repro.obs.timeseries"} <= set(loaded)
    assert [m for m in loaded if m in LOOKERS] == []


def test_no_source_file_names_networkx():
    named = []
    for folder, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".pyc"):
                continue
            path = os.path.join(folder, name)
            with open(path, encoding="utf-8", errors="replace") as fh:
                if "networkx" in fh.read():
                    named.append(os.path.relpath(path, REPO))
    assert named == []
