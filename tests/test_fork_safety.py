"""Fork safety of the sharded runner, checked over the repo's own trees.

``repro.shard`` forks one worker per shard and talks to each over one
simplex pipe whose sole writer is the worker (see
:mod:`repro.shard.supervisor`). Four checks keep it that way, and each
must also flag its known-bad fixture under ``tests/fixtures/lint``:

1. no ``multiprocessing`` queue in ``src/repro``: a shared queue wedges
   on a truncated frame or a dead feeder's write lock;
2. no ``global`` statement in ``src/repro``: module state a worker
   writes dies with the worker, and the parent never sees the write;
3. artifacts are written only through :mod:`repro.ioutil` (mkstemp +
   fsync + ``os.replace``) across ``src/``, ``benchmarks/`` and
   ``examples/``: a process killed mid-write must not leave a torn file
   that a later merge reads as truth;
4. the supervisor's one ``Process(...)`` receives plain data and the
   worker's pipe end only: a lock, tracer or open handle does not
   survive a fork coherently;
5. no ``itertools.count()`` bound where an import runs it (module or
   class scope) in ``src/repro``: a forked worker advances a module's
   counter where the parent never sees it, and a name drawn from one
   (a channel, a mail flow) depends on what ran before in the process.

Each check reads the code through the linter's program index
(:func:`repro.analysis.callgraph.load_program`), one parse per tree.
"""

from __future__ import annotations

import ast
import dataclasses
import functools
import importlib.util
import os
from multiprocessing.connection import Connection
from types import SimpleNamespace

from repro.analysis.callgraph import load_program
from repro.obs.tracer import RecordingTracer
from repro.shard import ShardPlan, ShardSupervisor
from repro.shard import supervisor as supervisor_module
from repro.shard.bench import shard_workload

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(REPO, "src", "repro")
IOUTIL = os.path.join(PACKAGE, "ioutil.py")
ARTIFACT_WRITERS = [os.path.join(REPO, d)
                    for d in ("src", "benchmarks", "examples")]
FIXTURES = os.path.join(REPO, "tests", "fixtures", "lint")


def fixture(name):
    return os.path.join(FIXTURES, name)


@functools.cache
def _program(*roots):
    program, problems = load_program(list(roots))
    assert problems == []
    return program


def _modules(*roots):
    """``(path, tree)`` of each Python file given or under a directory,
    as the linter's program index parsed it."""
    for module in _program(*roots).modules:
        yield module.path, module.tree


def _where(path, node, what):
    return f"{os.path.relpath(path, REPO)}:{node.lineno}: {what}"


def _callee(call):
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")


def _calls(tree):
    return (node for node in ast.walk(tree) if isinstance(node, ast.Call))


# -- 1. no multiprocessing queue ----------------------------------------------

_QUEUES = {"Queue", "SimpleQueue", "JoinableQueue"}


def _imports_multiprocessing(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        if any(name.split(".")[0] == "multiprocessing" for name in names):
            return True
    return False


def mp_queues(*roots):
    """Queue constructions in modules that import ``multiprocessing``."""
    return [_where(path, call, f"{_callee(call)}()")
            for path, tree in _modules(*roots)
            if _imports_multiprocessing(tree)
            for call in _calls(tree) if _callee(call) in _QUEUES]


def test_no_multiprocessing_queue_in_the_package():
    assert mp_queues(PACKAGE) == []


def test_mp_queue_fixture_is_flagged():
    assert mp_queues(fixture("bad_mp_queue.py")) == [
        "tests/fixtures/lint/bad_mp_queue.py:7: Queue()"]


# -- 2. no global statement ---------------------------------------------------

def global_statements(*roots):
    return [_where(path, node, f"global {', '.join(node.names)}")
            for path, tree in _modules(*roots)
            for node in ast.walk(tree) if isinstance(node, ast.Global)]


def test_no_global_statement_in_the_package():
    assert global_statements(PACKAGE) == []


def test_fork_state_fixture_is_flagged():
    assert global_statements(fixture("bad_fork_state.py")) == [
        "tests/fixtures/lint/bad_fork_state.py:9: global completed"]


# -- 3. artifact writes only through repro.ioutil -----------------------------

def _open_mode(call):
    if len(call.args) >= 2:
        mode = call.args[1]
    else:
        mode = next((kw.value for kw in call.keywords if kw.arg == "mode"),
                    None)
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return mode.value
    return "r"


def raw_writes(*roots):
    """``open(path, "w")``-style and ``Path.write_*`` calls outside the
    atomics' own implementation."""
    found = []
    for path, tree in _modules(*roots):
        if path == IOUTIL:
            continue
        for call in _calls(tree):
            name = _callee(call)
            if name in ("write_text", "write_bytes"):
                found.append(_where(path, call, f"{name}(...)"))
            elif isinstance(call.func, ast.Name) and name == "open":
                mode = _open_mode(call)
                if set(mode) & set("wax+"):
                    found.append(_where(path, call, f'open(..., "{mode}")'))
    return found


def test_artifacts_are_written_only_through_ioutil():
    # src/ and examples/ as well as benchmarks/, where a bench-report
    # fixture once clobbered artifacts with Path.write_text
    assert raw_writes(*ARTIFACT_WRITERS) == []


def test_raw_write_fixture_is_flagged():
    assert raw_writes(fixture("bad_raw_write.py")) == [
        'tests/fixtures/lint/bad_raw_write.py:7: open(..., "w")']


# -- 4. a worker receives plain data ------------------------------------------

def handles(value, where="args"):
    """Where ``value`` holds something other than plain data."""
    # a Connection is the worker's own pipe end: the one handle it may get
    if isinstance(value, (type(None), bool, int, float, str, bytes,
                          Connection)):
        return []
    if isinstance(value, (list, tuple)):
        items = enumerate(value)
    elif isinstance(value, dict):
        items = value.items()
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        items = ((f.name, getattr(value, f.name))
                 for f in dataclasses.fields(value))
    else:
        return [f"{where}: {type(value).__name__}"]
    return [found for key, item in items
            for found in handles(item, f"{where}[{key!r}]")]


class _SpawnRecorder:
    """A multiprocessing context that records the ``args`` of each
    ``Process(...)`` before handing the call to the one it wraps."""

    def __init__(self, ctx):
        self._ctx = ctx
        self.spawned = []

    def __getattr__(self, name):
        return getattr(self._ctx, name)

    def Process(self, *args, **kwargs):
        self.spawned.append(kwargs.get("args", ()))
        return self._ctx.Process(*args, **kwargs)


def test_the_supervisor_hands_its_workers_plain_data(monkeypatch):
    recorder = _SpawnRecorder(supervisor_module.mp.get_context())
    monkeypatch.setattr(supervisor_module, "mp",
                        SimpleNamespace(get_context=lambda: recorder))
    plan = ShardPlan(n_clients=2, n_shards=2, cell_clients=1, seed=7)
    workload = shard_workload(duration_s=0.5, stagger_s=0.25,
                              with_images=False)
    assert ShardSupervisor(plan, workload).run().ok
    assert len(recorder.spawned) == plan.n_shards
    assert isinstance(recorder.spawned[0][0], Connection)
    for args in recorder.spawned:
        assert handles(args) == []


def test_captured_handle_fixture_is_flagged(monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "bad_captured_handle", fixture("bad_captured_handle.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    started = SimpleNamespace(start=lambda: None)
    recorder = _SpawnRecorder(SimpleNamespace(Process=lambda **_: started))
    monkeypatch.setattr(module, "mp", recorder)
    module.launch(RecordingTracer())
    (args,) = recorder.spawned
    assert handles(args) == ["args[0]: RecordingTracer"]


# -- 5. no module-scope counter -----------------------------------------------

def _import_time(node):
    """The nodes under ``node`` that run when its module is imported:
    everything but the bodies of functions and lambdas."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda)):
            yield child
            yield from _import_time(child)


def _count_names(tree):
    """The names a module binds to ``itertools`` and to its ``count``."""
    modules, counts = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {alias.asname or alias.name for alias in node.names
                        if alias.name == "itertools"}
        elif isinstance(node, ast.ImportFrom) and node.module == "itertools":
            counts |= {alias.asname or alias.name for alias in node.names
                       if alias.name == "count"}
    return modules, counts


def _is_count(call, modules, counts):
    func = call.func
    if isinstance(func, ast.Attribute):
        return (func.attr == "count" and isinstance(func.value, ast.Name)
                and func.value.id in modules)
    return isinstance(func, ast.Name) and func.id in counts


def module_counters(*roots):
    """``itertools.count()`` calls that run at import time."""
    found = []
    for path, tree in _modules(*roots):
        names = _count_names(tree)
        found += [_where(path, node, "itertools.count()")
                  for node in _import_time(tree)
                  if isinstance(node, ast.Call) and _is_count(node, *names)]
    return found


def test_no_module_scope_counter_in_the_package():
    assert module_counters(PACKAGE) == []


def test_module_counter_fixture_is_flagged():
    assert module_counters(fixture("bad_module_counter.py")) == [
        "tests/fixtures/lint/bad_module_counter.py:6: itertools.count()",
        "tests/fixtures/lint/bad_module_counter.py:10: itertools.count()",
        "tests/fixtures/lint/bad_module_counter.py:11: itertools.count()"]
