"""Whole-program lint v2: taint, trace-schema, pragma hygiene.
Fixtures under tests/fixtures/lint are known-bad inputs with
exact-diagnostic assertions."""

import ast
import os

from repro.analysis import Severity
from repro.analysis.callgraph import load_program
from repro.analysis.diagnostics import github_annotations
from repro.analysis.pyrules import PyModule
from repro.analysis.runner import (
    known_rule_ids,
    lint_python_program,
    self_lint_root,
)
from repro.analysis.tracerules import TRACE_RULES, extract_emit_sites
from repro.obs.schema import TRACE_CATALOGUE, kinds_matching, lookup

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures", "lint")


def fixture(name):
    return os.path.join(FIXTURES, name)


def lint_fixture(name):
    return lint_python_program([fixture(name)])


# ----------------------------------------------------------------- taint
def test_taint_chain_reported_end_to_end():
    diags = lint_fixture("bad_taint_chain.py")
    assert [d.rule_id for d in diags] == ["det-taint"]
    d = diags[0]
    assert d.severity is Severity.ERROR
    assert d.span.line == 20  # the sink call, not the source
    # full source -> helper -> sink chain in the message
    assert "time.perf_counter()" in d.message
    assert "measure()" in d.message
    assert "population_digest()" in d.message
    assert d.message.index("perf_counter") < d.message.index("measure()")
    assert d.message.index("measure()") < d.message.index(
        "population_digest() at")


def test_taint_ignores_wall_clock_pragma():
    # the fixture's source line carries # lint: allow(det-wall-clock);
    # det-wall-clock stays quiet but det-taint still fires
    diags = lint_fixture("bad_taint_chain.py")
    assert all(d.rule_id != "det-wall-clock" for d in diags)
    assert any(d.rule_id == "det-taint" for d in diags)


def test_taint_pragma_on_sink_suppresses(tmp_path):
    src = (
        "import time\n"
        "def measure():\n"
        "    return time.perf_counter()  # lint: allow(det-wall-clock)\n"
        "def build(population_digest):\n"
        "    return population_digest(measure())"
        "  # lint: allow(det-taint)\n"
    )
    path = tmp_path / "sink_pragma.py"
    path.write_text(src)
    assert lint_python_program([str(path)]) == []


def test_untainted_sink_argument_stays_clean(tmp_path):
    # a wall-clock measurement NEXT TO a digest call is legal — only a
    # tainted argument trips the rule (the shard worker's shape)
    src = (
        "import time\n"
        "def run(population_digest, doc):\n"
        "    t0 = time.perf_counter()  # lint: allow(det-wall-clock)\n"
        "    digest = population_digest(doc)\n"
        "    wall = time.perf_counter() - t0"
        "  # lint: allow(det-wall-clock)\n"
        "    return digest, wall\n"
    )
    path = tmp_path / "clean_sink.py"
    path.write_text(src)
    assert lint_python_program([str(path)]) == []


def test_taint_passes_through_a_typed_attribute_call(tmp_path):
    # ``read`` is defined in two classes, so a bare-name resolver cannot
    # pick one; the attribute's annotation in __init__ says which
    src = (
        "import time\n"
        "class Clock:\n"
        "    def read(self):\n"
        "        return time.perf_counter()  # lint: allow(det-wall-clock)\n"
        "class Fixed:\n"
        "    def read(self):\n"
        "        return 1.0\n"
        "class Stamper:\n"
        "    def __init__(self, clock: Clock):\n"
        "        self.clock = clock\n"
        "    def build(self, population_digest):\n"
        "        return population_digest(self.clock.read())\n"
    )
    path = tmp_path / "typed_chain.py"
    path.write_text(src)
    diags = lint_python_program([str(path)])
    assert [d.rule_id for d in diags] == ["det-taint"]
    assert "Clock.read()" in diags[0].message


# ------------------------------------------------------- receiver typing
RECEIVERS = (
    "class Base:\n"
    "    def run(self):\n"
    "        return 0\n"
    "class A(Base):\n"
    "    def go(self):\n"
    "        return 1\n"
    "class B:\n"
    "    def go(self):\n"
    "        return 2\n"
    "    def only_b(self):\n"
    "        return 3\n"
    "class Holder:\n"
    "    b: B\n"
    "    def __init__(self, a: A):\n"
    "        self.a = a\n"
    "        self.made = A()\n"
    "    def use(self, a: A, thing):\n"
    "        x = B()\n"
    "        return (a.go(), x.go(), self.a.go(), self.made.go(),\n"
    "                self.b.go(), a.run(), thing.go(), thing.only_b(),\n"
    "                self.use(a, thing))\n"
)


def _resolved(tmp_path):
    path = tmp_path / "receivers.py"
    path.write_text(RECEIVERS)
    program, _ = load_program([str(path)])
    mod = program.modules[0]
    call = next(node for node in ast.walk(mod.tree)
                if isinstance(node, ast.Tuple))
    return [getattr(program.resolve_call(c, mod), "label", lambda: None)()
            for c in call.elts]


def test_typed_receivers_resolve_to_their_class(tmp_path):
    labels = [label and label.split("()")[0] for label in _resolved(tmp_path)]
    assert labels[:6] == [
        "A.go",      # an annotated parameter
        "B.go",      # a name bound from B(...)
        "A.go",      # self.a, assigned in __init__ from an A
        "A.go",      # self.made, assigned in __init__ from A(...)
        "B.go",      # self.b, annotated in the class body
        "Base.run",  # inherited, through A's base
    ]
    assert labels[8] == "Holder.use"  # self, through its own class


def test_an_untyped_receiver_keeps_the_program_unique_fallback(tmp_path):
    labels = _resolved(tmp_path)
    assert labels[6] is None  # ``go`` is defined twice: no edge
    assert labels[7].startswith("B.only_b()")  # one def of the name


def test_a_receiver_typed_outside_the_program_resolves_to_nothing(tmp_path):
    path = tmp_path / "external.py"
    path.write_text("def join(parts):\n    return parts\n"
                    "def go(words: list):\n    return ', '.join(words)\n")
    program, _ = load_program([str(path)])
    mod = program.modules[0]
    call = next(node for node in ast.walk(mod.tree)
                if isinstance(node, ast.Call))
    assert program.resolve_call(call, mod) is None


def test_items_of_annotated_containers_are_typed(tmp_path):
    # an item of an annotated dict, by subscript, .get, .values(), an
    # .items() loop and a comprehension over them
    path = tmp_path / "items.py"
    path.write_text(
        "class Node:\n"
        "    def hit(self):\n"
        "        return 1\n"
        "class Other:\n"
        "    def hit(self):\n"
        "        return 2\n"
        "class Net:\n"
        "    def __init__(self):\n"
        "        self.nodes: dict[str, Node] = {}\n"
        "    def go(self, k):\n"
        "        for _name, node in self.nodes.items():\n"
        "            node.hit()\n"
        "        best = [n for n in self.nodes.values()][0]\n"
        "        return (self.nodes[k].hit(), self.nodes.get(k).hit(),\n"
        "                best.hit())\n")
    program, _ = load_program([str(path)])
    mod = program.modules[0]
    calls = [node for node in ast.walk(mod.tree)
             if isinstance(node, ast.Call)
             and getattr(node.func, "attr", "") == "hit"]
    assert len(calls) == 4
    assert {program.resolve_call(c, mod).label().split("()")[0]
            for c in calls} == {"Node.hit"}


# ---------------------------------------------------------- trace schema
def test_unknown_trace_kind_flagged():
    diags = lint_fixture("bad_trace_kind.py")
    assert [d.rule_id for d in diags] == ["trace-unknown-kind"]
    assert diags[0].span.line == 6
    assert "stage.fire" in diags[0].message


def test_unguarded_detail_emit_flagged():
    diags = lint_fixture("bad_trace_unguarded.py")
    assert [d.rule_id for d in diags] == ["trace-detail-guard"]
    assert diags[0].span.line == 6
    assert "kernel.event" in diags[0].message
    assert "_tracing_detail" in diags[0].message


def test_field_mismatch_flagged():
    diags = lint_fixture("bad_trace_fields.py")
    assert [d.rule_id for d in diags] == ["trace-field-mismatch"]
    d = diags[0]
    assert d.span.line == 6
    assert "consecutive" in d.message  # missing required
    assert "count" in d.message  # undeclared extra


def test_span_phase_mismatch_flagged(tmp_path):
    # "session" is declared as a span (B/E), not an instant emit
    src = (
        "def go(sim):\n"
        "    if sim._tracing:\n"
        "        sim._tracer.emit(sim.now, 'session', 's-1',\n"
        "                         document='d', user='u')\n"
    )
    path = tmp_path / "phase_mismatch.py"
    path.write_text(src)
    diags = lint_python_program([str(path)])
    assert [d.rule_id for d in diags] == ["trace-unknown-kind"]
    assert "span_begin/span_end mismatch" in diags[0].message


def test_kwargs_forwarding_waives_missing_fields(tmp_path):
    src = (
        "def fire(sim, **extra):\n"
        "    if sim._tracing:\n"
        "        sim._tracer.emit(sim.now, 'hb.miss', 'ep', **extra)\n"
    )
    path = tmp_path / "kwargs_emit.py"
    path.write_text(src)
    assert lint_python_program([str(path)]) == []


def test_every_repro_emit_site_resolves():
    program, problems = load_program([self_lint_root()], full=True)
    assert problems == []
    sites, dynamic = extract_emit_sites(program)
    assert dynamic == []  # no emit site escapes the checker
    produced = set()
    for site in sites:
        for kind, exact in site.kinds:
            if exact:
                assert lookup(kind, site.phase) is not None, (
                    site.mod.path, kind)
                produced.add((kind, site.phase))
            else:
                produced.update((s.kind, s.phase)
                                for s in kinds_matching(kind, site.phase))
    # ...and every catalogue kind has a site that produces it
    assert sorted(set(TRACE_CATALOGUE) - produced) == []


def test_unused_kind_only_in_full_mode(tmp_path):
    src = (
        "def go(sim):\n"
        "    if sim._tracing:\n"
        "        sim._tracer.emit(sim.now, 'hb.ok', 'ep')\n"
    )
    path = tmp_path / "one_emit.py"
    path.write_text(src)
    partial, _ = load_program([str(path)], full=False)
    assert not any(d.rule_id == "trace-unused-kind"
                   for d in TRACE_RULES.run(partial))
    full, _ = load_program([str(path)], full=True)
    unused = [d for d in TRACE_RULES.run(full)
              if d.rule_id == "trace-unused-kind"]
    # everything but hb.ok is unreferenced in this one-file program
    assert len(unused) == len(TRACE_CATALOGUE) - 1
    assert all(d.severity is Severity.WARNING for d in unused)


def test_wrapper_projection_checks_caller_fields(tmp_path):
    # a supervisor-style _emit wrapper: the caller's kwargs are checked
    src = (
        "class Sup:\n"
        "    def _emit(self, kind, name='', **args):\n"
        "        if self.tracer is not None:\n"
        "            self.tracer.emit(0.0, kind, name, **args)\n"
        "    def go(self):\n"
        "        self._emit('hb.miss', 'ep', wrong_field=1)\n"
    )
    path = tmp_path / "wrapper.py"
    path.write_text(src)
    diags = lint_python_program([str(path)])
    mismatches = [d for d in diags if d.rule_id == "trace-field-mismatch"]
    assert len(mismatches) == 1
    assert mismatches[0].span.line == 6  # anchored at the caller
    assert "wrong_field" in mismatches[0].message


# ------------------------------------------------------- pragma handling
def test_multi_rule_pragma_on_one_line(tmp_path):
    src = (
        "import time\n"
        "def jitter(np):\n"
        "    return time.time() + np.random.rand()"
        "  # lint: allow(det-wall-clock, det-global-random)\n"
    )
    path = tmp_path / "multi.py"
    path.write_text(src)
    # both line-3 findings (wall clock + global numpy RNG) are
    # suppressed by the one comma-separated pragma, and neither
    # pragma mention is stale
    assert lint_python_program([str(path)]) == []


def test_pragma_on_async_def_body(tmp_path):
    src = (
        "import time\n"
        "async def poll():\n"
        "    return time.time()  # lint: allow(det-wall-clock)\n"
    )
    path = tmp_path / "async_pragma.py"
    path.write_text(src)
    assert lint_python_program([str(path)]) == []


def test_pragma_on_decorator_line_covers_the_def():
    src = (
        "import functools\n"
        "@functools.cache  # lint: allow(det-wall-clock)\n"
        "def cached():\n"
        "    return 1\n"
    )
    mod = PyModule.parse("deco.py", src)
    func = mod.tree.body[1]
    assert mod.suppressed("det-wall-clock", func)
    assert (2, "det-wall-clock") in mod.used_pragmas


def test_stale_pragma_reported(tmp_path):
    src = (
        "def clean():\n"
        "    return 1  # lint: allow(det-wall-clock)\n"
    )
    path = tmp_path / "stale.py"
    path.write_text(src)
    diags = lint_python_program([str(path)])
    assert [d.rule_id for d in diags] == ["lint-stale-pragma"]
    assert diags[0].severity is Severity.WARNING
    assert diags[0].span.line == 2
    assert "det-wall-clock" in diags[0].message


def test_stale_file_pragma_and_unknown_rule(tmp_path):
    src = (
        "# lint: allow-file(det-wall-clock)\n"
        "# lint: allow-file(no-such-rule)\n"
        "def clean():\n"
        "    return 1\n"
    )
    path = tmp_path / "stale_file.py"
    path.write_text(src)
    diags = lint_python_program([str(path)])
    assert sorted(d.rule_id for d in diags) == ["lint-stale-pragma"] * 2
    msgs = " ".join(d.message for d in diags)
    assert "unknown rule" in msgs
    assert "no longer fires" in msgs


def test_used_pragma_not_stale(tmp_path):
    src = (
        "import time\n"
        "def bench():\n"
        "    return time.perf_counter()  # lint: allow(det-wall-clock)\n"
    )
    path = tmp_path / "used.py"
    path.write_text(src)
    assert lint_python_program([str(path)]) == []


def test_known_rule_ids_cover_all_families():
    known = known_rule_ids()
    for rule in ("det-wall-clock", "det-taint", "trace-unknown-kind",
                 "trace-detail-guard", "lint-stale-pragma", "det-syntax"):
        assert rule in known


# -------------------------------------------------------- github format
def test_github_annotations_format():
    diags = lint_fixture("bad_wall_clock.py")
    lines = github_annotations(diags)
    assert len(lines) == 2
    line = lines[0]
    assert line.startswith("::error file=")
    assert "line=8" in line
    assert "[det-wall-clock]" in line
    assert "%0A" not in diags[0].message  # escaping only in the line


def test_github_annotations_escape_newlines():
    from repro.analysis.diagnostics import Diagnostic
    d = Diagnostic("x-rule", Severity.WARNING, "two\nlines 100%")
    (line,) = github_annotations([d])
    assert line.startswith("::warning::")
    assert "%0A" in line and "%25" in line and "\n" not in line


# -------------------------------------------------------------- self lint
def test_whole_program_self_lint_is_clean():
    diags = lint_python_program([self_lint_root()], full=True)
    assert diags == [], "\n".join(map(str, diags))
