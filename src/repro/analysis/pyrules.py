"""AST-based determinism / DES-discipline linter for ``src/repro``.

The simulation's guarantees — byte-identical fault digests, seeded
per-component RNG streams, single-boolean-guarded tracing — were
enforced by convention until this module. Each rule encodes one
discipline as a static check:

``det-wall-clock``
    No wall-clock reads (``time.time``, ``time.perf_counter``,
    ``datetime.now`` ...) in simulation code: simulated time comes
    from the DES kernel clock. The bench harness measures real wall
    time on purpose and carries a line pragma.

``det-global-random``
    No ``import random`` / ``random.*`` and no legacy global numpy
    RNG (``np.random.seed`` / ``np.random.randint`` / unseeded
    ``np.random.default_rng()``): every draw must come from a named
    :class:`~repro.des.rng.RngRegistry` stream.

``det-unordered-iter``
    No iteration over set literals / ``set()`` / ``frozenset()``
    expressions (``for``, comprehensions, ``list()``/``tuple()``
    materialization): string-hash randomization makes the order vary
    per process, which perturbs event scheduling and digest hashing.
    Wrap in ``sorted(...)``.

``det-tracer-guard``
    Every ``*.emit`` / ``*.span_begin`` / ``*.span_end`` call on a
    tracer must sit under the enabled-guard boolean (``if
    self.sim._tracing:`` / ``if tracer.enabled:``) so disabled tracing
    costs one attribute check and no argument construction.

``det-port-pairing``
    A module that allocates ports from a :class:`PortAllocator` must
    also release them somewhere — unpaired allocate/release leaks
    ports on long-lived hosts (warning: some allocations are
    intentionally session-lifetime and documented with a pragma).

Suppression pragmas (comment anywhere on the flagged statement's
lines)::

    ... # lint: allow(det-wall-clock)          one statement
    # lint: allow-file(det-wall-clock)         whole file
"""

from __future__ import annotations

from collections.abc import Iterator

import ast
import io
import tokenize
from dataclasses import dataclass, field

from repro.analysis.diagnostics import (
    Diagnostic,
    RuleRegistry,
    Severity,
    SourceSpan,
)

__all__ = ["PY_RULES", "PyModule", "stale_pragma_diags"]

PY_RULES = RuleRegistry("determinism")

_ALLOW_PREFIX = "lint: allow("
_ALLOW_FILE_PREFIX = "lint: allow-file("


def _parse_pragmas(source: str) -> tuple[dict[int, set[str]], set[str]]:
    """Extract suppression pragmas: (line -> rule ids, file-wide ids)."""
    per_line: dict[int, set[str]] = {}
    whole_file: set[str] = set()
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            text = tok.string.lstrip("#").strip()
            for prefix, sink in ((_ALLOW_FILE_PREFIX, None),
                                 (_ALLOW_PREFIX, tok.start[0])):
                if text.startswith(prefix) and text.endswith(")"):
                    ids = {
                        r.strip()
                        for r in text[len(prefix):-1].split(",")
                        if r.strip()
                    }
                    if sink is None:
                        whole_file |= ids
                    else:
                        per_line.setdefault(sink, set()).update(ids)
                    break
    except tokenize.TokenError:
        pass
    return per_line, whole_file


@dataclass(slots=True)
class PyModule:
    """One parsed Python file plus the lookup maps rules need."""

    path: str
    source: str
    tree: ast.AST
    parents: dict[ast.AST, ast.AST] = field(default_factory=dict)
    pragma_lines: dict[int, set[str]] = field(default_factory=dict)
    pragma_file: set[str] = field(default_factory=set)
    #: pragmas that actually suppressed (or would have suppressed) a
    #: finding this run: ``(line, rule_id)`` per-line entries plus
    #: ``(0, rule_id)`` for file-wide pragmas. The stale-pragma pass
    #: reports every parsed pragma that never lands here.
    used_pragmas: set[tuple[int, str]] = field(default_factory=set)

    @classmethod
    def parse(cls, path: str, source: str) -> "PyModule":
        tree = ast.parse(source, filename=path)
        parents: dict[ast.AST, ast.AST] = {}
        for node in ast.walk(tree):
            for child in ast.iter_child_nodes(node):
                parents[child] = node
        per_line, whole_file = _parse_pragmas(source)
        return cls(path=path, source=source, tree=tree, parents=parents,
                   pragma_lines=per_line, pragma_file=whole_file)

    # -- helpers rules share --------------------------------------------
    def suppressed(self, rule_id: str, node: ast.AST) -> bool:
        if rule_id in self.pragma_file:
            self.used_pragmas.add((0, rule_id))
            return True
        start = getattr(node, "lineno", 0)
        end = getattr(node, "end_lineno", start) or start
        # A pragma on a decorator line covers the decorated def/class.
        for deco in getattr(node, "decorator_list", ()):
            deco_line = getattr(deco, "lineno", start)
            start = min(start, deco_line)
        hit = False
        for line in range(start, end + 1):
            if rule_id in self.pragma_lines.get(line, ()):
                self.used_pragmas.add((line, rule_id))
                hit = True
        return hit

    def span(self, node: ast.AST) -> SourceSpan:
        return SourceSpan(file=self.path, line=getattr(node, "lineno", 0),
                          column=getattr(node, "col_offset", 0) + 1)

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        cur = self.parents.get(node)
        while cur is not None:
            yield cur
            cur = self.parents.get(cur)

    def diag(self, rule_id: str, severity: Severity, message: str,
             node: ast.AST) -> Diagnostic | None:
        if self.suppressed(rule_id, node):
            return None
        return Diagnostic(rule_id, severity, message, span=self.span(node))


def _dotted(node: ast.AST) -> str:
    """``a.b.c`` for nested Name/Attribute chains, "" otherwise."""
    parts: list[str] = []
    cur = node
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if isinstance(cur, ast.Name):
        parts.append(cur.id)
        return ".".join(reversed(parts))
    return ""


# ------------------------------------------------------------ wall clock
_WALL_CLOCK_CALLS = {
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "datetime.now", "datetime.utcnow", "datetime.today",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
}
_WALL_CLOCK_FROM = {
    ("time", "time"), ("time", "monotonic"), ("time", "perf_counter"),
    ("time", "time_ns"), ("time", "process_time"),
}


@PY_RULES.rule(
    "det-wall-clock",
    "simulation code must read the DES clock, never the wall clock",
)
def _check_wall_clock(mod: PyModule) -> Iterator[Diagnostic]:
    from_imports: set[str] = set()
    for node in ast.walk(mod.tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                if (node.module, alias.name) in _WALL_CLOCK_FROM:
                    from_imports.add(alias.asname or alias.name)
    for node in ast.walk(mod.tree):
        if not isinstance(node, ast.Call):
            continue
        name = _dotted(node.func)
        bare = isinstance(node.func, ast.Name) and node.func.id
        if name in _WALL_CLOCK_CALLS or (bare and bare in from_imports):
            d = mod.diag(
                "det-wall-clock", Severity.ERROR,
                f"wall-clock read {name or bare}(): simulation time "
                "must come from the DES kernel clock (sim.now)",
                node,
            )
            if d:
                yield d


# --------------------------------------------------------- global random
#: legacy numpy global-RNG entry points (the np.random.* module API)
_NP_GLOBAL_FNS = {
    "seed", "random", "rand", "randn", "randint", "random_sample",
    "choice", "shuffle", "permutation", "uniform", "normal",
    "exponential", "poisson", "binomial", "random_integers",
}


@PY_RULES.rule(
    "det-global-random",
    "all randomness must come from named RngRegistry streams",
)
def _check_global_random(mod: PyModule) -> Iterator[Diagnostic]:
    for node in ast.walk(mod.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "random":
                    d = mod.diag(
                        "det-global-random", Severity.ERROR,
                        "import of the global `random` module: draw "
                        "from a named des.rng stream instead", node)
                    if d:
                        yield d
        elif isinstance(node, ast.ImportFrom):
            if node.module == "random":
                d = mod.diag(
                    "det-global-random", Severity.ERROR,
                    "import from the global `random` module: draw "
                    "from a named des.rng stream instead", node)
                if d:
                    yield d
        elif isinstance(node, ast.Call):
            name = _dotted(node.func)
            parts = name.split(".")
            if (len(parts) == 3 and parts[1] == "random"
                    and parts[0] in ("np", "numpy")
                    and parts[2] in _NP_GLOBAL_FNS):
                d = mod.diag(
                    "det-global-random", Severity.ERROR,
                    f"global numpy RNG call {name}(): draw from a "
                    "named des.rng stream instead", node)
                if d:
                    yield d
            elif (name.endswith("random.default_rng")
                    and not node.args and not node.keywords):
                d = mod.diag(
                    "det-global-random", Severity.ERROR,
                    "unseeded default_rng(): seed it from the "
                    "RngRegistry's SeedSequence material", node)
                if d:
                    yield d


# --------------------------------------------------------- unordered iter
def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, ast.Set):
        return True
    if isinstance(node, ast.SetComp):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


@PY_RULES.rule(
    "det-unordered-iter",
    "iteration over unordered sets perturbs event order and digests",
)
def _check_unordered_iter(mod: PyModule) -> Iterator[Diagnostic]:
    def flag(node: ast.AST, how: str) -> Diagnostic | None:
        return mod.diag(
            "det-unordered-iter", Severity.ERROR,
            f"{how} over an unordered set expression: hash "
            "randomization makes the order vary per process; wrap it "
            "in sorted(...)", node)

    for node in ast.walk(mod.tree):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            if _is_set_expr(node.iter):
                d = flag(node.iter, "for-loop")
                if d:
                    yield d
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            for comp in node.generators:
                if _is_set_expr(comp.iter):
                    d = flag(comp.iter, "comprehension")
                    if d:
                        yield d
        elif (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("list", "tuple")
                and node.args and _is_set_expr(node.args[0])):
            d = flag(node, f"{node.func.id}() materialization")
            if d:
                yield d


# ----------------------------------------------------------- tracer guard
_TRACE_METHODS = ("emit", "span_begin", "span_end")
_GUARD_MARKERS = ("_tracing", "tracing", "enabled")


def _is_tracer_receiver(func: ast.Attribute) -> bool:
    """Receiver of ``.emit``/``.span_*`` looks like a tracer handle."""
    recv = func.value
    if isinstance(recv, ast.Attribute):
        return recv.attr in ("_tracer", "tracer")
    if isinstance(recv, ast.Name):
        return recv.id in ("_tracer", "tracer")
    return False


def _guarded(mod: PyModule, node: ast.Call) -> bool:
    for ancestor in mod.ancestors(node):
        test = None
        if isinstance(ancestor, (ast.If, ast.IfExp, ast.While)):
            test = ancestor.test
        elif isinstance(ancestor, ast.Assert):
            test = ancestor.test
        if test is not None:
            rendered = ast.dump(test)
            if any(marker in rendered for marker in _GUARD_MARKERS):
                return True
        if isinstance(ancestor, ast.BoolOp) and isinstance(
                ancestor.op, ast.And):
            rendered = ast.dump(ancestor.values[0])
            if any(marker in rendered for marker in _GUARD_MARKERS):
                return True
        if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # a dedicated `_trace_*` helper is itself the guard site:
            # its body must contain the If; reaching the def without
            # one means the call is unguarded.
            break
    return False


@PY_RULES.rule(
    "det-tracer-guard",
    "tracer emits must sit under the enabled-guard boolean",
)
def _check_tracer_guard(mod: PyModule) -> Iterator[Diagnostic]:
    for node in ast.walk(mod.tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _TRACE_METHODS
                and _is_tracer_receiver(node.func)):
            continue
        if _guarded(mod, node):
            continue
        d = mod.diag(
            "det-tracer-guard", Severity.ERROR,
            f"unguarded tracer call .{node.func.attr}(): wrap it in "
            "`if <owner>._tracing:` (or `.enabled`) so disabled "
            "tracing costs one boolean check", node)
        if d:
            yield d


# ------------------------------------------------------------ port pairing
_ALLOC_METHODS = ("allocate", "allocate_block")


def _is_port_receiver(func: ast.Attribute) -> bool:
    """Receiver mentions a port allocator (``*.ports.*``,
    ``*allocator*``) — the *nearest* receiver segment decides, so
    ``node.ports.allocate()`` and ``network.node(x).ports.release()``
    both match while ``self.admission.release()`` does not."""
    recv = func.value
    if isinstance(recv, ast.Attribute):
        nearest = recv.attr.lower()
    elif isinstance(recv, ast.Name):
        nearest = recv.id.lower()
    else:
        nearest = ""
    return "port" in nearest or "alloc" in nearest


@PY_RULES.rule(
    "det-port-pairing",
    "modules that allocate ports must also release them",
    severity=Severity.WARNING,
)
def _check_port_pairing(mod: PyModule) -> Iterator[Diagnostic]:
    allocs: list[ast.Call] = []
    releases = 0
    for node in ast.walk(mod.tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)):
            continue
        if (node.func.attr in _ALLOC_METHODS
                and _is_port_receiver(node.func)):
            allocs.append(node)
        elif (node.func.attr == "release"
                and _is_port_receiver(node.func)):
            releases += 1
    if allocs and releases == 0:
        for node in allocs:
            d = mod.diag(
                "det-port-pairing", Severity.WARNING,
                "PortAllocator allocation with no matching .release() "
                "anywhere in this module: long-lived hosts leak ports "
                "across session teardown", node)
            if d:
                yield d


# ----------------------------------------------------------------- entry
def stale_pragma_diags(mod: PyModule,
                       known_rules: set[str]) -> list[Diagnostic]:
    """Pragmas that suppressed nothing in the run just finished.

    Must be called *after* every rule family has run over ``mod`` —
    :attr:`PyModule.used_pragmas` accumulates across families. A
    pragma naming a rule id nobody registers is always stale (typo'd
    or removed rule); a pragma naming a real rule that no longer
    fires marks debt that has been paid — delete it so the
    suppression cannot silently swallow a future regression.
    """
    out: list[Diagnostic] = []
    mentions: list[tuple[int, str]] = [
        (line, rule)
        for line, rules in sorted(mod.pragma_lines.items())
        for rule in sorted(rules)
    ]
    mentions.extend((0, rule) for rule in sorted(mod.pragma_file))
    for line, rule in mentions:
        if (line, rule) in mod.used_pragmas:
            continue
        scope = "file-wide pragma" if line == 0 else "pragma"
        why = ("names unknown rule" if rule not in known_rules
               else "suppresses nothing (the rule no longer fires here)")
        out.append(Diagnostic(
            "lint-stale-pragma", Severity.WARNING,
            f"{scope} allow({rule}) {why}; delete it so the "
            "suppression cannot mask a future regression.",
            span=SourceSpan(file=mod.path, line=line),
        ))
    return out
