"""Whole-program call graph and interprocedural determinism taint.

The per-function AST rules in :mod:`repro.analysis.pyrules` catch a
wall-clock read or a global-RNG draw *at the call site*. They cannot
catch the laundered version: a helper reads the wall clock behind a
legitimate ``# lint: allow(det-wall-clock)`` pragma (measurement is
allowed), and three calls later its return value is folded into a
population digest, a merge, or a shard seed — digest-relevant state
that two replays of the same run must agree on.

This module closes that hole:

* :class:`PyProgram` parses a whole tree of modules at once and
  indexes every function/method definition. Program-scoped rule
  families (trace schema, taint) take a ``PyProgram``
  where the per-function determinism rules take a ``PyModule``.
* :class:`CallGraph` resolves call expressions to definitions with a
  deliberately conservative strategy: same-module names first, then
  explicit ``from``-imports, then a program-unique bare-name match.
  Unresolvable calls simply end the chain — the pass under-reports
  rather than invent edges.
* The taint engine computes, per function, whether its *return value*
  derives from a nondeterminism source (wall clock, global RNG,
  ``os.environ``), propagates those summaries to a fixpoint over the
  call graph, then flags any **sink** call (``population_digest``,
  ``merge_cell_docs``, ``cell_seed`` ...) whose argument is tainted —
  reporting the full source → helper → sink chain in the diagnostic.

``det-taint`` deliberately ignores ``det-wall-clock`` pragmas: a
pragma says "this read is allowed *here*" (measurement), not "this
value may flow into a digest". Suppressing a taint finding takes a
``# lint: allow(det-taint)`` pragma of its own on the sink line.
"""

from __future__ import annotations

import ast
import os
from collections.abc import Iterator
from dataclasses import dataclass

from repro.analysis.diagnostics import (
    Diagnostic,
    RuleRegistry,
    Severity,
    SourceSpan,
)
from repro.analysis.pyrules import (
    PyModule,
    _NP_GLOBAL_FNS,
    _WALL_CLOCK_CALLS,
    _dotted,
)

__all__ = [
    "TAINT_RULES",
    "FunctionInfo",
    "PyProgram",
    "TaintInfo",
    "load_program",
    "DIGEST_SINKS",
]

TAINT_RULES = RuleRegistry("taint")

#: digest-relevant sinks: canonical hashing, population/cell merging,
#: and cell seed derivation. A nondeterministic value reaching
#: any of these breaks the byte-identical replay guarantee.
DIGEST_SINKS = frozenset({
    "population_digest", "canonical_json",
    "merge_cell_docs", "merge_population_docs",
    "cell_seed", "worker_cells", "SeedSequence",
})

#: taint source kinds
SRC_WALL_CLOCK = "wall-clock"
SRC_GLOBAL_RNG = "global-RNG"
SRC_ENVIRON = "os.environ"


@dataclass(frozen=True, slots=True)
class TaintInfo:
    """Provenance of one tainted value: source kind + hop chain."""

    kind: str
    chain: tuple[str, ...]

    def extended(self, hop: str) -> "TaintInfo":
        if hop in self.chain:  # recursion backstop
            return self
        return TaintInfo(self.kind, self.chain + (hop,))


@dataclass(slots=True)
class FunctionInfo:
    """One function/method definition plus its taint summary."""

    name: str
    module: PyModule
    node: ast.FunctionDef | ast.AsyncFunctionDef
    class_name: str | None = None
    #: taint of the return value, once the fixpoint has run
    returns: TaintInfo | None = None

    def label(self) -> str:
        where = os.path.basename(self.module.path)
        name = (f"{self.class_name}.{self.name}"
                if self.class_name else self.name)
        return f"{name}() [{where}:{self.node.lineno}]"


class PyProgram:
    """A set of parsed modules analyzed as one program.

    ``full`` marks a lint of the complete ``repro`` package (the
    ``--self`` run): program-completeness rules such as the unused
    trace-kind check only make sense there — an ad-hoc file lint
    legitimately emits only a handful of catalogue kinds.
    """

    def __init__(self, modules: list[PyModule], full: bool = False) -> None:
        self.modules = modules
        self.full = full
        #: bare function name -> every definition carrying it
        self.functions: dict[str, list[FunctionInfo]] = {}
        #: (module path, bare name) for module-scope lookups
        self._by_module: dict[tuple[str, str], FunctionInfo] = {}
        #: (module path, class, name) for method lookups
        self._methods: dict[tuple[str, str, str], FunctionInfo] = {}
        for mod in modules:
            self._index_module(mod)

    def _index_module(self, mod: PyModule) -> None:
        class_of: dict[ast.AST, str] = {}
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.ClassDef):
                for child in ast.walk(node):
                    if isinstance(child, (ast.FunctionDef,
                                          ast.AsyncFunctionDef)):
                        class_of.setdefault(child, node.name)
        for node in ast.walk(mod.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            cls = class_of.get(node)
            info = FunctionInfo(name=node.name, module=mod, node=node,
                                class_name=cls)
            self.functions.setdefault(node.name, []).append(info)
            if cls is None:
                self._by_module.setdefault((mod.path, node.name), info)
            else:
                self._methods.setdefault((mod.path, cls, node.name), info)

    # -- call resolution ------------------------------------------------
    def resolve_call(self, call: ast.Call, enclosing: FunctionInfo | None,
                     mod: PyModule) -> FunctionInfo | None:
        """Best-effort resolution of a call expression to a definition.

        Unresolvable calls return None (the chain just ends there);
        ambiguous bare names resolve only when the program holds
        exactly one definition of that name.
        """
        func = call.func
        if isinstance(func, ast.Name):
            local = self._by_module.get((mod.path, func.id))
            if local is not None:
                return local
            return self._unique(func.id)
        if isinstance(func, ast.Attribute):
            recv = func.value
            if (isinstance(recv, ast.Name) and recv.id in ("self", "cls")
                    and enclosing is not None
                    and enclosing.class_name is not None):
                method = self._methods.get(
                    (mod.path, enclosing.class_name, func.attr))
                if method is not None:
                    return method
            return self._unique(func.attr)
        return None

    def _unique(self, name: str) -> FunctionInfo | None:
        infos = self.functions.get(name, [])
        return infos[0] if len(infos) == 1 else None

    def callers_of(self, target: FunctionInfo) -> Iterator[
            tuple[PyModule, FunctionInfo | None, ast.Call]]:
        """Every call site in the program that resolves to ``target``."""
        for mod, enclosing, call in self.iter_calls():
            if self.resolve_call(call, enclosing, mod) is target:
                yield mod, enclosing, call

    def iter_calls(self) -> Iterator[
            tuple[PyModule, FunctionInfo | None, ast.Call]]:
        for mod in self.modules:
            enclosing_of = self._enclosing_map(mod)
            for node in ast.walk(mod.tree):
                if isinstance(node, ast.Call):
                    yield mod, enclosing_of.get(node), node

    def enclosing_function(self, mod: PyModule,
                           node: ast.AST) -> FunctionInfo | None:
        """The FunctionInfo whose body contains ``node`` (innermost)."""
        cur = mod.parents.get(node)
        while cur is not None:
            if isinstance(cur, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for info in self.functions.get(cur.name, []):
                    if info.node is cur:
                        return info
                return None
            cur = mod.parents.get(cur)
        return None

    def _enclosing_map(self, mod: PyModule) -> dict[ast.AST, FunctionInfo]:
        out: dict[ast.AST, FunctionInfo] = {}
        infos = {info.node: info
                 for lst in self.functions.values() for info in lst
                 if info.module is mod}

        def fill(node: ast.AST, cur: FunctionInfo | None) -> None:
            nxt = infos.get(node, cur)
            if nxt is not None:
                out[node] = nxt
            for child in ast.iter_child_nodes(node):
                fill(child, nxt)

        fill(mod.tree, None)
        return out


def load_program(paths: list[str],
                 full: bool = False) -> tuple[PyProgram, list[Diagnostic]]:
    """Parse ``paths`` (files and/or trees) into one PyProgram.

    Unparseable files become ``det-syntax`` diagnostics instead of
    aborting the run.
    """
    files: list[str] = []
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, names in os.walk(path):
                dirs.sort()
                dirs[:] = [d for d in dirs if d != "__pycache__"]
                files.extend(os.path.join(root, n)
                             for n in sorted(names) if n.endswith(".py"))
        else:
            files.append(path)
    modules: list[PyModule] = []
    problems: list[Diagnostic] = []
    for path in files:
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
        try:
            modules.append(PyModule.parse(path, source))
        except SyntaxError as exc:
            problems.append(Diagnostic(
                "det-syntax", Severity.ERROR,
                f"cannot parse: {exc.msg}",
                span=SourceSpan(file=path, line=exc.lineno or 0),
            ))
    return PyProgram(modules, full=full), problems


# ----------------------------------------------------------- taint engine
def _source_of(call: ast.Call, mod: PyModule) -> TaintInfo | None:
    """TaintInfo if ``call`` is itself a nondeterminism source."""
    name = _dotted(call.func)
    loc = f"{os.path.basename(mod.path)}:{getattr(call, 'lineno', 0)}"
    if name in _WALL_CLOCK_CALLS:
        return TaintInfo(SRC_WALL_CLOCK, (f"{name}() at {loc}",))
    parts = name.split(".")
    if (len(parts) == 3 and parts[1] == "random"
            and parts[0] in ("np", "numpy") and parts[2] in _NP_GLOBAL_FNS):
        return TaintInfo(SRC_GLOBAL_RNG, (f"{name}() at {loc}",))
    if parts[0] == "random" and len(parts) == 2:
        return TaintInfo(SRC_GLOBAL_RNG, (f"{name}() at {loc}",))
    if name in ("os.getenv", "os.environ.get"):
        return TaintInfo(SRC_ENVIRON, (f"{name}() at {loc}",))
    return None


def _environ_read(node: ast.AST) -> bool:
    """``os.environ[...]`` / bare ``os.environ`` read."""
    if isinstance(node, ast.Subscript):
        node = node.value
    return isinstance(node, ast.Attribute) and _dotted(node) == "os.environ"


class _FunctionTaint:
    """Intra-procedural taint over one function body."""

    def __init__(self, program: PyProgram, info: FunctionInfo) -> None:
        self.program = program
        self.info = info
        self.mod = info.module
        self.tainted: dict[str, TaintInfo] = {}

    def expr_taint(self, node: ast.AST) -> TaintInfo | None:
        """Taint of an expression: direct source, tainted callee
        return, tainted name, or any tainted sub-expression."""
        if isinstance(node, ast.Name):
            return self.tainted.get(node.id)
        if _environ_read(node):
            loc = (f"{os.path.basename(self.mod.path)}:"
                   f"{getattr(node, 'lineno', 0)}")
            return TaintInfo(SRC_ENVIRON, (f"os.environ at {loc}",))
        if isinstance(node, ast.Call):
            src = _source_of(node, self.mod)
            if src is not None:
                return src
            callee = self.program.resolve_call(node, self.info, self.mod)
            if callee is not None and callee.returns is not None:
                return callee.returns.extended(callee.label())
            # taint rides through wrappers: round(wall_s), f(x)
            for sub in list(node.args) + [kw.value for kw in node.keywords]:
                t = self.expr_taint(sub)
                if t is not None:
                    return t
            return None
        for child in ast.iter_child_nodes(node):
            t = self.expr_taint(child)
            if t is not None:
                return t
        return None

    def run(self) -> None:
        """Propagate assignment taint to a local fixpoint."""
        body = self.info.node.body
        for _ in range(8):
            before = len(self.tainted)
            for stmt in body:
                self._visit_block(stmt)
            if len(self.tainted) == before:
                break

    def _visit_block(self, stmt: ast.stmt) -> None:
        for node in ast.walk(stmt):
            targets: list[ast.expr] = []
            value: ast.expr | None = None
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            elif isinstance(node, ast.AugAssign):
                targets, value = [node.target], node.value
            elif isinstance(node, ast.For):
                targets, value = [node.target], node.iter
            elif (isinstance(node, ast.withitem)
                    and node.optional_vars is not None):
                targets, value = [node.optional_vars], node.context_expr
            if value is None:
                continue
            taint = self.expr_taint(value)
            if taint is None:
                continue
            for target in targets:
                for name in _target_names(target):
                    self.tainted.setdefault(name, taint)

    def return_taint(self) -> TaintInfo | None:
        for node in ast.walk(self.info.node):
            if isinstance(node, ast.Return) and node.value is not None:
                t = self.expr_taint(node.value)
                if t is not None:
                    return t
        return None


def _target_names(target: ast.expr) -> Iterator[str]:
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from _target_names(elt)
    elif isinstance(target, ast.Starred):
        yield from _target_names(target.value)


def compute_summaries(program: PyProgram) -> None:
    """Fixpoint of per-function return-taint summaries."""
    infos = [info for lst in program.functions.values() for info in lst]
    for _ in range(max(4, len(infos))):
        changed = False
        for info in infos:
            analysis = _FunctionTaint(program, info)
            analysis.run()
            ret = analysis.return_taint()
            if ret is not None and info.returns is None:
                info.returns = ret
                changed = True
        if not changed:
            break


@TAINT_RULES.rule(
    "det-taint",
    "wall-clock/global-RNG/os.environ values must not reach digest-"
    "relevant sinks (digests, merges, shard seeds)",
)
def _check_taint(program: PyProgram) -> Iterator[Diagnostic]:
    compute_summaries(program)
    for mod in program.modules:
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.Call):
                continue
            sink = _sink_name(node)
            if sink is None:
                continue
            enclosing = program.enclosing_function(mod, node)
            analysis = _FunctionTaint(program, enclosing) \
                if enclosing is not None else None
            if analysis is not None:
                analysis.run()
            for arg in list(node.args) + [kw.value for kw in node.keywords]:
                taint = (analysis.expr_taint(arg) if analysis is not None
                         else None)
                if taint is None:
                    continue
                loc = (f"{os.path.basename(mod.path)}:"
                       f"{getattr(node, 'lineno', 0)}")
                chain = " -> ".join(
                    taint.chain + (f"{sink}() at {loc}",))
                d = mod.diag(
                    "det-taint", Severity.ERROR,
                    f"{taint.kind} value flows into digest-relevant "
                    f"sink {sink}(): {chain}. Replays of the same run "
                    "would disagree; derive this input from the DES "
                    "clock or a seeded stream instead.",
                    node,
                )
                if d:
                    yield d
                break  # one finding per sink call


def _sink_name(call: ast.Call) -> str | None:
    func = call.func
    if isinstance(func, ast.Name) and func.id in DIGEST_SINKS:
        return func.id
    if isinstance(func, ast.Attribute) and func.attr in DIGEST_SINKS:
        return func.attr
    return None
