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
  indexes every function, method and class. Program-scoped rule
  families (trace schema, taint) and the state census take a
  ``PyProgram`` where the per-function determinism rules take a
  ``PyModule``.
* :meth:`PyProgram.resolve_call` resolves call expressions to
  definitions conservatively: same-module names, a method through the
  MRO of a receiver the syntax types (:meth:`PyProgram.type_of`), a
  function through an imported module, else a program-unique bare
  name. Unresolvable calls simply end the chain — the pass
  under-reports rather than invent edges.
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
from dataclasses import dataclass, field
from typing import Any

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
    "ClassInfo",
    "EXTERNAL",
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
    #: the class whose body defines it, None for a function
    owner: ClassInfo | None = None
    #: taint of the return value, once the fixpoint has run
    returns: TaintInfo | None = None

    def label(self) -> str:
        where = os.path.basename(self.module.path)
        name = (f"{self.owner.name}.{self.name}"
                if self.owner is not None else self.name)
        return f"{name}() [{where}:{self.node.lineno}]"


@dataclass(slots=True, eq=False)
class ClassInfo:
    """One class definition and the methods its body defines."""

    name: str
    module: PyModule
    node: ast.ClassDef
    methods: dict[str, FunctionInfo] = field(default_factory=dict)


#: the class of a value the syntax places outside the program: a
#: literal, a builtin, an instance of an imported library type
EXTERNAL = ClassInfo("object", PyModule.parse("<builtins>", ""),
                     ast.ClassDef("object", [], [], [], []))

#: ``(class, item class)``: what the syntax says a value is, and what
#: indexing or iterating it yields (``dict[str, Node]`` is
#: ``(EXTERNAL, Node)``); None where it says nothing
Type = tuple["ClassInfo | None", "ClassInfo | None"]
UNKNOWN: Type = (None, None)

#: builtins whose value, or whose call's value, is outside the program;
#: the rebuilders' calls hold their argument's items
_REBUILDERS = frozenset({"list", "tuple", "set", "frozenset", "sorted",
                         "reversed"})
_BUILTINS = _REBUILDERS | {
    "int", "float", "str", "bytes", "bool", "dict", "len", "repr",
    "round", "abs", "sum", "range", "enumerate", "zip", "format", "id",
    "isinstance", "hasattr", "open", "any", "all"}
#: ``X[T]`` annotations that annotate a ``T``
_WRAPPERS = frozenset({"Optional", "ClassVar", "Final", "Union", "type"})


def _agree(types: list[Type]) -> Type:
    """The type every binding agrees on, part by part."""
    if not types:
        return UNKNOWN
    first = types[0]
    return (first[0] if all(t[0] is first[0] for t in types) else None,
            first[1] if all(t[1] is first[1] for t in types) else None)


def _union(types: list[Type]) -> Type:
    """A union's type: its program class (``Node | None``,
    ``Source | bool``), else what its known parts agree on."""
    known = [t for t in types if t != UNKNOWN]
    inside = [t for t in known if t[0] is not EXTERNAL or t[1] is not None]
    return _agree(inside or known)


def _is_none(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


class PyProgram:
    """A set of parsed modules analyzed as one program.

    ``full`` marks a lint of the complete ``repro`` package (the
    ``--self`` run): program-completeness rules such as the unused
    trace-kind check only make sense there — an ad-hoc file lint
    legitimately emits only a handful of catalogue kinds.

    The index holds every def and class. :meth:`type_of` types a value
    where the syntax states it: ``self`` / ``cls``, an annotated
    parameter, a name bound from ``C(...)`` or another typed value, an
    attribute annotated in its class or assigned in ``__init__`` from a
    typed value, a call's annotated return, an item of an annotated
    container, and a literal, builtin or library value (``EXTERNAL``).
    """

    def __init__(self, modules: list[PyModule], full: bool = False) -> None:
        self.modules = modules
        self.full = full
        #: bare function name -> every definition carrying it
        self.functions: dict[str, list[FunctionInfo]] = {}
        #: class name -> every class carrying it
        self.classes: dict[str, list[ClassInfo]] = {}
        #: (module path, bare name) for module-scope lookups
        self._by_module: dict[tuple[str, str], FunctionInfo] = {}
        #: a module's (or a package's) name -> its file
        self._named: dict[str, PyModule] = {}
        self._info: dict[ast.AST, FunctionInfo] = {}
        self._subclasses: dict[ClassInfo, list[ClassInfo]] = {}
        # memos: each module's innermost def per node, each scope's
        # bindings, each node's type, each class's MRO and attributes
        self._enclosing: dict[str, dict[ast.AST, FunctionInfo]] = {}
        self._scopes: dict[ast.AST, dict[str, list[tuple[str, Any]]]] = {}
        self._types: dict[ast.AST, Type] = {}
        self._mro: dict[ClassInfo, list[ClassInfo]] = {}
        self._attrs: dict[ClassInfo, dict[str, list[tuple[str, Any]]]] = {}
        for mod in modules:
            name = os.path.splitext(os.path.basename(mod.path))[0]
            if name == "__init__":
                name = os.path.basename(os.path.dirname(mod.path))
            self._named.setdefault(name, mod)
            self._index_module(mod)
        for found in self.classes.values():
            for cls in found:
                for base in self.mro(cls)[1:]:
                    self._subclasses.setdefault(base, []).append(cls)

    def _index_module(self, mod: PyModule) -> None:
        def visit(node: ast.AST, owner: ClassInfo | None) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    cls = ClassInfo(child.name, mod, child)
                    self.classes.setdefault(child.name, []).append(cls)
                    visit(child, cls)
                elif isinstance(child, (ast.FunctionDef,
                                        ast.AsyncFunctionDef)):
                    info = FunctionInfo(name=child.name, module=mod,
                                        node=child, owner=owner)
                    self.functions.setdefault(child.name, []).append(info)
                    self._info[child] = info
                    if owner is None:
                        self._by_module.setdefault((mod.path, child.name),
                                                   info)
                    else:
                        owner.methods.setdefault(child.name, info)
                    visit(child, None)
                else:
                    visit(child, owner)

        visit(mod.tree, None)

    # -- classes ----------------------------------------------------------
    def class_named(self, name: str, mod: PyModule | None) -> ClassInfo | None:
        """``mod``'s own class ``name``, else the program's one."""
        found = self.classes.get(name, [])
        found = [cls for cls in found if cls.module is mod] or found
        return found[0] if len(found) == 1 else None

    def mro(self, cls: ClassInfo) -> list[ClassInfo]:
        """The class, then its bases in the program, depth first."""
        if cls not in self._mro:
            self._mro[cls] = order = [cls]
            for base in cls.node.bases:
                found = self.class_named(
                    _dotted(base).rpartition(".")[2], cls.module)
                order += [k for k in (self.mro(found) if found else ())
                          if k not in order]
        return self._mro[cls]

    def family(self, cls: ClassInfo) -> set[ClassInfo]:
        """The class, its bases and its subclasses: every class whose
        instance a value typed ``cls`` may be, or whose def it may run."""
        return {*self.mro(cls), *self._subclasses.get(cls, ())}

    def lookup(self, cls: ClassInfo, name: str) -> FunctionInfo | None:
        """The def ``cls().name`` runs: the first in the class's MRO."""
        return next((k.methods[name] for k in self.mro(cls)
                     if name in k.methods), None)

    # -- receiver typing --------------------------------------------------
    def type_of(self, expr: ast.AST, mod: PyModule) -> Type:
        """What the syntax says ``expr``, a node of ``mod``, is."""
        if expr not in self._types:
            self._types[expr] = UNKNOWN  # a cycle through it says nothing
            self._types[expr] = self._type_of(expr, mod)
        return self._types[expr]

    def _type_of(self, expr: ast.AST, mod: PyModule) -> Type:
        if isinstance(expr, ast.Name):
            found = self._bindings(expr, mod)
            declared = [b for b in found if b[0] == "ann"]
            types = [self._bound(kind, what, mod)
                     for kind, what in declared or found]
            return (_agree(types) if types
                    else (EXTERNAL, None) if expr.id in _BUILTINS
                    else UNKNOWN)
        if isinstance(expr, ast.Attribute):
            owner = self.type_of(expr.value, mod)[0]
            module = self.module_of(expr.value, mod)
            return (self.attr_type(owner, expr.attr) if owner is not None
                    else UNKNOWN if module is None
                    else (self.class_named(expr.attr, None), None)
                    if module in self._named else (EXTERNAL, None))
        if isinstance(expr, ast.Call):
            return self._call_type(expr, mod)
        if isinstance(expr, ast.Subscript):
            container = self.type_of(expr.value, mod)
            return container if isinstance(expr.slice, ast.Slice) else (
                container[1], None)
        if isinstance(expr, (ast.List, ast.Tuple, ast.Set)):
            return (EXTERNAL, _agree([self.type_of(e, mod)
                                      for e in expr.elts])[0])
        if isinstance(expr, (ast.ListComp, ast.SetComp, ast.GeneratorExp,
                             ast.DictComp)):
            elt = expr.value if isinstance(expr, ast.DictComp) else expr.elt
            return (EXTERNAL, self.type_of(elt, mod)[0])
        if isinstance(expr, (ast.Constant, ast.JoinedStr, ast.Dict)):
            return (EXTERNAL, None)
        parts = ([expr.body, expr.orelse] if isinstance(expr, ast.IfExp)
                 else expr.values if isinstance(expr, ast.BoolOp)
                 else [expr.value] if isinstance(expr, ast.NamedExpr)
                 else [])
        return _agree([self.type_of(e, mod) for e in parts
                       if not _is_none(e)])

    def _bound(self, kind: str, what: Any, mod: PyModule) -> Type:
        """The type one binding (see :meth:`_scope_bindings`) gives."""
        if kind in ("class", "external"):
            return (what if kind == "class" else EXTERNAL, None)
        if kind == "ann":
            return self.annotation(what, mod)
        if kind in ("value", "item"):
            typ = self.type_of(what, mod)
            return typ if kind == "value" else (typ[1], None)
        return UNKNOWN

    def _call_type(self, call: ast.Call, mod: PyModule) -> Type:
        func = call.func
        name = getattr(func, "id", "")
        cls = self.class_of(func, mod)
        if cls is not None:
            return (cls, None)
        if name == "super":
            info = self.enclosing(mod, call)
            bases = self.mro(info.owner)[1:] if info and info.owner else []
            return (bases[0] if bases else None, None)
        if name in ("replace", "cast") and call.args:
            return (self.type_of(call.args[0], mod) if name == "replace"
                    else self.annotation(call.args[0], mod))
        if name in _REBUILDERS and call.args and not self._bindings(
                func, mod):
            return (EXTERNAL, self.type_of(call.args[0], mod)[1])
        if name and self.type_of(func, mod)[0] is EXTERNAL:
            return (EXTERNAL, None)  # a builtin or library callable
        recv = (self.type_of(func.value, mod)
                if isinstance(func, ast.Attribute) else UNKNOWN)
        if recv[0] in (None, EXTERNAL) and recv[1] is not None:
            if func.attr in ("get", "pop", "setdefault"):  # type: ignore
                return (recv[1], None)
            if func.attr in ("values", "copy"):  # type: ignore
                return recv
        callee = self.resolve_call(call, mod)
        return (UNKNOWN if callee is None
                else self.annotation(callee.node.returns, callee.module))

    def class_of(self, func: ast.AST, mod: PyModule) -> ClassInfo | None:
        """The class a call of ``func`` constructs: ``C(...)``,
        ``mod.C(...)``, ``cls(...)``."""
        cls = self.type_of(func, mod)[0]
        name = getattr(func, "id", getattr(func, "attr", None))
        return (cls if cls not in (None, EXTERNAL)
                and name in (cls.name, "cls") else None)

    def module_of(self, expr: ast.AST, mod: PyModule) -> str | None:
        """The name of the module ``expr`` is bound to by an import."""
        if isinstance(expr, ast.Attribute):
            inner = self.module_of(expr.value, mod)
            return expr.attr if inner and expr.attr in self._named else None
        found = self._bindings(expr, mod) if isinstance(
            expr, ast.Name) else []
        return found[0][1] if found and all(
            kind == "module" for kind, _ in found) else None

    def attr_type(self, cls: ClassInfo, name: str) -> Type:
        """The type of ``name`` on an instance of ``cls``, as the first
        class of its MRO to state it does: by an annotation (in the class
        body, on ``self.name`` in a method, a property's return), else by
        what ``__init__`` assigns it."""
        for owner in self.mro(cls):
            if owner not in self._attrs:
                self._attrs[owner] = self._attr_sources(owner)
            found = self._attrs[owner].get(name)
            if found:
                anns = [what for kind, what in found if kind == "ann"]
                return _agree([self._bound(kind, what, owner.module)
                               for kind, what in found
                               if not anns or what is anns[0]])
        return UNKNOWN

    def _attr_sources(self, cls: ClassInfo) -> dict[str, list[tuple[str,
                                                                     Any]]]:
        out: dict[str, list[tuple[str, Any]]] = {}
        for stmt in cls.node.body:
            if (isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)):
                out.setdefault(stmt.target.id, []).append(
                    ("ann", stmt.annotation))
        for method in cls.methods.values():
            if any(_dotted(d).endswith("property")
                   for d in method.node.decorator_list):
                out.setdefault(method.name, []).append(
                    ("ann", method.node.returns))
            for node in ast.walk(method.node):
                targets = (node.targets if isinstance(node, ast.Assign)
                           and method.name == "__init__"
                           and not _is_none(node.value)
                           else [node.target]
                           if isinstance(node, ast.AnnAssign) else [])
                for target in targets:
                    if (isinstance(target, ast.Attribute)
                            and _dotted(target.value) == "self"):
                        out.setdefault(target.attr, []).append(
                            ("ann", node.annotation)
                            if isinstance(node, ast.AnnAssign)
                            else ("value", node.value))  # type: ignore
        return out

    def annotation(self, ann: ast.AST | None, mod: PyModule) -> Type:
        """The type an annotation states, its names resolved in ``mod``."""
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            try:
                ann = ast.parse(ann.value, mode="eval").body
            except SyntaxError:
                return UNKNOWN
        if isinstance(ann, (ast.Name, ast.Attribute)):
            cls = self.class_named(_dotted(ann).rpartition(".")[2], mod)
            found = self._scope_bindings(mod.tree, mod).get(
                _dotted(ann).partition(".")[0], [])
            outside = all(kind == "external" or kind == "module"
                          and what not in self._named for kind, what in found)
            return (cls or (EXTERNAL if found and outside
                            or not found and _dotted(ann) in _BUILTINS
                            else None), None)
        if isinstance(ann, ast.BinOp) and isinstance(ann.op, ast.BitOr):
            return _union([self.annotation(p, mod)
                           for p in (ann.left, ann.right)])
        if not isinstance(ann, ast.Subscript):
            return UNKNOWN
        args = (list(ann.slice.elts) if isinstance(ann.slice, ast.Tuple)
                else [ann.slice])
        if _dotted(ann.value).rpartition(".")[2] in _WRAPPERS:
            return _union([self.annotation(a, mod) for a in args])
        container = self.annotation(ann.value, mod)[0]
        if container is not EXTERNAL:
            return (container, None)
        if _dotted(ann.value) == "tuple":  # tuple[X, ...] holds Xs
            if len(args) != 2 or getattr(args[1], "value", 0) is not Ellipsis:
                return (EXTERNAL, None)
            args = args[:1]
        return (EXTERNAL, self.annotation(args[-1], mod)[0])

    # -- scopes -----------------------------------------------------------
    def _bindings(self, name: ast.Name,
                  mod: PyModule) -> list[tuple[str, Any]]:
        """How ``name`` is bound where it stands: in its def, else in the
        defs around it, else in the module."""
        info = self.enclosing(mod, name)
        while True:
            scope = info.node if info is not None else mod.tree
            found = self._scope_bindings(scope, mod).get(name.id)
            if found is not None or info is None:
                return found or []
            info = self.enclosing(mod, mod.parents[info.node])

    def _scope_bindings(self, scope: ast.AST, mod: PyModule) -> dict[
            str, list[tuple[str, Any]]]:
        """Name -> how each statement of a def or module binds it:
        ``class`` (a class object), ``ann`` (an annotation), ``value``
        (an expression's value; None binds nothing, it is an optional's
        empty case), ``item`` (an item of an expression), ``module`` (an
        imported module), ``external`` (an import from outside the
        program) or ``other``."""
        if scope in self._scopes:
            return self._scopes[scope]
        out: dict[str, list[tuple[str, Any]]] = {}
        self._scopes[scope] = out
        done: set[ast.AST] = set()

        def bind(target: ast.AST, kind: str, what: Any) -> None:
            if isinstance(target, ast.Name):
                out.setdefault(target.id, []).append((kind, what))
                done.add(target)

        info = self._info.get(scope)
        if info is not None:
            args = info.node.args
            method = info.owner is not None and "staticmethod" not in {
                _dotted(d) for d in info.node.decorator_list}
            for index, arg in enumerate(
                    [*args.posonlyargs, *args.args, *args.kwonlyargs]):
                bind(ast.Name(arg.arg), "ann" if arg.annotation
                     else "class" if index == 0 and method else "other",
                     arg.annotation or info.owner)
            for arg in filter(None, (args.vararg, args.kwarg)):
                bind(ast.Name(arg.arg), "other", None)
        todo = list(ast.iter_child_nodes(scope))
        while todo:
            node = todo.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef, ast.Lambda)):
                if isinstance(node, ast.ClassDef):
                    bind(ast.Name(node.name), "class",
                         self.class_named(node.name, mod))
                elif not isinstance(node, ast.Lambda):
                    bind(ast.Name(node.name), "other", None)
                continue
            todo.extend(ast.iter_child_nodes(node))
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                for target in (node.targets if isinstance(node, ast.Assign)
                               else [node.target]):
                    if isinstance(node, ast.Assign) and not _is_none(
                            node.value):
                        bind(target, "value", node.value)
                    done.add(target)  # += keeps the type; None is empty
            elif isinstance(node, ast.AnnAssign):
                bind(node.target, "ann", node.annotation)
            elif isinstance(node, ast.NamedExpr):
                bind(node.target, "value", node.value)
            elif isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension)):
                target, source = node.target, node.iter
                pair = (isinstance(target, ast.Tuple) and len(target.elts) == 2
                        and isinstance(source, ast.Call))
                if pair and _dotted(source.func) == "enumerate":
                    target, source = target.elts[1], source.args[0]
                elif pair and getattr(source.func, "attr", "") == "items":
                    target, source = target.elts[1], source.func.value
                bind(target, "item", source)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    top = alias.name.partition(".")[0]
                    bind(ast.Name(alias.asname or top), "module",
                         alias.name.rpartition(".")[2] if alias.asname
                         else top)
            elif isinstance(node, ast.ImportFrom):
                inside = node.level > 0 or (
                    node.module or "").partition(".")[0] in self._named
                for alias in node.names:
                    cls = self.class_named(alias.name, None)
                    kind = ("other" if alias.name in ("Any", "TypeVar",
                                                      "cast")
                            else "external" if not inside
                            else "class" if cls is not None
                            else "module" if alias.name in self._named
                            else "other")
                    bind(ast.Name(alias.asname or alias.name), kind,
                         cls if kind == "class" else alias.name)
            elif (isinstance(node, ast.Name) and node not in done
                  and isinstance(node.ctx, ast.Store)):
                bind(node, "other", None)  # unpacked, a with target
        return out

    # -- call resolution ------------------------------------------------
    def resolve_call(self, call: ast.Call,
                     mod: PyModule) -> FunctionInfo | None:
        """Best-effort resolution of a call expression to a definition.

        A method call on a typed receiver resolves through the type's
        MRO; a call through an imported module, to that module's def.
        Unresolvable calls return None (the chain just ends there);
        other names resolve only when the program holds exactly one
        definition of that name.
        """
        func = call.func
        if isinstance(func, ast.Name):
            local = self._by_module.get((mod.path, func.id))
            return local if local is not None else self._unique(func.id)
        if not isinstance(func, ast.Attribute):
            return None
        owner = self.type_of(func.value, mod)[0]
        module = self.module_of(func.value, mod)
        if owner is EXTERNAL or module is not None and owner is None:
            target = self._named.get(module or "")
            return self._by_module.get((target.path, func.attr)) if (
                target and owner is None) else None
        return (owner and self.lookup(owner, func.attr)
                or self._unique(func.attr))

    def _unique(self, name: str) -> FunctionInfo | None:
        infos = self.functions.get(name, [])
        return infos[0] if len(infos) == 1 else None

    def callers_of(self, target: FunctionInfo) -> Iterator[
            tuple[PyModule, FunctionInfo | None, ast.Call]]:
        """Every call site in the program that resolves to ``target``."""
        for mod, enclosing, call in self.iter_calls():
            if self.resolve_call(call, mod) is target:
                yield mod, enclosing, call

    def iter_calls(self) -> Iterator[
            tuple[PyModule, FunctionInfo | None, ast.Call]]:
        for mod in self.modules:
            for node in ast.walk(mod.tree):
                if isinstance(node, ast.Call):
                    yield mod, self.enclosing(mod, node), node

    def enclosing(self, mod: PyModule, node: ast.AST) -> FunctionInfo | None:
        """The innermost def that holds ``node`` (a def holds itself)."""
        if mod.path not in self._enclosing:
            out: dict[ast.AST, FunctionInfo] = {}
            self._enclosing[mod.path] = out
            todo: list[tuple[ast.AST, FunctionInfo | None]] = [
                (mod.tree, None)]
            while todo:
                at, cur = todo.pop()
                cur = self._info.get(at, cur)
                if cur is not None:
                    out[at] = cur
                todo.extend((child, cur) for child in ast.iter_child_nodes(at))
        return self._enclosing[mod.path].get(node)


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
            callee = self.program.resolve_call(node, self.mod)
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
            enclosing = program.enclosing(mod, node)
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
