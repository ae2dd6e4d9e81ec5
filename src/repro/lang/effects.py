"""Per-method effect extraction: the read/write sets the analyzers run on.

The paper's premise is that mobile objects are self-describing — method
semantics live *in* the object as meta-items, so an analyzer can read
them back out without any side table. This module is that read-out, in
two flavours:

* **MPL source** (:func:`effects_of_method` / :func:`effects_of_object`)
  walks the MPL AST before compilation. Spans come from the parser, so
  downstream diagnostics anchor on real source lines — this is what the
  seeded corpus exercises.
* **Portable dialect** (:func:`effects_of_portable`) walks the compiled
  python function body carried by a live object or a packed image. The
  compiler lowers every data access to a ``self.get``/``self.set`` call
  and every sibling invocation to ``self.call``, so the compiled form is
  *more* regular than the surface syntax: a handful of call shapes cover
  everything. This is what the admission gate and the happens-before
  sanitizer use, where there is no ``.mpl`` file to point at.

An effect set is deliberately coarse: it records *which* extensible
items a method may read or write, not path-sensitive facts. Coarseness
is the right trade for a race analysis that must never miss a write —
a branch-guarded ``self.set`` still counts as a write.
"""

from __future__ import annotations

import ast as pyast
from dataclasses import dataclass, field

from ..textcache import TextCache
from . import ast_nodes as mpl
from .compiler import SELFVIEW_API
from .parser import span_of

__all__ = [
    "MethodEffects",
    "effects_of_method",
    "effects_of_object",
    "effects_of_portable",
    "STRUCTURE_ITEM",
]

#: pseudo-item standing for the object's structure (the member tables the
#: compiled invocation closures pin by generation). Structural ops write
#: it; every invocation implicitly reads it through the dispatch pins.
STRUCTURE_ITEM = "##structure"

#: self-view operations that mutate the member tables themselves
_STRUCTURAL_OPS = frozenset(
    {"add_data", "delete_data", "add_method", "delete_method"}
)



@dataclass
class MethodEffects:
    """What one method may do to its object's extensible items.

    ``reads``/``writes`` map item name to the (line, column) span of the
    first access — spans are ``(0, 0)`` when the effects came from a
    compiled body with no surface source. ``structural`` maps the op name
    (``add_data`` …) to its span; ``self_calls`` maps sibling method
    names to the span of the first call site. ``dynamic`` is set when an
    item or method name was computed at runtime — the analysis stays
    sound by treating such a method as opaque rather than guessing.
    """

    name: str
    reads: dict = field(default_factory=dict)
    writes: dict = field(default_factory=dict)
    structural: dict = field(default_factory=dict)
    self_calls: dict = field(default_factory=dict)
    dynamic: bool = False

    def touches(self) -> set:
        return set(self.reads) | set(self.writes)


# ---------------------------------------------------------------------------
# MPL surface syntax
# ---------------------------------------------------------------------------


def _record(table: dict, key: str, span) -> None:
    table.setdefault(key, span)


def _literal_str(expr) -> str | None:
    if isinstance(expr, mpl.Literal) and isinstance(expr.value, str):
        return expr.value
    return None


def effects_of_method(
    decl: mpl.MethodDecl, data_names: set
) -> MethodEffects:
    """Extract the effect set of one MPL method declaration.

    ``data_names`` is the set of declared data items — a bare ``Name``
    in a body is a data read only when it names one (locals and params
    cannot shadow data; the compiler rejects the collision).
    """
    eff = MethodEffects(name=decl.name)
    locals_seen = set(decl.params)

    def walk(node) -> None:
        if isinstance(node, mpl.Name):
            if node.ident in data_names and node.ident not in locals_seen:
                _record(eff.reads, node.ident, span_of(node))
            return
        if isinstance(node, mpl.Let):
            locals_seen.add(node.name)
        elif isinstance(node, mpl.Assign):
            if node.name in data_names and node.name not in locals_seen:
                _record(eff.writes, node.name, span_of(node))
        elif isinstance(node, mpl.ForEach):
            locals_seen.add(node.name)
        elif isinstance(node, mpl.MethodCall) and isinstance(
            node.target, mpl.SelfRef
        ):
            span = span_of(node)
            name = node.name
            if name in ("get", "has_data"):
                item = _literal_str(node.args[0]) if node.args else None
                if item is None:
                    eff.dynamic = True
                else:
                    _record(eff.reads, item, span)
            elif name == "set":
                item = _literal_str(node.args[0]) if node.args else None
                if item is None:
                    eff.dynamic = True
                else:
                    _record(eff.writes, item, span)
            elif name in _STRUCTURAL_OPS:
                _record(eff.structural, name, span)
            elif name == "call":
                callee = _literal_str(node.args[0]) if node.args else None
                if callee is None:
                    eff.dynamic = True
                else:
                    _record(eff.self_calls, callee, span)
            elif name not in SELFVIEW_API:
                # surface sugar: self.m(...) invokes the sibling method m
                _record(eff.self_calls, name, span)
        for child in mpl.children(node):
            walk(child)

    for stmt in decl.body:
        walk(stmt)
    # contract clauses read data too (evaluated around every invocation)
    for clause in (decl.requires, decl.ensures):
        if clause is not None:
            walk(clause)
    return eff


def effects_of_object(decl: mpl.ObjectDecl) -> dict:
    """Effect sets for every method of one MPL object declaration."""
    data_names = {d.name for d in decl.data}
    return {
        m.name: effects_of_method(m, data_names) for m in decl.methods
    }


# ---------------------------------------------------------------------------
# compiled portable dialect
# ---------------------------------------------------------------------------


def _py_const_str(node) -> str | None:
    if isinstance(node, pyast.Constant) and isinstance(node.value, str):
        return node.value
    return None


#: Effect sets of parsed portable bodies, keyed by source text, each
#: stored as ``(reads, writes, structural, self_calls, dynamic)`` with
#: every table a tuple of items: a lookup builds a fresh MethodEffects,
#: so no caller can edit what the next one reads.
_PARSED = TextCache()


def effects_of_portable(source: str, name: str = "<portable>") -> MethodEffects:
    """Extract effects from a compiled portable method body.

    The body is a python *function body* (it may open with a bare
    ``return``), so it is wrapped in a probe function before parsing —
    the same trick the lint source-walker uses. A body that does not
    parse yields an opaque effect set (``dynamic=True``) rather than an
    exception: the admission pipeline reports malformed code separately.
    Each distinct source is parsed once per process (see _PARSED).
    """
    parsed = _PARSED.get(source)
    if parsed is None:
        parsed = _parse_portable(source)
        _PARSED.put(source, parsed, len(source))
    reads, writes, structural, self_calls, dynamic = parsed
    return MethodEffects(
        name, dict(reads), dict(writes), dict(structural), dict(self_calls), dynamic
    )


def _parse_portable(source: str) -> tuple:
    """The effect set of one portable body, parsed now, in the form
    _PARSED keeps."""
    wrapped = "def __probe__():\n" + "\n".join(
        "    " + line for line in (source or "pass").splitlines()
    )
    try:
        tree = pyast.parse(wrapped)
    except SyntaxError:
        return (), (), (), (), True

    eff = MethodEffects(name="")
    for node in pyast.walk(tree):
        if not isinstance(node, pyast.Call):
            continue
        func = node.func
        if not (
            isinstance(func, pyast.Attribute)
            and isinstance(func.value, pyast.Name)
            and func.value.id == "self"
        ):
            continue
        span = (max(node.lineno - 1, 0), 0)
        op = func.attr
        if op in ("get", "has_data"):
            item = _py_const_str(node.args[0]) if node.args else None
            if item is None:
                eff.dynamic = True
            else:
                _record(eff.reads, item, span)
        elif op == "set":
            item = _py_const_str(node.args[0]) if node.args else None
            if item is None:
                eff.dynamic = True
            else:
                _record(eff.writes, item, span)
        elif op in _STRUCTURAL_OPS:
            _record(eff.structural, op, span)
        elif op == "call":
            callee = _py_const_str(node.args[0]) if node.args else None
            if callee is None:
                eff.dynamic = True
            else:
                _record(eff.self_calls, callee, span)
    return (
        tuple(eff.reads.items()), tuple(eff.writes.items()),
        tuple(eff.structural.items()), tuple(eff.self_calls.items()),
        eff.dynamic,
    )
