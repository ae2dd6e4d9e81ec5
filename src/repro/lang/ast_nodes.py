"""MPL abstract syntax.

Two layers: *declarations* (objects and their members) and *statements/
expressions* (method bodies and top-level script code). Every node is a
frozen dataclass; the compiler and interpreter dispatch on type, and
every walk over statements and expressions (the linter, the effect
extractor) reaches sub-nodes through :func:`children`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

__all__ = [
    "Expr", "Literal", "Name", "SelfRef", "ListExpr", "MapExpr",
    "Unary", "Binary", "Index", "MethodCall", "FuncCall", "NewObject",
    "Stmt", "Let", "Assign", "IndexAssign", "Return", "If", "While",
    "ForEach", "Print", "ExprStmt",
    "DataDecl", "MethodDecl", "ObjectDecl", "Program", "children",
]


# ---------------------------------------------------------------------------
# expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Literal:
    value: object  # int | float | str | bool | None


@dataclass(frozen=True)
class Name:
    ident: str


@dataclass(frozen=True)
class SelfRef:
    """The bare ``self`` keyword (usable only inside methods)."""


@dataclass(frozen=True)
class ListExpr:
    elements: tuple


@dataclass(frozen=True)
class MapExpr:
    pairs: tuple  # of (Expr, Expr)


@dataclass(frozen=True)
class Unary:
    op: str  # "-" | "not"
    operand: "Expr"


@dataclass(frozen=True)
class Binary:
    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Index:
    target: "Expr"
    index: "Expr"


@dataclass(frozen=True)
class MethodCall:
    """``target.name(args)`` — MROM invocation on the target value."""

    target: "Expr | SelfRef"
    name: str
    args: tuple


@dataclass(frozen=True)
class FuncCall:
    """``name(args)`` — a builtin function application."""

    func: "Expr"
    args: tuple


@dataclass(frozen=True)
class NewObject:
    """``new name`` at the top level — instantiate a declared object."""

    decl_name: str


Expr = Union[
    Literal, Name, SelfRef, ListExpr, MapExpr, Unary, Binary, Index,
    MethodCall, FuncCall, NewObject,
]


# ---------------------------------------------------------------------------
# statements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Let:
    name: str
    value: Expr


@dataclass(frozen=True)
class Assign:
    name: str
    value: Expr


@dataclass(frozen=True)
class IndexAssign:
    target: Expr
    index: Expr
    value: Expr


@dataclass(frozen=True)
class Return:
    value: "Expr | None"


@dataclass(frozen=True)
class If:
    condition: Expr
    then_body: tuple
    else_body: tuple


@dataclass(frozen=True)
class While:
    condition: Expr
    body: tuple


@dataclass(frozen=True)
class ForEach:
    name: str
    iterable: Expr
    body: tuple


@dataclass(frozen=True)
class Print:
    value: Expr


@dataclass(frozen=True)
class ExprStmt:
    value: Expr


Stmt = Union[Let, Assign, IndexAssign, Return, If, While, ForEach, Print, ExprStmt]


def children(node) -> tuple:
    """The statements and expressions directly under *node*, in source
    order; ``()`` for a leaf (a literal, a name, ``self``, ``new``) and
    for anything that is not a statement or expression node."""
    if isinstance(node, (Let, Assign, Print, ExprStmt)):
        return (node.value,)
    if isinstance(node, MethodCall):
        return (node.target, *node.args)
    if isinstance(node, Binary):
        return (node.left, node.right)
    if isinstance(node, ListExpr):
        return node.elements
    if isinstance(node, MapExpr):
        return tuple(part for pair in node.pairs for part in pair)
    if isinstance(node, Unary):
        return (node.operand,)
    if isinstance(node, Index):
        return (node.target, node.index)
    if isinstance(node, FuncCall):
        return (node.func, *node.args)
    if isinstance(node, IndexAssign):
        return (node.target, node.index, node.value)
    if isinstance(node, Return):
        return () if node.value is None else (node.value,)
    if isinstance(node, If):
        return (node.condition, *node.then_body, *node.else_body)
    if isinstance(node, While):
        return (node.condition, *node.body)
    if isinstance(node, ForEach):
        return (node.iterable, *node.body)
    return ()


# ---------------------------------------------------------------------------
# declarations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DataDecl:
    name: str
    fixed: bool
    kind: str = "any"  # MROM Kind value name
    initial: "Expr | None" = None
    private: bool = False


@dataclass(frozen=True)
class MethodDecl:
    name: str
    fixed: bool
    params: tuple
    body: tuple  # of Stmt
    requires: "Expr | None" = None
    ensures: "Expr | None" = None
    private: bool = False


@dataclass(frozen=True)
class ObjectDecl:
    name: str
    extensible_meta: bool
    data: tuple  # of DataDecl
    methods: tuple  # of MethodDecl


@dataclass(frozen=True)
class Program:
    objects: tuple  # of ObjectDecl
    statements: tuple  # of Stmt
