"""The MPL method compiler: AST -> portable Python source.

MPL method bodies compile to the *portable source* dialect the sandbox
verifies (:mod:`repro.mobility.sandbox`), so everything written in MPL is
mobile by construction — the language makes the paper's "mobile
programming" the default, not an option.

Name resolution inside a method:

* parameters — positional slices of the untyped ``args`` array;
* declared data items — sugar for ``self.get``/``self.set``;
* ``let``/``for`` names — plain locals;
* ``self.x(...)`` — a facade operation when ``x`` is part of the
  :class:`~repro.core.mobject.SelfView` API, otherwise a sibling-method
  invocation through ``self.call``;
* ``expr.m(...)`` — an MROM invocation on the target value (works for
  local objects and remote references alike);
* a small set of builtins (``len``, ``str``, ...) pass through.
"""

from __future__ import annotations

from ..core.errors import MPLSyntaxError
from . import ast_nodes as ast

__all__ = [
    "compile_method_body",
    "compile_clause",
    "CompiledMethod",
    "compile_object_methods",
]

#: operations resolved directly against the SelfView facade
SELFVIEW_API = frozenset(
    {
        "get", "set", "call", "has_data", "has_method",
        "add_data", "delete_data", "add_method", "delete_method",
        "data_names", "method_names",
    }
)

#: builtins MPL expressions may name (a subset of the sandbox whitelist)
BUILTINS = frozenset(
    {
        "len", "str", "int", "float", "bool", "abs", "min", "max", "sum",
        "sorted", "reversed", "range", "round", "list", "dict",
    }
)

_RESERVED = frozenset({"self", "args", "ctx", "result", "portable"})

_BINARY_OPS = {
    "+": "+", "-": "-", "*": "*", "/": "/", "%": "%",
    "==": "==", "!=": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">=",
    "and": "and", "or": "or",
}


class _Scope:
    """Name resolution context for one method."""

    def __init__(self, params: tuple, data_names: frozenset):
        for name in params:
            if name in _RESERVED:
                raise MPLSyntaxError(f"parameter name {name!r} is reserved")
        self.params = {name: index for index, name in enumerate(params)}
        self.data_names = data_names
        self.locals: set[str] = set()
        self.allow_result = False

    def declare_local(self, name: str) -> None:
        if name in _RESERVED:
            raise MPLSyntaxError(f"local name {name!r} is reserved")
        if name in self.params or name in self.data_names:
            raise MPLSyntaxError(
                f"'let {name}' shadows a parameter or data item"
            )
        self.locals.add(name)


def _compile_expr(node, scope: _Scope) -> str:
    if isinstance(node, ast.Literal):
        return repr(node.value)
    if isinstance(node, ast.Name):
        name = node.ident
        if name in scope.params:
            return f"args[{scope.params[name]}]"
        if name in scope.locals:
            return name
        if name in scope.data_names:
            return f"self.get({name!r})"
        if name == "result" and scope.allow_result:
            return "result"
        if name in BUILTINS:
            return name
        raise MPLSyntaxError(f"unknown name {name!r} in method body")
    if isinstance(node, ast.SelfRef):
        raise MPLSyntaxError("'self' can only be used as a call target")
    if isinstance(node, ast.ListExpr):
        inner = ", ".join(_compile_expr(e, scope) for e in node.elements)
        return f"[{inner}]"
    if isinstance(node, ast.MapExpr):
        inner = ", ".join(
            f"{_compile_expr(k, scope)}: {_compile_expr(v, scope)}"
            for k, v in node.pairs
        )
        return "{" + inner + "}"
    if isinstance(node, ast.Unary):
        operand = _compile_expr(node.operand, scope)
        return f"(-{operand})" if node.op == "-" else f"(not {operand})"
    if isinstance(node, ast.Binary):
        op = _BINARY_OPS.get(node.op)
        if op is None:
            raise MPLSyntaxError(f"unknown operator {node.op!r}")
        left = _compile_expr(node.left, scope)
        right = _compile_expr(node.right, scope)
        return f"({left} {op} {right})"
    if isinstance(node, ast.Index):
        target = _compile_expr(node.target, scope)
        index = _compile_expr(node.index, scope)
        return f"{target}[{index}]"
    if isinstance(node, ast.MethodCall):
        arg_sources = [_compile_expr(a, scope) for a in node.args]
        if isinstance(node.target, ast.SelfRef):
            if node.name in SELFVIEW_API:
                return f"self.{node.name}({', '.join(arg_sources)})"
            return f"self.call({node.name!r}{''.join(', ' + a for a in arg_sources)})"
        target = _compile_expr(node.target, scope)
        return f"{target}.invoke({node.name!r}, [{', '.join(arg_sources)}])"
    if isinstance(node, ast.FuncCall):
        if not (isinstance(node.func, ast.Name) and node.func.ident in BUILTINS):
            raise MPLSyntaxError(
                "only builtin functions can be called directly in methods"
            )
        arg_sources = ", ".join(_compile_expr(a, scope) for a in node.args)
        return f"{node.func.ident}({arg_sources})"
    if isinstance(node, ast.NewObject):
        raise MPLSyntaxError("'new' is only available in top-level script code")
    raise MPLSyntaxError(f"cannot compile expression {type(node).__name__}")


def _compile_stmt(node, scope: _Scope, lines: list[str], indent: int) -> None:
    pad = "    " * indent
    if isinstance(node, ast.Let):
        scope.declare_local(node.name)
        lines.append(f"{pad}{node.name} = {_compile_expr(node.value, scope)}")
        return
    if isinstance(node, ast.Assign):
        name = node.name
        value = _compile_expr(node.value, scope)
        if name in scope.data_names:
            lines.append(f"{pad}self.set({name!r}, {value})")
            return
        if name in scope.locals:
            lines.append(f"{pad}{name} = {value}")
            return
        if name in scope.params:
            raise MPLSyntaxError(f"cannot assign to parameter {name!r}")
        raise MPLSyntaxError(
            f"assignment to undeclared name {name!r} (use 'let')"
        )
    if isinstance(node, ast.IndexAssign):
        target = _compile_expr(node.target, scope)
        index = _compile_expr(node.index, scope)
        value = _compile_expr(node.value, scope)
        lines.append(f"{pad}{target}[{index}] = {value}")
        return
    if isinstance(node, ast.Return):
        if node.value is None:
            lines.append(f"{pad}return None")
        else:
            lines.append(f"{pad}return {_compile_expr(node.value, scope)}")
        return
    if isinstance(node, ast.If):
        lines.append(f"{pad}if {_compile_expr(node.condition, scope)}:")
        _compile_block(node.then_body, scope, lines, indent + 1)
        if node.else_body:
            lines.append(f"{pad}else:")
            _compile_block(node.else_body, scope, lines, indent + 1)
        return
    if isinstance(node, ast.While):
        lines.append(f"{pad}while {_compile_expr(node.condition, scope)}:")
        _compile_block(node.body, scope, lines, indent + 1)
        return
    if isinstance(node, ast.ForEach):
        scope.declare_local(node.name)
        lines.append(
            f"{pad}for {node.name} in {_compile_expr(node.iterable, scope)}:"
        )
        _compile_block(node.body, scope, lines, indent + 1)
        return
    if isinstance(node, ast.Print):
        lines.append(f"{pad}print({_compile_expr(node.value, scope)})")
        return
    if isinstance(node, ast.ExprStmt):
        lines.append(f"{pad}{_compile_expr(node.value, scope)}")
        return
    raise MPLSyntaxError(f"cannot compile statement {type(node).__name__}")


def _compile_block(body, scope: _Scope, lines: list[str], indent: int) -> None:
    if not body:
        lines.append("    " * indent + "pass")
        return
    for statement in body:
        _compile_stmt(statement, scope, lines, indent)


class CompiledMethod:
    """Portable sources for one method: body plus optional pre/post."""

    __slots__ = ("name", "body_source", "pre_source", "post_source", "fixed", "private")

    def __init__(self, name, body_source, pre_source, post_source, fixed, private):
        self.name = name
        self.body_source = body_source
        self.pre_source = pre_source
        self.post_source = post_source
        self.fixed = fixed
        self.private = private


def compile_method_body(decl: ast.MethodDecl, data_names: frozenset) -> str:
    scope = _Scope(decl.params, data_names)
    lines: list[str] = []
    _compile_block(decl.body, scope, lines, 0)
    return "\n".join(lines)


def compile_clause(
    expr, decl: ast.MethodDecl, data_names: frozenset, with_result: bool
) -> str:
    """Compile a ``requires``/``ensures`` clause to a boolean procedure."""
    scope = _Scope(decl.params, data_names)
    scope.allow_result = with_result
    return f"return bool({_compile_expr(expr, scope)})"


def compile_member_source(
    member_source: str, data_names: frozenset = frozenset()
) -> CompiledMethod:
    """Compile one stand-alone MPL ``method`` declaration.

    Used by hosts that accept method definitions in MPL without a full
    object declaration — notably HADAS interoperability programs, where
    the surrounding object (the IOO) already exists and *data_names*
    names the data items the program may touch (e.g. ``imports``).
    """
    from .parser import parse  # local import: parser imports this module's peer

    program = parse(f"object standalone {{\n{member_source}\n}}")
    if len(program.objects) != 1 or program.statements:
        raise MPLSyntaxError("expected exactly one method declaration")
    decl = program.objects[0]
    if len(decl.methods) != 1 or decl.data:
        raise MPLSyntaxError("expected exactly one method declaration")
    method = decl.methods[0]
    body = compile_method_body(method, data_names)
    pre = (
        compile_clause(method.requires, method, data_names, with_result=False)
        if method.requires is not None
        else None
    )
    post = (
        compile_clause(method.ensures, method, data_names, with_result=True)
        if method.ensures is not None
        else None
    )
    return CompiledMethod(method.name, body, pre, post, method.fixed, method.private)


def compile_object_methods(decl: ast.ObjectDecl) -> list[CompiledMethod]:
    """Compile every method of an object declaration."""
    data_names = frozenset(d.name for d in decl.data)
    compiled: list[CompiledMethod] = []
    for method in decl.methods:
        body = compile_method_body(method, data_names)
        pre = (
            compile_clause(method.requires, method, data_names, with_result=False)
            if method.requires is not None
            else None
        )
        post = (
            compile_clause(method.ensures, method, data_names, with_result=True)
            if method.ensures is not None
            else None
        )
        compiled.append(
            CompiledMethod(method.name, body, pre, post, method.fixed, method.private)
        )
    return compiled

