"""AST-whitelist sandbox for portable (mobile) method code.

The paper's substrate was the JVM: method bodies travelled as verified
bytecode. Our substitution carries method bodies as *source text* and
verifies them here before compilation — the analog of JVM bytecode
verification (see DESIGN.md, Substitutions).

The verifier is a whitelist, not a blacklist: only explicitly permitted
AST node types, builtins and attribute names are accepted. Anything else
raises :class:`SandboxViolation` at *install* time, so a hostile object is
rejected before any of its code runs.

What portable code may do:

* arithmetic, comparisons, boolean logic, string/collection literals;
* local variables, ``if``/``while``/``for``, ``try``/``except``,
  functions and lambdas, comprehensions;
* call whitelisted builtins and any object the host handed it (the
  ``self`` facade, the invocation context, installation-context bindings);
* read/write attributes whose names do not start with an underscore.

What it may not do:

* import anything, define classes, touch dunder attributes, use
  ``global``, ``yield``/``await``, or name any non-whitelisted builtin.
"""

from __future__ import annotations

import ast
from types import CodeType
from typing import Any, Iterable, Mapping

from ..analysis.diagnostics import Diagnostic, Severity
from ..core.errors import SandboxViolation
from ..textcache import TextCache

__all__ = [
    "ALLOWED_BUILTINS",
    "SANDBOX_RULES",
    "validate_source",
    "collect_violations",
    "audit_function_body",
    "compile_restricted",
    "build_function",
]

#: Every rule id the verifier can emit (all errors — the sandbox has no
#: warnings: a construct is either whitelisted or it is not).
SANDBOX_RULES: dict[str, str] = {
    "sandbox.syntax": "the portable source does not parse or compile (error)",
    "sandbox.node-type": "an AST node type outside the whitelist (error)",
    "sandbox.underscore-attribute": "access to an underscore-prefixed attribute (error)",
    "sandbox.dunder-subscript": "a '__name__'-shaped mapping key (error)",
    "sandbox.forbidden-name": "a builtin outside the whitelist, e.g. eval/type (error)",
    "sandbox.dunder-name": "a dunder identifier, incl. except-aliases and nonlocals (error)",
    "sandbox.decorator": "a decorated function definition (error)",
    "sandbox.underscore-function": "an underscore-prefixed function name (error)",
    "sandbox.dunder-parameter": "a dunder parameter or keyword-argument name (error)",
}


_ALLOWED_NODES: tuple[type, ...] = (
    ast.Module,
    ast.Interactive,
    ast.Expression,
    ast.FunctionDef,
    ast.Lambda,
    ast.arguments,
    ast.arg,
    ast.Return,
    ast.Delete,
    ast.Assign,
    ast.AugAssign,
    ast.AnnAssign,
    ast.For,
    ast.While,
    ast.If,
    ast.With,
    ast.withitem,
    ast.Raise,
    ast.Try,
    ast.ExceptHandler,
    ast.Assert,
    ast.Expr,
    ast.Pass,
    ast.Break,
    ast.Continue,
    ast.Nonlocal,
    ast.BoolOp,
    ast.NamedExpr,
    ast.BinOp,
    ast.UnaryOp,
    ast.IfExp,
    ast.Dict,
    ast.Set,
    ast.ListComp,
    ast.SetComp,
    ast.DictComp,
    ast.GeneratorExp,
    ast.comprehension,
    ast.Compare,
    ast.Call,
    ast.keyword,
    ast.FormattedValue,
    ast.JoinedStr,
    ast.Constant,
    ast.Attribute,
    ast.Subscript,
    ast.Starred,
    ast.Name,
    ast.List,
    ast.Tuple,
    ast.Slice,
    # operator tokens
    ast.And, ast.Or,
    ast.Add, ast.Sub, ast.Mult, ast.MatMult, ast.Div, ast.Mod, ast.Pow,
    ast.LShift, ast.RShift, ast.BitOr, ast.BitXor, ast.BitAnd,
    ast.FloorDiv,
    ast.Invert, ast.Not, ast.UAdd, ast.USub,
    ast.Eq, ast.NotEq, ast.Lt, ast.LtE, ast.Gt, ast.GtE,
    ast.Is, ast.IsNot, ast.In, ast.NotIn,
    ast.Load, ast.Store, ast.Del,
)

#: Builtins a mobile method body may name. Deliberately excludes anything
#: that reaches the interpreter's internals (``getattr``/``setattr``,
#: ``vars``, ``type``, ``eval``...) or the host machine (``open``,
#: ``__import__``). ``print`` is allowed for didactic examples.
ALLOWED_BUILTINS: dict[str, Any] = {
    "abs": abs,
    "all": all,
    "any": any,
    "bool": bool,
    "bytes": bytes,
    "chr": chr,
    "dict": dict,
    "divmod": divmod,
    "enumerate": enumerate,
    "filter": filter,
    "float": float,
    "format": format,
    "frozenset": frozenset,
    "hash": hash,
    "int": int,
    "isinstance": isinstance,
    "iter": iter,
    "len": len,
    "list": list,
    "map": map,
    "max": max,
    "min": min,
    "next": next,
    "ord": ord,
    "pow": pow,
    "print": print,
    "range": range,
    "repr": repr,
    "reversed": reversed,
    "round": round,
    "set": set,
    "sorted": sorted,
    "str": str,
    "sum": sum,
    "tuple": tuple,
    "zip": zip,
    # exceptions portable code may raise/catch
    "ArithmeticError": ArithmeticError,
    "AssertionError": AssertionError,
    "Exception": Exception,
    "IndexError": IndexError,
    "KeyError": KeyError,
    "LookupError": LookupError,
    "RuntimeError": RuntimeError,
    "StopIteration": StopIteration,
    "TypeError": TypeError,
    "ValueError": ValueError,
    "ZeroDivisionError": ZeroDivisionError,
    "True": True,
    "False": False,
    "None": None,
}

_FORBIDDEN_NAMES = frozenset(
    {
        "eval", "exec", "compile", "open", "input", "__import__",
        "getattr", "setattr", "delattr", "hasattr", "globals", "locals",
        "vars", "dir", "type", "super", "object", "classmethod",
        "staticmethod", "property", "memoryview", "breakpoint", "exit",
        "quit", "help", "id", "callable",
    }
)


class _Verifier(ast.NodeVisitor):
    """Walk the AST, rejecting anything outside the whitelist.

    In the default mode the first violation raises
    :class:`SandboxViolation` (install-time rejection). With *collect*
    set, every violation is recorded as a
    :class:`~repro.analysis.diagnostics.Diagnostic` and the walk
    continues — the mode the static-analysis front ends use to report a
    complete picture instead of the first offence.
    """

    def __init__(self, source_name: str, collect: list[Diagnostic] | None = None):
        self.source_name = source_name
        self.collect = collect

    def _violation(
        self, node: ast.AST, construct: str, detail: str = "", rule: str = "sandbox.construct"
    ) -> None:
        line = getattr(node, "lineno", 0)
        where = f"{self.source_name}:{line}"
        diagnostic = Diagnostic(
            rule=rule,
            severity=Severity.ERROR,
            message=f"forbidden construct {construct!r}: {detail or 'not permitted'}",
            source=self.source_name,
            line=line,
            column=getattr(node, "col_offset", 0) + 1 if line else 0,
        )
        if self.collect is not None:
            self.collect.append(diagnostic)
            return
        raise SandboxViolation(
            construct, f"{detail or 'not permitted'} at {where}",
            diagnostic=diagnostic,
        )

    def generic_visit(self, node: ast.AST) -> None:
        if not isinstance(node, _ALLOWED_NODES):
            self._violation(
                node, type(node).__name__, "AST node type not whitelisted",
                rule="sandbox.node-type",
            )
            if self.collect is not None:
                return  # do not descend into an already-rejected construct
        super().generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if node.attr.startswith("_"):
            self._violation(
                node, f".{node.attr}", "underscore attribute access",
                rule="sandbox.underscore-attribute",
            )
        self.generic_visit(node)

    def visit_Subscript(self, node: ast.Subscript) -> None:
        # the subscript analogue of dunder attribute access: mappings that
        # mirror object internals (install contexts, descriptions) must
        # not hand portable code a '__dict__'-shaped key as a side door
        key = node.slice
        if (
            isinstance(key, ast.Constant)
            and isinstance(key.value, str)
            and key.value.startswith("__")
            and key.value.endswith("__")
        ):
            self._violation(
                node, f"[{key.value!r}]", "dunder subscript key",
                rule="sandbox.dunder-subscript",
            )
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        if node.id in _FORBIDDEN_NAMES:
            self._violation(
                node, node.id, "forbidden builtin", rule="sandbox.forbidden-name"
            )
        if node.id.startswith("__"):
            self._violation(node, node.id, "dunder name", rule="sandbox.dunder-name")
        self.generic_visit(node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        if node.decorator_list:
            self._violation(
                node, "decorator", "decorators not permitted",
                rule="sandbox.decorator",
            )
        if node.name.startswith("_"):
            self._violation(
                node, node.name, "underscore function name",
                rule="sandbox.underscore-function",
            )
        self.generic_visit(node)

    def visit_arg(self, node: ast.arg) -> None:
        if node.arg.startswith("__"):
            self._violation(
                node, node.arg, "dunder parameter name",
                rule="sandbox.dunder-parameter",
            )
        self.generic_visit(node)

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        # 'except E as __alias' binds without a Name node at the binding
        # site — an alias the Name rule alone would miss
        if node.name and node.name.startswith("__"):
            self._violation(
                node, node.name, "dunder exception alias",
                rule="sandbox.dunder-name",
            )
        self.generic_visit(node)

    def visit_Nonlocal(self, node: ast.Nonlocal) -> None:
        # nonlocal lists raw strings, not Name nodes
        for name in node.names:
            if name.startswith("__") or name in _FORBIDDEN_NAMES:
                self._violation(
                    node, name, "forbidden nonlocal name",
                    rule="sandbox.dunder-name",
                )
        self.generic_visit(node)

    def visit_keyword(self, node: ast.keyword) -> None:
        if node.arg and node.arg.startswith("__"):
            self._violation(
                node, f"{node.arg}=", "dunder keyword argument",
                rule="sandbox.dunder-parameter",
            )
        self.generic_visit(node)


def _syntax_violation(
    exc: SyntaxError, source_name: str, stage: str = "parse"
) -> SandboxViolation:
    """The ``sandbox.syntax`` refusal for source that does not *stage*."""
    return SandboxViolation(
        "syntax",
        f"{exc.msg} (line {exc.lineno})",
        diagnostic=Diagnostic(
            rule="sandbox.syntax",
            severity=Severity.ERROR,
            message=f"does not {stage}: {exc.msg}",
            source=source_name,
            line=exc.lineno or 0,
        ),
    )


def _parse(source: str, source_name: str) -> ast.Module:
    try:
        return ast.parse(source)
    except SyntaxError as exc:
        raise _syntax_violation(exc, source_name) from exc


def validate_source(source: str, source_name: str = "<portable>") -> ast.Module:
    """Parse and verify mobile source text; returns the parsed module.

    Raises :class:`SandboxViolation` for forbidden constructs and for
    source that does not parse at all.
    """
    tree = _parse(source, source_name)
    _Verifier(source_name).visit(tree)
    return tree


def collect_violations(
    source: str, source_name: str = "<portable>"
) -> list[Diagnostic]:
    """Every violation in *source* as diagnostics (empty when clean).

    The collecting twin of :func:`validate_source`: nothing is raised, so
    analysis front ends (``repro lint``, the migration admission gate)
    can report the complete set of problems in one pass.
    """
    try:
        tree = _parse(source, source_name)
    except SandboxViolation as refusal:
        return [refusal.diagnostic]
    found: list[Diagnostic] = []
    _Verifier(source_name, collect=found).visit(tree)
    return found


def _scaffold(body_source: str, parameters: Iterable[str], function_name: str) -> str:
    """The ``def`` a portable function body is verified and compiled in."""
    params = ", ".join(parameters)
    lines = body_source.splitlines() or ["pass"]
    indented = "\n".join("    " + line for line in lines)
    return f"def {function_name}({params}):\n{indented}\n"


def audit_function_body(
    body_source: str,
    parameters: Iterable[str],
    source_name: str = "<portable>",
) -> list[Diagnostic]:
    """Verify a *function body* exactly as :func:`build_function` would.

    Wraps the body in the same ``def`` scaffold, so the diagnostics
    predict precisely what the destination sandbox will reject — the
    linter's portability pass and the admission analyzer both rely on
    that equivalence. A clean body is compiled too, as
    :func:`compile_restricted` does, so what the compiler refuses
    (``break`` outside a loop, an unbound ``nonlocal``) is a
    ``sandbox.syntax`` finding. Reported line numbers are shifted back
    so they refer to the body text, not the wrapper.
    """
    wrapped = _scaffold(body_source, parameters, "portable")
    found = collect_violations(wrapped, source_name)
    if not found:
        try:
            compile(wrapped, source_name, "exec")
        except SyntaxError as exc:
            found = [_syntax_violation(exc, source_name, "compile").diagnostic]
    shifted: list[Diagnostic] = []
    for diagnostic in found:
        line = max(diagnostic.line - 1, 0)
        column = max(diagnostic.column - 4, 0) if diagnostic.column else 0
        shifted.append(
            Diagnostic(
                rule=diagnostic.rule,
                severity=diagnostic.severity,
                message=diagnostic.message,
                source=diagnostic.source,
                line=line,
                column=column,
                hint=diagnostic.hint,
            )
        )
    return shifted


#: Verified code objects, keyed by (source text, source name). A code
#: object is immutable and carries no globals, so one verification and
#: one compile serve every later build of the same body; each build
#: still executes it in a fresh namespace. Refusals are never stored:
#: a hostile body is re-verified, and refused, every time.
_VERIFIED = TextCache()


def compile_restricted(source: str, source_name: str = "<portable>") -> CodeType:
    """Validate then compile mobile source text to a code object.

    Each distinct (*source*, *source_name*) pair is verified and compiled
    once per process; later calls return the same code object. Source
    the compiler refuses is a ``sandbox.syntax`` :class:`SandboxViolation`,
    and, like every refusal, is not kept.
    """
    key = (source, source_name)
    code = _VERIFIED.get(key)
    if code is not None:
        return code
    validate_source(source, source_name)
    try:
        code = compile(source, source_name, "exec")
    except SyntaxError as exc:
        # what the parser accepts but the compiler refuses: `break`
        # outside a loop, a `nonlocal` with no binding
        raise _syntax_violation(exc, source_name, "compile") from exc
    _VERIFIED.put(key, code, len(source))
    return code


def build_function(
    body_source: str,
    parameters: Iterable[str],
    function_name: str = "portable",
    source_name: str = "<portable>",
    extra_bindings: Mapping[str, Any] | None = None,
):
    """Compile a *function body* given as mobile source text.

    The contract for portable method code in this reproduction: the
    migrating artifact is the body text of a function whose parameter list
    the runtime fixes (``self, args, ctx`` for bodies and pre-procedures,
    ``self, args, result, ctx`` for post-procedures). This function wraps
    the body in a ``def``, verifies it, executes the definition inside a
    restricted namespace, and returns the resulting function object. The
    verified code object is shared by every build of the same body under
    the same *source_name* (see :func:`compile_restricted`); the
    namespace, and so the function's globals, is new on every build.

    The returned function's globals contain *only* the whitelisted
    builtins plus *extra_bindings* supplied by the host (the installation
    context); there is no module, no filesystem, no import machinery.
    """
    code = compile_restricted(
        _scaffold(body_source, parameters, function_name), source_name
    )
    namespace: dict[str, Any] = {"__builtins__": dict(ALLOWED_BUILTINS)}
    if extra_bindings:
        for name, value in extra_bindings.items():
            if name.startswith("_"):
                raise SandboxViolation(name, "underscore binding injected by host")
            namespace[name] = value
    exec(code, namespace)  # noqa: S102 - executing *verified* code is the point
    return namespace[function_name]
