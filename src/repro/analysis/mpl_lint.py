"""Static analysis for MPL programs: dataflow and structure lint passes.

The verifier in :mod:`repro.mobility.sandbox` judges *compiled portable
source* after the bytes already moved; this module judges the *MPL
program itself*, before it is compiled, packed or shipped — the
language-level static checking.

Passes (each finding carries a stable rule id from :data:`RULES`):

* **name resolution** — undefined names, use before ``let``, assignment
  to parameters, shadowing, reserved and sandbox-hostile names;
* **structure** — duplicate members/parameters, collisions with the
  bundled meta-method names;
* **dataflow** — unused ``let``/``for`` bindings, unreachable statements
  after a ``return``;
* **self references** — ``self.get``/``set``/``delete_data``... against
  undeclared data items, calls to missing methods, arity mismatches,
  structural writes to fixed-section items;
* **portability** — constructs that compile locally but that the
  destination sandbox verifier would reject on arrival.

Entry points: :func:`lint_source` (text) and :func:`lint_program`
(a parsed :class:`~repro.lang.ast_nodes.Program`).
"""

from __future__ import annotations

from ..core.errors import MPLSyntaxError
from ..core.mobject import META_METHOD_NAMES
from ..lang import ast_nodes as ast
from ..lang.compiler import BUILTINS, SELFVIEW_API, _RESERVED
from ..lang.parser import parse, span_of
from ..mobility.sandbox import _FORBIDDEN_NAMES
from .diagnostics import Diagnostic, Severity

__all__ = ["RULES", "lint_source", "lint_program"]


#: Every MPL lint rule id and what it means. Severity in parentheses.
RULES: dict[str, str] = {
    "mpl.syntax": "the source text does not parse (error)",
    "mpl.undefined-name": "a name that is no parameter, local, data item or builtin (error)",
    "mpl.use-before-let": "a local read or assigned before its 'let' runs (error)",
    "mpl.unused-binding": "a 'let'/'for' binding that is never read (warning)",
    "mpl.unreachable-code": "a statement that can never run (after 'return') (warning)",
    "mpl.undeclared-item": "self.get/set/delete of a data item the object never declares (error)",
    "mpl.unknown-method": "a self-call to a method the object does not have (error)",
    "mpl.arity-mismatch": "a call whose argument count cannot match the target (error)",
    "mpl.fixed-item-write": "a structural write (add/delete) targeting a fixed-section item (error)",
    "mpl.shadowed-name": "a 'let' that shadows a parameter or data item (error)",
    "mpl.reserved-name": "a parameter or local using a reserved runtime name (error)",
    "mpl.meta-collision": "a member named after a bundled meta-method (error)",
    "mpl.duplicate-member": "two members or parameters with the same name (error)",
    "mpl.assign-to-parameter": "assignment to a method parameter (error)",
    "mpl.nonportable-name": "a local name the destination sandbox verifier rejects (error)",
    "mpl.invalid-construct": "a construct used where the language forbids it (error)",
    "mpl.toplevel-misuse": "'return' or 'self' in top-level script code (error)",
    "mpl.unknown-object": "'new' of an object declaration that does not exist (error)",
}

#: facade / meta operations taking a fixed argument range: name -> (min, max)
#: (max None = unbounded)
_FACADE_ARITY: dict[str, tuple[int, int | None]] = {
    "get": (1, 1),
    "set": (2, 2),
    "call": (1, None),
    "has_data": (1, 1),
    "has_method": (1, 1),
    "add_data": (2, 3),
    "delete_data": (1, 1),
    "add_method": (2, 3),
    "delete_method": (1, 1),
    "data_names": (0, 0),
    "method_names": (0, 0),
}

_META_ARITY: dict[str, tuple[int, int | None]] = {
    "getDataItem": (1, 1),
    "setDataItem": (2, 2),
    "addDataItem": (2, 3),
    "deleteDataItem": (1, 1),
    "getMethod": (1, 1),
    "setMethod": (2, 2),
    "addMethod": (2, 3),
    "deleteMethod": (1, 1),
    "invoke": (1, 2),
}

#: facade/meta operations that *read or write the value* of a data item
#: named by their first (literal) argument
_DATA_NAME_OPS = frozenset({"get", "set", "delete_data", "getDataItem",
                            "deleteDataItem", "setDataItem"})
#: operations that structurally remove an item — illegal on fixed items
_DATA_DELETE_OPS = frozenset({"delete_data", "deleteDataItem"})
_METHOD_DELETE_OPS = frozenset({"delete_method", "deleteMethod"})
#: operations that add an item — illegal when colliding with a fixed item
_DATA_ADD_OPS = frozenset({"add_data", "addDataItem"})
_METHOD_ADD_OPS = frozenset({"add_method", "addMethod"})


def lint_source(
    source: str,
    path: str = "<mpl>",
    allow_unknown_toplevel: bool = False,
) -> list[Diagnostic]:
    """Lint MPL source text; a parse failure is itself a diagnostic.

    *allow_unknown_toplevel* treats unknown top-level names as bindings
    the host will seed (``Interpreter.run(source, bindings=...)``) — the
    right mode for program fragments embedded in host applications.
    """
    try:
        program = parse(source)
    except MPLSyntaxError as exc:
        return [
            Diagnostic(
                rule="mpl.syntax",
                severity=Severity.ERROR,
                message=str(exc),
                source=path,
                line=exc.line,
                column=exc.column,
            )
        ]
    return lint_program(
        program, path=path, allow_unknown_toplevel=allow_unknown_toplevel
    )


def lint_program(
    program: ast.Program,
    path: str = "<mpl>",
    allow_unknown_toplevel: bool = False,
) -> list[Diagnostic]:
    """Lint a parsed program; returns diagnostics in source order."""
    linter = _Linter(path, allow_unknown_toplevel)
    linter.run(program)
    return linter.diagnostics


class _ObjectContext:
    """Everything the method passes need to know about one object."""

    def __init__(self, decl: ast.ObjectDecl):
        self.decl = decl
        self.data = {d.name: d for d in decl.data}
        self.methods = {m.name: m for m in decl.methods}
        self.fixed_data = {d.name for d in decl.data if d.fixed}
        self.fixed_methods = {m.name for m in decl.methods if m.fixed}
        # items added at run time via add_data/add_method with literal
        # names anywhere in the object count as declared for lookups —
        # the add-then-get idiom must not trip undeclared-item
        self.dynamic_data: set[str] = set()
        self.dynamic_methods: set[str] = set()

    def collect_dynamic_names(self) -> None:
        for method in self.decl.methods:
            for node in _walk_method(method):
                if not (
                    isinstance(node, ast.MethodCall)
                    and isinstance(node.target, ast.SelfRef)
                    and node.args
                    and isinstance(node.args[0], ast.Literal)
                    and isinstance(node.args[0].value, str)
                ):
                    continue
                name = node.args[0].value
                if node.name in _DATA_ADD_OPS:
                    self.dynamic_data.add(name)
                elif node.name in _METHOD_ADD_OPS:
                    self.dynamic_methods.add(name)


def _walk_method(method: ast.MethodDecl):
    """Yield every AST node in a method's body and clauses."""
    stack: list = list(method.body)
    if method.requires is not None:
        stack.append(method.requires)
    if method.ensures is not None:
        stack.append(method.ensures)
    while stack:
        node = stack.pop()
        yield node
        stack.extend(ast.children(node))


class _Linter:
    def __init__(self, path: str, allow_unknown_toplevel: bool):
        self.path = path
        self.allow_unknown_toplevel = allow_unknown_toplevel
        self.diagnostics: list[Diagnostic] = []

    # -- reporting ---------------------------------------------------------

    def report(
        self,
        rule: str,
        node,
        message: str,
        severity: Severity = Severity.ERROR,
        hint: str = "",
    ) -> None:
        line, column = span_of(node)
        self.diagnostics.append(
            Diagnostic(
                rule=rule,
                severity=severity,
                message=message,
                source=self.path,
                line=line,
                column=column,
                hint=hint,
            )
        )

    # -- program -----------------------------------------------------------

    def run(self, program: ast.Program) -> None:
        contexts = {}
        for decl in program.objects:
            contexts[decl.name] = self.lint_object(decl)
        self.lint_toplevel(program, contexts)

    # -- object declarations -------------------------------------------------

    def lint_object(self, decl: ast.ObjectDecl) -> _ObjectContext:
        context = _ObjectContext(decl)
        context.collect_dynamic_names()
        seen: dict[tuple[str, str], object] = {}
        for member in list(decl.data) + list(decl.methods):
            category = "data" if isinstance(member, ast.DataDecl) else "method"
            key = (category, member.name)
            if key in seen:
                self.report(
                    "mpl.duplicate-member",
                    member,
                    f"object {decl.name!r} declares {category} item "
                    f"{member.name!r} twice",
                )
            seen[key] = member
            if member.name in META_METHOD_NAMES:
                self.report(
                    "mpl.meta-collision",
                    member,
                    f"member {member.name!r} collides with a bundled "
                    "meta-method; the object cannot be built",
                    hint="rename the member",
                )
        for data_decl in decl.data:
            if data_decl.initial is not None:
                self.lint_initializer(data_decl.initial)
        for method in decl.methods:
            self.lint_method(method, context)
        return context

    def lint_initializer(self, expr) -> None:
        """Data initializers run in a fresh evaluator: literals/builtins only."""
        for node in _iter_expr(expr):
            if isinstance(node, ast.Name) and node.ident not in BUILTINS:
                self.report(
                    "mpl.undefined-name",
                    node,
                    f"name {node.ident!r} is not available in a data "
                    "initializer (only literals and builtins are)",
                )
            elif isinstance(node, ast.SelfRef):
                self.report(
                    "mpl.invalid-construct",
                    node,
                    "'self' cannot appear in a data initializer",
                )
            elif isinstance(node, ast.NewObject):
                self.report(
                    "mpl.invalid-construct",
                    node,
                    "'new' cannot appear in a data initializer",
                )

    # -- methods -------------------------------------------------------------

    def lint_method(self, method: ast.MethodDecl, context: _ObjectContext) -> None:
        seen_params: set[str] = set()
        for param in method.params:
            if param in seen_params:
                self.report(
                    "mpl.duplicate-member",
                    method,
                    f"method {method.name!r} declares parameter "
                    f"{param!r} twice",
                )
            seen_params.add(param)
            if param in _RESERVED:
                self.report(
                    "mpl.reserved-name",
                    method,
                    f"parameter name {param!r} is reserved by the runtime",
                )
        scope = _MethodScope(method, context)
        self.lint_block(method.body, scope)
        for name, node in scope.unread_bindings():
            if not name.startswith("_"):
                self.report(
                    "mpl.unused-binding",
                    node,
                    f"binding {name!r} is never read",
                    severity=Severity.WARNING,
                    hint="remove it, or prefix with '_' if intentional",
                )
        if method.requires is not None:
            self.lint_clause(method.requires, scope, with_result=False)
        if method.ensures is not None:
            self.lint_clause(method.ensures, scope, with_result=True)

    def lint_clause(self, expr, scope: "_MethodScope", with_result: bool) -> None:
        clause_scope = scope.clause_view(with_result)
        self.lint_expr(expr, clause_scope)

    def lint_block(self, body, scope: "_MethodScope") -> bool:
        """Lint statements in order; True when the block always returns."""
        returned = False
        for statement in body:
            if returned:
                self.report(
                    "mpl.unreachable-code",
                    statement,
                    "statement is unreachable (every prior path returned)",
                    severity=Severity.WARNING,
                )
                returned = False  # flag once per block, keep analysing
            if self.lint_stmt(statement, scope):
                returned = True
        return returned

    def lint_stmt(self, node, scope: "_MethodScope") -> bool:
        """Lint one statement; True when it always returns."""
        if isinstance(node, ast.Let):
            self.lint_expr(node.value, scope)
            self.declare_local(node, scope)
            return False
        if isinstance(node, ast.Assign):
            self.lint_expr(node.value, scope)
            self.lint_assign_target(node, scope)
            return False
        if isinstance(node, ast.IndexAssign):
            self.lint_expr(node.target, scope)
            self.lint_expr(node.index, scope)
            self.lint_expr(node.value, scope)
            return False
        if isinstance(node, ast.Return):
            if node.value is not None:
                self.lint_expr(node.value, scope)
            return True
        if isinstance(node, ast.If):
            self.lint_expr(node.condition, scope)
            then_returns = self.lint_block(node.then_body, scope)
            else_returns = (
                self.lint_block(node.else_body, scope)
                if node.else_body
                else False
            )
            return then_returns and else_returns
        if isinstance(node, ast.While):
            self.lint_expr(node.condition, scope)
            self.lint_block(node.body, scope)
            return False
        if isinstance(node, ast.ForEach):
            self.lint_expr(node.iterable, scope)
            self.declare_local(node, scope)
            self.lint_block(node.body, scope)
            return False
        if isinstance(node, ast.Print):
            self.lint_expr(node.value, scope)
            return False
        if isinstance(node, ast.ExprStmt):
            self.lint_expr(node.value, scope)
            return False
        return False

    def declare_local(self, node, scope: "_MethodScope") -> None:
        name = node.name
        if name in _RESERVED:
            self.report(
                "mpl.reserved-name",
                node,
                f"local name {name!r} is reserved by the runtime",
            )
            return
        if name in scope.params or name in scope.context.data:
            self.report(
                "mpl.shadowed-name",
                node,
                f"'let {name}' shadows a parameter or data item",
                hint="pick a different local name",
            )
            return
        if name in _FORBIDDEN_NAMES or name.startswith("__"):
            self.report(
                "mpl.nonportable-name",
                node,
                f"local name {name!r} compiles, but the destination "
                "sandbox verifier rejects it on arrival",
                hint="rename the local",
            )
        scope.declare(name, node)

    def lint_assign_target(self, node: ast.Assign, scope: "_MethodScope") -> None:
        name = node.name
        if name in scope.context.data:
            return  # a value write — legal even for fixed items
        if name in scope.params:
            self.report(
                "mpl.assign-to-parameter",
                node,
                f"cannot assign to parameter {name!r}",
                hint="copy it into a local with 'let' first",
            )
            return
        if name in scope.defined:
            return
        if name in scope.all_lets:
            self.report(
                "mpl.use-before-let",
                node,
                f"{name!r} is assigned before its 'let' runs",
            )
            return
        self.report(
            "mpl.undefined-name",
            node,
            f"assignment to undeclared name {name!r}",
            hint="declare it with 'let'",
        )

    # -- expressions -----------------------------------------------------------

    def lint_expr(self, node, scope: "_MethodScope") -> None:
        if isinstance(node, ast.Literal):
            return
        if isinstance(node, ast.Name):
            self.resolve_name(node, scope)
            return
        if isinstance(node, ast.SelfRef):
            self.report(
                "mpl.invalid-construct",
                node,
                "'self' can only be used as a call target",
            )
            return
        if isinstance(node, ast.ListExpr):
            for element in node.elements:
                self.lint_expr(element, scope)
            return
        if isinstance(node, ast.MapExpr):
            for key, value in node.pairs:
                self.lint_expr(key, scope)
                self.lint_expr(value, scope)
            return
        if isinstance(node, ast.Unary):
            self.lint_expr(node.operand, scope)
            return
        if isinstance(node, ast.Binary):
            self.lint_expr(node.left, scope)
            self.lint_expr(node.right, scope)
            return
        if isinstance(node, ast.Index):
            self.lint_expr(node.target, scope)
            self.lint_expr(node.index, scope)
            return
        if isinstance(node, ast.MethodCall):
            self.lint_method_call(node, scope)
            return
        if isinstance(node, ast.FuncCall):
            self.lint_func_call(node, scope)
            return
        if isinstance(node, ast.NewObject):
            self.report(
                "mpl.invalid-construct",
                node,
                "'new' is only available in top-level script code",
            )
            return

    def resolve_name(self, node: ast.Name, scope: "_MethodScope") -> None:
        name = node.ident
        if name in scope.params:
            return
        if name in scope.defined:
            scope.mark_read(name)
            return
        if name in scope.context.data:
            return
        if name == "result":
            if scope.allow_result:
                return
            self.report(
                "mpl.undefined-name",
                node,
                "'result' is only available in an 'ensures' clause",
            )
            return
        if name in BUILTINS:
            return
        if name in scope.all_lets:
            self.report(
                "mpl.use-before-let",
                node,
                f"{name!r} is read before its 'let' runs",
            )
            scope.mark_read(name)
            return
        self.report(
            "mpl.undefined-name",
            node,
            f"unknown name {name!r} in method body",
        )

    def lint_func_call(self, node: ast.FuncCall, scope: "_MethodScope") -> None:
        for argument in node.args:
            self.lint_expr(argument, scope)
        if isinstance(node.func, ast.Name) and node.func.ident in BUILTINS:
            return
        self.report(
            "mpl.invalid-construct",
            node,
            "only builtin functions can be called directly in methods",
            hint="use self.x(...) or target.x(...) for method invocation",
        )

    def lint_method_call(self, node: ast.MethodCall, scope: "_MethodScope") -> None:
        for argument in node.args:
            self.lint_expr(argument, scope)
        if not isinstance(node.target, ast.SelfRef):
            self.lint_expr(node.target, scope)
            return
        self.lint_self_call(node, scope.context)

    # -- self.<op>(...) analysis ------------------------------------------------

    def lint_self_call(self, node: ast.MethodCall, context: _ObjectContext) -> None:
        name = node.name
        if name in SELFVIEW_API:
            self.check_arity(node, _FACADE_ARITY[name], f"self.{name}")
            self.check_item_reference(node, context)
            return
        if name in context.methods:
            declared = len(context.methods[name].params)
            self.check_arity(node, (declared, declared), f"self.{name}")
            return
        if name in _META_ARITY:
            self.check_arity(node, _META_ARITY[name], f"self.{name}")
            self.check_item_reference(node, context)
            return
        if name in context.dynamic_methods:
            return
        self.report(
            "mpl.unknown-method",
            node,
            f"object {context.decl.name!r} has no method {name!r}",
            hint="declare it, or add it at run time before calling",
        )

    def check_arity(
        self, node: ast.MethodCall, bounds: tuple[int, int | None], label: str
    ) -> None:
        low, high = bounds
        count = len(node.args)
        if node.name == "call" and node.args:
            # self.call("m", ...) — re-dispatch the check onto method "m"
            return
        if count < low or (high is not None and count > high):
            wanted = (
                str(low) if high == low
                else f"{low}..{'*' if high is None else high}"
            )
            self.report(
                "mpl.arity-mismatch",
                node,
                f"{label} expects {wanted} argument(s), got {count}",
            )

    def check_item_reference(
        self, node: ast.MethodCall, context: _ObjectContext
    ) -> None:
        """Literal first arguments name items — resolve them statically."""
        if not (
            node.args
            and isinstance(node.args[0], ast.Literal)
            and isinstance(node.args[0].value, str)
        ):
            return
        name = node.args[0].value
        op = node.name
        if op == "call":
            self._lint_indirect_call(node, name, context)
            return
        if op in _DATA_NAME_OPS:
            if name not in context.data and name not in context.dynamic_data:
                self.report(
                    "mpl.undeclared-item",
                    node,
                    f"object {context.decl.name!r} declares no data item "
                    f"{name!r}",
                )
            elif op in _DATA_DELETE_OPS and name in context.fixed_data:
                self.report(
                    "mpl.fixed-item-write",
                    node,
                    f"data item {name!r} is in the fixed section; it "
                    "cannot be deleted",
                )
        elif op in _DATA_ADD_OPS and name in context.fixed_data:
            self.report(
                "mpl.fixed-item-write",
                node,
                f"cannot add data item {name!r}: a fixed item with that "
                "name exists",
            )
        elif op in _METHOD_DELETE_OPS:
            if name in context.fixed_methods:
                self.report(
                    "mpl.fixed-item-write",
                    node,
                    f"method {name!r} is in the fixed section; it cannot "
                    "be deleted",
                )
        elif op in _METHOD_ADD_OPS and name in context.fixed_methods:
            self.report(
                "mpl.fixed-item-write",
                node,
                f"cannot add method {name!r}: a fixed method with that "
                "name exists",
            )

    def _lint_indirect_call(
        self, node: ast.MethodCall, target_name: str, context: _ObjectContext
    ) -> None:
        """self.call("m", args...) — the literal target resolves like self.m."""
        if target_name in context.methods:
            declared = len(context.methods[target_name].params)
            count = len(node.args) - 1
            if count != declared:
                self.report(
                    "mpl.arity-mismatch",
                    node,
                    f"self.call({target_name!r}, ...) passes {count} "
                    f"argument(s); method expects {declared}",
                )
            return
        if (
            target_name in _META_ARITY
            or target_name in context.dynamic_methods
        ):
            return
        self.report(
            "mpl.unknown-method",
            node,
            f"object {context.decl.name!r} has no method {target_name!r}",
        )

    # -- top-level script code ----------------------------------------------

    def lint_toplevel(self, program: ast.Program, contexts: dict) -> None:
        scope = _ToplevelScope(program, self.allow_unknown_toplevel)
        for statement in program.statements:
            self.lint_toplevel_stmt(statement, scope, contexts)

    def lint_toplevel_stmt(self, node, scope, contexts) -> None:
        if isinstance(node, ast.Let):
            self.lint_toplevel_expr(node.value, scope, contexts)
            scope.define(node.name)
            if (
                isinstance(node.value, ast.NewObject)
                and node.value.decl_name in contexts
            ):
                scope.types[node.name] = contexts[node.value.decl_name]
            return
        if isinstance(node, ast.Assign):
            self.lint_toplevel_expr(node.value, scope, contexts)
            scope.types.pop(node.name, None)
            if not scope.is_defined(node.name):
                if node.name in scope.all_lets:
                    self.report(
                        "mpl.use-before-let",
                        node,
                        f"{node.name!r} is assigned before its 'let' runs",
                    )
                else:
                    self.report(
                        "mpl.undefined-name",
                        node,
                        f"assignment to undeclared variable {node.name!r}",
                        hint="declare it with 'let'",
                    )
                scope.define(node.name)  # report once
            return
        if isinstance(node, ast.IndexAssign):
            for child in (node.target, node.index, node.value):
                self.lint_toplevel_expr(child, scope, contexts)
            return
        if isinstance(node, ast.Return):
            self.report(
                "mpl.toplevel-misuse", node, "'return' outside a method body"
            )
            return
        if isinstance(node, (ast.Print, ast.ExprStmt)):
            self.lint_toplevel_expr(node.value, scope, contexts)
            return
        if isinstance(node, ast.If):
            self.lint_toplevel_expr(node.condition, scope, contexts)
            for statement in list(node.then_body) + list(node.else_body):
                self.lint_toplevel_stmt(statement, scope, contexts)
            return
        if isinstance(node, ast.While):
            self.lint_toplevel_expr(node.condition, scope, contexts)
            for statement in node.body:
                self.lint_toplevel_stmt(statement, scope, contexts)
            return
        if isinstance(node, ast.ForEach):
            self.lint_toplevel_expr(node.iterable, scope, contexts)
            scope.define(node.name)
            for statement in node.body:
                self.lint_toplevel_stmt(statement, scope, contexts)
            return

    def lint_toplevel_expr(self, node, scope, contexts) -> None:
        if isinstance(node, ast.Name):
            if scope.is_defined(node.ident):
                return
            if node.ident in BUILTINS:
                return
            if scope.assume_bindings:
                scope.define(node.ident)  # a host-seeded binding
                return
            if node.ident in scope.all_lets:
                self.report(
                    "mpl.use-before-let",
                    node,
                    f"{node.ident!r} is read before its 'let' runs",
                )
            else:
                self.report(
                    "mpl.undefined-name",
                    node,
                    f"unknown name {node.ident!r}",
                )
            scope.define(node.ident)  # report once per name
            return
        if isinstance(node, ast.SelfRef):
            self.report(
                "mpl.toplevel-misuse",
                node,
                "'self' is only meaningful inside methods",
            )
            return
        if isinstance(node, ast.NewObject):
            if node.decl_name not in contexts:
                self.report(
                    "mpl.unknown-object",
                    node,
                    f"no object declaration {node.decl_name!r}",
                )
            return
        if isinstance(node, ast.MethodCall):
            for argument in node.args:
                self.lint_toplevel_expr(argument, scope, contexts)
            self.lint_toplevel_expr(node.target, scope, contexts)
            # dataflow: 'let v = new X' pins v's declaration, so v.m(...)
            # resolves against X's members
            if isinstance(node.target, ast.Name):
                context = scope.types.get(node.target.ident)
                if context is not None:
                    self.lint_known_target_call(node, context)
            return
        for child in ast.children(node):
            self.lint_toplevel_expr(child, scope, contexts)

    def lint_known_target_call(
        self, node: ast.MethodCall, context: _ObjectContext
    ) -> None:
        name = node.name
        if name in context.methods:
            declared = len(context.methods[name].params)
            if len(node.args) != declared:
                self.report(
                    "mpl.arity-mismatch",
                    node,
                    f"{context.decl.name}.{name} expects {declared} "
                    f"argument(s), got {len(node.args)}",
                )
            return
        if name in _META_ARITY:
            self.check_arity(node, _META_ARITY[name], name)
            return
        if name in context.dynamic_methods:
            return
        self.report(
            "mpl.unknown-method",
            node,
            f"object {context.decl.name!r} has no method {name!r}",
        )


def _iter_expr(expr):
    stack = [expr]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(ast.children(node))


class _MethodScope:
    """Sequential definite-assignment state for one method body."""

    def __init__(self, method: ast.MethodDecl, context: _ObjectContext):
        self.method = method
        self.context = context
        self.params = set(method.params)
        self.defined: set[str] = set()
        self.read: set[str] = set()
        self.bindings: dict[str, object] = {}
        self.allow_result = False
        self.all_lets = {
            node.name
            for node in _walk_method(method)
            if isinstance(node, (ast.Let, ast.ForEach))
        }

    def declare(self, name: str, node) -> None:
        self.defined.add(name)
        self.bindings.setdefault(name, node)

    def mark_read(self, name: str) -> None:
        self.read.add(name)

    def unread_bindings(self):
        for name, node in self.bindings.items():
            if name not in self.read:
                yield name, node

    def clause_view(self, with_result: bool) -> "_MethodScope":
        view = _MethodScope.__new__(_MethodScope)
        view.method = self.method
        view.context = self.context
        view.params = self.params
        view.defined = set()  # clauses cannot see body locals
        view.read = set()
        view.bindings = {}
        view.allow_result = with_result
        view.all_lets = set()
        return view


class _ToplevelScope:
    def __init__(self, program: ast.Program, assume_bindings: bool):
        self.variables: set[str] = set()
        self.assume_bindings = assume_bindings
        self.types: dict[str, _ObjectContext] = {}
        self.all_lets: set[str] = set()
        stack = list(program.statements)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.Let, ast.ForEach)):
                self.all_lets.add(node.name)
            stack.extend(ast.children(node))

    def define(self, name: str) -> None:
        self.variables.add(name)

    def is_defined(self, name: str) -> bool:
        return name in self.variables
