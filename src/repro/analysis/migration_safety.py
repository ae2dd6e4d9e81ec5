"""Static migration-safety dataflow over host files (``migration.*``).

The durability journal (PR 6) records ``skipped_unportable`` whenever a
site image cannot pack an object — native method bodies, values with no
wire representation. That counter fires at PREPARE time, after the
operator already committed to the handoff. This pass finds the same
state *statically*, in the host file that builds the object, before any
transfer starts.

The dataflow is deliberately simple: track which variables are bound to
objects (``create_object``/``MROMObject`` constructions), which of those
flow into a migration sink (``manager.migrate``/``deploy_copy`` first
argument), and flag the definitions that would make the pack fail:

* ``migration.native-code`` — a method defined from anything but a
  string literal (a function object cannot cross the wire; the journal
  would strip it and the destination would refuse it);
* ``migration.unmarshalable-value`` — a data value with no marshal form
  (set literals and comprehensions, lambdas, generators, file handles —
  the shapes :mod:`repro.net.marshal` rejects);
* ``migration.external-ref`` — a data value obtained from ``ref_to`` or
  a ``remote_*`` verb: a by-reference stub that silently re-binds to the
  origin site after the move (the warning twin of the admission gate's
  ``adm.external-reference``).

Objects that never migrate are left alone — a native helper on a
stationary object is idiomatic, not a hazard.
"""

from __future__ import annotations

import ast as pyast

from .callgraph import MIGRATE_VERBS
from .diagnostics import Diagnostic, Severity

__all__ = ["MIGRATION_RULES", "analyze_host_source"]

MIGRATION_RULES = {
    "migration.native-code": (
        "a migrated object carries a method defined from a non-string "
        "body; native code has no wire representation and the journal "
        "marks the object skipped_unportable at PREPARE"
    ),
    "migration.unmarshalable-value": (
        "a migrated object carries a data value with no wire "
        "representation (set, lambda, generator, handle)"
    ),
    "migration.external-ref": (
        "a migrated object carries a by-reference stub that re-binds to "
        "the origin site after the move"
    ),
}

#: define/add verbs whose second positional argument is a method body
_METHOD_DEFS = frozenset(
    {"define_fixed_method", "define_method", "add_method"}
)
#: define/add verbs whose second positional argument is a data value
_DATA_DEFS = frozenset(
    {"define_fixed_data", "define_data", "add_data", "set_data", "set"}
)
_OBJECT_CTORS = frozenset({"MROMObject", "create_object"})
_UNMARSHALABLE_CALLS = frozenset(
    {"set", "frozenset", "open", "object", "iter", "memoryview"}
)
_REF_VERBS = frozenset({"ref_to"})


def _is_unmarshalable_literal(node) -> bool:
    if isinstance(node, (pyast.Set, pyast.SetComp, pyast.GeneratorExp,
                         pyast.Lambda)):
        return True
    if isinstance(node, pyast.Call):
        func = node.func
        name = func.id if isinstance(func, pyast.Name) else ""
        return name in _UNMARSHALABLE_CALLS
    return False


def _is_ref_producer(node) -> bool:
    if not isinstance(node, pyast.Call):
        return False
    func = node.func
    if not isinstance(func, pyast.Attribute):
        return False
    return func.attr in _REF_VERBS or func.attr.startswith("remote_")


def analyze_host_source(source: str, label: str = "<host>") -> list:
    """Migration-safety findings for one host python file."""
    try:
        tree = pyast.parse(source)
    except SyntaxError:
        return []

    object_vars: set = set()
    ref_vars: set = set()
    migrated: set = set()
    definitions: list = []  # (var, verb, call node) in program order

    for node in pyast.walk(tree):
        if isinstance(node, pyast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, pyast.Name):
                value = node.value
                if isinstance(value, pyast.Call):
                    func = value.func
                    ctor = (
                        func.id if isinstance(func, pyast.Name)
                        else func.attr if isinstance(func, pyast.Attribute)
                        else ""
                    )
                    if ctor in _OBJECT_CTORS:
                        object_vars.add(target.id)
                    elif _is_ref_producer(value):
                        ref_vars.add(target.id)
        elif isinstance(node, pyast.Call):
            func = node.func
            if not (
                isinstance(func, pyast.Attribute)
                and isinstance(func.value, pyast.Name)
            ):
                continue
            owner, verb = func.value.id, func.attr
            if verb in MIGRATE_VERBS and node.args:
                first = node.args[0]
                if isinstance(first, pyast.Name):
                    migrated.add(first.id)
            elif verb in _METHOD_DEFS or verb in _DATA_DEFS:
                definitions.append((owner, verb, node))

    if not migrated:
        return []

    out: list = []
    for owner, verb, call in sorted(
        definitions, key=lambda d: (d[2].lineno, d[2].col_offset)
    ):
        if owner not in object_vars or owner not in migrated:
            continue
        line, column = call.lineno, call.col_offset + 1
        if verb in _METHOD_DEFS:
            body = call.args[1] if len(call.args) >= 2 else None
            for kw in call.keywords:
                if kw.arg == "body":
                    body = kw.value
            bodies = [body] if body is not None else []
            bodies += [
                kw.value for kw in call.keywords if kw.arg in ("pre", "post")
            ]
            for candidate in bodies:
                if not (
                    isinstance(candidate, pyast.Constant)
                    and isinstance(candidate.value, str)
                ):
                    out.append(Diagnostic(
                        rule="migration.native-code",
                        severity=Severity.ERROR,
                        message=(
                            f"object '{owner}' migrates but method defined "
                            f"here has a non-string body; native code "
                            f"cannot cross the wire and the journal will "
                            f"mark the object skipped_unportable"
                        ),
                        source=label,
                        line=line,
                        column=column,
                        hint="write the body in the portable dialect (a "
                             "string the compiler accepts) before migrating",
                        extra={"object": owner},
                    ))
                    break
        else:
            value = call.args[1] if len(call.args) >= 2 else None
            if value is None:
                continue
            if _is_unmarshalable_literal(value):
                out.append(Diagnostic(
                    rule="migration.unmarshalable-value",
                    severity=Severity.ERROR,
                    message=(
                        f"object '{owner}' migrates but this data value "
                        f"has no wire representation; PREPARE will fail "
                        f"to pack it"
                    ),
                    source=label,
                    line=line,
                    column=column,
                    hint="store a marshalable shape (list/dict/scalars) "
                         "and rebuild the runtime value on arrival",
                    extra={"object": owner},
                ))
            elif _is_ref_producer(value) or (
                isinstance(value, pyast.Name) and value.id in ref_vars
            ):
                out.append(Diagnostic(
                    rule="migration.external-ref",
                    severity=Severity.WARNING,
                    message=(
                        f"object '{owner}' migrates carrying a by-"
                        f"reference stub; after the move it re-binds to "
                        f"the origin site on every use"
                    ),
                    source=label,
                    line=line,
                    column=column,
                    hint="resolve the reference to a value before the "
                         "move, or re-acquire it at the destination",
                    extra={"object": owner},
                ))
    return out
