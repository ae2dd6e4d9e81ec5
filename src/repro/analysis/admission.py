"""Migration admission analysis: should this object be let in (or out)?

The second front end of the static-analysis subsystem. Where
:mod:`repro.analysis.mpl_lint` judges MPL programs, this module judges
*objects about to cross a site boundary*, with one analysis over a live
:class:`MROMObject` (:func:`analyze_object`). On the sending side that
is the object itself. On the receiving side it is the object
:func:`~repro.mobility.package.unpack` builds from the arriving package
(:func:`analyze_package`): the Ambassador "arrives as data" and the
importing site unpacks it (Section 5), so the rebuilt object is what
would be installed. ``unpack`` runs no guest code (it type-checks every
field it keeps, and portable code compiles lazily), so nothing is
installed or imported before the verdict. A package ``unpack`` refuses
becomes one finding, chosen by the refusal's type.

Checks (rule ids in :data:`ADMISSION_RULES`):

* **self-containment** — native code anywhere (method components or the
  meta-invoke tower), data values with no wire representation, values
  sent by identity (a :class:`~repro.net.marshal.Reference`, a
  :class:`~repro.net.rmi.RemoteRef` or any object with a ``guid``);
* **code integrity** — every portable component is verified and
  compiled *now*, instead of lazily at first invocation (the sandbox's
  own ``sandbox.*`` diagnostics are folded into the report; a body the
  sandbox verified before costs a lookup, and the object keeps the
  compiled code);
* **ACL coverage** — items that arrive unusable (no entries, default
  deny) and meta-surfaces open to anonymous callers;
* **package integrity** — a package ``unpack`` refuses, among them a
  meta-invoke tower on a package whose meta section is fixed.

:func:`admission_policy` adapts the analysis to the
``AdmissionPolicy`` callable that
:class:`~repro.mobility.transfer.MobilityManager` runs at PREPARE: it
returns the audited object for installation, and a failed analysis
raises :class:`AdmissionRefusal`, whose ``diagnostics`` carry the
structured findings back to the sender inside the refusal.
"""

from __future__ import annotations

from typing import Mapping

from ..core.acl import ANONYMOUS, AccessControlList, Permission
from ..core.errors import (
    FixedSectionError,
    MarshalError,
    MROMError,
    NotPortableError,
    PolicyViolationError,
)
from ..net.marshal import Reference, Resolve, marshal
from .diagnostics import Diagnostic, Severity, fails

__all__ = [
    "ADMISSION_RULES",
    "AdmissionRefusal",
    "admit",
    "analyze_object",
    "analyze_package",
    "admission_policy",
]

#: Every admission rule id and what it means. Severity in parentheses.
ADMISSION_RULES: dict[str, str] = {
    "adm.bad-package": "unpack refused the package as structurally unusable (error)",
    "adm.native-code": "a method component is native code and cannot travel (error)",
    "adm.malformed-code": "a portable component failed the sandbox audit or does not compile (error)",
    "adm.unmarshalable-value": "a data value has no wire representation (error)",
    "adm.external-reference": "a data value holds a value sent by identity, not by copy (warning)",
    "adm.unreachable-item": "an item whose ACL admits nobody after migration (warning)",
    "adm.open-meta": "a meta-surface invocable by anonymous callers (warning)",
    "adm.tower-breach": "a package carries a meta-invoke tower but declares its meta section fixed (error)",
    # concurrency rules (opt-in: `concurrency=True`, which the admission
    # gate passes): re-tagged race.*/cycle.* findings from the
    # interprocedural layer, run over the arriving code itself
    "adm.race.lost-update": "a method read-modify-writes an item; concurrent invocations can lose updates (warning)",
    "adm.race.write-write": "two methods write one item with no mutual ordering (warning)",
    "adm.race.read-write": "a method reads an item another method writes concurrently (warning)",
    "adm.race.unsynced-structural": "a method mutates object structure racing cached dispatch pins (warning)",
    "adm.cycle.recursion": "a method's self-call chain reaches itself; every invocation recurses (warning)",
}

class AdmissionRefusal(PolicyViolationError):
    """A structured veto: the admission analysis found blocking findings.

    Raised out of the :func:`admission_policy` callable during PREPARE
    handling; the mobility layer reports it back to the sender, so
    ``diagnostics`` is the machine-readable reason the object bounced.
    """

    def __init__(self, diagnostics: list[Diagnostic], subject: str = ""):
        self.diagnostics = list(diagnostics)
        blocking = [d for d in self.diagnostics if d.severity >= Severity.ERROR]
        shown = blocking or self.diagnostics
        rules = ", ".join(sorted({d.rule for d in shown}))
        label = subject or "object"
        super().__init__(
            f"admission analysis refused {label}: {len(shown)} finding(s) [{rules}]"
        )
        self.subject = subject

    def report(self) -> list[dict]:
        """The findings as marshal-friendly mappings (for wire replies)."""
        return [d.to_mapping() for d in self.diagnostics]


# ---------------------------------------------------------------------------
# shared checks
# ---------------------------------------------------------------------------


def _finding(
    rule: str,
    severity: Severity,
    message: str,
    source: str,
    hint: str = "",
    **extra,
) -> Diagnostic:
    return Diagnostic(
        rule=rule,
        severity=severity,
        message=message,
        source=source,
        hint=hint,
        extra=dict(extra) if extra else {},
    )


def _audit_portable(carrier, label: str) -> list[Diagnostic]:
    """Verify and compile one portable component now, as its first
    invocation would: the sandbox keeps each body it verified, so a
    body it has seen costs a lookup, and the object keeps the compiled
    code. A refusal is reported with every sandbox finding in it."""
    from ..mobility.sandbox import audit_function_body

    try:
        carrier.compile_now()
        return []
    except (MROMError, ValueError) as exc:  # a sandbox refusal, or
        refusal = exc  # source that does not compile
    role = carrier.role
    sandbox_findings = audit_function_body(
        carrier.source, role.parameters, source_name=label
    )
    what = (
        f"failed the sandbox audit ({len(sandbox_findings)} violation(s))"
        if sandbox_findings
        else f"does not compile ({type(refusal).__name__}: {refusal})"
    )
    header = _finding(
        "adm.malformed-code",
        Severity.ERROR,
        f"portable {role.value} code {what}",
        label,
        hint="the destination would refuse to compile this component",
    )
    return [header, *sandbox_findings]


def _scan_references(value, path: str) -> list[str]:
    """Paths inside *value* that ``marshal`` sends by identity: a
    :class:`Reference`, or anything else with a ``guid`` (a live object,
    a remote proxy)."""
    hits: list[str] = []
    stack: list[tuple[object, str]] = [(value, path)]
    while stack:
        current, where = stack.pop()
        if isinstance(current, Mapping):
            for key, nested in current.items():
                stack.append((nested, f"{where}[{key!r}]"))
        elif isinstance(current, (list, tuple, set, frozenset)):
            for position, nested in enumerate(current):
                stack.append((nested, f"{where}[{position}]"))
        elif isinstance(current, Reference) or hasattr(current, "guid"):
            hits.append(where)
    return hits


def _check_value(name: str, value, label: str) -> list[Diagnostic]:
    findings: list[Diagnostic] = []
    for where in _scan_references(value, name):
        findings.append(
            _finding(
                "adm.external-reference",
                Severity.WARNING,
                f"data item {where} holds a value sent by identity, not "
                "by copy; the object is not self-contained",
                label,
                hint="resolve or drop the reference before migrating",
            )
        )
    try:
        marshal(value)
    except (MarshalError, RecursionError) as exc:
        findings.append(
            _finding(
                "adm.unmarshalable-value",
                Severity.ERROR,
                f"data item {name!r} cannot be marshalled: {exc}",
                label,
            )
        )
    return findings


def _check_acl_coverage(
    item_name: str, acl: AccessControlList, label: str
) -> list[Diagnostic]:
    if len(acl) == 0 and not acl.default_allow:
        return [
            _finding(
                "adm.unreachable-item",
                Severity.WARNING,
                f"item {item_name!r} has an empty default-deny ACL; after "
                "migration only the runtime itself can use it",
                label,
                hint="grant the owner or a domain before shipping",
            )
        ]
    return []


def _check_meta_openness(
    surface: str, acl: AccessControlList, label: str
) -> list[Diagnostic]:
    open_permissions = [
        permission.name
        for permission in (Permission.META, Permission.SET)
        if acl.permits(ANONYMOUS, permission)
    ]
    if not open_permissions:
        return []
    return [
        _finding(
            "adm.open-meta",
            Severity.WARNING,
            f"{surface} grants {'/'.join(open_permissions)} to anonymous "
            "callers; any host can rewrite the object",
            label,
            hint="restrict the meta ACL to the owner or a trust domain",
        )
    ]


# ---------------------------------------------------------------------------
# live-object analysis (sender side)
# ---------------------------------------------------------------------------


def analyze_object(obj, concurrency: bool = False) -> list[Diagnostic]:
    """Audit a live :class:`~repro.core.mobject.MROMObject`.

    On the sending side this is the pre-flight: everything found here
    would bounce (or warrant a warning) at a destination running the
    admission gate, so a migrating application can lint itself *before*
    paying for the round trip. On the receiving side it runs over the
    object :func:`analyze_package` unpacked.

    Only the bundled meta-methods are skipped (their ACLs are checked
    for openness). A method whose metadata merely says ``meta`` is
    audited like any other, so an arriving package cannot hide one.

    With *concurrency* (what the admission gate passes), the
    interprocedural race/recursion rules also run over the object's
    portable methods, reported under the ``adm.race.*``/``adm.cycle.*``
    ids; they stay opt-in because a read-modify-write counter is a
    perfectly admissible object — the findings are advice unless the
    gate is strict.
    """
    from ..core.items import DataItem, MROMMethod
    from ..core.mobject import is_bundled_meta

    label = f"object:{obj.guid}"
    findings: list[Diagnostic] = []
    findings.extend(_check_meta_openness("the meta ACL", obj._meta_acl, label))
    for item, category, section in obj.containers.iter_with_sections():
        if isinstance(item, MROMMethod) and is_bundled_meta(item):
            if item.name != "invoke":  # invoke is the public entry point
                findings.extend(
                    _check_meta_openness(
                        f"meta-method {item.name!r}", item.acl, label
                    )
                )
            continue
        findings.extend(_check_acl_coverage(item.name, item.acl, label))
        if isinstance(item, DataItem):
            findings.extend(_check_value(item.name, item.peek(), label))
        elif isinstance(item, MROMMethod):
            findings.extend(_analyze_live_method(item, item.name, label))
    for level, method in enumerate(obj.meta_invoke_chain(), start=1):
        findings.extend(
            _analyze_live_method(method, f"invoke@level{level}", label)
        )
    if concurrency:
        from .races import effects_of_live_object

        findings.extend(
            _concurrency_findings(
                effects_of_live_object(obj),
                label,
                obj.principal.display_name or str(obj.guid),
            )
        )
    return findings


def _concurrency_findings(effects, label: str, subject: str) -> list[Diagnostic]:
    """Race/recursion findings over *effects*, re-tagged ``adm.*``.

    The same engines the ``repro analyze`` CLI runs — one ground truth,
    two reporting surfaces — with the rule ids prefixed so the refusal
    report says which gate said no.
    """
    import dataclasses

    from .deadlock import recursion_findings
    from .races import conflicts

    raw = conflicts(effects, label, subject)
    raw += recursion_findings(effects, label, subject)
    return [dataclasses.replace(d, rule=f"adm.{d.rule}") for d in raw]


def _analyze_live_method(method, name: str, label: str) -> list[Diagnostic]:
    findings: list[Diagnostic] = []
    for role, carrier in (
        ("body", method.body),
        ("pre", method.pre),
        ("post", method.post),
    ):
        if carrier is None:
            continue
        where = f"{label}:{name}.{role}"
        if not carrier.portable:
            findings.append(
                _finding(
                    "adm.native-code",
                    Severity.ERROR,
                    f"method {name!r} carries a native {role} component; "
                    "the object cannot leave this runtime",
                    where,
                    hint="rewrite the component as portable source",
                )
            )
            continue
        findings.extend(_audit_portable(carrier, where))
    return findings


# ---------------------------------------------------------------------------
# package analysis (receiver side) and the admission gate
# ---------------------------------------------------------------------------

#: the finding an ``unpack`` refusal of this exact type gives; any other
#: MROMError is ``adm.bad-package``
_REFUSAL_RULES = {
    NotPortableError: "adm.native-code",
    FixedSectionError: "adm.tower-breach",
}


def _audit(package, concurrency: bool, resolve: Resolve | None):
    """``(object, findings)`` for *package*: the object ``unpack`` builds
    and :func:`analyze_object`'s findings about it, or ``None`` and the
    one finding its refusal gives."""
    from ..mobility.package import unpack

    try:
        obj = unpack(package, resolve)
    except MROMError as exc:
        guid = _package_guid(package)
        rule = _REFUSAL_RULES.get(type(exc), "adm.bad-package")
        return None, [
            _finding(
                rule,
                Severity.ERROR,
                f"unpack refused the package: {exc}",
                f"package:{guid}" if guid else "package",
            )
        ]
    return obj, analyze_object(obj, concurrency=concurrency)


def _package_guid(package) -> str:
    guid = package.get("guid") if isinstance(package, Mapping) else None
    return guid if isinstance(guid, str) else ""


def analyze_package(
    package: Mapping, concurrency: bool = False
) -> list[Diagnostic]:
    """Audit a transfer package as the object ``unpack`` builds from it.

    A package ``unpack`` refuses gives one error: ``adm.native-code``
    for a native-code stub, ``adm.tower-breach`` for a tower on a fixed
    meta section, ``adm.bad-package`` for anything else. Otherwise the
    findings are :func:`analyze_object`'s, under ``object:<guid>``.
    Wire references stay inert :class:`Reference` values here.
    """
    return _audit(package, concurrency, None)[1]


def admit(
    package: Mapping,
    src: str = "",
    strict: bool = False,
    concurrency: bool = True,
    resolve: Resolve | None = None,
):
    """Unpack *package* once, audit the object, and return it if it passes.

    A failing report raises :class:`AdmissionRefusal`; the object is
    then dropped, never installed. With *resolve* (the receiving site's
    ``resolve_reference``), wire references resolve as the object is
    rebuilt, so the audited object is the one a site installs.
    """
    obj, findings = _audit(package, concurrency, resolve)
    if obj is None or fails(findings, strict=strict):
        guid = _package_guid(package)
        raise AdmissionRefusal(findings, subject=f"{guid or 'object'} from {src!r}")
    return obj


def admission_policy(strict: bool = False, concurrency: bool = True):
    """An ``AdmissionPolicy`` callable running :func:`admit`.

    Plug into :class:`~repro.mobility.transfer.MobilityManager` as
    ``MobilityManager(site, policy=admission_policy(...))``: at PREPARE
    the manager passes its site's resolver, the package is unpacked once
    and the object audited, and a failing report raises
    :class:`AdmissionRefusal` — the migration bounces with the findings
    attached, and nothing was installed or imported. Otherwise the
    callable returns the audited object, which is the one installed.
    With *strict*, warnings (open meta surfaces, unreachable items,
    external references, and the ``adm.race.*``/``adm.cycle.*``
    concurrency findings the gate checks by default) also refuse
    admission.
    """

    def policy(package: Mapping, src: str, resolve: Resolve | None = None):
        return admit(
            package, src, strict=strict, concurrency=concurrency, resolve=resolve
        )

    return policy
