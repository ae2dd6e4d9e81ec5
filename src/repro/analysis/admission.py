"""Migration admission analysis: should this object be let in (or out)?

The second front end of the static-analysis subsystem. Where
:mod:`repro.analysis.mpl_lint` judges MPL programs, this module judges
*objects about to cross a site boundary* — live :class:`MROMObject`
instances on the sending side (:func:`analyze_object`) and raw transfer
packages on the receiving side (:func:`analyze_package`), before
``unpack`` rebuilds anything.

Checks (rule ids in :data:`ADMISSION_RULES`):

* **self-containment** — native code anywhere (method components or the
  meta-invoke tower), data values with no wire representation, values
  holding :class:`~repro.net.marshal.Reference` stubs that point back at
  the origin site;
* **code integrity** — every portable component is put through the
  sandbox verifier *now*, instead of lazily at first invocation (the
  sandbox's own ``sandbox.*`` diagnostics are folded into the report);
* **ACL coverage** — items that arrive unusable (no entries, default
  deny) and meta-surfaces open to anonymous callers;
* **tower integrity** — a meta-invoke tower on an object whose meta
  section is not extensible, and tower levels that are not META-role
  portable code.

:func:`admission_policy` adapts the analysis to the
``AdmissionPolicy`` callable that
:class:`~repro.mobility.transfer.MobilityManager` runs at PREPARE: a
failed analysis raises :class:`AdmissionRefusal`, whose ``diagnostics``
carry the structured findings back to the sender inside the refusal.
"""

from __future__ import annotations

from typing import Mapping

from ..core.acl import ANONYMOUS, AccessControlList, Permission
from ..core.code import CodeRole
from ..core.errors import MarshalError, PolicyViolationError
from ..net.marshal import Reference, marshal
from .diagnostics import Diagnostic, Severity, fails

__all__ = [
    "ADMISSION_RULES",
    "AdmissionRefusal",
    "analyze_object",
    "analyze_package",
    "admission_policy",
]

#: Every admission rule id and what it means. Severity in parentheses.
ADMISSION_RULES: dict[str, str] = {
    "adm.bad-package": "the package is structurally unusable (error)",
    "adm.native-code": "a method component is native code and cannot travel (error)",
    "adm.malformed-code": "a portable component failed the sandbox audit (error)",
    "adm.unmarshalable-value": "a data value has no wire representation (error)",
    "adm.external-reference": "a data value holds a by-reference stub to another site (warning)",
    "adm.unreachable-item": "an item whose ACL admits nobody after migration (warning)",
    "adm.open-meta": "a meta-surface invocable by anonymous callers (warning)",
    "adm.tower-breach": "a meta-invoke tower without an extensible meta section (error)",
    # concurrency rules (opt-in: `concurrency=True`, which the admission
    # gate passes): re-tagged race.*/cycle.* findings from the
    # interprocedural layer, run over the arriving code itself
    "adm.race.lost-update": "a method read-modify-writes an item; concurrent invocations can lose updates (warning)",
    "adm.race.write-write": "two methods write one item with no mutual ordering (warning)",
    "adm.race.read-write": "a method reads an item another method writes concurrently (warning)",
    "adm.race.unsynced-structural": "a method mutates object structure racing cached dispatch pins (warning)",
    "adm.cycle.recursion": "a method's self-call chain reaches itself; every invocation recurses (warning)",
}

_ROLE_NAMES = {role.value for role in CodeRole}


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


def _audit_portable(
    source_text: str, role: str, label: str
) -> list[Diagnostic]:
    """Run the sandbox verifier over one portable component now."""
    from ..mobility.sandbox import audit_function_body

    try:
        parameters = CodeRole(role).parameters
    except ValueError:
        return [
            _finding(
                "adm.malformed-code",
                Severity.ERROR,
                f"component has unknown role {role!r}",
                label,
            )
        ]
    sandbox_findings = audit_function_body(
        source_text, parameters, source_name=label
    )
    if not sandbox_findings:
        return []
    header = _finding(
        "adm.malformed-code",
        Severity.ERROR,
        f"portable {role} code failed the sandbox audit "
        f"({len(sandbox_findings)} violation(s))",
        label,
        hint="the destination would refuse to compile this component",
    )
    return [header, *sandbox_findings]


def _scan_references(value, path: str) -> list[str]:
    """Paths inside *value* that hold by-reference stubs to other sites."""
    hits: list[str] = []
    stack: list[tuple[object, str]] = [(value, path)]
    while stack:
        current, where = stack.pop()
        if isinstance(current, Reference):
            hits.append(where)
        elif isinstance(current, Mapping):
            for key, nested in current.items():
                stack.append((nested, f"{where}[{key!r}]"))
        elif isinstance(current, (list, tuple, set, frozenset)):
            for position, nested in enumerate(current):
                stack.append((nested, f"{where}[{position}]"))
    return hits


def _check_value(name: str, value, label: str) -> list[Diagnostic]:
    findings: list[Diagnostic] = []
    for where in _scan_references(value, name):
        findings.append(
            _finding(
                "adm.external-reference",
                Severity.WARNING,
                f"data item {where} holds a by-reference stub to another "
                "site; the object is not self-contained",
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
    """Pre-flight a live :class:`~repro.core.mobject.MROMObject`.

    The sender-side mirror of :func:`analyze_package`: everything found
    here would bounce (or warrant a warning) at a destination running the
    admission gate, so a migrating application can lint itself *before*
    paying for the round trip.

    With *concurrency* (what the admission gate passes), the
    interprocedural race/recursion rules also run over the object's
    portable methods, reported under the ``adm.race.*``/``adm.cycle.*``
    ids; they stay opt-in because a read-modify-write counter is a
    perfectly admissible object — the findings are advice unless the
    gate is strict.
    """
    from ..core.items import DataItem, MROMMethod

    label = f"object:{obj.guid}"
    findings: list[Diagnostic] = []
    findings.extend(_check_meta_openness("the meta ACL", obj._meta_acl, label))
    for item, category, section in obj.containers.iter_with_sections():
        if isinstance(item, MROMMethod) and item.metadata.get("meta"):
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
    tower = obj.meta_invoke_chain()
    if tower and not obj.extensible_meta:
        findings.append(
            _finding(
                "adm.tower-breach",
                Severity.ERROR,
                f"object carries a {len(tower)}-level meta-invoke tower "
                "but its meta section is not extensible",
                label,
            )
        )
    for level, method in enumerate(tower, start=1):
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
        findings.extend(_audit_portable(carrier.source, role, where))
    return findings


# ---------------------------------------------------------------------------
# package analysis (receiver side)
# ---------------------------------------------------------------------------


def analyze_package(
    package: Mapping, concurrency: bool = False
) -> list[Diagnostic]:
    """Audit a raw transfer package before anything is unpacked.

    This is what the PREPARE admission gate runs: the input is the
    untrusted mapping straight off the wire, so every access is guarded
    and structural surprises become ``adm.bad-package`` findings instead
    of exceptions. With *concurrency*, the race/recursion rules also run
    over the packed portable method sources (``adm.race.*``/
    ``adm.cycle.*``, warnings).
    """
    from ..mobility.package import FORMAT

    if not isinstance(package, Mapping):
        return [
            _finding(
                "adm.bad-package",
                Severity.ERROR,
                f"package is {type(package).__name__}, not a mapping",
                "package",
            )
        ]
    guid = str(package.get("guid") or "")
    label = f"package:{guid or '<no guid>'}"
    findings: list[Diagnostic] = []
    if package.get("format") != FORMAT:
        findings.append(
            _finding(
                "adm.bad-package",
                Severity.ERROR,
                f"unknown package format {package.get('format')!r} "
                f"(expected {FORMAT!r})",
                label,
            )
        )
    if not guid:
        findings.append(
            _finding(
                "adm.bad-package",
                Severity.ERROR,
                "package carries no guid; identity must travel with the object",
                label,
            )
        )
    findings.extend(
        _check_meta_openness(
            "the meta ACL", _acl_of(package.get("meta_acl")), label
        )
    )
    for section in ("fixed_data", "ext_data"):
        for raw in _raw_items(package, section, findings, label):
            name = str(raw.get("name", "<unnamed>"))
            findings.extend(_check_acl_coverage(name, _acl_of(raw.get("acl")), label))
            findings.extend(_check_value(name, raw.get("value"), label))
    for section in ("fixed_methods", "ext_methods"):
        for raw in _raw_items(package, section, findings, label):
            name = str(raw.get("name", "<unnamed>"))
            findings.extend(_check_acl_coverage(name, _acl_of(raw.get("acl")), label))
            findings.extend(_analyze_packed_method(raw, name, label))
    tower = package.get("tower") or []
    if not isinstance(tower, (list, tuple)):
        findings.append(
            _finding(
                "adm.bad-package",
                Severity.ERROR,
                f"tower is {type(tower).__name__}, not a sequence",
                label,
            )
        )
        tower = []
    if tower and not package.get("extensible_meta"):
        findings.append(
            _finding(
                "adm.tower-breach",
                Severity.ERROR,
                f"package carries a {len(tower)}-level meta-invoke tower "
                "but declares the meta section fixed; installing it would "
                "fail (or worse, be forced)",
                label,
            )
        )
    for level, raw in enumerate(tower, start=1):
        if isinstance(raw, Mapping):
            findings.extend(
                _analyze_packed_method(raw, f"invoke@level{level}", label)
            )
    if concurrency:
        findings.extend(
            _concurrency_findings(
                _packed_effects(package),
                label,
                str(package.get("display_name") or guid or "<package>"),
            )
        )
    return findings


def _packed_effects(package: Mapping) -> dict:
    """Effect sets for a package's portable base-level methods."""
    from ..lang.effects import effects_of_portable

    effects: dict = {}
    for section in ("fixed_methods", "ext_methods"):
        raw_section = package.get(section, [])
        if not isinstance(raw_section, (list, tuple)):
            continue
        for raw in raw_section:
            if not isinstance(raw, Mapping):
                continue
            if isinstance(raw.get("metadata"), Mapping) and raw["metadata"].get(
                "meta"
            ):
                continue
            components = raw.get("components")
            if not isinstance(components, Mapping):
                continue
            body = components.get("body")
            if not isinstance(body, Mapping):
                continue
            source = body.get("source")
            if body.get("flavour") == "portable" and isinstance(source, str):
                name = str(raw.get("name", "<unnamed>"))
                effects[name] = effects_of_portable(source, name)
    return effects


def _raw_items(package: Mapping, section: str, findings, label) -> list[Mapping]:
    raw_section = package.get(section, [])
    if not isinstance(raw_section, (list, tuple)):
        findings.append(
            _finding(
                "adm.bad-package",
                Severity.ERROR,
                f"section {section!r} is {type(raw_section).__name__}, "
                "not a sequence",
                label,
            )
        )
        return []
    usable = []
    for raw in raw_section:
        if isinstance(raw, Mapping):
            usable.append(raw)
        else:
            findings.append(
                _finding(
                    "adm.bad-package",
                    Severity.ERROR,
                    f"section {section!r} holds a non-mapping entry",
                    label,
                )
            )
    return usable


def _acl_of(description) -> AccessControlList:
    if not isinstance(description, Mapping):
        return AccessControlList()
    try:
        return AccessControlList.from_description(description)
    except (KeyError, ValueError, TypeError):
        return AccessControlList()


def _analyze_packed_method(raw: Mapping, name: str, label: str) -> list[Diagnostic]:
    findings: list[Diagnostic] = []
    components = raw.get("components")
    if not isinstance(components, Mapping) or "body" not in components:
        findings.append(
            _finding(
                "adm.bad-package",
                Severity.ERROR,
                f"method {name!r} has no body component",
                label,
            )
        )
        return findings
    for role, description in components.items():
        where = f"{label}:{name}.{role}"
        if role not in _ROLE_NAMES and role not in ("pre", "post", "body"):
            findings.append(
                _finding(
                    "adm.bad-package",
                    Severity.ERROR,
                    f"method {name!r} has unknown component role {role!r}",
                    where,
                )
            )
            continue
        if not isinstance(description, Mapping):
            findings.append(
                _finding(
                    "adm.bad-package",
                    Severity.ERROR,
                    f"component {name}.{role} is not a description mapping",
                    where,
                )
            )
            continue
        flavour = description.get("flavour")
        if flavour == "native":
            findings.append(
                _finding(
                    "adm.native-code",
                    Severity.ERROR,
                    f"component {name}.{role} is a native-code stub; it "
                    "cannot be reconstructed here",
                    where,
                )
            )
        elif flavour == "portable":
            source_text = description.get("source")
            if not isinstance(source_text, str):
                findings.append(
                    _finding(
                        "adm.bad-package",
                        Severity.ERROR,
                        f"portable component {name}.{role} carries no source",
                        where,
                    )
                )
            else:
                code_role = description.get("role", role if role != "body" else "body")
                findings.extend(_audit_portable(source_text, str(code_role), where))
        else:
            findings.append(
                _finding(
                    "adm.bad-package",
                    Severity.ERROR,
                    f"component {name}.{role} has unknown flavour {flavour!r}",
                    where,
                )
            )
    return findings


# ---------------------------------------------------------------------------
# the admission-gate policy
# ---------------------------------------------------------------------------


def admission_policy(strict: bool = False, concurrency: bool = True):
    """An ``AdmissionPolicy`` callable running :func:`analyze_package`.

    Plug into :class:`~repro.mobility.transfer.MobilityManager` (or pass
    ``verify_arrivals=True`` to have the manager do it): at PREPARE the
    raw package is analyzed and a failing report raises
    :class:`AdmissionRefusal` — the migration bounces with the findings
    attached, and nothing was unpacked or imported. With *strict*,
    warnings (open meta surfaces, unreachable items, external references,
    and the ``adm.race.*``/``adm.cycle.*`` concurrency findings the gate
    checks by default) also refuse admission.
    """

    def policy(package: Mapping, src: str) -> None:
        findings = analyze_package(package, concurrency=concurrency)
        if fails(findings, strict=strict):
            guid = ""
            if isinstance(package, Mapping):
                guid = str(package.get("guid") or "")
            raise AdmissionRefusal(
                findings, subject=f"{guid or 'object'} from {src!r}"
            )

    return policy
