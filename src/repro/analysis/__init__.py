"""Pre-flight static analysis: MPL lint and migration admission checks.

Two front ends over one diagnostic core:

* :mod:`repro.analysis.mpl_lint` — language-level lint passes over MPL
  programs (:func:`lint_source`, the :data:`RULES` registry);
* :mod:`repro.analysis.admission` — self-containment/ACL/code analysis
  of migrating objects (:func:`analyze_object`; :func:`analyze_package`,
  which audits the object ``unpack`` builds; the
  :func:`admission_policy` PREPARE gate);

plus the interprocedural layer (``repro analyze``): per-method effect
sets feeding :mod:`.races` (``race.*``), wait-for cycle detection in
:mod:`.deadlock` (``cycle.*``), the migration-safety dataflow in
:mod:`.migration_safety` (``migration.*``), the :mod:`.callgraph`
builders they share, the :mod:`.baseline` suppression format, and the
runtime happens-before :mod:`.sanitizer` that differentially validates
the race verdicts during chaos/soak runs.

All of it reports :class:`~repro.analysis.diagnostics.Diagnostic`
findings rendered by :func:`render_text` / :func:`render_json`.

Attribute access is lazy (PEP 562): :mod:`repro.mobility.sandbox`
imports the diagnostics core from this package while the admission
analyzer imports the mobility layer, so eager re-exports here would be a
cycle. Only ``diagnostics`` is imported at package-import time.
"""

from __future__ import annotations

from .diagnostics import (  # noqa: F401  (the cycle-free core)
    Diagnostic,
    Severity,
    dedupe,
    fails,
    render_json,
    render_text,
    worst_severity,
)

__all__ = [
    "Diagnostic",
    "Severity",
    "dedupe",
    "fails",
    "render_json",
    "render_text",
    "worst_severity",
    "RULES",
    "lint_source",
    "lint_program",
    "LintUnit",
    "iter_units",
    "lint_unit",
    "lint_paths",
    "ADMISSION_RULES",
    "AdmissionRefusal",
    "analyze_object",
    "analyze_package",
    "admission_policy",
    "RACE_RULES",
    "CYCLE_RULES",
    "MIGRATION_RULES",
    "analyze_paths",
    "Sanitizer",
    "load_baseline",
    "write_baseline",
    "suppress",
    "all_rule_ids",
]

_LAZY = {
    "RULES": "mpl_lint",
    "lint_source": "mpl_lint",
    "lint_program": "mpl_lint",
    "LintUnit": "sources",
    "iter_units": "sources",
    "lint_unit": "sources",
    "lint_paths": "sources",
    "ADMISSION_RULES": "admission",
    "AdmissionRefusal": "admission",
    "analyze_object": "admission",
    "analyze_package": "admission",
    "admission_policy": "admission",
    "RACE_RULES": "races",
    "CYCLE_RULES": "deadlock",
    "MIGRATION_RULES": "migration_safety",
    "analyze_paths": "interproc",
    "Sanitizer": "sanitizer",
    "load_baseline": "baseline",
    "write_baseline": "baseline",
    "suppress": "baseline",
}


def __getattr__(name: str):
    if name == "all_rule_ids":
        return all_rule_ids
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value  # cache for the next access
    return value


def all_rule_ids() -> dict[str, str]:
    """Every rule id the subsystem can emit, with its description.

    Unions the MPL lint registry, the sandbox verifier, the admission
    registry and the interprocedural pass registries (races, cycles,
    migration safety) — the docs test keys off this so no rule ships
    undocumented.
    """
    from ..mobility.sandbox import SANDBOX_RULES
    from .admission import ADMISSION_RULES
    from .deadlock import CYCLE_RULES
    from .migration_safety import MIGRATION_RULES
    from .mpl_lint import RULES
    from .races import RACE_RULES

    combined: dict[str, str] = {}
    combined.update(RULES)
    combined.update(SANDBOX_RULES)
    combined.update(ADMISSION_RULES)
    combined.update(RACE_RULES)
    combined.update(CYCLE_RULES)
    combined.update(MIGRATION_RULES)
    return combined
