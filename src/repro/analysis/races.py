"""Race detection over per-method effect sets (``race.*`` rules).

An MROM object is a shared mutable record: any client with a reference
can invoke any public method, and the ActiveObject wrapper, async RMI
futures and batched frames all make *concurrent* invocation the normal
case rather than the exception. The object model itself serializes
nothing — two invocations interleave at the granularity of individual
``get``/``set`` operations on extensible items.

This pass flags the interleavings that lose data. It is deliberately
method-pair coarse: a finding says "these two methods conflict on this
item", not "this schedule loses this value" — the happens-before
sanitizer (:mod:`.sanitizer`) provides the dynamic witness, and the
differential contract between the two is that every race the sanitizer
observes at run time maps back to a finding this pass produced.

All race findings are warnings: a conflict is a hazard, not a proof of
corruption (the deployment may serialize invocations externally). The
strict admission gate promotes them to vetoes.
"""

from __future__ import annotations

from typing import Mapping

from ..lang.effects import STRUCTURE_ITEM, MethodEffects, effects_of_object
from .diagnostics import Diagnostic, Severity

__all__ = ["RACE_RULES", "conflicts", "analyze_program", "effects_of_live_object"]

RACE_RULES = {
    "race.lost-update": (
        "a method reads and writes the same extensible item in one "
        "invocation; two concurrent invocations can interleave between "
        "the read and the write and lose an update"
    ),
    "race.write-write": (
        "two methods write the same extensible item with no ordering "
        "between concurrent invocations; the final value depends on the "
        "schedule"
    ),
    "race.read-write": (
        "a method reads an extensible item another method writes "
        "concurrently; the reader can observe and act on a stale value"
    ),
    "race.unsynced-structural": (
        "a method mutates the object's structure (add/delete of members) "
        "while concurrent invocations dispatch through cached Lookup/"
        "Match generation pins; the mutation races the pinned lookups"
    ),
}


def _finding(
    rule: str,
    message: str,
    source: str,
    span,
    subject: str,
    item: str,
    methods,
    hint: str = "",
) -> Diagnostic:
    line, column = span
    return Diagnostic(
        rule=rule,
        severity=Severity.WARNING,
        message=message,
        source=source,
        line=line,
        column=column,
        hint=hint,
        extra={"object": subject, "item": item, "methods": sorted(methods)},
    )


def conflicts(
    effects: Mapping[str, MethodEffects],
    source: str = "",
    subject: str = "<object>",
) -> list:
    """Run the pairwise conflict analysis over one object's effect sets.

    Deterministic output order: methods in sorted name order, items in
    sorted order within a method — the corpus exact-match tests and the
    baseline key format both rely on it.
    """
    out: list = []
    names = sorted(effects)

    # lost updates: read-modify-write inside a single method
    for name in names:
        eff = effects[name]
        for item in sorted(set(eff.reads) & set(eff.writes)):
            out.append(_finding(
                "race.lost-update",
                f"method '{name}' of {subject} reads and writes item "
                f"'{item}' in one invocation; concurrent invocations can "
                f"interleave and lose an update",
                source, eff.writes[item], subject, item, [name, name],
                hint="serialize invocations (ActiveObject) or fold the "
                     "update into a single set",
            ))

    # cross-method write/write and read/write conflicts
    for i, a in enumerate(names):
        ea = effects[a]
        for b in names[i + 1:]:
            eb = effects[b]
            for item in sorted(set(ea.writes) & set(eb.writes)):
                out.append(_finding(
                    "race.write-write",
                    f"methods '{a}' and '{b}' of {subject} both write item "
                    f"'{item}'; the final value depends on the schedule",
                    source, eb.writes[item], subject, item, [a, b],
                ))
            for reader, writer in ((ea, eb), (eb, ea)):
                for item in sorted(set(reader.reads) & set(writer.writes)):
                    if item in reader.writes and item in writer.writes:
                        continue  # already a write-write finding
                    out.append(_finding(
                        "race.read-write",
                        f"method '{reader.name}' of {subject} reads item "
                        f"'{item}' while '{writer.name}' can write it "
                        f"concurrently; a stale read can escape",
                        source, reader.reads[item], subject, item,
                        [reader.name, writer.name],
                    ))

    # structural mutation racing generation-pinned dispatch
    for name in names:
        eff = effects[name]
        if eff.structural:
            op, span = sorted(
                eff.structural.items(), key=lambda kv: (kv[1], kv[0])
            )[0]
            out.append(_finding(
                "race.unsynced-structural",
                f"method '{name}' of {subject} mutates the object's "
                f"structure ({op}); concurrent invocations running against "
                f"cached Lookup/Match pins race the mutation",
                source, span, subject, STRUCTURE_ITEM, [name, "*"],
                hint="quiesce invocations around structural evolution, or "
                     "route it through a meta-method the callers serialize on",
            ))
    return out


def analyze_program(program, label: str = "<mpl>") -> list:
    """Race findings for every object declared in one MPL program."""
    out: list = []
    for decl in program.objects:
        out.extend(conflicts(effects_of_object(decl), label, decl.name))
    return out


def effects_of_live_object(obj) -> dict:
    """Effect sets for a live object's portable public methods.

    Native-code methods are opaque (skipped — the admission pass already
    refuses them on their own rule), the bundled meta-methods among them;
    a portable method is read whatever its metadata says. Shared by the
    admission gate and the sanitizer's static-side oracle, so both
    compare against the same ground truth.
    """
    from ..core.items import MROMMethod
    from ..lang.effects import effects_of_portable

    effects: dict = {}
    for item, _category, _section in obj.containers.iter_with_sections():
        if not isinstance(item, MROMMethod):
            continue
        carrier = item.body
        if getattr(carrier, "portable", False):
            effects[item.name] = effects_of_portable(
                carrier.source, item.name
            )
    return effects
