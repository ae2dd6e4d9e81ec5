"""Self-representation: how a host interrogates a newcomer object.

"This capability is important when the host environment is not intimately
familiar with the arriving object or even with its interface, in which
case it must be able to interrogate the newcomer object, decide whether
to invoke it, and find out how to invoke it." (Section 1.)

Interrogation is *visibility-filtered*: because security is coupled with
encapsulation, an item the viewer may neither read nor invoke nor
meta-manipulate simply does not appear in the description. A host IOO
interrogating a guest Ambassador sees its service methods, not its
owner-only meta-machinery.

Method *signature hints* ride in item metadata under conventional keys:

* ``"doc"`` — human-readable description;
* ``"params"`` — a list of parameter descriptors (name, kind, doc);
* ``"returns"`` — kind of the result;
* ``"tags"`` — free-form capability tags (used by :func:`find_methods`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .acl import ANONYMOUS, INVOKE_BIT, Principal
from .items import ItemDescription
from .mobject import META_METHOD_NAMES, MROMObject

__all__ = [
    "ObjectDescription",
    "describe",
    "visibility_mask",
    "interrogate",
    "can_invoke",
    "find_methods",
    "signature_of",
]


@dataclass(frozen=True)
class ObjectDescription:
    """Everything an object reveals about itself to a given viewer."""

    guid: str
    display_name: str
    domain: str
    extensible_meta: bool
    tower_depth: int
    items: tuple[ItemDescription, ...] = ()
    counts: dict = field(default_factory=dict)

    def data_items(self) -> list[ItemDescription]:
        return [item for item in self.items if item.category == "data"]

    def methods(self) -> list[ItemDescription]:
        return [item for item in self.items if item.category == "method"]

    def names(self) -> list[str]:
        return [item.name for item in self.items]

    def to_mapping(self) -> dict:
        """Marshal-friendly form, shippable to a remote interrogator."""
        return {
            "guid": self.guid,
            "display_name": self.display_name,
            "domain": self.domain,
            "extensible_meta": self.extensible_meta,
            "tower_depth": self.tower_depth,
            "items": [item.to_mapping() for item in self.items],
            "counts": dict(self.counts),
        }


def _describable(obj: MROMObject):
    """(item, section, tower level) for every item :func:`describe` may
    list, in its order: the four containers (level 0), then the
    meta-invoke tower bottom to top."""
    for item, _category, section in obj.containers.iter_with_sections():
        yield item, section, 0
    for level, method in enumerate(obj.meta_invoke_chain(), start=1):
        yield method, "extensible", level


def visibility_mask(obj: MROMObject, viewer: Principal = ANONYMOUS) -> int:
    """Which items *viewer* may see: bit *i* is set when the *i*-th item
    of :func:`describe`'s order is visible to it.

    :data:`~repro.core.acl.SYSTEM` and the object itself see every item;
    any other viewer sees only items visible to it under the
    encapsulation-as-security rule. Two viewers with the same mask get
    the same description.
    """
    if viewer.guid in (obj.guid, "mrom:system"):
        return (1 << sum(1 for _ in _describable(obj))) - 1
    mask = 0
    for bit, (item, _section, _level) in enumerate(_describable(obj)):
        if item.visible_to(viewer):
            mask |= 1 << bit
    return mask


def describe(obj: MROMObject, viewer: Principal = ANONYMOUS) -> ObjectDescription:
    """The object as *viewer* is entitled to see it: the items of its
    :func:`visibility_mask`."""
    mask = visibility_mask(obj, viewer)
    visible: list[ItemDescription] = []
    for bit, (item, section, level) in enumerate(_describable(obj)):
        if not mask >> bit & 1:
            continue
        if not level:
            visible.append(item.describe(section))
            continue
        description = item.describe(section)
        visible.append(
            ItemDescription(
                name=f"invoke@level{level}",
                category="method",
                section="extensible",
                portable=description.portable,
                has_pre=description.has_pre,
                has_post=description.has_post,
                version=description.version,
                acl=description.acl,
                metadata=dict(description.metadata, meta_level=level),
            )
        )
    return ObjectDescription(
        guid=obj.guid,
        display_name=obj.principal.display_name,
        domain=obj.principal.domain,
        extensible_meta=obj.extensible_meta,
        tower_depth=len(obj.meta_invoke_chain()),
        items=tuple(visible),
        counts=obj.containers.counts(),
    )


def interrogate(obj: MROMObject, viewer: Principal = ANONYMOUS) -> dict:
    """The newcomer-object protocol: what can *viewer* actually call?

    Returns a mapping of invocable method name to its signature hints —
    the "find out how to invoke it" step. Meta-methods are included only
    when the viewer may invoke them (normally only the owner).
    """
    result: dict[str, dict] = {}
    privileged = viewer.guid in (obj.guid, "mrom:system")
    for item, category, _section in obj.containers.iter_with_sections():
        if category != "method":
            continue
        if privileged or item.acl.allows(viewer, INVOKE_BIT):
            result[item.name] = signature_of(item.metadata)
    return result


def can_invoke(obj: MROMObject, viewer: Principal, name: str) -> bool:
    """Would the Match phase admit *viewer* calling *name*? (No side
    effects — the decision procedure hosts use before invoking.)"""
    if viewer.guid in (obj.guid, "mrom:system"):
        return obj.containers.has_method(name)
    if not obj.containers.has_method(name):
        return False
    method, _section = obj.containers.lookup_method(name)
    return method.acl.allows(viewer, INVOKE_BIT)


def find_methods(
    obj: MROMObject,
    viewer: Principal = ANONYMOUS,
    tags: Iterable[str] = (),
) -> list[str]:
    """Discover methods by capability tags (all given tags must match)."""
    wanted = set(tags)
    names: list[str] = []
    for name, signature in interrogate(obj, viewer).items():
        if wanted <= set(signature.get("tags", [])):
            names.append(name)
    return names


def signature_of(metadata: dict) -> dict:
    """Extract the conventional signature hints from item metadata."""
    return {
        "doc": metadata.get("doc", ""),
        "params": list(metadata.get("params", [])),
        "returns": metadata.get("returns", "any"),
        "tags": list(metadata.get("tags", [])),
        "meta": bool(metadata.get("meta", False)),
    }


def is_meta_method(name: str) -> bool:
    """Is *name* one of the paper's bundled meta-method names?"""
    return name in META_METHOD_NAMES
