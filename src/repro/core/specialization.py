"""Specialization of MROM objects: static templates and dynamic cloning.

"Static (not in run-time) specialization of MROM objects is achieved
using Java sub-classing. Copying the containers of the super-class to the
sub-class, as well as adding items ... are done in the sub-class
constructor." (Section 4.)

Our Python analog is :class:`ObjectTemplate`: a declarative description
of an object's fixed (and initial extensible) items. A template can
:meth:`~ObjectTemplate.derive` a child template — the sub-classing analog;
instantiation walks the ancestor chain root-to-leaf, copies every
inherited fixed item into the new object's constructor window, then seals.
Only the *fixed* section participates in specialization: "items of the
extensible portion ... can not be counted on to have any certain
semantics at any given time", so a child template may not rely on them
(they are still copied as initial state, but a child overriding them is
legal, unlike fixed items).

"The mutable nature of MROM objects provides means of dynamic (in-
runtime) specialization ... similar to that of inheritance in
prototype-based languages (e.g., Self and Cecil)." — :func:`clone` copies
a live object, after which the copy diverges through its own meta-methods.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping

from .acl import AccessControlList, Principal
from .code import MethodCode, NativeCode, PortableCode
from .errors import DuplicateItemError, StructureError
from .items import DataItem, MROMMethod
from .mobject import MROMObject, is_bundled_meta
from .values import Kind, snapshot_value

__all__ = ["DataSpec", "MethodSpec", "ObjectTemplate", "clone", "clone_code"]


@dataclass(frozen=True)
class DataSpec:
    """Declarative description of one data item in a template."""

    name: str
    value: Any = None
    kind: Kind = Kind.ANY
    acl: AccessControlList | None = None
    metadata: Mapping[str, Any] = field(default_factory=dict)

    def build(self) -> DataItem:
        return DataItem(
            self.name,
            snapshot_value(self.value),
            kind=self.kind,
            acl=self.acl.copy() if self.acl is not None else None,
            metadata=dict(self.metadata),
        )


@dataclass(frozen=True)
class MethodSpec:
    """Declarative description of one method in a template."""

    name: str
    body: Any
    pre: Any = None
    post: Any = None
    acl: AccessControlList | None = None
    metadata: Mapping[str, Any] = field(default_factory=dict)

    def build(self) -> MROMMethod:
        return MROMMethod(
            self.name,
            _fresh_component(self.body),
            pre=_fresh_component(self.pre),
            post=_fresh_component(self.post),
            acl=self.acl.copy() if self.acl is not None else None,
            metadata=dict(self.metadata),
        )


def _fresh_component(component: Any) -> Any:
    """Give each instance its own code carrier (carriers are mutable)."""
    if isinstance(component, MethodCode):
        return clone_code(component)
    return component


def clone_code(code: MethodCode) -> MethodCode:
    """An independent carrier with the same behaviour."""
    if isinstance(code, PortableCode):
        return PortableCode(code.source, role=code.role, label=code.label)
    if isinstance(code, NativeCode):
        return NativeCode(code.func, role=code.role, label=code.label)
    raise StructureError(f"cannot clone code carrier {type(code).__name__}")


class ObjectTemplate:
    """A reusable recipe for MROM objects, supporting static specialization.

    >>> base = ObjectTemplate("counter")
    >>> base.fixed_data("count", 0)
    >>> base.fixed_method("increment",
    ...     "self.set('count', self.get('count') + 1)\\n"
    ...     "return self.get('count')")
    >>> resettable = base.derive("resettable-counter")
    >>> resettable.fixed_method("reset", "self.set('count', 0)\\nreturn True")
    >>> obj = resettable.instantiate()
    >>> obj.invoke("increment"), obj.invoke("reset")
    (1, True)
    """

    def __init__(
        self,
        name: str,
        parent: "ObjectTemplate | None" = None,
        extensible_meta: bool | None = None,
    ):
        self.name = name
        self.parent = parent
        if extensible_meta is None:
            extensible_meta = parent.extensible_meta if parent else False
        self.extensible_meta = extensible_meta
        self._fixed_data: dict[str, DataSpec] = {}
        self._fixed_methods: dict[str, MethodSpec] = {}
        self._ext_data: dict[str, DataSpec] = {}
        self._ext_methods: dict[str, MethodSpec] = {}

    # -- authoring ---------------------------------------------------------

    def fixed_data(self, name: str, value: Any = None, **options: Any) -> "ObjectTemplate":
        self._check_new_fixed(name, "data")
        self._fixed_data[name] = DataSpec(name, value, **options)
        return self

    def fixed_method(self, name: str, body: Any, **options: Any) -> "ObjectTemplate":
        self._check_new_fixed(name, "method")
        self._fixed_methods[name] = MethodSpec(name, body, **options)
        return self

    def extensible_data(self, name: str, value: Any = None, **options: Any) -> "ObjectTemplate":
        self._ext_data[name] = DataSpec(name, value, **options)
        return self

    def extensible_method(self, name: str, body: Any, **options: Any) -> "ObjectTemplate":
        self._ext_methods[name] = MethodSpec(name, body, **options)
        return self

    def _check_new_fixed(self, name: str, category: str) -> None:
        """Fixed items are guaranteed structure: a child may not redefine
        an ancestor's fixed item (that would change guaranteed semantics
        out from under code written against the ancestor)."""
        for template in self._ancestry():
            specs = template._fixed_data if category == "data" else template._fixed_methods
            if name in specs:
                raise DuplicateItemError(name, f"template {template.name!r} (fixed)")

    # -- derivation (static specialization) ---------------------------------

    def derive(self, name: str, extensible_meta: bool | None = None) -> "ObjectTemplate":
        """Create a child template — the sub-classing analog."""
        return ObjectTemplate(name, parent=self, extensible_meta=extensible_meta)

    def _ancestry(self) -> Iterator["ObjectTemplate"]:
        """Templates from this one up to the root."""
        template: ObjectTemplate | None = self
        while template is not None:
            yield template
            template = template.parent

    def lineage(self) -> list[str]:
        """Template names root-to-leaf (for descriptions and tests)."""
        return [template.name for template in self._ancestry()][::-1]

    # -- instantiation ----------------------------------------------------------

    def instantiate(
        self,
        guid: str | None = None,
        domain: str = "",
        display_name: str = "",
        owner: Principal | None = None,
        environment: Mapping[str, Any] | None = None,
        meta_acl: AccessControlList | None = None,
    ) -> MROMObject:
        """Build an object: ancestor fixed items first, then seal, then
        the initial extensible items (added through the meta-machinery,
        exactly as any later run-time addition would be)."""
        obj = MROMObject(
            guid=guid,
            domain=domain,
            display_name=display_name or self.name,
            owner=owner,
            extensible_meta=self.extensible_meta,
            environment=environment,
            meta_acl=meta_acl,
        )
        chain = list(self._ancestry())[::-1]  # root first
        for template in chain:
            for spec in template._fixed_data.values():
                obj.containers.add_fixed(spec.build())
            for spec in template._fixed_methods.values():
                obj.containers.add_fixed(spec.build())
        obj.seal()
        # Extensible initial state: a child template's spec overrides an
        # ancestor's (prototype semantics — the latest word wins).
        ext_data: dict[str, DataSpec] = {}
        ext_methods: dict[str, MethodSpec] = {}
        for template in chain:
            ext_data.update(template._ext_data)
            ext_methods.update(template._ext_methods)
        for spec in ext_data.values():
            obj.containers.add_extensible(spec.build())
        for method_spec in ext_methods.values():
            built = method_spec.build()
            if built.name == "invoke":
                raise StructureError(
                    "meta-invoke levels are added at run time via addMethod, "
                    "not declared in templates"
                )
            obj.containers.add_extensible(built)
        obj.environment.setdefault("template", self.name)
        obj.environment.setdefault("lineage", self.lineage())
        return obj


def clone(
    prototype: MROMObject,
    guid: str | None = None,
    display_name: str = "",
    owner: Principal | None = None,
) -> MROMObject:
    """Dynamic (prototype-style) specialization: copy a live object.

    The clone gets independent copies of every item — data values are
    snapshot (:func:`~repro.core.values.snapshot_value`: plain
    containers copied, a live object or reference held by identity),
    methods get fresh code carriers — plus the prototype's meta-invoke
    tower. It then evolves independently through its own meta-methods,
    "which gives an effect similar to that of inheritance in
    prototype-based languages".
    """
    target = MROMObject(
        guid=guid,
        domain=prototype.principal.domain,
        display_name=display_name or f"clone-of-{prototype.principal.display_name or prototype.guid}",
        owner=owner if owner is not None else prototype.owner,
        extensible_meta=prototype.extensible_meta,
        environment=dict(prototype.environment),
    )
    source = prototype.containers
    for item in source.fixed_data:
        if not isinstance(item, DataItem):  # pragma: no cover - defensive
            continue
        target.containers.add_fixed(_copy_data(item))
    for item in source.fixed_methods:
        if isinstance(item, MROMMethod) and not is_bundled_meta(item):
            target.containers.add_fixed(_copy_method(item))
    target.seal()
    for item in source.ext_data:
        if isinstance(item, DataItem):
            target.containers.add_extensible(_copy_data(item))
    for item in source.ext_methods:
        if isinstance(item, MROMMethod) and not is_bundled_meta(item):
            target._restore_extensible_method(_copy_method(item))
    for level in prototype.meta_invoke_chain():
        target._push_meta_invoke(_copy_method(level))
    return target


def _copy_data(item: DataItem) -> DataItem:
    return DataItem(
        item.name,
        snapshot_value(item.peek()),
        kind=item.kind,
        acl=item.acl.copy(),
        metadata=dict(item.metadata),
    )


def _copy_method(method: MROMMethod) -> MROMMethod:
    return MROMMethod(
        method.name,
        clone_code(method.body),
        pre=clone_code(method.pre) if method.pre is not None else None,
        post=clone_code(method.post) if method.post is not None else None,
        acl=method.acl.copy(),
        metadata=dict(method.metadata),
    )
