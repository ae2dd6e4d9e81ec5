"""The MROM object: four containers, bundled meta-methods, invoke tower.

An :class:`MROMObject` is the paper's central artifact:

* its structure lives in four item containers (fixed/extensible x
  data/methods, :mod:`repro.core.containers`);
* its *meta-methods* — ``getDataItem``/``setDataItem``/``addDataItem``/
  ``deleteDataItem``, the four ``*Method`` analogues, and ``invoke`` — are
  bundled **inside** the object ("Self containment implies that we refrain
  from separating the meta-methods in a distinct meta-object", Section 3);
* invocation is performed by the level-0 primitive
  (:class:`repro.core.invocation.Invoker`), optionally beneath a tower of
  extensible meta-invoke levels (*meta-mutability*).

Construction protocol
---------------------

The fixed section can only be populated between construction and
:meth:`seal` — the Python analog of the paper's "copying the containers of
the super-class to the sub-class, as well as adding items ... are done in
the sub-class constructor". After sealing, only the extensible section
can change, and only through the meta-methods.

>>> from repro.core import MROMObject
>>> counter = MROMObject(display_name="counter")
>>> counter.define_fixed_data("count", 0)
>>> counter.define_fixed_method("increment",
...     "n = self.get('count') + (args[0] if args else 1)\\n"
...     "self.set('count', n)\\n"
...     "return n")
>>> counter.seal()
>>> counter.invoke("increment", [5])
5
"""

from __future__ import annotations

import uuid
from typing import Any, Mapping, Sequence

from .acl import (
    AccessControlList,
    ANONYMOUS,
    Permission,
    Principal,
    allow_all,
    owner_only,
)
from .containers import ContainerSet, EXTENSIBLE, FIXED
from .epoch import EPOCH
from .fastpath import COMPILED_STALE, InvocationCache
from .errors import (
    FixedSectionError,
    MethodNotFoundError,
    StaleHandleError,
    StructureError,
)
from .code import CodeRole, NativeCode, as_code
from .invocation import InvocationRecord, Invoker
from .items import (
    DataItem,
    HANDLE_TOKEN_KEY,
    ItemDescription,
    ItemHandle,
    MROMMethod,
)
from .values import Kind, coerce

__all__ = ["MROMObject", "SelfView", "META_METHOD_NAMES"]

#: The bundled meta-method names, as listed in Section 3 of the paper.
META_METHOD_NAMES = (
    "getDataItem",
    "setDataItem",
    "addDataItem",
    "deleteDataItem",
    "getMethod",
    "setMethod",
    "addMethod",
    "deleteMethod",
    "invoke",
)


def _fresh_guid() -> str:
    return f"mrom:obj:{uuid.uuid4().hex[:20]}"


class MROMObject:
    """A mutable reflective object per the MROM model.

    Parameters
    ----------
    guid:
        Globally unique identity; generated when omitted. Richer,
        decentralized identities come from :mod:`repro.naming`.
    domain:
        The trust domain of the object's birth site (used as its
        principal's domain in ACL evaluation).
    display_name:
        Human-facing label for traces and errors.
    owner:
        The principal that *owns* the object. For an Ambassador this is
        its origin APO — the only principal its meta-methods admit by
        default. Defaults to the object's own principal.
    extensible_meta:
        When True, the bundled meta-methods are placed in the
        *extensible* section, enabling meta-mutability: they may be
        replaced, deleted, and — for ``invoke`` — stacked into a tower of
        meta-invoke levels. When False (the default) the meta-methods are
        fixed for the object's lifetime.
    meta_acl:
        ACL guarding the meta-methods. Defaults to owner-only: the paper's
        Ambassadors demand that "its meta-methods should be invisible to
        the host IOO ... and should not be invoked by that IOO".
    environment:
        Initial host-provided bindings (the installation context).
    fastpath:
        Whether the object carries an invocation cache of compiled
        level-0 closures (see :mod:`repro.core.fastpath`). On by
        default; ``False`` keeps every call on the interpreted path.
    """

    def __init__(
        self,
        guid: str | None = None,
        domain: str = "",
        display_name: str = "",
        owner: Principal | None = None,
        extensible_meta: bool = False,
        meta_acl: AccessControlList | None = None,
        environment: Mapping[str, Any] | None = None,
        fastpath: bool = True,
    ):
        self.guid = guid or _fresh_guid()
        self.principal = Principal(
            guid=self.guid, domain=domain, display_name=display_name
        )
        self.owner = owner if owner is not None else self.principal
        self.extensible_meta = bool(extensible_meta)
        self.containers = ContainerSet()
        self.environment: dict[str, Any] = dict(environment) if environment else {}
        self._invoker = Invoker(self)
        self._meta_invokes: list[MROMMethod] = []
        self._self_view: SelfView | None = None
        self._tracing = False
        self._records: list[InvocationRecord] = []
        # the latest top-level record, or the pinned (method, caller,
        # *events) a lean compiled call that ended "ok" left instead
        # (see last_record)
        self._last_record: InvocationRecord | tuple | None = None
        self._meta_acl = meta_acl if meta_acl is not None else owner_only(self.owner)
        self._fastpath: InvocationCache | None = (
            InvocationCache() if fastpath else None
        )
        # a site's encoded describe reply, keyed by (structural epoch,
        # visibility mask); see Site._handle_describe
        self._described: tuple | None = None
        self._install_meta_methods()

    # ------------------------------------------------------------------
    # construction-time definition of the fixed section
    # ------------------------------------------------------------------

    def define_fixed_data(
        self,
        name: str,
        value: Any = None,
        kind: Kind = Kind.ANY,
        acl: AccessControlList | None = None,
        metadata: Mapping[str, Any] | None = None,
    ) -> None:
        """Add a data item to the fixed section (before :meth:`seal`)."""
        item = DataItem(name, value, kind=kind, acl=acl, metadata=metadata)
        self.containers.add_fixed(item)

    def define_fixed_method(
        self,
        name: str,
        body: Any,
        pre: Any = None,
        post: Any = None,
        acl: AccessControlList | None = None,
        metadata: Mapping[str, Any] | None = None,
    ) -> None:
        """Add a method to the fixed section (before :meth:`seal`)."""
        method = MROMMethod(name, body, pre=pre, post=post, acl=acl, metadata=metadata)
        self.containers.add_fixed(method)

    def seal(self) -> "MROMObject":
        """End construction: the fixed section becomes immutable."""
        self.containers.seal_fixed()
        return self

    @property
    def sealed(self) -> bool:
        return self.containers.construction_finished

    # ------------------------------------------------------------------
    # ordinary value access ("values ... are accessed using ordinary get
    # and set") — checked against the item's own ACL
    # ------------------------------------------------------------------

    def get_data(
        self,
        name: str,
        caller: Principal | None = None,
        kind: Kind | None = None,
    ) -> Any:
        """Read a data item's value, optionally coercing it to *kind*."""
        item = self.containers.find_data(name)
        caller = ANONYMOUS if caller is None else caller
        if caller.guid == self.guid:
            value = item.peek()
        else:
            value = item.get_value(caller)
        return value if kind is None else coerce(value, kind)

    def set_data(self, name: str, value: Any, caller: Principal | None = None) -> None:
        """Write a data item's value (coerced to its declared kind)."""
        item = self.containers.find_data(name)
        caller = ANONYMOUS if caller is None else caller
        if caller.guid == self.guid:
            item.poke(value)
        else:
            item.set_value(caller, value)

    # ------------------------------------------------------------------
    # invocation
    # ------------------------------------------------------------------

    def invoke(
        self,
        method_name: str,
        args: Sequence[Any] = (),
        caller: Principal | None = None,
    ) -> Any:
        """Invoke a method (including meta-methods) with MROM semantics.

        The warm step: with no meta tower, a live compiled closure for
        (caller, method) serves the call here; a miss or a stale closure
        goes on to the cold step, :meth:`Invoker.invoke`.
        """
        if caller is None:
            caller = ANONYMOUS
        cache = self._fastpath
        if cache is not None and not self._meta_invokes:
            fn = cache.compiled.get((caller.guid, caller.domain, method_name))
            if fn is not None:
                result = fn(caller, args)
                if result is not COMPILED_STALE:
                    return result
        return self._invoker.invoke(caller, method_name, args)

    def invoke_primitive(
        self,
        method_name: str,
        args: Sequence[Any] = (),
        caller: Principal | None = None,
    ) -> Any:
        """Bypass the meta tower and call level 0 directly.

        Exposed for benchmarking (PERF-2) and for meta-level bodies that
        must reach the stopping condition explicitly; ordinary callers
        should use :meth:`invoke`.
        """
        return self._invoker.invoke_primitive(
            ANONYMOUS if caller is None else caller, method_name, args
        )

    # ------------------------------------------------------------------
    # the invocation cache (compiled level-0 closures)
    # ------------------------------------------------------------------

    @property
    def fastpath(self) -> InvocationCache | None:
        """The object's invocation cache, or None when caching is off."""
        return self._fastpath

    def enable_fastpath(self, enabled: bool = True) -> None:
        """Attach or detach the invocation cache at run time.

        Re-enabling always starts cold; disabling drops the cache — and
        with it every compiled closure — and its counters.
        """
        if enabled:
            if self._fastpath is None:
                self._fastpath = InvocationCache()
        else:
            self._fastpath = None

    def fastpath_reset(self) -> None:
        """Drop every compiled closure (e.g. after a migration install —
        caches always arrive cold)."""
        if self._fastpath is not None:
            self._fastpath.reset()

    # ------------------------------------------------------------------
    # the meta-invoke tower (meta-mutability, Figure 1)
    # ------------------------------------------------------------------

    def meta_invoke_chain(self) -> tuple[MROMMethod, ...]:
        """The tower, bottom (level 1) to top (level N)."""
        return tuple(self._meta_invokes)

    def meta_invoke_at(self, level: int) -> MROMMethod:
        """The meta-invoke method at 1-based *level*."""
        try:
            return self._meta_invokes[level - 1]
        except IndexError:
            raise MethodNotFoundError(f"invoke@level{level}", "meta-tower") from None

    def _push_meta_invoke(self, method: MROMMethod) -> None:
        if not self.extensible_meta:
            raise FixedSectionError(
                f"object {self.guid} was created with fixed meta-methods; "
                "cannot add a meta-invoke level"
            )
        self._meta_invokes.append(method)
        EPOCH.bump()

    def _pop_meta_invoke(self) -> MROMMethod:
        if not self._meta_invokes:
            raise FixedSectionError(
                "the base 'invoke' meta-method is part of the fixed behaviour "
                "and cannot be deleted"
            )
        method = self._meta_invokes.pop()
        EPOCH.bump()
        return method

    # ------------------------------------------------------------------
    # tracing
    # ------------------------------------------------------------------

    def enable_tracing(self, enabled: bool = True) -> None:
        """Keep full invocation records (for audit / figure reproduction)."""
        self._tracing = enabled
        if not enabled:
            self._records.clear()

    @property
    def last_record(self) -> InvocationRecord | None:
        """The record of the latest top-level invocation.

        A lean compiled call (``compile_invocation``) that ends "ok"
        leaves only its pinned trace; the record is built on first read,
        so such a warm call allocates none.
        """
        last = self._last_record
        if last.__class__ is tuple:
            method, caller, *events = last
            last = self._last_record = InvocationRecord(method, caller, events, "ok")
        return last

    def note_invocation(self, record: InvocationRecord) -> None:
        self._last_record = record
        if self._tracing:
            self._records.append(record)

    def invocation_records(self) -> tuple[InvocationRecord, ...]:
        return tuple(self._records)

    # ------------------------------------------------------------------
    # the self facade handed to method bodies
    # ------------------------------------------------------------------

    def self_view(self) -> "SelfView":
        if self._self_view is None:
            self._self_view = SelfView(self)
        return self._self_view

    # ------------------------------------------------------------------
    # meta-method implementations (native, privileged)
    # ------------------------------------------------------------------

    def _install_meta_methods(self) -> None:
        """Bundle the meta-methods inside the object.

        They are ordinary :class:`MROMMethod` instances over the shared
        bodies of :data:`_META_SPECS`; placement (fixed vs extensible
        section) follows the ``extensible_meta`` switch.
        """
        # The reflective 'invoke' copy is not self-changing: invoking a
        # method through it is exactly as dangerous as invoking it
        # directly (the target's own Match still applies), so it is as
        # public as direct invocation. The mutating meta-methods get the
        # guarded meta ACL — "access to self-changing operations" is what
        # a mobile object withholds from its host.
        methods = {
            name: MROMMethod.prebuilt(
                name, body, (_PUBLIC_ACL if name == "invoke" else self._meta_acl).copy(),
                {"meta": True, "doc": doc},
            )
            for name, body, doc in _META_SPECS
        }
        containers = self.containers
        container = containers.ext_methods if self.extensible_meta else containers.fixed_methods
        container.fill(methods)

    # Each implementation receives (caller, args) where args is the
    # untyped parameter array of the meta-method invocation.

    def _meta_get_data_item(self, caller: Principal, args: list) -> tuple:
        """getDataItem(name) -> (description, handle).

        The manipulation meta-methods "are only applicable on items which
        are defined as extensible" (Section 3): a fixed item yields its
        description but no handle, so no ``setDataItem`` can target it.
        """
        (name,) = _expect(args, 1, "getDataItem")
        item, section = self.containers.lookup_data(name)
        if caller.guid != self.guid:
            item.check(caller, Permission.META)
        if section == FIXED:
            return item.describe(section).to_mapping(), None
        container = self.containers.container_of("data", name)
        return item.describe(section).to_mapping(), ItemHandle(item, container)

    def _resolve_handle(self, handle: Any, category: str):
        """Accept a live :class:`ItemHandle` or its wire token."""
        if isinstance(handle, ItemHandle):
            handle.ensure_valid()
            return handle.item
        if isinstance(handle, Mapping) and handle.get(HANDLE_TOKEN_KEY):
            name = str(handle.get("name", ""))
            nonce = handle.get("nonce")
            if category == "method" and name == "invoke" and self._meta_invokes:
                for level in self._meta_invokes:
                    if level.nonce == nonce:
                        return level
                raise StaleHandleError(f"tower handle for {name!r} is stale")
            if category == "data":
                found = self.containers.fixed_data.find(name) or \
                    self.containers.ext_data.find(name)
            else:
                found = self.containers.fixed_methods.find(name) or \
                    self.containers.ext_methods.find(name)
            if found is None or found.nonce != nonce:
                raise StaleHandleError(f"remote handle for {name!r} is stale")
            return found
        raise StructureError(
            f"set{'DataItem' if category == 'data' else 'Method'} requires "
            "the handle from the matching get meta-method"
        )

    def _meta_set_data_item(self, caller: Principal, args: list) -> dict:
        """setDataItem(handle, properties) — change item properties:
        'name', 'kind', 'acl', 'metadata' (not the value)."""
        handle, properties = _expect(args, 2, "setDataItem")
        item = self._resolve_handle(handle, "data")
        if caller.guid != self.guid:
            item.check(caller, Permission.META)
        section = self.containers.section_of("data", item.name)
        if section == FIXED:
            raise FixedSectionError(
                f"data item {item.name!r} is in the fixed section; "
                "setDataItem applies only to extensible items"
            )
        self._apply_data_properties(item, properties)
        return item.describe(section).to_mapping()

    def _apply_data_properties(self, item: DataItem, properties: Mapping) -> None:
        if "name" in properties:
            container = self.containers.container_of("data", item.name)
            container.rename(item.name, properties["name"])
        if "kind" in properties:
            item.set_kind(_property(item.name, "kind", properties["kind"]))
        if "acl" in properties:
            item.set_acl(_property(item.name, "acl", properties["acl"]))
        if "metadata" in properties:
            item.update_metadata(properties["metadata"])

    def _meta_add_data_item(self, caller: Principal, args: list) -> dict:
        """addDataItem(name, value[, properties]) — extensible section."""
        name, value, properties = _expect_between(args, 2, 3, "addDataItem")
        properties = properties or {}
        acl = properties.get("acl")
        item = DataItem(
            name,
            value,
            kind=_property(name, "kind", properties.get("kind", Kind.ANY)),
            acl=None if acl is None else _property(name, "acl", acl),
            metadata=properties.get("metadata"),
        )
        self.containers.add_extensible(item)
        return item.describe(EXTENSIBLE).to_mapping()

    def _meta_delete_data_item(self, caller: Principal, args: list) -> dict:
        """deleteDataItem(name) — extensible section only."""
        (name,) = _expect(args, 1, "deleteDataItem")
        item, _section = self.containers.lookup_data(name)
        if caller.guid != self.guid:
            item.check(caller, Permission.META)
        removed = self.containers.remove_extensible("data", name)
        return removed.describe(EXTENSIBLE).to_mapping()

    def _meta_get_method(self, caller: Principal, args: list) -> tuple:
        """getMethod(name) -> (description, handle)."""
        (name,) = _expect(args, 1, "getMethod")
        method, section = self._lookup_method_or_tower(name)
        if caller.guid != self.guid:
            method.check(caller, Permission.META)
        if section == "meta-tower":
            description = method.describe(EXTENSIBLE).to_mapping()
            self._attach_components(description, method)
            return description, ItemHandle(method, _TowerContainer(self))
        description = method.describe(section).to_mapping()
        self._attach_components(description, method)
        if section == FIXED:
            return description, None
        container = self.containers.container_of("method", name)
        return description, ItemHandle(method, container)

    @staticmethod
    def _attach_components(description: dict, method: MROMMethod) -> None:
        """META-privileged self-representation includes the portable
        source of the method's components — the owner can read back what
        it previously installed (needed e.g. for update rollback)."""
        if method.portable:
            description["components"] = method.pack_components()

    def _lookup_method_or_tower(self, name: str) -> tuple[MROMMethod, str]:
        if name == "invoke" and self._meta_invokes:
            return self._meta_invokes[-1], "meta-tower"
        return self.containers.lookup_method(name)

    def _meta_set_method(self, caller: Principal, args: list) -> dict:
        """setMethod(handle, properties) — change method properties:
        'name', 'acl', 'metadata', 'pre', 'post', 'body'."""
        handle, properties = _expect(args, 2, "setMethod")
        method = self._resolve_handle(handle, "method")
        if not isinstance(method, MROMMethod):
            raise StructureError("setMethod handle does not refer to a method")
        if caller.guid != self.guid:
            method.check(caller, Permission.META)
        in_tower = any(method is level for level in self._meta_invokes)
        if not in_tower:
            section = self.containers.section_of("method", method.name)
            if section == FIXED:
                raise FixedSectionError(
                    f"method {method.name!r} is in the fixed section; "
                    "setMethod applies only to extensible items"
                )
        self._apply_method_properties(method, properties, in_tower)
        section = EXTENSIBLE if in_tower else self.containers.section_of(
            "method", method.name
        )
        return method.describe(section).to_mapping()

    def _apply_method_properties(
        self, method: MROMMethod, properties: Mapping, in_tower: bool
    ) -> None:
        if "name" in properties and not in_tower:
            container = self.containers.container_of("method", method.name)
            container.rename(method.name, properties["name"])
        if "acl" in properties:
            method.set_acl(_property(method.name, "acl", properties["acl"]))
        if "metadata" in properties:
            method.update_metadata(properties["metadata"])
        # verify replacement components *before* touching the method, so a
        # rejected setMethod leaves it exactly as it was
        staged: dict[str, Any] = {}
        for role_name, role in (("pre", CodeRole.PRE), ("post", CodeRole.POST),
                                ("body", CodeRole.BODY)):
            if role_name in properties:
                carrier = as_code(
                    properties[role_name], role, label=f"{method.name}.{role_name}"
                )
                if carrier is not None and carrier.portable:
                    carrier.compile_now()  # type: ignore[attr-defined]
                staged[role_name] = carrier
        if "pre" in staged:
            method.pre = staged["pre"]
            method.touch()
        if "post" in staged:
            method.post = staged["post"]
            method.touch()
        if "body" in staged:
            if staged["body"] is None:
                raise StructureError(f"method {method.name!r} requires a body")
            method.body = staged["body"]
            method.touch()

    def _meta_add_method(self, caller: Principal, args: list) -> dict:
        """addMethod(name, body[, properties]) — extensible section.

        ``addMethod("invoke", ...)`` pushes a new meta-invoke level onto
        the tower (meta-mutability; requires ``extensible_meta``).
        """
        name, body, properties = _expect_between(args, 2, 3, "addMethod")
        properties = properties or {}
        acl = properties.get("acl")
        method = MROMMethod(
            name,
            body,
            pre=properties.get("pre"),
            post=properties.get("post"),
            acl=None if acl is None else _property(name, "acl", acl),
            metadata=properties.get("metadata"),
        ).verify()  # reject hostile code at install time, not first call
        if name == "invoke":
            self._push_meta_invoke(method)
            return method.describe(EXTENSIBLE).to_mapping()
        self.containers.add_extensible(method)
        return method.describe(EXTENSIBLE).to_mapping()

    def _meta_delete_method(self, caller: Principal, args: list) -> dict:
        """deleteMethod(name) — extensible section only; for 'invoke',
        pops the top meta-invoke level."""
        (name,) = _expect(args, 1, "deleteMethod")
        if name == "invoke" and self._meta_invokes:
            method = self._meta_invokes[-1]
            if caller.guid != self.guid:
                method.check(caller, Permission.META)
            return self._pop_meta_invoke().describe(EXTENSIBLE).to_mapping()
        method, _section = self.containers.lookup_method(name)
        if caller.guid != self.guid:
            method.check(caller, Permission.META)
        removed = self.containers.remove_extensible("method", name)
        return removed.describe(EXTENSIBLE).to_mapping()

    def _meta_reflective_invoke(self, caller: Principal, args: list) -> Any:
        """invoke(name, args) — the reflective copy of the invocation
        mechanism; "used to invoke any method of the object, including
        meta-methods"."""
        name, call_args = _expect_between(args, 1, 2, "invoke")
        return self.invoke(name, call_args or [], caller)

    # ------------------------------------------------------------------
    # description
    # ------------------------------------------------------------------

    def describe_items(self) -> list[ItemDescription]:
        descriptions = self.containers.describe_all()
        for level, method in enumerate(self._meta_invokes, start=1):
            description = method.describe(EXTENSIBLE)
            descriptions.append(
                ItemDescription(
                    name=f"invoke@level{level}",
                    category="method",
                    section=EXTENSIBLE,
                    portable=description.portable,
                    has_pre=description.has_pre,
                    has_post=description.has_post,
                    version=description.version,
                    acl=description.acl,
                    metadata=dict(description.metadata, meta_level=level),
                )
            )
        return descriptions

    def __repr__(self) -> str:
        label = self.principal.display_name or self.guid
        tower = f", tower={len(self._meta_invokes)}" if self._meta_invokes else ""
        return f"MROMObject({label!r}, {self.containers!r}{tower})"


class _TowerContainer:
    """Adapter so :class:`ItemHandle` validity works for tower levels."""

    __slots__ = ("_obj",)

    def __init__(self, obj: MROMObject):
        self._obj = obj

    def holds(self, item: Any) -> bool:
        return any(item is level for level in self._obj.meta_invoke_chain())


def _meta_spec(name: str, implementation) -> tuple:
    """One row of :data:`_META_SPECS`: the meta-method's name, its one
    native body (shared by every object; it dispatches to the invoked
    object's privileged implementation) and its doc."""

    def body(self_view: "SelfView", args: list, ctx) -> Any:
        return implementation(ctx.invoker.obj, ctx.caller, list(args))

    body.__name__ = implementation.__name__.lstrip("_")
    return name, NativeCode(body, CodeRole.BODY, f"{name}.body"), implementation.__doc__ or ""


#: the reflective 'invoke' copy's ACL; each object gets its own copy
_PUBLIC_ACL = allow_all()

#: the nine bundled meta-methods, in installation order
_META_SPECS = tuple(map(_meta_spec, META_METHOD_NAMES, (
    MROMObject._meta_get_data_item, MROMObject._meta_set_data_item,
    MROMObject._meta_add_data_item, MROMObject._meta_delete_data_item,
    MROMObject._meta_get_method, MROMObject._meta_set_method,
    MROMObject._meta_add_method, MROMObject._meta_delete_method,
    MROMObject._meta_reflective_invoke,
)))


def _property(item: str, field: str, value: Any) -> Any:
    """The ``kind`` (a :class:`Kind` or its name) or ``acl`` (an ACL or
    its description, as a remote caller sends it) property of *item*; a
    malformed one is refused naming the item."""
    if field == "acl" and isinstance(value, AccessControlList):
        return value
    parse = Kind if field == "kind" else AccessControlList.from_description
    try:
        return parse(value)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise StructureError(
            f"item {item!r} has a malformed {field} ({type(exc).__name__}: {exc})"
        ) from None


def _expect(args: Sequence, count: int, operation: str) -> Sequence:
    if len(args) != count:
        raise StructureError(
            f"{operation} expects {count} argument(s), got {len(args)}"
        )
    return args


def _expect_between(args: Sequence, low: int, high: int, operation: str) -> list:
    if not (low <= len(args) <= high):
        raise StructureError(
            f"{operation} expects {low}..{high} arguments, got {len(args)}"
        )
    padded = list(args) + [None] * (high - len(args))
    return padded


class SelfView:
    """The facade a method body receives as ``self``.

    Operations run with the *object's own principal* as caller, which the
    Match phase treats as trusted — an object is always allowed to operate
    on itself (self-containment). The facade deliberately exposes no
    underscore attributes so it is safe to hand to sandboxed portable
    code.
    """

    def __init__(self, obj: MROMObject):
        # stored under names the sandbox cannot reach (dunder-mangled
        # access is rejected by the verifier)
        object.__setattr__(self, "_SelfView__obj", obj)
        object.__setattr__(self, "_SelfView__find", obj.containers.find_data)

    # read-only identity ---------------------------------------------------

    @property
    def guid(self) -> str:
        return self.__obj.guid

    @property
    def owner_guid(self) -> str:
        return self.__obj.owner.guid

    @property
    def env(self) -> dict:
        return self.__obj.environment

    # value access ----------------------------------------------------------

    # get_data/set_data for the object's own principal: no ACL, but
    # ``poke`` still coerces to the declared kind
    def get(self, name: str) -> Any:
        return self.__find(name).peek()

    def set(self, name: str, value: Any) -> None:
        self.__find(name).poke(value)

    def has_data(self, name: str) -> bool:
        return self.__obj.containers.has_data(name)

    def has_method(self, name: str) -> bool:
        return self.__obj.containers.has_method(name)

    # sibling invocation ------------------------------------------------------

    def call(self, name: str, *args: Any) -> Any:
        return self.__obj.invoke(name, list(args), caller=self.__obj.principal)

    def call_primitive(self, name: str, *args: Any) -> Any:
        return self.__obj.invoke_primitive(
            name, list(args), caller=self.__obj.principal
        )

    # reflective conveniences (routed through the meta-methods) ---------------

    def add_data(self, name: str, value: Any, properties: Mapping | None = None):
        return self.call("addDataItem", name, value, dict(properties or {}))

    def delete_data(self, name: str):
        return self.call("deleteDataItem", name)

    def add_method(self, name: str, body: Any, properties: Mapping | None = None):
        return self.call("addMethod", name, body, dict(properties or {}))

    def delete_method(self, name: str):
        return self.call("deleteMethod", name)

    def data_names(self) -> list[str]:
        containers = self.__obj.containers
        return list(containers.fixed_data.names() + containers.ext_data.names())

    def method_names(self) -> list[str]:
        containers = self.__obj.containers
        return list(
            containers.fixed_methods.names() + containers.ext_methods.names()
        )

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("SelfView is read-only; use set()/add_data()")

    def __repr__(self) -> str:
        return f"SelfView({self.__obj.guid})"
