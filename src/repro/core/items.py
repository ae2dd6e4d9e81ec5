"""Items: the data members and methods MROM objects are made of.

"Both data-items and methods are implemented as Java classes. The
data-item class holds the actual MROM (untyped) datum as a Java
data-member and the method class holds MROM method components (body, pre-
and post-procedures) as Java methods." (Section 4.)

Here the corresponding classes are :class:`DataItem` and
:class:`MROMMethod`. Both carry their own ACL (security coupled with
encapsulation — per item, per object granularity) and free-form metadata
(used by the self-representation machinery for signature hints,
documentation strings, interface tags, ...).

``getDataItem``/``getMethod`` return an :class:`ItemDescription` together
with an :class:`ItemHandle`; ``setDataItem``/``setMethod`` consume the
handle to change the item's *properties* — "security access or
encapsulation, name, or their dynamic type" — as opposed to the ordinary
``get``/``set`` which touch only the value.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, field
from typing import Any, Mapping

from .acl import (
    GET_BIT,
    INVOKE_BIT,
    META_BIT,
    AccessControlList,
    Permission,
    Principal,
    allow_all,
)
from .code import CodeRole, MethodCode, as_code, code_from_description
from .errors import KindError, MobilityError, StaleHandleError
from .values import Kind, LazyCell, coerce, conforms

__all__ = [
    "DataItem",
    "MROMMethod",
    "ItemDescription",
    "ItemHandle",
]

_serial = itertools.count(1)


def _draw_nonce_prefix() -> None:
    # an item's nonce is this per-process random prefix plus its serial; a
    # forked child inherits the counter, so it draws a prefix of its own
    global _nonce_prefix
    _nonce_prefix = os.urandom(4).hex()


_draw_nonce_prefix()
os.register_at_fork(after_in_child=_draw_nonce_prefix)


def _mint_nonce() -> str:
    return f"{_nonce_prefix}{next(_serial):x}"

# enum members and values read once: every ``Permission.GET`` or
# ``.value`` lookup is a Python-level call on the Match path
_GET = Permission.GET
_SET = Permission.SET
#: an item is visible to whoever may read, invoke or meta-manipulate it
_VISIBLE_BITS = GET_BIT | INVOKE_BIT | META_BIT
_ANY_KIND = Kind.ANY.value
_ANY = Kind.ANY


@dataclass(frozen=True)
class ItemDescription:
    """What ``getDataItem``/``getMethod`` reveal about an item.

    This is the unit of *self-representation*: a host interrogating a
    newcomer object receives these, never the raw internals.
    """

    name: str
    category: str  # "data" | "method"
    section: str  # "fixed" | "extensible"
    kind: str = Kind.ANY.value  # declared dynamic kind (data items)
    portable: bool = True
    has_pre: bool = False
    has_post: bool = False
    version: int = 1
    acl: dict = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)

    def to_mapping(self) -> dict:
        """A plain-mapping form, suitable for marshaling to a remote host."""
        return {
            "name": self.name,
            "category": self.category,
            "section": self.section,
            "kind": self.kind,
            "portable": self.portable,
            "has_pre": self.has_pre,
            "has_post": self.has_post,
            "version": self.version,
            "acl": dict(self.acl),
            "metadata": dict(self.metadata),
        }


class _Item:
    """Shared behaviour of data items and methods."""

    __slots__ = ("name", "acl", "metadata", "version", "nonce", "clock")

    category: str = "item"

    def __init__(
        self,
        name: str,
        acl: AccessControlList | None = None,
        metadata: Mapping[str, Any] | None = None,
    ):
        if not name or not isinstance(name, str):
            raise ValueError("item name must be a non-empty string")
        self.name = name
        self.acl = acl if acl is not None else allow_all()
        self.metadata: dict[str, Any] = dict(metadata) if metadata else {}
        self.version = 1
        # identifies this item *instance*: handles (local or tokenized on
        # the wire) pin the nonce, so a replaced item stales them
        self.nonce = _mint_nonce()
        self.clock = None  # its object's structural clock, once it is held

    # -- property manipulation (setDataItem / setMethod targets) ----------

    def touch(self) -> None:
        """Record that a property of the item changed (its object's clock too)."""
        self.version += 1
        if self.clock is not None:
            self.clock.bump()

    def rename(self, new_name: str) -> None:
        if not new_name or not isinstance(new_name, str):
            raise ValueError("item name must be a non-empty string")
        self.name = new_name
        self.touch()

    def set_acl(self, acl: AccessControlList) -> None:
        self.acl = acl
        self.touch()

    def update_metadata(self, updates: Mapping[str, Any]) -> None:
        self.metadata.update(updates)
        self.touch()

    # -- security ----------------------------------------------------------

    def check(self, principal: Principal, permission: Permission) -> None:
        self.acl.check(principal, permission, self.name)

    def visible_to(self, principal: Principal) -> bool:
        """Encapsulation-as-security: an item a principal may neither read
        nor invoke nor meta-manipulate simply does not appear when that
        principal interrogates the object."""
        return bool(self.acl.mask_for(principal) & _VISIBLE_BITS)


class DataItem(_Item):
    """A named, weakly-typed datum with its own ACL.

    The declared *kind* is dynamic: it may be :data:`Kind.ANY` (fully
    untyped) or a concrete kind, in which case assigned values are
    generically coerced to it — the paper's coercion requirement applied
    at the item boundary.
    """

    __slots__ = ("_value", "kind")

    category = "data"

    def __init__(
        self,
        name: str,
        value: Any = None,
        kind: Kind = Kind.ANY,
        acl: AccessControlList | None = None,
        metadata: Mapping[str, Any] | None = None,
    ):
        super().__init__(name, acl=acl, metadata=metadata)
        self.kind = kind
        self._value = self._admit(value)

    def _admit(self, value: Any) -> Any:
        if isinstance(value, LazyCell):
            # a deferred binary leaf of the message: fully untyped items keep
            # the cell (decode on first read); a concrete declared kind
            # needs the value now to coerce it
            if self.kind is Kind.ANY:
                return value
            value = value.materialize()
        if self.kind is Kind.ANY or conforms(value, self.kind):
            return value
        return coerce(value, self.kind)

    # -- value access (ordinary get/set, *not* the meta-operations) -------

    def get_value(self, caller: Principal) -> Any:
        self.check(caller, _GET)
        return self.peek()

    def set_value(self, caller: Principal, value: Any) -> None:
        self.check(caller, _SET)
        self._value = self._admit(value)

    def peek(self) -> Any:
        """Unchecked read, for the object's own runtime only."""
        value = self._value
        if isinstance(value, LazyCell):
            value = self._value = value.materialize()
        return value

    def poke(self, value: Any) -> None:
        """Unchecked write, for the object's own runtime only.

        Still enforces the declared dynamic kind — self-trust bypasses the
        ACL, never the typing discipline.
        """
        # an untyped item admits every value as it is (see _admit)
        self._value = value if self.kind is _ANY else self._admit(value)

    # -- dynamic-type property ---------------------------------------------

    def set_kind(self, kind: Kind) -> None:
        """Change the declared dynamic kind, coercing the current value."""
        if not isinstance(kind, Kind):
            raise KindError(f"not a Kind: {kind!r}")
        previous, self.kind = self.kind, kind
        try:
            self._value = self._admit(self._value)
        except BaseException:
            self.kind = previous  # a value that will not coerce keeps both
            raise
        self.touch()

    # -- description ---------------------------------------------------------

    @property
    def portable(self) -> bool:
        """Data items are portable when their value marshals; the wire
        format decides that at pack time, so structurally they always are."""
        return True

    def describe(self, section: str) -> ItemDescription:
        return ItemDescription(
            name=self.name,
            category=self.category,
            section=section,
            kind=self.kind._value_,
            portable=self.portable,
            version=self.version,
            acl=self.acl.describe(),
            metadata=dict(self.metadata),
        )

    def __repr__(self) -> str:
        return f"DataItem({self.name!r}, kind={self.kind.value}, v{self.version})"


#: the component roles a packed method may carry
_PACKED_ROLES = frozenset(("body", "pre", "post"))


class MROMMethod(_Item):
    """A named method: body plus optional pre- and post-procedures.

    Pre/post are the *wrapping* mechanism (Section 3.1): attachable
    dynamically (via ``setMethod``), usable for environment integration,
    assertions, charging, approval...
    """

    __slots__ = ("body", "pre", "post")

    category = "method"

    def __init__(
        self,
        name: str,
        body: "MethodCode | str | Any",
        pre: "MethodCode | str | Any" = None,
        post: "MethodCode | str | Any" = None,
        acl: AccessControlList | None = None,
        metadata: Mapping[str, Any] | None = None,
    ):
        super().__init__(name, acl=acl, metadata=metadata)
        body_code = as_code(body, CodeRole.BODY, label=f"{name}.body")
        if body_code is None:
            raise ValueError(f"method {name!r} requires a body")
        self.body: MethodCode = body_code
        self.pre: MethodCode | None = as_code(pre, CodeRole.PRE, label=f"{name}.pre")
        self.post: MethodCode | None = as_code(post, CodeRole.POST, label=f"{name}.post")

    @classmethod
    def prebuilt(
        cls, name: str, body: MethodCode, acl: AccessControlList, metadata: dict
    ) -> "MROMMethod":
        """A method from parts the caller already checked and owns (the
        bundled meta-methods): no name validation, no ``as_code``."""
        method = cls.__new__(cls)
        method.name, method.acl, method.metadata, method.body = name, acl, metadata, body
        method.version, method.nonce, method.clock = 1, _mint_nonce(), None
        method.pre = method.post = None
        return method

    # -- wrapping (setMethod property changes) ------------------------------

    def set_pre(self, pre: "MethodCode | str | Any") -> None:
        self.pre = as_code(pre, CodeRole.PRE, label=f"{self.name}.pre")
        self.touch()

    def set_post(self, post: "MethodCode | str | Any") -> None:
        self.post = as_code(post, CodeRole.POST, label=f"{self.name}.post")
        self.touch()

    def set_body(self, body: "MethodCode | str | Any") -> None:
        new_body = as_code(body, CodeRole.BODY, label=f"{self.name}.body")
        if new_body is None:
            raise ValueError(f"method {self.name!r} requires a body")
        self.body = new_body
        self.touch()

    def verify(self) -> "MROMMethod":
        """Eagerly verify and compile every portable component.

        The mutating meta-methods call this at install time so hostile
        source is rejected when it is *added*, never when it first runs —
        the same verify-before-install stance the admission policy takes.
        Returns self for chaining.
        """
        for component in (self.body, self.pre, self.post):
            if component is not None and component.portable:
                component.compile_now()  # type: ignore[attr-defined]
        return self

    # -- description ----------------------------------------------------------

    @property
    def portable(self) -> bool:
        components = [self.body, self.pre, self.post]
        return all(c is None or c.portable for c in components)

    def describe(self, section: str) -> ItemDescription:
        return ItemDescription(
            name=self.name,
            category=self.category,
            section=section,
            kind=_ANY_KIND,
            portable=self.portable,
            has_pre=self.pre is not None,
            has_post=self.post is not None,
            version=self.version,
            acl=self.acl.describe(),
            metadata=dict(self.metadata),
        )

    def pack_components(self) -> dict:
        """Describe body/pre/post for migration (portable methods only)."""
        packed = {"body": self.body.describe()}
        if self.pre is not None:
            packed["pre"] = self.pre.describe()
        if self.post is not None:
            packed["post"] = self.post.describe()
        return packed

    @classmethod
    def from_packed(
        cls,
        name: str,
        components: dict,
        acl: AccessControlList | None = None,
        metadata: Mapping[str, Any] | None = None,
    ) -> "MROMMethod":
        """Rebuild a method from packed component descriptions; a role
        other than ``body``, ``pre`` and ``post`` is refused."""
        for role in components:
            if role not in _PACKED_ROLES:
                raise MobilityError(
                    f"method {name!r} has unknown component role {role!r}"
                )
        body = code_from_description(components["body"])
        pre = (
            code_from_description(components["pre"])
            if "pre" in components
            else None
        )
        post = (
            code_from_description(components["post"])
            if "post" in components
            else None
        )
        return cls(name, body, pre=pre, post=post, acl=acl, metadata=metadata)

    def __repr__(self) -> str:
        wraps = []
        if self.pre is not None:
            wraps.append("pre")
        if self.post is not None:
            wraps.append("post")
        suffix = f", wraps={'+'.join(wraps)}" if wraps else ""
        return f"MROMMethod({self.name!r}, v{self.version}{suffix})"


#: marker key of a tokenized handle on the wire
HANDLE_TOKEN_KEY = "__item_handle__"


class ItemHandle:
    """An opaque capability to change an item's properties.

    Returned by ``getDataItem``/``getMethod`` alongside the description;
    consumed by ``setDataItem``/``setMethod``. A handle pins the *identity*
    of the item (not its name): if the item is deleted or replaced in its
    container, the handle goes stale and property changes through it raise
    :class:`StaleHandleError` instead of mutating a ghost.

    Handles are process-local capabilities; crossing a site boundary they
    become *tokens* (:meth:`token`) — plain mappings naming the item and
    its instance nonce — which the owning object re-validates on use, so
    remote handles stale exactly when local ones would.
    """

    __slots__ = ("_item", "_container")

    def __init__(self, item: _Item, container: "Any"):
        self._item = item
        self._container = container

    @property
    def item(self) -> _Item:
        self.ensure_valid()
        return self._item

    @property
    def name(self) -> str:
        return self._item.name

    def is_valid(self) -> bool:
        return self._container.holds(self._item)

    def ensure_valid(self) -> None:
        if not self.is_valid():
            raise StaleHandleError(
                f"handle for item {self._item.name!r} is stale"
            )

    def token(self) -> dict:
        """The wire form of this handle (marshal-friendly mapping)."""
        return {
            HANDLE_TOKEN_KEY: True,
            "name": self._item.name,
            "category": self._item.category,
            "nonce": self._item.nonce,
        }

    def __repr__(self) -> str:
        state = "valid" if self.is_valid() else "stale"
        return f"ItemHandle({self._item.name!r}, {state})"
