"""Packing: turning a live MROM object into transferable data and back.

"When the Ambassador arrives (as data) the importing IOO unpacks it ..."
(Section 5). A package is a plain weakly-typed mapping — structure,
portable code (as verified source text), data values, ACLs, the
meta-invoke tower — that survives the wire format byte-for-byte. The
receiving site rebuilds a *genuinely independent* object from it: the
bundled meta-methods are reinstalled fresh (they are behaviour every MROM
object carries by construction), portable code is re-verified by the
sandbox before it can run, and identity (the guid) travels with the
object — migration moves the object, it does not mint a new one.

An object containing native code cannot be packed:
:class:`~repro.core.errors.NotPortableError` lists the offending items,
so "make it portable" is an actionable error.
"""

from __future__ import annotations

from typing import Mapping

from ..core.acl import AccessControlList, Principal
from ..core.errors import FixedSectionError, MobilityError, MROMError, NotPortableError
from ..core.items import DataItem, MROMMethod
from ..core.mobject import MROMObject, is_bundled_meta
from ..core.values import Kind, LazyCell, snapshot_value
from ..net.marshal import (
    MarshalFrame,
    Resolve,
    marshal,
    marshal_frame,
    materialize_deep,
    unmarshal,
)

__all__ = [
    "FORMAT",
    "pack",
    "pack_bytes",
    "pack_frame",
    "unpack",
    "unpack_bytes",
    "portability_report",
]

FORMAT = "mrom-object/1"

#: Environment keys that never travel: they are host-provided bindings
#: of the *current* installation, meaningless (or hostile) elsewhere.
_HOST_ONLY_ENV = frozenset({"site", "domain", "host", "install_context"})


def portability_report(
    obj: MROMObject, ignore_wrappers: bool = False
) -> list[str]:
    """Names of items that pin the object to this runtime (native code).

    With *ignore_wrappers*, native pre-/post-procedures do not count:
    they are host-side attachments (mediators, preparation hooks) that a
    host may legitimately strip when imaging the object — only a native
    *body* makes the behaviour itself unportable.
    """

    def pinned(method: MROMMethod) -> bool:
        if ignore_wrappers:
            return not method.body.portable
        return not method.portable

    offenders: list[str] = []
    for item, category, _section in obj.containers.iter_with_sections():
        if category != "method" or not isinstance(item, MROMMethod):
            continue
        if is_bundled_meta(item):
            continue  # bundled meta-methods are reinstalled, never packed
        if pinned(item):
            offenders.append(item.name)
    for level, method in enumerate(obj.meta_invoke_chain(), start=1):
        if pinned(method):
            offenders.append(f"invoke@level{level}")
    return offenders


def _pack_data(item: DataItem) -> dict:
    return {
        "name": item.name,
        "value": snapshot_value(item.peek()),
        "kind": item.kind._value_,  # an attribute read; ``.value`` is a property call
        "acl": item.acl.describe(),
        "metadata": dict(item.metadata),
    }


def _pack_method(method: MROMMethod, strip_native_wrappers: bool = False) -> dict:
    components = {"body": method.body.describe()}
    for role, carrier in (("pre", method.pre), ("post", method.post)):
        if carrier is None:
            continue
        if not carrier.portable and strip_native_wrappers:
            continue  # host-side wrapper: stays with the host
        components[role] = carrier.describe()
    return {
        "name": method.name,
        "components": components,
        "acl": method.acl.describe(),
        "metadata": dict(method.metadata),
    }


def pack(obj: MROMObject, strip_native_wrappers: bool = False) -> dict:
    """The transferable description of *obj*.

    Raises :class:`NotPortableError` when a method not bundled carries
    native code, and :class:`~repro.core.errors.MarshalError` later (at
    :func:`pack_bytes` time) if a data value has no wire representation,
    or at once if it nests past 64 levels (a cycle, say).
    With *strip_native_wrappers*, native pre-/post-procedures (host-side
    mediators and hooks) are silently dropped from the image instead of
    blocking it — used by the journal and the image store.
    """
    offenders = portability_report(obj, ignore_wrappers=strip_native_wrappers)
    if offenders:
        raise NotPortableError(obj.guid, tuple(offenders))

    def data_of(container) -> list[dict]:
        return [_pack_data(item) for item in container if isinstance(item, DataItem)]

    def methods_of(container) -> list[dict]:
        return [
            _pack_method(item, strip_native_wrappers)
            for item in container
            if isinstance(item, MROMMethod) and not is_bundled_meta(item)
        ]

    return {
        "format": FORMAT,
        "guid": obj.guid,
        "display_name": obj.principal.display_name,
        "domain": obj.principal.domain,
        "owner": {
            "guid": obj.owner.guid,
            "domain": obj.owner.domain,
            "name": obj.owner.display_name,
        },
        "extensible_meta": obj.extensible_meta,
        "meta_acl": obj._meta_acl.describe(),
        "fixed_data": data_of(obj.containers.fixed_data),
        "ext_data": data_of(obj.containers.ext_data),
        "fixed_methods": methods_of(obj.containers.fixed_methods),
        "ext_methods": methods_of(obj.containers.ext_methods),
        "tower": [
            _pack_method(level, strip_native_wrappers)
            for level in obj.meta_invoke_chain()
        ],
        "environment": {
            key: value
            for key, value in obj.environment.items()
            if key not in _HOST_ONLY_ENV
        },
    }


def pack_bytes(obj: MROMObject, strip_native_wrappers: bool = False) -> bytes:
    """Wire form of the package (this is what actually migrates)."""
    return marshal(pack(obj, strip_native_wrappers=strip_native_wrappers))


#: what a package without an ACL or metadata field reads as
_EMPTY: Mapping = {}


def _text(value) -> str:
    """A package's text field (a name or an identity): text, or refused."""
    if isinstance(value, str):
        return str(value)
    raise MobilityError(f"package text field is {type(value).__name__}, not str")


def _metadata(raw: Mapping, resolve: Resolve | None) -> dict | None:
    """An item's metadata, materialized (a value may be a reference), or
    None when there is none."""
    metadata = raw.get("metadata", _EMPTY)
    if type(metadata) is dict and not metadata:
        return None
    return dict(materialize_deep(metadata, resolve))


def _unpack_data(raw: Mapping, resolve: Resolve | None) -> DataItem:
    # a deferred binary may stay only as a whole item value: DataItem
    # slices it on first read, so an item never touched is never copied.
    # A nested value and metadata are materialized now, so no cell can
    # leak into them; the ACL is read in place and keeps only text
    value = raw.get("value")
    if not isinstance(value, LazyCell):
        value = materialize_deep(value, resolve)
    return DataItem(
        _text(raw["name"]),
        value,
        kind=Kind(raw.get("kind", "any")),
        acl=AccessControlList.from_description(raw.get("acl", _EMPTY)),
        metadata=_metadata(raw, resolve),
    )


def _unpack_method(raw: Mapping, resolve: Resolve | None) -> MROMMethod:
    # the components are read in place: a code description keeps only
    # its text fields, which code_from_description type-checks
    return MROMMethod.from_packed(
        _text(raw["name"]),
        raw["components"],
        acl=AccessControlList.from_description(raw.get("acl", _EMPTY)),
        metadata=_metadata(raw, resolve),
    )


def unpack(package: Mapping, resolve: Resolve | None = None) -> MROMObject:
    """Rebuild a live object from a package.

    With a receiving site's *resolve* (``Site.resolve_reference``), the
    wire references in the package resolve in the walk that rebuilds it.
    That walk copies only where a reference may sit: item values,
    non-empty metadata and the environment. ACL and code descriptions
    are read in place, and every text field the object keeps from them
    is type-checked, so the object shares nothing with *package*.

    Portable code is *not* executed here — it is verified and compiled
    lazily on first invocation (or eagerly by a host policy that calls
    :meth:`~repro.core.code.PortableCode.compile_now` during admission).
    A package that arrived tampered with fails with a typed
    :class:`MobilityError` (or the :class:`MROMError` a component raised
    itself), never with a bare ``KeyError``, ``ValueError``,
    ``TypeError`` or ``AttributeError`` (a field of the wrong type). An
    empty or missing guid is refused, never replaced by a fresh one: the
    identity travels with the object. A native-code stub is a
    :class:`NotPortableError`, and a meta-invoke tower on a package whose
    meta section is fixed a :class:`FixedSectionError`, raised before any
    level is decoded.
    """
    try:
        return _unpack(package, resolve)
    except MROMError:
        raise  # ItemNotFoundError is a KeyError too: keep its type
    except (KeyError, ValueError, TypeError, AttributeError) as exc:
        raise MobilityError(f"malformed package: {exc!r}") from exc


def _unpack(package: Mapping, resolve: Resolve | None) -> MROMObject:
    if package.get("format") != FORMAT:
        raise MobilityError(
            f"unknown package format {package.get('format')!r}"
        )
    guid = _text(package["guid"])
    if not guid:
        raise MobilityError(
            "package carries no guid; identity must travel with the object"
        )
    extensible_meta = bool(package.get("extensible_meta", False))
    tower = package.get("tower", [])
    if tower and not extensible_meta:
        raise FixedSectionError(
            f"package {guid} carries a {len(tower)}-level meta-invoke tower "
            "but declares its meta section fixed"
        )
    owner_raw = package.get("owner", {})
    owner = Principal(
        guid=_text(owner_raw.get("guid", "mrom:anonymous")),
        domain=_text(owner_raw.get("domain", "")),
        display_name=_text(owner_raw.get("name", "")),
    )
    obj = MROMObject(
        guid=guid,
        domain=_text(package.get("domain", "")),
        display_name=_text(package.get("display_name", "")),
        owner=owner,
        extensible_meta=extensible_meta,
        meta_acl=AccessControlList.from_description(
            package.get("meta_acl", _EMPTY)
        ),
        environment=dict(materialize_deep(package.get("environment", {}), resolve)),
    )
    for raw in package.get("fixed_data", []):
        obj.containers.add_fixed(_unpack_data(raw, resolve))
    for raw in package.get("fixed_methods", []):
        obj.containers.add_fixed(_unpack_method(raw, resolve))
    obj.seal()
    for raw in package.get("ext_data", []):
        obj.containers.add_extensible(_unpack_data(raw, resolve))
    for raw in package.get("ext_methods", []):
        obj._restore_extensible_method(_unpack_method(raw, resolve))
    for raw in tower:
        obj._push_meta_invoke(_unpack_method(raw, resolve))
    return obj


def pack_frame(obj: MROMObject, strip_native_wrappers: bool = False) -> MarshalFrame:
    """The wire form as a zero-copy frame (no final ``bytes`` copy).

    Byte-identical to :func:`pack_bytes`; the caller owns the frame and
    must release it (context manager or :meth:`~repro.net.marshal.
    MarshalFrame.release`) once the view has been consumed.
    """
    return marshal_frame(pack(obj, strip_native_wrappers=strip_native_wrappers))


def unpack_bytes(wire: bytes) -> MROMObject:
    """Rebuild an object from its wire form.

    The whole message is decoded and validated now, text included, but
    a large binary item value (see :data:`~repro.net.marshal.
    DEFER_BINARY_MIN`) stays a cell over the message until first read,
    so an object's bulk state costs nothing until the receiver touches
    it. A touched object is value-identical to ``unpack(unmarshal(wire))``.
    """
    package = unmarshal(wire, defer_binary=True)
    if not isinstance(package, Mapping):
        raise MobilityError("wire message is not an object package")
    return unpack(package)
