"""The wire format: a self-contained tagged binary marshal.

The paper's HADAS used Java serialization; a self-contained object model
deserves a self-contained wire format, so this module implements one from
scratch rather than borrowing :mod:`pickle` (whose by-reference class
semantics would smuggle *non*-self-contained state across sites, and
whose decoder executes arbitrary constructors — exactly what a host
receiving a hostile mobile object must never do).

Encoding: one tag byte per value, followed by a payload.

=====  ==========  =============================================
tag    kind        payload
=====  ==========  =============================================
``N``  null        —
``T``  true        —
``F``  false       —
``I``  integer     varint (zig-zag signed)
``R``  real        8-byte IEEE-754 big-endian
``S``  text        varint length + UTF-8 bytes
``H``  html        varint length + UTF-8 bytes
``B``  binary      varint length + raw bytes
``L``  list        varint count + elements
``M``  mapping     varint count + key/value pairs
``G``  reference   varint length + guid text (UTF-8)
=====  ==========  =============================================

A complete message is ``MRM1`` + one value. Decoding is strict: unknown
tags, truncated payloads and trailing garbage all raise
:class:`~repro.core.errors.MarshalError` — a hostile peer cannot make the
decoder misbehave, only fail.
"""

from __future__ import annotations

import itertools
import struct
from typing import Any, Callable, Iterator, Mapping, Sequence

from ..core.errors import MarshalError
from ..core.values import HtmlText, LazyCell

__all__ = [
    "marshal",
    "marshal_frame",
    "encode",
    "Encoded",
    "unmarshal",
    "materialize_deep",
    "BinaryCell",
    "DEFER_BINARY_MIN",
    "marshalled_size",
    "Reference",
    "MAGIC",
    "TRACE_FIELD",
    "attach_trace",
    "extract_trace",
]

MAGIC = b"MRM1"

#: Envelope key a request's telemetry trace context travels under. The
#: leading ``~`` keeps it out of the application namespace (protocol
#: payload fields are plain identifiers); handlers that enumerate known
#: keys simply never look at it. The value is the plain string mapping
#: of :meth:`repro.telemetry.context.TraceContext.to_wire`, so it rides
#: the tagged marshal like any other payload data.
TRACE_FIELD = "~trace"


def attach_trace(payload: Any, wire_context: dict) -> Any:
    """A copy of *payload* carrying *wire_context* (mappings only —
    non-mapping payloads have nowhere to put an envelope field)."""
    if not isinstance(payload, dict):
        return payload
    stamped = dict(payload)
    stamped[TRACE_FIELD] = wire_context
    return stamped


def extract_trace(payload: Any) -> Any:
    """The wire trace context of *payload*, or None."""
    if isinstance(payload, dict):
        return payload.get(TRACE_FIELD)
    return None

_TAG_NULL = ord("N")
_TAG_TRUE = ord("T")
_TAG_FALSE = ord("F")
_TAG_INT = ord("I")
_TAG_REAL = ord("R")
_TAG_TEXT = ord("S")
_TAG_HTML = ord("H")
_TAG_BINARY = ord("B")
_TAG_LIST = ord("L")
_TAG_MAPPING = ord("M")
_TAG_REFERENCE = ord("G")

#: Safety bound: a single collection may not claim more elements than
#: this, so a forged length prefix cannot make the decoder allocate
#: unbounded memory before the "truncated payload" check trips.
MAX_COLLECTION = 1_000_000


# ---------------------------------------------------------------------------
# encode/decode fast-paths
#
# None of these change a single wire byte — they trade memory for the
# allocations and Python calls that dominate marshalling cost on hot RMI
# paths:
#
# * type dispatch in the encoder and tag dispatch in the decoder, with
#   the common children of a collection (short text, small ints, null,
#   booleans) written and read inline instead of by a recursive call;
# * precomputed encodings for small integers (args, counts, lamport
#   clocks are overwhelmingly small) and for one-byte collection heads;
# * an interning table for short strings and references (method names,
#   payload keys and GUIDs recur endlessly), bounded and dropped
#   wholesale on overflow so a hostile peer cannot grow it unboundedly;
# * decode-side interning of short text payloads keyed by the raw bytes,
#   so the same method name decoded a thousand times is one str object.
# ---------------------------------------------------------------------------

_INTERN_MAX_CHARS = 64
_INTERN_CAP = 4096

#: the complete encodings of the ints -64..256
_SMALL_INTS: dict[int, bytes] = {}
_TEXT_INTERN: dict[str, bytes] = {}
_REF_INTERN: dict[tuple[str, str], bytes] = {}
_DECODE_INTERN: dict[bytes, str] = {}


def _reset_fastpath_state() -> None:
    """Drop the interning tables (tests, tuning)."""
    _TEXT_INTERN.clear()
    _REF_INTERN.clear()
    _DECODE_INTERN.clear()
    _SMALL_INTS.clear()
    for n in range(-64, 257):
        _SMALL_INTS[n] = _head(_TAG_INT, _zigzag(n))


class Reference:
    """A by-identity value on the wire: "this guid, at this site".

    Objects never marshal by value implicitly — that is what the explicit
    mobility package (:mod:`repro.mobility.package`) is for. When an MROM
    object (anything with a ``guid``) appears inside arguments or results,
    it travels as a :class:`Reference`, which the receiving site turns
    into a remote proxy.
    """

    __slots__ = ("guid", "site")

    def __init__(self, guid: str, site: str = ""):
        self.guid = guid
        self.site = site

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Reference)
            and other.guid == self.guid
            and other.site == self.site
        )

    def __hash__(self) -> int:
        return hash((self.guid, self.site))

    def __repr__(self) -> str:
        return f"Reference({self.guid!r}, site={self.site!r})"


# ---------------------------------------------------------------------------
# varint (unsigned LEB128) and zig-zag helpers
# ---------------------------------------------------------------------------


#: the widest varint _read_varint accepts: 147 bytes of 7 bits
_VARINT_MAX_BITS = 1029


def _write_varint(out: bytearray, value: int) -> None:
    if value < 0:
        raise MarshalError(f"varint cannot encode negative {value}")
    if value >> _VARINT_MAX_BITS:
        # the decoder would refuse it: refuse to write what cannot be read
        raise MarshalError("varint too long")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _read_varint(data: bytes, offset: int) -> tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if offset >= len(data):
            raise MarshalError("truncated varint")
        byte = data[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, offset
        shift += 7
        if shift > 1024:
            raise MarshalError("varint too long")


def _head(tag: int, value: int) -> bytes:
    """A tag byte followed by *value* as a varint (a length, a count or
    a zig-zagged int)."""
    out = bytearray((tag,))
    _write_varint(out, value)
    return bytes(out)


def _zigzag(value: int) -> int:
    return (value << 1) ^ (value >> (value.bit_length() + 1)) if value < 0 else value << 1


def _unzigzag(value: int) -> int:
    return (value >> 1) ^ -(value & 1)


_reset_fastpath_state()  # populate the small-int table


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------


_REAL = struct.Struct(">d")
#: a mapping's keys and values as one alternating stream
_flatten = itertools.chain.from_iterable

#: headers of collections whose count fits one varint byte
_LIST_HEADS = tuple(bytes((_TAG_LIST, n)) for n in range(0x80))
_MAPPING_HEADS = tuple(bytes((_TAG_MAPPING, n)) for n in range(0x80))


def _text_bytes(value: str) -> bytes:
    """The complete encoding of a plain str (tag, length, UTF-8),
    remembered in the interning table when the text is short."""
    raw = value.encode("utf-8")
    encoded = _head(_TAG_TEXT, len(raw)) + raw
    if len(value) <= _INTERN_MAX_CHARS:
        if len(_TEXT_INTERN) >= _INTERN_CAP:
            _TEXT_INTERN.clear()
        _TEXT_INTERN[value] = encoded
    return encoded


def _reference_bytes(guid: Any, site: Any) -> bytes:
    """The complete encoding of a reference, interned.

    The payload is ``site|guid`` and the decoder splits it at the first
    ``|``, so a site holding ``|`` or an empty guid would not come back
    as the reference that was sent: both are refused here.
    """
    key = (guid, site)
    cached = _REF_INTERN.get(key)
    if cached is None:
        site, guid = f"{site}", f"{guid}"
        if not guid:
            raise MarshalError(f"reference at site {site!r} has an empty guid")
        if "|" in site:
            raise MarshalError(f"reference site {site!r} contains '|'")
        payload = f"{site}|{guid}".encode("utf-8")
        cached = _head(_TAG_REFERENCE, len(payload)) + payload
        if len(_REF_INTERN) >= _INTERN_CAP:
            _REF_INTERN.clear()
        _REF_INTERN[key] = cached
    return cached


#: a sending site's per-object export hook (see :func:`_encode`) and a
#: receiving site's reference resolver (see :func:`_decode`)
Export = Callable[[Any], Any]
Resolve = Callable[[str, str], Any]


class Encoded(bytes):
    """One value's encoding, without the ``MRM1`` magic. The encoder
    splices it in verbatim, so one encoding can be a whole message, a
    reply inside a batch reply or a WAL record, with the same bytes."""

    __slots__ = ()


def _encode(out: bytearray, value: Any, depth: int, export: Export | None = None) -> None:
    """Append the encoding of *value* at nesting *depth* to *out*.

    An exact ``dict``, ``list`` or ``tuple`` is written by one loop that
    dispatches on each child's exact type: ``str``, ``int``, ``None``
    and ``bool`` children are written inline, anything else recurses.
    Everything that is not an exact collection — top-level scalars,
    subclasses such as :class:`HtmlText` and ``IntEnum``, reals,
    binary, references, objects with a ``guid`` — takes the general
    branch, in the original ``isinstance`` order. A collection refuses
    children deeper than 64 levels before writing any of them, which is
    exactly where a per-value depth check would trip. An :class:`Encoded`
    value is spliced in as is; a value with no encoding of its own goes
    to *export* first, and what the hook returns is encoded instead.
    """
    cls = type(value)
    if cls is dict or cls is list or cls is tuple:
        count = len(value)
        if cls is dict:
            out += _MAPPING_HEADS[count] if count < 0x80 else _head(_TAG_MAPPING, count)
            items = _flatten(value.items())
        else:
            out += _LIST_HEADS[count] if count < 0x80 else _head(_TAG_LIST, count)
            items = value
        if count and depth >= 64:
            raise MarshalError("value nesting exceeds 64 levels")
        depth += 1
        text_intern, small_ints = _TEXT_INTERN, _SMALL_INTS
        for item in items:
            kind = type(item)
            if kind is str:
                cached = text_intern.get(item)
                out += cached if cached is not None else _text_bytes(item)
            elif kind is int:
                cached = small_ints.get(item)
                out += cached if cached is not None else _head(_TAG_INT, _zigzag(item))
            elif item is None:
                out.append(_TAG_NULL)
            elif kind is bool:
                out.append(_TAG_TRUE if item else _TAG_FALSE)
            else:
                _encode(out, item, depth, export)
    elif cls is Encoded:
        out += value
    elif value is None:
        out.append(_TAG_NULL)
    elif value is True:
        out.append(_TAG_TRUE)
    elif value is False:
        out.append(_TAG_FALSE)
    elif isinstance(value, int):
        cached = _SMALL_INTS.get(value)
        out += cached if cached is not None else _head(_TAG_INT, _zigzag(value))
    elif isinstance(value, float):
        out.append(_TAG_REAL)
        out += _REAL.pack(value)
    elif isinstance(value, HtmlText):
        raw = str(value).encode("utf-8")
        out += _head(_TAG_HTML, len(raw))
        out += raw
    elif isinstance(value, str):
        cached = _TEXT_INTERN.get(value)
        out += cached if cached is not None else _text_bytes(value)
    elif isinstance(value, (bytes, bytearray, memoryview)):
        raw = bytes(value)
        out += _head(_TAG_BINARY, len(raw))
        out += raw
    elif isinstance(value, (list, tuple)):
        _encode(out, list(value), depth, export)
    elif isinstance(value, dict):
        _encode(out, dict(value.items()), depth, export)
    elif isinstance(value, Reference):
        out += _reference_bytes(value.guid, value.site)
    elif export is not None and (exported := export(value)) is not value:
        _encode(out, exported, depth, export)
    elif hasattr(value, "guid"):
        # an object: by-identity, tagged with its home site if it has one
        site = getattr(value, "site_id", "") or getattr(value, "site", "")
        out += _reference_bytes(str(value.guid), str(site))
    else:
        raise MarshalError(
            f"value of type {type(value).__name__} has no wire representation"
        )


def encode(value: Any, export: Export | None = None) -> Encoded:
    """Encode *value* once, for a message that may be sent, stored or
    replayed many times."""
    out = bytearray()
    _encode(out, value, 0, export)
    return Encoded(out)


def marshal(value: Any, export: Export | None = None) -> bytes:
    """Encode one weakly-typed value as a complete wire message."""
    if type(value) is Encoded:
        return MAGIC + value
    out = bytearray(MAGIC)
    _encode(out, value, 0, export)
    return bytes(out)


def marshal_frame(value: Any, export: Export | None = None) -> bytearray:
    """Encode *value* as a complete wire message in a fresh buffer: the
    bytes of :func:`marshal` without its final ``bytes`` copy."""
    out = bytearray(MAGIC)
    _encode(out, value, 0, export)
    return out


def marshalled_size(value: Any) -> int:
    """Size in bytes of the wire form (the network cost model input)."""
    return len(marshal(value))


# ---------------------------------------------------------------------------
# decoding
# ---------------------------------------------------------------------------


#: the value of every one-byte zig-zag varint
_SMALL_UNZIGZAG = tuple(_unzigzag(byte) for byte in range(0x80))

#: the key slot of a mapping being decoded, between two pairs
_NO_KEY = object()


def _utf8(raw: bytes) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MarshalError(f"invalid UTF-8 payload: {exc}") from exc


def _intern_text(raw: bytes) -> str:
    """Decode a short text payload and remember it by its bytes."""
    text = _utf8(raw)
    if len(_DECODE_INTERN) >= _INTERN_CAP:
        _DECODE_INTERN.clear()
    _DECODE_INTERN[raw] = text
    return text


#: with ``defer_binary``, a binary leaf of at least this many bytes
#: decodes to a :class:`BinaryCell` instead of a ``bytes`` copy
DEFER_BINARY_MIN = 4096


class BinaryCell(LazyCell):
    """A deferred binary leaf: the slice ``message[start:stop]``, copied
    out on first read. Until then the cell pins the whole message."""

    __slots__ = ("_data", "_start", "_stop", "_value")

    def __init__(self, data: bytes, start: int, stop: int):
        self._data: bytes | None = data
        self._start = start
        self._stop = stop
        self._value = b""

    def materialize(self) -> bytes:
        if self._data is not None:
            self._value = self._data[self._start:self._stop]
            self._data = None  # drop the message once sliced
        return self._value

    def __repr__(self) -> str:
        return f"BinaryCell({self._stop - self._start} bytes)"


def _decode(
    data: bytes,
    offset: int,
    depth: int,
    resolve: Resolve | None = None,
    defer: bool = False,
) -> tuple[Any, int]:
    """Decode the value at *offset* (nesting *depth*) of *data*, which
    must be ``bytes``; returns the value and the offset past it.

    Dispatch is on the tag. A collection decodes its children in one
    loop — a mapping as alternating keys and values — reading short
    interned text, one-byte ints, booleans and null inline; other
    children recurse. A collection refuses children deeper than 64
    levels before reading any, as the encoder does. A reference decodes
    to ``resolve(guid, site)`` when a receiving site passes a resolver,
    and to a :class:`Reference` otherwise. With *defer*, a binary leaf
    of at least :data:`DEFER_BINARY_MIN` bytes that is not a mapping key
    decodes to a :class:`BinaryCell`; everything else, text included,
    decodes (and is validated) now.
    """
    end = len(data)
    if offset >= end:
        raise MarshalError("truncated message")
    tag = data[offset]
    offset += 1
    if tag == _TAG_MAPPING or tag == _TAG_LIST:
        if offset < end and data[offset] < 0x80:
            count = data[offset]
            offset += 1
        else:
            count, offset = _read_varint(data, offset)
        if count > MAX_COLLECTION:
            kind = "mapping" if tag == _TAG_MAPPING else "list"
            raise MarshalError(f"{kind} length {count} exceeds limit")
        if count and depth >= 64:
            raise MarshalError("value nesting exceeds 64 levels")
        depth += 1
        is_list = tag == _TAG_LIST
        result: Any = [] if is_list else {}
        key = no_key = _NO_KEY
        interned = _DECODE_INTERN
        for _ in range(count if is_list else count * 2):
            if offset >= end:
                raise MarshalError("truncated message")
            child = data[offset]
            if child == _TAG_TEXT and offset + 1 < end and data[offset + 1] <= _INTERN_MAX_CHARS:
                start = offset + 2
                offset = start + data[offset + 1]
                if offset > end:
                    raise MarshalError("truncated payload")
                raw = data[start:offset]
                value = interned.get(raw)
                if value is None:
                    value = _intern_text(raw)
            elif child == _TAG_INT and offset + 1 < end and data[offset + 1] < 0x80:
                value = _SMALL_UNZIGZAG[data[offset + 1]]
                offset += 2
            elif child == _TAG_TRUE:
                value = True
                offset += 1
            elif child == _TAG_FALSE:
                value = False
                offset += 1
            elif child == _TAG_NULL:
                value = None
                offset += 1
            else:
                # a mapping key is never deferred: keys must hash by value
                value, offset = _decode(
                    data, offset, depth, resolve,
                    defer and (is_list or key is not no_key),
                )
            if is_list:
                result.append(value)
            elif key is no_key:
                key = value
            else:
                try:
                    result[key] = value
                except TypeError as exc:
                    # only a decoded list or mapping can be an unhashable key
                    raise MarshalError(f"unhashable mapping key {key!r}") from exc
                key = no_key
        return result, offset
    if tag in (_TAG_TEXT, _TAG_HTML, _TAG_BINARY, _TAG_REFERENCE):
        length, start = _read_varint(data, offset)
        offset = start + length
        if offset > end:
            raise MarshalError("truncated payload")
        if tag == _TAG_BINARY:
            if defer and length >= DEFER_BINARY_MIN:
                return BinaryCell(data, start, offset), offset
            return data[start:offset], offset
        raw = data[start:offset]
        if tag == _TAG_TEXT:
            if length <= _INTERN_MAX_CHARS:
                text = _DECODE_INTERN.get(raw)
                return (text if text is not None else _intern_text(raw)), offset
            return _utf8(raw), offset
        if tag == _TAG_HTML:
            return HtmlText(_utf8(raw)), offset
        text = _utf8(raw)
        site, _sep, guid = text.partition("|")
        if not guid:
            raise MarshalError(f"malformed reference payload {text!r}")
        if resolve is not None:
            return resolve(guid, site), offset
        return Reference(guid, site), offset
    if tag == _TAG_INT:
        raw, offset = _read_varint(data, offset)
        return _unzigzag(raw), offset
    if tag == _TAG_NULL:
        return None, offset
    if tag == _TAG_TRUE:
        return True, offset
    if tag == _TAG_FALSE:
        return False, offset
    if tag == _TAG_REAL:
        if offset + 8 > end:
            raise MarshalError("truncated real")
        return _REAL.unpack_from(data, offset)[0], offset + 8
    raise MarshalError(f"unknown tag byte 0x{tag:02x}")


def unmarshal(
    message: bytes | bytearray | memoryview,
    resolve: Resolve | None = None,
    *,
    defer_binary: bool = False,
) -> Any:
    """Decode a complete wire message; strict about framing.

    Accepts a :class:`memoryview` or a ``bytearray`` (e.g. a
    :func:`marshal_frame` buffer) as well as bytes; either is copied to ``bytes``
    once up front, so the decoder slices and interns plain bytes and a
    :class:`BinaryCell` never sees a buffer change under it.
    *resolve* is a receiving site's reference resolver (see :func:`_decode`).
    With *defer_binary*, large binary leaves decode to cells over the
    message; only a caller that rebuilds objects from the value
    (:func:`repro.mobility.package.unpack_bytes`) passes it, since a cell
    must never reach a method argument or a reply.
    """
    if type(message) is not bytes:
        message = bytes(message)
    if not message.startswith(MAGIC):
        raise MarshalError("bad magic: not an MRM1 message")
    value, offset = _decode(message, len(MAGIC), 0, resolve, defer_binary)
    if offset != len(message):
        raise MarshalError(f"{len(message) - offset} bytes of trailing garbage")
    return value


_PLAIN_SCALARS = frozenset((str, int, float, bool, type(None), bytes))


def materialize_deep(value: Any, resolve: Resolve | None = None) -> Any:
    """Recursively force a (possibly lazy) decoded value to plain data.

    Exact types are dispatched first: a plain scalar, dict or list needs
    no ``isinstance`` probe; a :class:`~repro.core.values.LazyCell`
    (a deferred binary leaf) reads as the value it holds, and a
    :class:`Reference` as ``resolve(guid, site)`` when *resolve* is given.
    """
    kind = type(value)
    if kind in _PLAIN_SCALARS:
        return value
    if kind is dict:
        return {
            key: val if type(val) in _PLAIN_SCALARS else materialize_deep(val, resolve)
            for key, val in value.items()
        }
    if kind is list:
        return [
            element if type(element) in _PLAIN_SCALARS else materialize_deep(element, resolve)
            for element in value
        ]
    if isinstance(value, LazyCell):
        return materialize_deep(value.materialize())
    if isinstance(value, dict):
        return {key: materialize_deep(val, resolve) for key, val in value.items()}
    if isinstance(value, list):
        return [materialize_deep(element, resolve) for element in value]
    if resolve is not None and isinstance(value, Reference):
        return resolve(value.guid, value.site)
    return value
