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
import threading
from collections.abc import Hashable
from typing import Any, Callable, Iterator, Mapping, Sequence

from ..core.errors import MarshalError
from ..core.values import HtmlText, LazyCell

__all__ = [
    "marshal",
    "marshal_frame",
    "encode",
    "Encoded",
    "MarshalFrame",
    "unmarshal",
    "unmarshal_lazy",
    "materialize_deep",
    "LazyValue",
    "LazyList",
    "LazyMapping",
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
# * a small pool of output buffers, so marshal() stops allocating (and
#   growing) a fresh bytearray per message — one lock guards the pool
#   and its running weight under the threaded TCP gateway;
# * precomputed encodings for small integers (args, counts, lamport
#   clocks are overwhelmingly small) and for one-byte collection heads;
# * an interning table for short strings and references (method names,
#   payload keys and GUIDs recur endlessly), bounded and dropped
#   wholesale on overflow so a hostile peer cannot grow it unboundedly;
# * decode-side interning of short text payloads keyed by the raw bytes,
#   so the same method name decoded a thousand times is one str object.
# ---------------------------------------------------------------------------

#: pooled buffers as (weight, buffer) pairs — the weight is the frame
#: size the buffer last held, a proxy for the capacity it may still pin
_BUFFER_POOL: list[tuple[int, bytearray]] = []
_BUFFER_POOL_CAP = 8
#: buffers that grew beyond this are not pooled (one giant migration
#: package must not pin its footprint forever)
_BUFFER_RETAIN = 1 << 16
#: total weight the pool may retain across all buffers — the count cap
#: alone would let eight maximum-size frames pin 8x64KiB indefinitely
_BUFFER_POOL_BYTES = 1 << 18

#: guards the pool list and its running weight together
_POOL_LOCK = threading.Lock()
#: total weight of the buffers in the pool, kept in step with every
#: append and pop so a release never has to sum the pool
_pool_weight = 0


def _release_buffer(buf: bytearray) -> None:
    """Return a checked-out buffer to the pool, keeping the pool bounded.

    Oversized frames are never retained; within the size bound, the pool
    is held to both a buffer count and a total retained weight, evicting
    the *largest* buffers first — small hot-path frames are the ones
    worth keeping, and one burst of irregular large frames must not
    displace them or pin their capacity.
    """
    global _pool_weight
    weight = len(buf)
    if weight > _BUFFER_RETAIN:
        return
    buf.clear()
    pool = _BUFFER_POOL
    with _POOL_LOCK:  # the gateway marshals on several threads
        pool.append((weight, buf))
        _pool_weight += weight
        while len(pool) > _BUFFER_POOL_CAP or _pool_weight > _BUFFER_POOL_BYTES:
            largest = max(range(len(pool)), key=lambda i: pool[i][0])
            _pool_weight -= pool.pop(largest)[0]


def _checkout_buffer() -> bytearray:
    global _pool_weight
    with _POOL_LOCK:
        if _BUFFER_POOL:
            weight, buf = _BUFFER_POOL.pop()
            _pool_weight -= weight
            return buf
    return bytearray()


def _pool_snapshot() -> tuple[int, int]:
    """(buffer count, total retained weight) — for the regression tests."""
    entries = list(_BUFFER_POOL)
    return len(entries), sum(weight for weight, _ in entries)


_INTERN_MAX_CHARS = 64
_INTERN_CAP = 4096

#: the complete encodings of the ints -64..256
_SMALL_INTS: dict[int, bytes] = {}
_TEXT_INTERN: dict[str, bytes] = {}
_REF_INTERN: dict[tuple[str, str], bytes] = {}
_DECODE_INTERN: dict[bytes, str] = {}


def _reset_fastpath_state() -> None:
    """Drop all pooled buffers and interning tables (tests, tuning)."""
    global _pool_weight
    with _POOL_LOCK:
        _BUFFER_POOL.clear()
        _pool_weight = 0
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


def _write_varint(out: bytearray, value: int) -> None:
    if value < 0:
        raise MarshalError(f"varint cannot encode negative {value}")
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
    out = _checkout_buffer()
    try:
        _encode(out, value, 0, export)
        return Encoded(out)
    finally:
        _release_buffer(out)


def marshal(value: Any, export: Export | None = None) -> bytes:
    """Encode one weakly-typed value as a complete wire message."""
    if type(value) is not Encoded:
        value = encode(value, export)
    return MAGIC + value


class MarshalFrame:
    """A complete wire message exposed as a memoryview over a pooled
    buffer — the zero-copy sibling of :func:`marshal`.

    ``frame.view`` is byte-identical to ``marshal(value)`` but involves
    no ``bytes`` copy; a consumer that can write a memoryview (socket
    ``sendall``, file ``write``) ships the pooled buffer directly.
    The buffer stays checked out of the pool until :meth:`release`
    (or context-manager exit) — releasing invalidates the view, so a
    consumer that needs the bytes past the frame's lifetime must
    :meth:`tobytes` first.
    """

    __slots__ = ("view", "_buf")

    def __init__(self, buf: bytearray):
        self._buf = buf
        self.view: memoryview = memoryview(buf)

    def __len__(self) -> int:
        return len(self._buf) if self._buf is not None else 0

    def tobytes(self) -> bytes:
        return bytes(self.view)

    def release(self) -> None:
        """Return the buffer to the pool (idempotent)."""
        buf, self._buf = self._buf, None
        if buf is None:
            return
        self.view.release()  # a live export would block the pool's clear()
        _release_buffer(buf)

    def __enter__(self) -> "MarshalFrame":
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()


def marshal_frame(value: Any, export: Export | None = None) -> MarshalFrame:
    """Encode *value* into a pooled buffer without the final copy."""
    out = _checkout_buffer()
    try:
        out += MAGIC
        _encode(out, value, 0, export)
    except BaseException:
        _release_buffer(out)
        raise
    return MarshalFrame(out)


def marshalled_size(value: Any) -> int:
    """Size in bytes of the wire form (the network cost model input)."""
    return len(marshal(value))


# ---------------------------------------------------------------------------
# decoding
# ---------------------------------------------------------------------------


#: the value of every one-byte zig-zag varint
_SMALL_UNZIGZAG = tuple(_unzigzag(byte) for byte in range(0x80))


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


def _decode(
    data: bytes, offset: int, depth: int, resolve: Resolve | None = None
) -> tuple[Any, int]:
    """Decode the value at *offset* (nesting *depth*) of *data*, which
    must be ``bytes``; returns the value and the offset past it.

    Dispatch is on the tag. A collection decodes its children in one
    loop — a mapping as alternating keys and values — reading short
    interned text, one-byte ints, booleans and null inline; other
    children recurse. A collection refuses children deeper than 64
    levels before reading any, as the encoder does. A reference decodes
    to ``resolve(guid, site)`` when a receiving site passes a resolver,
    and to a :class:`Reference` otherwise.
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
        items: list = []
        append = items.append
        interned = _DECODE_INTERN
        for _ in range(count * 2 if tag == _TAG_MAPPING else count):
            if offset >= end:
                raise MarshalError("truncated message")
            child = data[offset]
            if child == _TAG_TEXT and offset + 1 < end and data[offset + 1] <= _INTERN_MAX_CHARS:
                start = offset + 2
                offset = start + data[offset + 1]
                if offset > end:
                    raise MarshalError("truncated payload")
                raw = data[start:offset]
                text = interned.get(raw)
                append(text if text is not None else _intern_text(raw))
            elif child == _TAG_INT and offset + 1 < end and data[offset + 1] < 0x80:
                append(_SMALL_UNZIGZAG[data[offset + 1]])
                offset += 2
            elif child == _TAG_TRUE:
                append(True)
                offset += 1
            elif child == _TAG_FALSE:
                append(False)
                offset += 1
            elif child == _TAG_NULL:
                append(None)
                offset += 1
            else:
                value, offset = _decode(data, offset, depth, resolve)
                append(value)
        if tag == _TAG_LIST:
            return items, offset
        pairs = iter(items)
        try:
            return dict(zip(pairs, pairs)), offset
        except TypeError as exc:
            # only a decoded list or mapping can be an unhashable key
            key = next(key for key in items[::2] if not isinstance(key, Hashable))
            raise MarshalError(f"unhashable mapping key {key!r}") from exc
    if tag in (_TAG_TEXT, _TAG_HTML, _TAG_BINARY, _TAG_REFERENCE):
        length, offset = _read_varint(data, offset)
        if offset + length > end:
            raise MarshalError("truncated payload")
        raw = data[offset:offset + length]
        offset += length
        if tag == _TAG_TEXT:
            if length <= _INTERN_MAX_CHARS:
                text = _DECODE_INTERN.get(raw)
                return (text if text is not None else _intern_text(raw)), offset
            return _utf8(raw), offset
        if tag == _TAG_BINARY:
            return raw, offset
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


def unmarshal(message: bytes | bytearray | memoryview, resolve: Resolve | None = None) -> Any:
    """Decode a complete wire message; strict about framing.

    Accepts a :class:`memoryview` (e.g. a :class:`MarshalFrame` view)
    or a ``bytearray`` as well as bytes; either is copied to ``bytes``
    once up front, so the decoder slices and interns plain bytes.
    *resolve* is a receiving site's reference resolver (see :func:`_decode`).
    """
    if type(message) is not bytes:
        message = bytes(message)
    if not message.startswith(MAGIC):
        raise MarshalError("bad magic: not an MRM1 message")
    value, offset = _decode(message, len(MAGIC), 0, resolve)
    if offset != len(message):
        raise MarshalError(f"{len(message) - offset} bytes of trailing garbage")
    return value


# ---------------------------------------------------------------------------
# lazy decoding: skip-scan framing, decode on first touch
# ---------------------------------------------------------------------------
#
# A migration package is a mapping of sections of items, and a receiving
# site typically touches a handful of them before the object's first
# call (or none: a checkpoint restore that is never read again). The
# lazy path decodes structure on demand: containers become LazyList/
# LazyMapping wrappers that know only the *offsets* of their children
# (computed by a skip-scan that validates framing without building
# objects), and an untouched item value stays a LazyValue slice of the
# original message until something reads it. Unmarshal cost then scales
# with the state actually touched, not the object's size — while the
# wire bytes, and the values eventually produced, are identical to the
# eager path.


def _skip(data: bytes, offset: int, depth: int) -> int:
    """Advance past one encoded value, validating bounds only.

    The same checks as :func:`_decode` except UTF-8 validity, which is
    checked when a payload is first decoded: that is the lazy path's
    one deliberate difference from the eager one. Inside a collection, null,
    booleans, one-byte ints and text with a one-byte length are stepped
    over inline.
    """
    end = len(data)
    if offset >= end:
        raise MarshalError("truncated message")
    tag = data[offset]
    offset += 1
    if tag == _TAG_MAPPING or tag == _TAG_LIST:
        count, offset = _read_varint(data, offset)
        if count > MAX_COLLECTION:
            kind = "mapping" if tag == _TAG_MAPPING else "list"
            raise MarshalError(f"{kind} length {count} exceeds limit")
        if count and depth >= 64:
            raise MarshalError("value nesting exceeds 64 levels")
        depth += 1
        for _ in range(count * 2 if tag == _TAG_MAPPING else count):
            if offset >= end:
                raise MarshalError("truncated message")
            child = data[offset]
            if child == _TAG_NULL or child == _TAG_TRUE or child == _TAG_FALSE:
                offset += 1
            elif child == _TAG_INT and offset + 1 < end and data[offset + 1] < 0x80:
                offset += 2
            elif child == _TAG_TEXT and offset + 1 < end and data[offset + 1] < 0x80:
                offset += 2 + data[offset + 1]
                if offset > end:
                    raise MarshalError("truncated payload")
            else:
                offset = _skip(data, offset, depth)
        return offset
    if tag in (_TAG_TEXT, _TAG_HTML, _TAG_BINARY, _TAG_REFERENCE):
        length, offset = _read_varint(data, offset)
        stop = offset + length
        if stop > end:
            raise MarshalError("truncated payload")
        if tag == _TAG_REFERENCE:
            # the decoder's form check, on bytes: ``|`` never occurs
            # inside a multi-byte UTF-8 sequence
            bar = data.find(b"|", offset, stop)
            if bar < 0 or bar == stop - 1:
                text = data[offset:stop].decode("utf-8", "replace")
                raise MarshalError(f"malformed reference payload {text!r}")
        return stop
    if tag == _TAG_INT:
        _, offset = _read_varint(data, offset)
        return offset
    if tag == _TAG_NULL or tag == _TAG_TRUE or tag == _TAG_FALSE:
        return offset
    if tag == _TAG_REAL:
        if offset + 8 > end:
            raise MarshalError("truncated real")
        return offset + 8
    raise MarshalError(f"unknown tag byte 0x{tag:02x}")


class LazyValue(LazyCell):
    """One deferred value: a (message, offset) slice decoded on demand."""

    __slots__ = ("_data", "_offset", "_value", "_materialized")

    def __init__(self, data: bytes, offset: int):
        self._data = data
        self._offset = offset
        self._value: Any = None
        self._materialized = False

    def materialize(self) -> Any:
        if not self._materialized:
            self._value, _ = _decode(self._data, self._offset, 0)
            self._materialized = True
            self._data = b""  # drop the message reference once decoded
        return self._value

    def __repr__(self) -> str:
        if self._materialized:
            return f"LazyValue({self._value!r})"
        return f"LazyValue(<wire @{self._offset}>)"


def _lazy_view(data: bytes, offset: int) -> Any:
    """The value at *offset*: containers wrapped lazily, scalars decoded.

    Building a container view skip-scans exactly its own subtree (so a
    corrupt subtree raises here, not at first touch), recording where
    each element starts; elements decode only when accessed.
    """
    tag = data[offset] if offset < len(data) else None
    if tag == _TAG_LIST:
        count, cursor = _read_varint(data, offset + 1)
        if count > MAX_COLLECTION:
            raise MarshalError(f"list length {count} exceeds limit")
        offsets = []
        for _ in range(count):
            offsets.append(cursor)
            cursor = _skip(data, cursor, 1)
        return LazyList(data, offset, cursor, offsets)
    if tag == _TAG_MAPPING:
        count, cursor = _read_varint(data, offset + 1)
        if count > MAX_COLLECTION:
            raise MarshalError(f"mapping length {count} exceeds limit")
        slots: dict[Any, int] = {}
        for _ in range(count):
            key, cursor = _decode(data, cursor, 1)  # keys decode eagerly
            try:
                slots[key] = cursor  # duplicate keys: later wins, as eager
            except TypeError as exc:
                raise MarshalError(f"unhashable mapping key {key!r}") from exc
            cursor = _skip(data, cursor, 1)
        return LazyMapping(data, offset, cursor, slots)
    value, _ = _decode(data, offset, 0)
    return value


class LazyList(Sequence):
    """A wire list whose elements decode on first access."""

    __slots__ = ("_data", "_start", "_end", "_offsets", "_cache")

    def __init__(self, data: bytes, start: int, end: int, offsets: list[int]):
        self._data = data
        self._start = start
        self._end = end
        self._offsets = offsets
        self._cache: dict[int, Any] = {}

    def __len__(self) -> int:
        return len(self._offsets)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        if index < 0:
            index += len(self._offsets)
        if index in self._cache:
            return self._cache[index]
        value = _lazy_view(self._data, self._offsets[index])
        self._cache[index] = value
        return value

    def __repr__(self) -> str:
        return f"LazyList({len(self._offsets)} elements)"


class LazyMapping(Mapping):
    """A wire mapping: keys eager (they index), values decode on touch.

    ``lazy(key)`` hands out the value as a :class:`LazyValue` cell
    without decoding it at all — the hook the mobility layer uses to
    keep untouched item values as undisturbed wire slices.
    """

    __slots__ = ("_data", "_start", "_end", "_slots", "_cache")

    def __init__(self, data: bytes, start: int, end: int, slots: dict[Any, int]):
        self._data = data
        self._start = start
        self._end = end
        self._slots = slots
        self._cache: dict[Any, Any] = {}

    def __len__(self) -> int:
        return len(self._slots)

    def __iter__(self) -> Iterator:
        return iter(self._slots)

    def __getitem__(self, key):
        if key in self._cache:
            return self._cache[key]
        value = _lazy_view(self._data, self._slots[key])
        self._cache[key] = value
        return value

    def __contains__(self, key) -> bool:
        # the Mapping default probes __getitem__, which would *decode*
        # the value — membership must stay a pure slot lookup
        return key in self._slots

    def lazy(self, key) -> LazyValue:
        """The value under *key* as an undecoded cell."""
        return LazyValue(self._data, self._slots[key])

    def __repr__(self) -> str:
        return f"LazyMapping({list(self._slots)!r})"


def unmarshal_lazy(message: bytes | bytearray | memoryview) -> Any:
    """Decode a wire message lazily: framing validated now (same bounds
    checks as the eager decoder, via the skip-scan), values on demand.

    The message is snapshotted to immutable bytes if it arrived as a
    mutable buffer — lazy slices must outlive any pooled buffer they
    were read from.
    """
    if not isinstance(message, bytes):
        message = bytes(message)
    if not message.startswith(MAGIC):
        raise MarshalError("bad magic: not an MRM1 message")
    start = len(MAGIC)
    if start >= len(message):
        raise MarshalError("truncated message")
    # one pass only: building a container view skip-validates its whole
    # subtree, so the top-level view's end doubles as the framing check
    if message[start] in (_TAG_LIST, _TAG_MAPPING):
        view = _lazy_view(message, start)
        end = view._end
    else:
        view, end = _decode(message, start, 0)
    if end != len(message):
        raise MarshalError(f"{len(message) - end} bytes of trailing garbage")
    return view


def materialize_deep(value: Any) -> Any:
    """Recursively force a (possibly lazy) decoded value to plain data."""
    if isinstance(value, LazyCell):
        return materialize_deep(value.materialize())
    if isinstance(value, (LazyMapping, LazyList)):
        # decode the whole subtree straight off the wire — one tight
        # eager pass instead of element-by-element lazy dispatch
        plain, _ = _decode(value._data, value._start, 0)
        return plain
    if isinstance(value, dict):
        return {key: materialize_deep(val) for key, val in value.items()}
    if isinstance(value, list):
        return [materialize_deep(element) for element in value]
    return value
