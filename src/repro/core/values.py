"""Weak typing for MROM: value kinds and generic coercion.

The paper's *weak typing* requirement (Section 1) has two halves:

1. No long-term structural guarantees — items are untyped by default and a
   declared kind, if any, is a *dynamic* property that can change at run
   time via ``setDataItem``.
2. Generic coercion — "to transform a value that is represented as HTML
   text into an integer, when arithmetic operation should be performed on
   that value".

This module provides the kind taxonomy (:class:`Kind`), classification of
arbitrary Python values (:func:`kind_of`), and the generic coercion matrix
(:func:`coerce`). Everything here is pure and deterministic; it is the
foundation the marshaling wire format and the item machinery build on.
"""

from __future__ import annotations

import enum
import html as _html
import math
import re
from typing import Any, Callable, Iterable

from .. import probes as _probes
from .errors import CoercionError, KindError

__all__ = [
    "Kind",
    "kind_of",
    "coerce",
    "conforms",
    "strip_html",
    "HtmlText",
    "LazyCell",
]


class LazyCell:
    """A deferred value, read from its wire bytes on first touch.

    The one cell is :class:`repro.net.marshal.BinaryCell`: a large
    binary leaf left as a slice of its message when
    :func:`~repro.mobility.package.unpack_bytes` decodes a package. It
    may stay only as a whole data-item value: a
    :class:`~repro.core.items.DataItem` stores the cell as-is and
    materializes it the first time anything reads the value; every
    other part of the package is plain data. The base class lives here,
    below both :mod:`repro.net` and :mod:`repro.core.items`, so the item
    layer can recognize cells without depending on the wire format.
    """

    __slots__ = ()

    def materialize(self):
        """Return the value (idempotent)."""
        raise NotImplementedError


class Kind(enum.Enum):
    """The dynamic-kind taxonomy of MROM values.

    MROM methods "receive an arbitrary number of untyped objects as
    parameters"; kinds exist only as optional dynamic annotations on data
    items and as tags in the wire format.
    """

    NULL = "null"
    BOOLEAN = "boolean"
    INTEGER = "integer"
    REAL = "real"
    TEXT = "text"
    HTML = "html"
    BINARY = "binary"
    LIST = "list"
    MAPPING = "mapping"
    REFERENCE = "reference"
    ANY = "any"

    def __repr__(self) -> str:
        return f"Kind.{self.name}"


class HtmlText(str):
    """A string tagged as HTML markup.

    Weak typing needs to distinguish "the text ``<b>42</b>``" from "the
    HTML document whose visible content is ``42``": coercion of the former
    to :data:`Kind.INTEGER` fails, of the latter succeeds. Instances are
    ordinary strings in every other respect.
    """

    __slots__ = ()

    def visible_text(self) -> str:
        """Return the rendered (tag-free, entity-decoded) text content."""
        return strip_html(str(self))


_TAG_RE = re.compile(r"<[^>]*>")
_WS_RE = re.compile(r"\s+")


def strip_html(markup: str) -> str:
    """Strip tags and decode entities, normalising internal whitespace."""
    without_tags = _TAG_RE.sub(" ", markup)
    decoded = _html.unescape(without_tags)
    return _WS_RE.sub(" ", decoded).strip()


def kind_of(value: Any) -> Kind:
    """Classify an arbitrary Python value into the MROM kind taxonomy.

    Classification is structural: any mapping is :data:`Kind.MAPPING`, any
    non-string sequence is :data:`Kind.LIST`. Objects exposing a ``guid``
    attribute (MROM objects, remote references, ambassadors) classify as
    :data:`Kind.REFERENCE`.
    """
    if value is None:
        return Kind.NULL
    if isinstance(value, bool):
        return Kind.BOOLEAN
    if isinstance(value, int):
        return Kind.INTEGER
    if isinstance(value, float):
        return Kind.REAL
    if isinstance(value, HtmlText):
        return Kind.HTML
    if isinstance(value, str):
        return Kind.TEXT
    if isinstance(value, (bytes, bytearray, memoryview)):
        return Kind.BINARY
    if isinstance(value, dict):
        return Kind.MAPPING
    if isinstance(value, (list, tuple)):
        return Kind.LIST
    if hasattr(value, "guid"):
        return Kind.REFERENCE
    raise KindError(f"value of Python type {type(value).__name__} has no MROM kind")


def conforms(value: Any, kind: Kind) -> bool:
    """Return True when *value* already has kind *kind* (or kind is ANY)."""
    if kind is Kind.ANY:
        return True
    try:
        actual = kind_of(value)
    except KindError:
        return False
    if kind is Kind.TEXT and actual is Kind.HTML:
        # every HTML document is text; the converse is not true
        return True
    return actual is kind


# ---------------------------------------------------------------------------
# Coercion
# ---------------------------------------------------------------------------

_TRUE_WORDS = frozenset({"true", "yes", "on", "1", "t", "y"})
_FALSE_WORDS = frozenset({"false", "no", "off", "0", "f", "n", ""})

_NUMBER_RE = re.compile(r"[-+]?(\d+\.\d*|\.\d+|\d+)([eE][-+]?\d+)?")


def _text_of(value: Any) -> str:
    """The textual essence of a value, rendering HTML to visible text."""
    if isinstance(value, HtmlText):
        return value.visible_text()
    if isinstance(value, str):
        return value
    if isinstance(value, (bytes, bytearray, memoryview)):
        try:
            return bytes(value).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CoercionError(value, Kind.TEXT.value, str(exc)) from exc
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return ""
    return str(value)


def _extract_number(text: str) -> str:
    """Find the first numeric literal embedded in *text*.

    Generic coercion is deliberately permissive: the motivating example
    coerces an HTML fragment whose visible content is a number. We accept
    surrounding prose ("salary: 1200 NIS" -> "1200") but reject text with
    no numeric content at all.
    """
    match = _NUMBER_RE.search(text)
    if match is None:
        raise ValueError(f"no numeric content in {text!r}")
    return match.group(0)


def _to_boolean(value: Any) -> bool:
    actual = kind_of(value)
    if actual is Kind.BOOLEAN:
        return bool(value)
    if actual in (Kind.INTEGER, Kind.REAL):
        return value != 0
    if actual in (Kind.TEXT, Kind.HTML, Kind.BINARY):
        word = _text_of(value).strip().lower()
        if word in _TRUE_WORDS:
            return True
        if word in _FALSE_WORDS:
            return False
        raise CoercionError(value, Kind.BOOLEAN.value, "not a boolean word")
    if actual is Kind.NULL:
        return False
    raise CoercionError(value, Kind.BOOLEAN.value)


def _to_integer(value: Any) -> int:
    actual = kind_of(value)
    if actual is Kind.BOOLEAN:
        return int(value)
    if actual is Kind.INTEGER:
        return int(value)
    if actual is Kind.REAL:
        if math.isnan(value) or math.isinf(value):
            raise CoercionError(value, Kind.INTEGER.value, "not finite")
        if value != int(value):
            raise CoercionError(value, Kind.INTEGER.value, "fractional part")
        return int(value)
    if actual in (Kind.TEXT, Kind.HTML, Kind.BINARY):
        text = _text_of(value)
        try:
            literal = _extract_number(text)
        except ValueError as exc:
            raise CoercionError(value, Kind.INTEGER.value, str(exc)) from exc
        number = float(literal)
        if number != int(number):
            raise CoercionError(value, Kind.INTEGER.value, "fractional part")
        return int(number)
    raise CoercionError(value, Kind.INTEGER.value)


def _to_real(value: Any) -> float:
    actual = kind_of(value)
    if actual in (Kind.BOOLEAN, Kind.INTEGER, Kind.REAL):
        return float(value)
    if actual in (Kind.TEXT, Kind.HTML, Kind.BINARY):
        text = _text_of(value)
        try:
            return float(_extract_number(text))
        except ValueError as exc:
            raise CoercionError(value, Kind.REAL.value, str(exc)) from exc
    raise CoercionError(value, Kind.REAL.value)


def _to_text(value: Any) -> str:
    actual = kind_of(value)
    if actual in (Kind.LIST, Kind.MAPPING, Kind.REFERENCE):
        raise CoercionError(value, Kind.TEXT.value, "no canonical text form")
    return _text_of(value)


def _to_html(value: Any) -> HtmlText:
    if isinstance(value, HtmlText):
        return value
    text = _to_text(value)
    return HtmlText(_html.escape(text))


def _to_binary(value: Any) -> bytes:
    actual = kind_of(value)
    if actual is Kind.BINARY:
        return bytes(value)
    if actual in (Kind.TEXT, Kind.HTML):
        return str(value).encode("utf-8")
    raise CoercionError(value, Kind.BINARY.value)


def _to_list(value: Any) -> list:
    actual = kind_of(value)
    if actual is Kind.LIST:
        return list(value)
    if actual is Kind.MAPPING:
        return [[key, val] for key, val in value.items()]
    if actual is Kind.NULL:
        return []
    return [value]


def _to_mapping(value: Any) -> dict:
    actual = kind_of(value)
    if actual is Kind.MAPPING:
        return dict(value)
    if actual is Kind.LIST:
        result = {}
        for element in value:
            if not isinstance(element, (list, tuple)) or len(element) != 2:
                raise CoercionError(
                    value, Kind.MAPPING.value, "list elements are not pairs"
                )
            key, val = element
            result[key] = val
        return result
    if actual is Kind.NULL:
        return {}
    raise CoercionError(value, Kind.MAPPING.value)


def _to_null(value: Any) -> None:
    if value is None:
        return None
    raise CoercionError(value, Kind.NULL.value)


def _to_reference(value: Any) -> Any:
    if kind_of(value) is Kind.REFERENCE:
        return value
    raise CoercionError(value, Kind.REFERENCE.value)


_COERCERS: dict[Kind, Callable[[Any], Any]] = {
    Kind.NULL: _to_null,
    Kind.BOOLEAN: _to_boolean,
    Kind.INTEGER: _to_integer,
    Kind.REAL: _to_real,
    Kind.TEXT: _to_text,
    Kind.HTML: _to_html,
    Kind.BINARY: _to_binary,
    Kind.LIST: _to_list,
    Kind.MAPPING: _to_mapping,
    Kind.REFERENCE: _to_reference,
}


def coerce(value: Any, kind: Kind) -> Any:
    """Coerce *value* to *kind* using MROM's generic coercion matrix.

    Raises :class:`CoercionError` when no meaningful conversion exists.
    ``coerce(x, Kind.ANY)`` is the identity.

    >>> coerce(HtmlText("<td><b>1200</b> NIS</td>"), Kind.INTEGER)
    1200
    """
    if kind is Kind.ANY:
        return value
    coercer = _COERCERS.get(kind)
    if coercer is None:
        raise CoercionError(value, str(kind), "unknown target kind")
    probe = _probes.ACTIVE
    if probe is not None:
        probe.count("coercions")
    return coercer(value)


def coerce_all(values: Iterable[Any], kinds: Iterable[Kind]) -> list:
    """Coerce a parameter array element-wise; lengths must match."""
    values = list(values)
    kinds = list(kinds)
    if len(values) != len(kinds):
        raise CoercionError(values, "parameter-array", "arity mismatch")
    return [coerce(value, kind) for value, kind in zip(values, kinds)]
