"""Seeded differential fuzz of the MRM1 decoder and its leaf rule.

One decoder reads the wire. With ``defer_binary`` it leaves every binary
leaf of at least :data:`DEFER_BINARY_MIN` bytes as a cell over the
message instead of copying it out. On any input, valid or corrupt, the
rule may change nothing else: ``unmarshal(w)`` and
``materialize_deep(unmarshal(w, defer_binary=True))`` return the same
value or raise the same :class:`MarshalError`. Any other exception type
is a decoder bug a hostile peer could trigger.

Hypothesis runs derandomized, so every run draws the same examples.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import HtmlText
from repro.core.errors import MarshalError
from repro.net.marshal import (
    DEFER_BINARY_MIN,
    MAGIC,
    Reference,
    marshal,
    marshal_frame,
    materialize_deep,
    unmarshal,
)

pytestmark = pytest.mark.fuzz

FUZZ = settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=200,
    suppress_health_check=[HealthCheck.too_slow],
)

# -- valid values -----------------------------------------------------------

guids = st.text(min_size=1, max_size=24)
sites = st.text(max_size=12).filter(lambda site: "|" not in site)
references = st.builds(Reference, guids, sites)

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-300, max_value=300),
    st.integers(),
    st.floats(allow_nan=False),
    st.text(max_size=80),
    st.binary(max_size=40),
    # either side of the leaf rule's threshold, so the rule fires
    st.builds(
        lambda size, fill: bytes((fill,)) * size,
        st.sampled_from([DEFER_BINARY_MIN - 1, DEFER_BINARY_MIN, DEFER_BINARY_MIN + 1]),
        st.integers(min_value=0, max_value=255),
    ),
    st.builds(HtmlText, st.text(max_size=20)),
    references,
)
keys = st.one_of(
    st.text(max_size=12), st.integers(), st.none(), st.booleans(), references,
)
values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=6),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(keys, children, max_size=6),
    ),
    max_leaves=40,
)

#: shapes the protocol actually sends: an RMI request, a reply, a WAL record
ENVELOPES = [
    {"target": "mrom://s3/3.3", "method": "increment", "args": [1],
     "caller": {"guid": "mrom://c0/0.0", "domain": "bench.c0", "name": "c0"}},
    {"ok": True, "result": 19},
    {"seq": 78, "kind": "served.reply", "time": 0.2991736, "site": "s2",
     "attrs": {"request_id": "c0#5:137", "reply": {"ok": False, "error": "X"},
               "image": [Reference("mrom://s2/4.4", "s2"), b"\x00" * 20]}},
]
messages = st.one_of(st.sampled_from(ENVELOPES), values).map(marshal)


def plain(value):
    """*value* as it comes back off the wire: tuples become lists."""
    if isinstance(value, (list, tuple)):
        return [plain(element) for element in value]
    if isinstance(value, dict):
        return {key: plain(val) for key, val in value.items()}
    return value


# -- mutations --------------------------------------------------------------


@st.composite
def mutated(draw):
    wire = bytearray(draw(messages))
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        op = draw(st.sampled_from(["flip", "delete", "insert", "truncate"]))
        at = draw(st.integers(min_value=0, max_value=max(len(wire) - 1, 0)))
        if op == "flip" and wire:
            wire[at] ^= draw(st.integers(min_value=1, max_value=255))
        elif op == "delete":
            del wire[at:at + draw(st.integers(min_value=1, max_value=4))]
        elif op == "insert":
            wire[at:at] = draw(st.binary(min_size=1, max_size=4))
        else:
            del wire[at:]
    return bytes(wire)


def outcome(decode, wire):
    """('ok', re-encoded value) or ('refused', message): only
    MarshalError may escape a decoder. Values compare by re-encoding,
    so a NaN real or an HtmlText/str swap cannot hide behind ``==``."""
    try:
        value = decode(wire)
    except MarshalError as exc:
        return ("refused", str(exc))
    return ("ok", marshal(value))


def deferred(wire):
    return materialize_deep(unmarshal(wire, defer_binary=True))


def assert_decoders_agree(wire):
    """Decoding *wire* under the leaf rule gives the eager value, or the
    eager refusal with the same message: a cell is made only after every
    bound the eager decoder checks has held."""
    assert outcome(deferred, wire) == outcome(unmarshal, wire)


@FUZZ
@given(mutated())
def test_corrupt_messages_decode_alike_or_are_refused_alike(wire):
    assert_decoders_agree(wire)


@FUZZ
@given(mutated())
def test_corrupt_messages_decode_alike_from_a_memoryview(wire):
    assert outcome(unmarshal, memoryview(wire)) == outcome(unmarshal, wire)


@FUZZ
@given(values)
def test_valid_values_round_trip_through_every_encoder(value):
    wire = marshal(value)
    with marshal_frame(value) as frame:
        assert frame.tobytes() == wire
    assert unmarshal(wire) == plain(value)
    assert deferred(wire) == plain(value)


@FUZZ
@given(st.integers(min_value=0, max_value=255), st.binary(max_size=6))
def test_any_tag_with_any_payload_is_refused_or_decoded(tag, payload):
    assert_decoders_agree(MAGIC + bytes((tag,)) + payload)


@pytest.mark.parametrize("payload", [b"", b"s", b"s|", b"|"])
@pytest.mark.parametrize("container", ["top", "list", "mapping"])
def test_malformed_reference_is_refused_at_admission(payload, container):
    value = b"G" + bytes((len(payload),)) + payload
    body = {
        "top": value,
        "list": b"L\x02" + value + b"N",
        "mapping": b"M\x01S\x01k" + value,
    }[container]
    wire = MAGIC + body
    with pytest.raises(MarshalError, match="malformed reference"):
        unmarshal(wire)
    with pytest.raises(MarshalError, match="malformed reference"):
        unmarshal(wire, defer_binary=True)


# -- text is never deferred: no asymmetry ------------------------------------

BAD_UTF8 = b"S\x02\xff\xfe"
#: text of DEFER_BINARY_MIN + 1 bytes, invalid UTF-8 in its last byte
BAD_LONG_UTF8 = b"S\x81\x20" + b"a" * DEFER_BINARY_MIN + b"\xff"


@pytest.mark.parametrize("bad", [BAD_UTF8, BAD_LONG_UTF8], ids=["short", "long"])
def test_invalid_utf8_is_refused_when_the_message_is_decoded(bad):
    # {"k": <invalid UTF-8 text>, "ok": 1}
    wire = MAGIC + b"M\x02" + b"S\x01k" + bad + b"S\x02ok" + b"I\x02"
    for defer_binary in (False, True):
        with pytest.raises(MarshalError, match="invalid UTF-8"):
            unmarshal(wire, defer_binary=defer_binary)


def test_lazy_checks_utf8_of_mapping_keys_at_admission():
    # keys index the mapping, so they decode (and validate) at once
    wire = MAGIC + b"M\x01" + BAD_UTF8 + b"I\x02"
    with pytest.raises(MarshalError, match="invalid UTF-8"):
        unmarshal(wire, defer_binary=True)
