"""Seeded fuzz of ``TraceContext.from_wire``: a forged context is dropped.

A receiving site reads the ``~trace`` field of a request, and the
``trace`` field of an arriving package, from bytes a peer chose. Whatever
those fields hold — any value the decoder accepts, from an intact or a
corrupt wire — ``from_wire`` must return ``None`` or a context whose ids
are non-empty text and whose baggage maps text to text, and must never
raise: a broken peer must not break the receiver's telemetry. A corrupt
wire the decoder refuses never reaches ``from_wire`` at all.

Hypothesis runs derandomized, so every run draws the same examples.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import HtmlText
from repro.core.errors import MarshalError
from repro.net.marshal import Reference, marshal, unmarshal
from repro.telemetry import TraceContext

pytestmark = pytest.mark.fuzz

FUZZ = settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.text(max_size=20),
    st.binary(max_size=12),
    st.builds(HtmlText, st.text(max_size=12)),
    st.builds(Reference, st.text(min_size=1, max_size=12), st.just("s1")),
)
#: an in-process value no wire can carry: an int past the
#: interpreter's int-to-text digit limit
huge_ints = st.integers(min_value=4300, max_value=4400).map(lambda digits: 10**digits)
keys = st.one_of(st.text(max_size=8), st.integers(), st.none(), st.booleans())


def context_shaped(leaves):
    """A context-shaped mapping over *leaves*: the three fields, each
    present or not, each well-formed or any value at all, plus stray
    fields; or, now and then, any value at all."""
    values = st.recursive(
        leaves,
        lambda children: st.one_of(
            st.lists(children, max_size=4),
            st.dictionaries(keys, children, max_size=4),
        ),
        max_leaves=8,
    )
    ids = st.one_of(
        st.text(min_size=1, max_size=16),
        st.builds(HtmlText, st.text(min_size=1, max_size=8)),
        values,
    )
    fields = st.fixed_dictionaries(
        {},
        optional={
            "trace_id": ids,
            "span_id": ids,
            "baggage": st.one_of(
                st.dictionaries(st.text(max_size=8), st.text(max_size=8), max_size=4),
                st.dictionaries(keys, leaves, max_size=4),
                values,
            ),
        },
    )
    stray = st.dictionaries(keys, values, max_size=2)
    mappings = st.tuples(stray, fields).map(lambda pair: {**pair[0], **pair[1]})
    return st.one_of(mappings, mappings, mappings, values)


contexts = context_shaped(scalars)
#: what an honest peer sends: TraceContext.to_wire output
honest = st.builds(
    lambda trace_id, span_id, baggage: TraceContext(trace_id, span_id, baggage).to_wire(),
    st.text(min_size=1, max_size=16),
    st.text(min_size=1, max_size=16),
    st.dictionaries(st.text(max_size=8), st.text(max_size=8), max_size=3),
)
in_process_contexts = context_shaped(st.one_of(scalars, huge_ints))


@st.composite
def corrupt_wires(draw):
    """A context's wire form with bytes flipped, poisoned, cut or inserted.

    A poisoned byte (0xff) is never valid UTF-8: inside any text the
    decoder refuses the whole message.
    """
    wire = bytearray(marshal(draw(st.one_of(honest, contexts))))
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        op = draw(st.sampled_from(["flip", "poison", "delete", "insert", "truncate"]))
        at = draw(st.integers(min_value=0, max_value=max(len(wire) - 1, 0)))
        if op == "flip" and wire:
            wire[at] ^= draw(st.integers(min_value=1, max_value=255))
        elif op == "poison" and wire:
            wire[at] = 0xFF
        elif op == "delete":
            del wire[at:at + draw(st.integers(min_value=1, max_value=4))]
        elif op == "insert":
            wire[at:at] = draw(st.binary(min_size=1, max_size=4))
        else:
            del wire[at:]
    return bytes(wire)


def assert_well_formed(raw) -> None:
    context = TraceContext.from_wire(raw)
    if context is None:
        return
    assert type(context.trace_id) is str and context.trace_id
    assert type(context.span_id) is str and context.span_id
    assert all(
        type(key) is str and type(value) is str
        for key, value in context.baggage.items()
    )


@FUZZ
@given(in_process_contexts)
def test_any_value_yields_none_or_a_context(raw):
    assert_well_formed(raw)


@FUZZ
@given(contexts)
def test_any_context_reads_the_same_off_the_wire(raw):
    decoded = unmarshal(marshal(raw))
    assert_well_formed(decoded)
    assert TraceContext.from_wire(decoded) == TraceContext.from_wire(raw)


@FUZZ
@given(corrupt_wires())
def test_corrupt_context_is_refused_or_yields_none_or_a_context(wire):
    try:
        raw = unmarshal(wire)
    except MarshalError:
        return  # refused at decode: from_wire never sees it
    assert_well_formed(raw)


@FUZZ
@given(honest, st.sampled_from(["trace_id", "span_id"]), st.data())
def test_undecodable_id_is_refused_at_decode(raw, field, data):
    wire = bytearray(marshal(raw))
    key = marshal(field)[len(b"MRM1"):]
    # the id's text payload starts after its key and its 2-byte head
    start = wire.index(key) + len(key) + 2
    size = len(raw[field].encode("utf-8"))
    wire[start + data.draw(st.integers(min_value=0, max_value=size - 1))] = 0xFF
    with pytest.raises(MarshalError, match="invalid UTF-8"):
        unmarshal(bytes(wire))


# -- regressions: each finding of the fuzz above -------------------------------


def test_huge_int_baggage_value_is_dropped():
    raw = {"trace_id": "t1", "span_id": "s1", "baggage": {"k": 10**5000, "ok": "v"}}
    assert TraceContext.from_wire(raw).baggage == {"ok": "v"}


def test_non_text_baggage_entries_are_dropped():
    raw = {"trace_id": "t1", "span_id": "s1",
           "baggage": {1: "v", "list": [1], "ref": Reference("g", "s1"), "ok": "v"}}
    assert TraceContext.from_wire(raw).baggage == {"ok": "v"}


def test_html_ids_become_plain_text():
    context = TraceContext.from_wire(
        {"trace_id": HtmlText("<b>t</b>"), "span_id": "s1",
         "baggage": {HtmlText("k"): HtmlText("v")}}
    )
    assert type(context.trace_id) is str
    assert [(type(k), type(v)) for k, v in context.baggage.items()] == [(str, str)]


def test_undecodable_field_is_refused_at_decode():
    # {"trace_id": <invalid UTF-8 text>, "span_id": "s"}
    wire = (b"MRM1" + b"M\x02" + b"S\x08trace_id" + b"S\x02\xff\xfe"
            + b"S\x07span_id" + b"S\x01s")
    with pytest.raises(MarshalError, match="invalid UTF-8"):
        unmarshal(wire)


def test_undecodable_baggage_is_refused_at_decode():
    wire = (b"MRM1" + b"M\x03" + b"S\x08trace_id" + b"S\x01t"
            + b"S\x07span_id" + b"S\x01s"
            + b"S\x07baggage" + b"M\x01" + b"S\x01k" + b"S\x02\xff\xfe")
    with pytest.raises(MarshalError, match="invalid UTF-8"):
        unmarshal(wire)
