"""Golden wire vectors: the MRM1 byte-identity oracle.

Every row pins the exact bytes ``marshal`` emits for one value, as hex
after the ``MRM1`` magic. The table was recorded from the original
``isinstance``-chain encoder before the codec was rewritten around
type and tag dispatch; any encoder change that moves a single byte
fails here. Simulated network delays are a function of wire size, so a
moved byte would also change every seeded chaos/load/cluster digest.

The rows cover every tag and the boundaries the fast paths special-case:
one- vs two-byte varints, the precomputed small-int table's edges, the
64-character interning limit (counted in characters on encode and in
UTF-8 bytes on decode), one-byte collection counts and the nesting
limit.
"""

from __future__ import annotations

import enum

import pytest

from repro.core import HtmlText
from repro.core.errors import MarshalError
from repro.net.marshal import (
    MAGIC,
    Reference,
    marshal,
    marshal_frame,
    materialize_deep,
    unmarshal,
)


class Color(enum.IntEnum):
    RED = 3
    FAR = 300


class Thing:
    """An object marshalled by identity, homed by ``site_id``."""

    guid = "mrom://haifa/9.9"
    site_id = "haifa"


class Visitor:
    """An object with a non-text guid and a ``site`` attribute."""

    guid = 42
    site = "tel-aviv"


def nest(depth: int):
    """A value whose innermost scalar sits at nesting *depth*."""
    value = 0
    for _ in range(depth):
        value = [value]
    return value


MIXED = {
    "method": "increment",
    "args": [1, -1, 2.5, None, True, False],
    7: {"deep": [b"\x01", HtmlText("<i>x</i>")]},
    -3: "",
}

_ = object()  # "decodes to the value itself"

#: (id, value, expected hex after MAGIC, decoded value or ``_``)
VECTORS = [
    # -- null and booleans
    ("null", None, "4e", _),
    ("true", True, "54", _),
    ("false", False, "46", _),
    # -- integers: zig-zag, the small-int table edges, varint widths
    ("int-0", 0, "4900", _),
    ("int-1", 1, "4902", _),
    ("int-neg1", -1, "4901", _),
    ("int-63", 63, "497e", _),  # zig-zag 126: last one-byte positive
    ("int-64", 64, "498001", _),  # zig-zag 128: first two-byte varint
    ("int-neg64", -64, "497f", _),  # zig-zag 127; small-table low edge
    ("int-neg65", -65, "498101", _),  # first below the small table
    ("int-256", 256, "498004", _),  # small-table high edge
    ("int-257", 257, "498204", _),  # first above the small table
    ("int-8191", 8191, "49fe7f", _),  # zig-zag 16382
    ("int-neg8192", -8192, "49ff7f", _),  # zig-zag 16383: last two-byte varint
    ("int-8192", 8192, "49808001", _),  # zig-zag 16384: first three-byte varint
    ("int-neg8193", -8193, "49818001", _),  # zig-zag 16385
    ("int-neg1000", -1000, "49cf0f", _),
    ("int-2^63", 2**63, "4980808080808080808002", _),
    ("int-neg2^63", -(2**63), "49ffffffffffffffffff01", _),
    ("int-2^70", 2**70, "498080808080808080808002", _),
    ("int-huge-neg", -12345678901234567890, "49a3abf8b19de3d4d4d602", _),
    ("intenum-small", Color.RED, "4906", 3),
    ("intenum-large", Color.FAR, "49d804", 300),
    # -- reals
    ("real-0", 0.0, "520000000000000000", _),
    ("real-neg0", -0.0, "528000000000000000", _),
    ("real-neg2.5", -2.5, "52c004000000000000", _),
    ("real-1e308", 1e308, "527fe1ccf385ebc8a0", _),
    ("real-inf", float("inf"), "527ff0000000000000", _),
    ("real-neg-inf", float("-inf"), "52fff0000000000000", _),
    # -- text: interning limit, multi-byte UTF-8
    ("text-empty", "", "5300", _),
    ("text-ascii", "shalom", "53067368616c6f6d", _),
    ("text-64", "a" * 64, "5340" + "61" * 64, _),
    ("text-65", "a" * 65, "5341" + "61" * 65, _),
    ("text-127-bytes", "b" * 127, "537f" + "62" * 127, _),
    ("text-128-bytes", "b" * 128, "538001" + "62" * 128, _),
    ("text-hebrew", "עברית ∑", "530ed7a2d791d7a8d799d7aa20e28891", _),
    ("text-40-chars-80-bytes", "א" * 40, "5350" + "d790" * 40, _),
    ("text-64-chars-128-bytes", "א" * 64, "538001" + "d790" * 64, _),
    ("text-astral", "\U0001f600", "5304f09f9880", _),
    # -- html
    ("html", HtmlText("<b>42</b>"), "48093c623e34323c2f623e", _),
    ("html-empty", HtmlText(""), "4800", _),
    # -- binary in all three buffer types
    ("bytes-empty", b"", "4200", _),
    ("bytes", b"\x00\xff", "420200ff", _),
    ("bytes-128", bytes(range(128)), "428001" + bytes(range(128)).hex(), _),
    ("bytearray", bytearray(b"ab"), "42026162", b"ab"),
    ("memoryview", memoryview(b"cd"), "42026364", b"cd"),
    # -- lists and tuples
    ("list-empty", [], "4c00", _),
    ("list-scalars", [1, "a", None, True, 2.5], "4c0549025301614e54524004000000000000", _),
    ("list-127", [None] * 127, "4c7f" + "4e" * 127, _),
    ("list-128", [None] * 128, "4c8001" + "4e" * 128, _),
    ("tuple", (1, "a", (2,)), "4c0349025301614c014904", [1, "a", [2]]),
    ("tuple-empty", (), "4c00", []),
    # -- mappings
    ("map-empty", {}, "4d00", _),
    ("map-text-keys", {"a": 1, "b": "two"}, "4d025301614902530162530374776f", _),
    ("map-mixed", MIXED, (
        "4d0453066d6574686f645309696e6372656d656e745304617267734c06490249"
        "015240040000000000004e5446490e4d015304646565704c0242010148083c69"
        "3e783c2f693e49055300"
    ), _),
    ("map-127", {i: i for i in range(127)}, (
        "4d7f4900490049024902490449044906490649084908490a490a490c490c490e"
        "490e4910491049124912491449144916491649184918491a491a491c491c491e"
        "491e4920492049224922492449244926492649284928492a492a492c492c492e"
        "492e4930493049324932493449344936493649384938493a493a493c493c493e"
        "493e4940494049424942494449444946494649484948494a494a494c494c494e"
        "494e4950495049524952495449544956495649584958495a495a495c495c495e"
        "495e4960496049624962496449644966496649684968496a496a496c496c496e"
        "496e4970497049724972497449744976497649784978497a497a497c497c497e"
        "497e498001498001498201498201498401498401498601498601498801498801"
        "498a01498a01498c01498c01498e01498e014990014990014992014992014994"
        "01499401499601499601499801499801499a01499a01499c01499c01499e0149"
        "9e0149a00149a00149a20149a20149a40149a40149a60149a60149a80149a801"
        "49aa0149aa0149ac0149ac0149ae0149ae0149b00149b00149b20149b20149b4"
        "0149b40149b60149b60149b80149b80149ba0149ba0149bc0149bc0149be0149"
        "be0149c00149c00149c20149c20149c40149c40149c60149c60149c80149c801"
        "49ca0149ca0149cc0149cc0149ce0149ce0149d00149d00149d20149d20149d4"
        "0149d40149d60149d60149d80149d80149da0149da0149dc0149dc0149de0149"
        "de0149e00149e00149e20149e20149e40149e40149e60149e60149e80149e801"
        "49ea0149ea0149ec0149ec0149ee0149ee0149f00149f00149f20149f20149f4"
        "0149f40149f60149f60149f80149f80149fa0149fa0149fc0149fc01"
    ), _),
    ("map-128", {i: i for i in range(128)}, (
        "4d80014900490049024902490449044906490649084908490a490a490c490c49"
        "0e490e4910491049124912491449144916491649184918491a491a491c491c49"
        "1e491e4920492049224922492449244926492649284928492a492a492c492c49"
        "2e492e4930493049324932493449344936493649384938493a493a493c493c49"
        "3e493e4940494049424942494449444946494649484948494a494a494c494c49"
        "4e494e4950495049524952495449544956495649584958495a495a495c495c49"
        "5e495e4960496049624962496449644966496649684968496a496a496c496c49"
        "6e496e4970497049724972497449744976497649784978497a497a497c497c49"
        "7e497e4980014980014982014982014984014984014986014986014988014988"
        "01498a01498a01498c01498c01498e01498e0149900149900149920149920149"
        "9401499401499601499601499801499801499a01499a01499c01499c01499e01"
        "499e0149a00149a00149a20149a20149a40149a40149a60149a60149a80149a8"
        "0149aa0149aa0149ac0149ac0149ae0149ae0149b00149b00149b20149b20149"
        "b40149b40149b60149b60149b80149b80149ba0149ba0149bc0149bc0149be01"
        "49be0149c00149c00149c20149c20149c40149c40149c60149c60149c80149c8"
        "0149ca0149ca0149cc0149cc0149ce0149ce0149d00149d00149d20149d20149"
        "d40149d40149d60149d60149d80149d80149da0149da0149dc0149dc0149de01"
        "49de0149e00149e00149e20149e20149e40149e40149e60149e60149e80149e8"
        "0149ea0149ea0149ec0149ec0149ee0149ee0149f00149f00149f20149f20149"
        "f40149f40149f60149f60149f80149f80149fa0149fa0149fc0149fc0149fe01"
        "49fe01"
    ), _),
    ("map-long-key", {"k" * 70: 1}, "4d015346" + "6b" * 70 + "4902", _),
    ("map-bool-keys", {True: False, None: 0}, "4d0254464e4900", _),
    # -- references and objects marshalled by identity
    ("ref", Reference("mrom://haifa/1.1", "haifa"), "471668616966617c6d726f6d3a2f2f68616966612f312e31", _),
    ("ref-no-site", Reference("mrom://haifa/1.1"), "47117c6d726f6d3a2f2f68616966612f312e31", _),
    ("ref-pipe-in-guid", Reference("a|b", "s"), "4705737c617c62", _),
    ("object-site-id", Thing(), "471668616966617c6d726f6d3a2f2f68616966612f392e39", Reference("mrom://haifa/9.9", "haifa")),
    ("object-site", Visitor(), "470b74656c2d617669767c3432", Reference("42", "tel-aviv")),
    ("list-of-refs", [Reference("g1", "s"), Thing()],
     "4c024704737c6731471668616966617c6d726f6d3a2f2f68616966612f392e39",
     [Reference("g1", "s"), Reference("mrom://haifa/9.9", "haifa")]),
    # -- the nesting limit: depth 64 is the deepest accepted
    ("depth-64", nest(64), "4c01" * 64 + "4900", _),
]


def _expected(decoded, value):
    return value if decoded is _ else decoded


@pytest.mark.parametrize(
    "value, wire_hex", [(v, h) for _id, v, h, _d in VECTORS],
    ids=[row[0] for row in VECTORS],
)
def test_encoder_emits_golden_bytes(value, wire_hex):
    assert marshal(value).hex() == MAGIC.hex() + wire_hex


@pytest.mark.parametrize(
    "value, wire_hex", [(v, h) for _id, v, h, _d in VECTORS],
    ids=[row[0] for row in VECTORS],
)
def test_frame_emits_golden_bytes(value, wire_hex):
    with marshal_frame(value) as frame:
        assert frame.tobytes().hex() == MAGIC.hex() + wire_hex


@pytest.mark.parametrize(
    "wire_hex, decoded", [(h, _expected(d, v)) for _id, v, h, d in VECTORS],
    ids=[row[0] for row in VECTORS],
)
def test_decoders_read_golden_bytes(wire_hex, decoded):
    wire = MAGIC + bytes.fromhex(wire_hex)
    eager = unmarshal(wire)
    assert eager == decoded
    assert type(eager) is type(decoded)
    assert unmarshal(memoryview(wire)) == decoded
    assert materialize_deep(unmarshal(wire, defer_binary=True)) == decoded


def test_decoded_scalar_types_are_exact():
    assert type(unmarshal(marshal(Color.RED))) is int
    assert unmarshal(marshal(True)) is True
    assert type(unmarshal(marshal(HtmlText("x")))) is HtmlText
    assert type(unmarshal(marshal("x"))) is str


def test_nan_encodes_to_the_canonical_quiet_nan():
    wire = marshal(float("nan"))
    assert wire.hex() == MAGIC.hex() + "527ff8000000000000"
    back = unmarshal(wire)
    assert back != back


def test_depth_65_is_refused_by_the_encoder():
    with pytest.raises(MarshalError, match="nesting exceeds 64"):
        marshal(nest(65))
    with pytest.raises(MarshalError, match="nesting exceeds 64"):
        marshal_frame(nest(65))


@pytest.mark.parametrize("opener", [b"L\x01", b"M\x01S\x01k"])
def test_depth_65_is_refused_by_every_decoder(opener):
    # the golden depth-64 message with one more container level
    wire = MAGIC + opener * 65 + b"I\x00"
    with pytest.raises(MarshalError, match="nesting exceeds 64"):
        unmarshal(wire)
    with pytest.raises(MarshalError, match="nesting exceeds 64"):
        unmarshal(wire, defer_binary=True)
    accepted = MAGIC + opener * 64 + b"I\x00"
    assert materialize_deep(unmarshal(accepted, defer_binary=True)) == unmarshal(accepted)


# -- references the decoder could not read back are refused at encode ------


@pytest.mark.parametrize(
    "ref",
    [Reference("", "s"), Reference(""), Reference("mrom://a|b/1.1", "a|b")],
    ids=["empty-guid", "empty-guid-no-site", "pipe-in-site"],
)
def test_encoder_refuses_references_that_would_not_round_trip(ref):
    # the payload is "site|guid", split at the first "|" on decode:
    # Reference("", "s") used to encode and then fail to decode, and
    # Reference("mrom://a|b/1.1", "a|b") came back as a different one
    for _ in range(2):  # a refusal is not interned
        with pytest.raises(MarshalError, match="reference"):
            marshal(ref)
        with pytest.raises(MarshalError, match="reference"):
            marshal({"args": [ref]})
        with pytest.raises(MarshalError, match="reference"):
            marshal_frame(ref)


def test_object_homed_at_a_pipe_site_is_refused():
    class Stray:
        guid = "mrom://a/1.1"
        site_id = "a|b"

    with pytest.raises(MarshalError, match="reference"):
        marshal(Stray())


def test_every_encodable_reference_round_trips():
    for ref in (Reference("g", ""), Reference("a|b", "s"), Reference("|", "s"),
                Reference("mrom://a/1.1", "a b"), Reference("ג", "ש")):
        assert unmarshal(marshal(ref)) == ref
