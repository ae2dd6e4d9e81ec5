"""The wire format: round trips, strictness, hostile inputs."""

import math

import pytest

from repro.core import HtmlText, Kind, kind_of
from repro.core.errors import MarshalError
from repro.net import MAGIC, Reference, marshal, marshalled_size, unmarshal


def round_trip(value):
    return unmarshal(marshal(value))


class TestScalars:
    @pytest.mark.parametrize(
        "value",
        [None, True, False, 0, 1, -1, 127, 128, -12345678901234567890,
         2**70, 0.0, -2.5, 1e308, "", "shalom", "עברית ∑", b"", b"\x00\xff"],
    )
    def test_round_trip(self, value):
        assert round_trip(value) == value

    def test_bool_stays_bool(self):
        assert round_trip(True) is True
        assert round_trip(0) == 0 and not isinstance(round_trip(0), bool)

    def test_float_identity(self):
        assert round_trip(0.1) == 0.1
        assert math.isnan(round_trip(float("nan")))
        assert round_trip(float("inf")) == float("inf")

    def test_html_tag_survives(self):
        value = HtmlText("<b>42</b>")
        back = round_trip(value)
        assert isinstance(back, HtmlText)
        assert kind_of(back) is Kind.HTML

    def test_plain_text_does_not_become_html(self):
        assert kind_of(round_trip("plain")) is Kind.TEXT


class TestCollections:
    def test_nested_structures(self):
        value = {
            "rows": [{"name": "moshe", "salary": 4500}, {"name": "dana"}],
            "meta": {"count": 2, "tags": ["a", "b"], "blob": b"\x01"},
            7: [None, True, [[]]],
        }
        assert round_trip(value) == value

    def test_tuples_become_lists(self):
        assert round_trip((1, 2, (3,))) == [1, 2, [3]]

    def test_deep_nesting_bounded(self):
        value = []
        for _ in range(100):
            value = [value]
        with pytest.raises(MarshalError):
            marshal(value)

    def test_empty_collections(self):
        assert round_trip([]) == []
        assert round_trip({}) == {}


class TestReferences:
    def test_reference_round_trip(self):
        ref = Reference("mrom://haifa/1.1", "haifa")
        assert round_trip(ref) == ref

    def test_reference_without_site(self):
        ref = Reference("mrom://haifa/1.1")
        assert round_trip(ref) == ref

    def test_object_with_guid_marshals_by_identity(self):
        class Thing:
            guid = "mrom://haifa/9.9"
            site = "haifa"

        back = round_trip(Thing())
        assert back == Reference("mrom://haifa/9.9", "haifa")


class TestRejections:
    def test_unmarshalable_type(self):
        from repro.net.marshal import marshal_frame

        with pytest.raises(MarshalError):
            marshal(object())
        with pytest.raises(MarshalError):
            marshal_frame({"k": object()})

    def test_set_is_not_a_wire_value(self):
        with pytest.raises(MarshalError):
            marshal({1, 2})


class TestStrictDecoding:
    def test_bad_magic(self):
        with pytest.raises(MarshalError):
            unmarshal(b"XXXX" + marshal(1)[4:])

    def test_truncated(self):
        wire = marshal("hello world")
        with pytest.raises(MarshalError):
            unmarshal(wire[:-3])

    def test_trailing_garbage(self):
        with pytest.raises(MarshalError):
            unmarshal(marshal(1) + b"\x00")

    def test_unknown_tag(self):
        with pytest.raises(MarshalError):
            unmarshal(MAGIC + b"Z")

    def test_forged_huge_collection_length(self):
        # claims 10^9 list elements with no payload: must fail fast,
        # not allocate
        forged = bytearray(MAGIC + b"L")
        value = 1_000_000_000
        while True:
            byte = value & 0x7F
            value >>= 7
            forged.append(byte | 0x80 if value else byte)
            if not value:
                break
        with pytest.raises(MarshalError):
            unmarshal(bytes(forged))

    def test_invalid_utf8_payload(self):
        wire = bytearray(MAGIC + b"S")
        wire.append(2)
        wire += b"\xff\xfe"
        with pytest.raises(MarshalError):
            unmarshal(bytes(wire))

    def test_unhashable_mapping_key(self):
        # a mapping whose key is a list decodes to an unhashable key
        inner_key = marshal([1])[len(MAGIC):]
        inner_val = marshal(2)[len(MAGIC):]
        wire = MAGIC + b"M" + b"\x01" + inner_key + inner_val
        with pytest.raises(MarshalError):
            unmarshal(wire)


class TestSize:
    def test_size_matches_marshal(self):
        value = {"a": [1, 2, 3], "b": "text"}
        assert marshalled_size(value) == len(marshal(value))

    def test_varint_compactness(self):
        assert marshalled_size(1) < marshalled_size(2**40)

    @pytest.mark.parametrize(
        "value", [2**1027, -(2**1027), 2**1028 - 1], ids=["2**1027", "-2**1027", "2**1028-1"]
    )
    def test_widest_decodable_int_round_trips(self, value):
        assert round_trip(value) == value

    @pytest.mark.parametrize(
        "value",
        [2**1028, -(2**1028) - 1, 10**5000, [1, 10**5000]],
        ids=["2**1028", "-2**1028-1", "10**5000", "list"],
    )
    def test_int_the_decoder_would_refuse_is_refused_at_encode(self, value):
        # found by fuzzing a trace context: the encoder wrote a varint
        # unmarshal refused as "varint too long"
        with pytest.raises(MarshalError, match="varint too long"):
            marshal(value)


# ---------------------------------------------------------------------------
# zero-copy frames, threads, lazy decoding
# ---------------------------------------------------------------------------

SHAPES = [
    None,
    True,
    -12345,
    2.5,
    "shalom",
    b"\x00\xff" * 40,
    [1, [2, [3, "x"]], {"k": b"v"}],
    {"a": [1, 2, 3], "b": {"c": None}, "d": "עברית"},
]


class TestMarshalFrame:
    @pytest.mark.parametrize("value", SHAPES)
    def test_frame_bytes_identical_to_eager_marshal(self, value):
        from repro.net.marshal import marshal_frame

        frame = marshal_frame(value)
        assert bytes(frame) == marshal(value)
        # the buffer itself decodes
        assert unmarshal(frame) == unmarshal(marshal(value))


class TestLazyDecoding:
    """The leaf rule: with ``defer_binary`` a large binary leaf stays a
    cell over the message; everything else decodes at once."""

    @pytest.mark.parametrize("value", SHAPES)
    def test_lazy_materializes_to_the_eager_value(self, value):
        from repro.net.marshal import materialize_deep

        wire = marshal(value)
        assert materialize_deep(unmarshal(wire, defer_binary=True)) == unmarshal(wire)

    def test_mapping_values_stay_undecoded_until_touched(self):
        from repro.net.marshal import DEFER_BINARY_MIN, BinaryCell

        blob = b"\xa5" * DEFER_BINARY_MIN
        decoded = unmarshal(marshal({"hot": 1, "cold": blob}), defer_binary=True)
        assert decoded["hot"] == 1
        cell = decoded["cold"]
        assert isinstance(cell, BinaryCell)
        assert cell.materialize() == blob
        assert cell.materialize() is cell.materialize(), "sliced once"

    @pytest.mark.parametrize("delta", [-1, 0, 1])
    def test_only_binary_leaves_from_the_threshold_are_deferred(self, delta):
        from repro.core.values import LazyCell
        from repro.net.marshal import DEFER_BINARY_MIN

        size = DEFER_BINARY_MIN + delta
        value = [b"x" * size, "t" * size, HtmlText("h" * size), {"k": b"y" * size}]
        decoded = unmarshal(marshal(value), defer_binary=True)
        cells = [isinstance(leaf, LazyCell) for leaf in (decoded[0], decoded[3]["k"])]
        assert cells == [delta >= 0] * 2
        assert type(decoded[1]) is str and type(decoded[2]) is HtmlText
        assert type(unmarshal(marshal(value))[0]) is bytes, "off by default"

    def test_mapping_keys_are_never_deferred(self):
        from repro.net.marshal import DEFER_BINARY_MIN

        key = b"k" * DEFER_BINARY_MIN
        decoded = unmarshal(marshal({key: 1}), defer_binary=True)
        assert decoded == {key: 1}

    def test_lazy_validates_framing_up_front(self):
        from repro.net.marshal import DEFER_BINARY_MIN

        wire = marshal({"k": [1, b"\x00" * DEFER_BINARY_MIN]})
        with pytest.raises(MarshalError):
            unmarshal(wire + b"\x00", defer_binary=True)  # trailing garbage
        with pytest.raises(MarshalError, match="truncated payload"):
            unmarshal(wire[:-1], defer_binary=True)  # cut inside the blob
        with pytest.raises(MarshalError):
            unmarshal(b"XXXX" + wire[4:], defer_binary=True)  # bad magic

    def test_lazy_snapshots_mutable_input(self):
        from repro.net.marshal import DEFER_BINARY_MIN

        blob = b"\x5a" * DEFER_BINARY_MIN
        wire = bytearray(marshal({"k": "value", "blob": blob}))
        decoded = unmarshal(wire, defer_binary=True)
        wire[:] = b"\x00" * len(wire)  # corrupt the original afterwards
        assert decoded["k"] == "value"
        assert decoded["blob"].materialize() == blob


class TestCodecThreads:
    def test_eight_threads_encode_the_same_bytes(self):
        # the gateway marshals on several threads: with no shared output
        # buffer, every thread's bytes must be one thread's bytes
        import sys
        import threading

        from repro.net.marshal import marshal_frame

        values = [{"k": list(range(n))} for n in (1, 50, 400)]
        values += [{"blob": b"x" * n} for n in (40_000, 70_000)]
        values += [{"ref": Reference("mrom:obj:t", "s1"), "text": "ab" * n} for n in (3, 300)]
        expected = [marshal(value) for value in values]
        errors = []

        def churn(seed):
            try:
                for i in range(100):
                    index = (seed + i) % len(values)
                    assert bytes(marshal_frame(values[index])) == expected[index]
                    assert marshal(values[index]) == expected[index]
            except Exception as exc:  # surfaced by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=churn, args=(n,)) for n in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
