"""The decode memo: a message that arrives again byte for byte is a copy
of the tree kept at its second sighting, never a different value.

The oracle is the decoder itself (``_decode_message``, what
``unmarshal`` ran before the memo). On the inputs of
``test_marshal_fuzz.py``, valid and corrupt, and on the protocol
envelopes, the first, second and every later sighting of a message must
give the oracle's value with its exact types, or its exception with the
same message, after the same resolver calls (mapping keys included).
Each result has containers of its own, so editing one never shows in
another. Hypothesis runs derandomized.
"""

from __future__ import annotations

import gc
import importlib
import threading
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from repro.core.errors import MarshalError
from repro.core.values import HtmlText
from repro.net import Network, Site
from repro.net.gateway import TcpGateway, TcpGatewayClient
from repro.sim import Simulator

from .test_marshal_fuzz import ENVELOPES, FUZZ, mutated, values

codec = importlib.import_module("repro.net.marshal")
Reference, marshal, unmarshal = codec.Reference, codec.marshal, codec.unmarshal

#: what the resolver of a differential run returns for a reference:
#: nothing (no resolver), a hashable tuple, the bare guid (which may
#: collide with a text key of the same mapping), a list (unhashable as
#: a key), a tuple until its second call raises, or the call's number
#: (so two resolutions of one guid land where a decode puts them)
MODES = (None, "tuple", "text", "list", "raise", "serial")


class Recorder:
    """A reference resolver that records its calls."""

    def __init__(self, mode: str) -> None:
        self.mode = mode
        self.calls: list[tuple[str, str]] = []

    def __call__(self, guid: str, site: str):
        self.calls.append((guid, site))
        if self.mode == "text":
            return guid
        if self.mode == "list":
            return [guid, site]
        if self.mode == "raise" and len(self.calls) == 2:
            raise LookupError(f"no object {guid!r}")
        if self.mode == "serial":
            return ("call", len(self.calls))
        return ("resolved", guid, site)


def shape(value):
    """*value* with every type spelled out, so ``True`` and ``1``,
    ``HtmlText`` and ``str``, ``-0.0`` and ``0.0`` or two NaNs compare
    as what they are; mapping order counts."""
    kind = type(value)
    if kind is dict:
        return ("dict", tuple((shape(key), shape(item)) for key, item in value.items()))
    if kind is list or kind is tuple:
        return (kind.__name__, tuple(shape(item) for item in value))
    if kind is Reference:
        return ("Reference", value.guid, value.site)
    if kind is float:
        return ("float", value.hex())
    return (kind.__name__, value)


def outcome(decode, wire: bytes, mode: str | None):
    """(result, resolver calls): the result is ``("ok", value, shape)``
    or ``("raised", type, message)``."""
    resolver = Recorder(mode) if mode else None
    try:
        value = decode(wire, resolver)
    except (MarshalError, LookupError) as exc:
        return ("raised", type(exc).__name__, str(exc)), resolver and resolver.calls
    return ("ok", value, shape(value)), resolver and resolver.calls


def oracle(wire: bytes, resolve):
    return codec._decode_message(wire, resolve, False)


def containers(value, found: list) -> list:
    """Every dict, list and Reference the decoder made in *value*."""
    kind = type(value)
    if kind is dict:
        found.append(value)
        for key, item in value.items():
            containers(key, found)
            containers(item, found)
    elif kind is list:
        found.append(value)
        for item in value:
            containers(item, found)
    elif kind is Reference:
        found.append(value)
    return found


def vandalize(value) -> None:
    """Edit every container of *value* in place."""
    for node in containers(value, []):
        if type(node) is dict:
            node["~vandal"] = 1
        elif type(node) is list:
            node.append("~vandal")
        else:
            node.guid += "~vandal"


def check_sighting(wire: bytes, mode: str | None, earlier: list) -> None:
    got, calls = outcome(unmarshal, wire, mode)
    want, want_calls = outcome(oracle, wire, mode)
    assert got[0] == want[0] and got[2:] == want[2:]
    assert calls == want_calls
    if got[0] == "ok":
        mine = {id(node) for node in containers(got[1], [])}
        for value in earlier:  # still alive, so ids are not reused
            assert mine.isdisjoint(id(node) for node in containers(value, []))
        earlier.append(got[1])


def assert_memo_matches_decode(wire: bytes) -> None:
    for mode in MODES:
        codec._reset_fastpath_state()
        earlier: list = []
        for _sighting in range(3):  # noted, kept, copied
            check_sighting(wire, mode, earlier)
        for value in earlier:
            vandalize(value)
        check_sighting(wire, mode, earlier)
    for mode in MODES:  # a tree kept under one resolver, copied for another
        check_sighting(wire, mode, [])


@FUZZ
@given(st.one_of(st.sampled_from(ENVELOPES), values).map(marshal))
def test_every_sighting_of_a_valid_message_decodes_alike(wire):
    assert_memo_matches_decode(wire)


@FUZZ
@given(mutated())
def test_every_sighting_of_a_corrupt_message_decodes_alike(wire):
    assert_memo_matches_decode(wire)


# -- hand-made edge cases ----------------------------------------------------


def ref(guid: str, site: str = "s") -> bytes:
    payload = f"{site}|{guid}".encode()
    return b"G" + bytes((len(payload),)) + payload


@pytest.mark.parametrize(
    "body",
    [
        # {"a": <g1>, "a": <g2>}: the decoder resolves both, keeps one
        b"M\x02S\x01a" + ref("g1") + b"S\x01a" + ref("g2"),
        # {"a": 1, "b": <g1>, "a": <g2>}: "a" keeps its place, g2 its value
        b"M\x03S\x01aI\x02S\x01b" + ref("g1") + b"S\x01a" + ref("g2"),
        # {<g1>: 1, <g1>: 2}: one key, two resolutions
        b"M\x02" + ref("g1") + b"I\x02" + ref("g1") + b"I\x04",
        # {<g1>: [<g2>], "g1": <g3>}: the text key may meet the resolved one
        b"M\x02" + ref("g1") + b"L\x01" + ref("g2") + b"S\x02g1" + ref("g3"),
        # {"a": [], "b": <g1>, "a": <g1>}: equal lists, swapped resolutions
        b"M\x03S\x01aL\x00S\x01b" + ref("g1") + b"S\x01a" + ref("g1"),
    ],
    ids=[
        "repeated-key",
        "repeated-key-reordered",
        "repeated-reference-key",
        "key-collision",
        "repeated-key-swapped",
    ],
)
def test_repeated_and_colliding_keys_resolve_as_a_decode_does(body):
    wire = codec.MAGIC + body
    assert_memo_matches_decode(wire)
    assert codec._KEPT.get(wire) is codec._UNCOPYABLE


class CountingDecode:
    """Counts ``_decode`` calls, nested ones included."""

    def __init__(self, monkeypatch) -> None:
        self.calls = 0
        real = codec._decode

        def counted(*args, **kwargs):
            self.calls += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(codec, "_decode", counted)

    def sightings(self, wire: bytes, times: int, **options) -> list[int]:
        """The ``_decode`` calls of each of *times* decodes of *wire*."""
        counts = []
        for _ in range(times):
            before = self.calls
            unmarshal(wire, **options)
            counts.append(self.calls - before)
        return counts


def test_a_later_sighting_runs_no_decode(monkeypatch):
    codec._reset_fastpath_state()
    counter = CountingDecode(monkeypatch)
    wire = marshal(ENVELOPES[0])
    first, second, *later = counter.sightings(wire, 5)
    assert first > 0 and second > 0
    assert later == [0, 0, 0]
    assert codec._KEPT.snapshot()[0] == 1


def test_large_messages_and_deferred_decodes_are_never_kept(monkeypatch):
    codec._reset_fastpath_state()
    counter = CountingDecode(monkeypatch)
    large = marshal({"blob": b"x" * codec._MEMO_MAX_BYTES})
    assert len(large) > codec._MEMO_MAX_BYTES
    assert min(counter.sightings(large, 4)) > 0
    small = marshal(ENVELOPES[0])
    assert min(counter.sightings(small, 4, defer_binary=True)) > 0
    assert codec._SEEN.snapshot() == (0, 0)
    assert codec._KEPT.snapshot() == (0, 0)


def test_a_refused_message_is_never_noted():
    codec._reset_fastpath_state()
    wire = marshal(ENVELOPES[1]) + b"N"  # trailing garbage
    for _ in range(3):
        with pytest.raises(MarshalError, match="trailing garbage"):
            unmarshal(wire)
    assert codec._SEEN.snapshot() == (0, 0)
    assert codec._KEPT.snapshot() == (0, 0)


def test_distinct_messages_stay_under_the_caps():
    codec._reset_fastpath_state()
    tables = (codec._SEEN, codec._KEPT)
    for n in range(100_000):
        wire = marshal({"n": n, "v": [n, str(n)]})
        unmarshal(wire)
        unmarshal(wire)
        if n % 997 == 0:
            for table in tables:
                entries, retained = table.snapshot()
                assert entries <= table.cap and retained <= table.max_chars
    for table in tables:
        entries, retained = table.snapshot()
        assert 0 < entries <= table.cap and retained <= table.max_chars


def retained_by_keeping(wire: bytes) -> int:
    """The bytes the memo's tables gain when *wire* is kept (traced)."""
    codec._reset_fastpath_state()
    unmarshal(wire)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        unmarshal(wire)
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


#: small messages that hold many objects per wire byte: empty
#: containers, fresh ``HtmlText`` leaves, references, nesting
DENSE = {
    "empty-lists": [[] for _ in range(230)],
    "empty-dicts": [{} for _ in range(230)],
    "empty-html": [HtmlText("") for _ in range(450)],
    "references": [Reference("g") for _ in range(230)],
    "nested-lists": [[[[]]] for _ in range(70)],
    "floats": [float(n) for n in range(440)],
    **{f"envelope-{n}": envelope for n, envelope in enumerate(ENVELOPES)},
}


@pytest.mark.parametrize("value", DENSE.values(), ids=DENSE.keys())
def test_a_kept_tree_retains_no_more_than_its_counted_cost(value):
    wire = marshal(value)
    retained = retained_by_keeping(wire)
    entries, counted = codec._KEPT.snapshot()
    assert entries == 1 and codec._KEPT.get(wire) is not codec._UNCOPYABLE
    assert 0 < retained <= counted <= codec._KEPT.body_max_chars


def test_a_tree_over_the_per_message_cost_is_decoded_each_time(monkeypatch):
    """4 KiB of empty lists decode to about 430 KB of objects and plan:
    the message is kept as uncopyable, so it retains its bytes only,
    and each later sighting is one plain decode."""
    wire = marshal([[] for _ in range(2000)])
    assert len(wire) <= codec._MEMO_MAX_BYTES
    assert retained_by_keeping(wire) < 2 * len(wire)
    assert codec._KEPT.get(wire) is codec._UNCOPYABLE
    counter = CountingDecode(monkeypatch)
    codec._reset_fastpath_state()
    first, second, *later = counter.sightings(wire, 5)
    assert second == 2 * first and later == [first] * 3


def test_dense_messages_stay_under_the_retained_bound():
    """A peer that sends ever new dense messages twice each cycles the
    kept table through its retained bound: the memo's traced memory
    never passes the two tables' bounds."""
    codec._reset_fastpath_state()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        bound = codec._KEPT.max_chars + codec._SEEN.max_chars
        for n in range(200):
            wire = marshal([n] + [[] for _ in range(230)])
            unmarshal(wire)
            unmarshal(wire)
            assert codec._KEPT.snapshot()[1] <= codec._KEPT.max_chars
        gc.collect()
        assert tracemalloc.get_traced_memory()[0] - before <= bound
    finally:
        tracemalloc.stop()
    entries, counted = codec._KEPT.snapshot()
    assert 0 < entries < 200 and counted <= codec._KEPT.max_chars


# -- shared across gateway threads -------------------------------------------

SHAPE = {"tags": ["a", "b"], "nested": [{"k": [1, 2]}, None]}


def test_gateway_threads_share_the_memo_without_aliasing():
    """Two TCP clients on their own threads send identical requests, so
    the gateway's per-connection threads (and the clients) decode
    repeats out of the one memo. Every increment lands exactly once and
    no reply shares a container with another."""
    codec._reset_fastpath_state()
    network = Network(Simulator())
    site = Site(network, "haifa", "technion.ee")
    counter = site.create_object(display_name="counter")
    counter.define_fixed_data("count", 0)
    counter.define_fixed_data("shape", SHAPE)
    counter.define_fixed_method(
        "increment", "self.set('count', self.get('count') + 1)\nreturn self.get('count')",
    )
    counter.seal()
    site.register_object(counter)
    rounds = 40
    errors: list = []
    increments: list[int] = []
    shapes: list = []

    def client_loop() -> None:
        try:
            with TcpGatewayClient(gateway.host, gateway.port) as client:
                for _ in range(rounds):
                    increments.append(client.invoke(counter.guid, "increment"))
                    shape = client.get_data(counter.guid, "shape")
                    assert shape == SHAPE
                    shapes.append(shape)
                    vandalize(shape)  # must not reach any other reply
        except Exception as exc:  # pragma: no cover - diagnostic
            errors.append(exc)

    with TcpGateway(site) as gateway:
        threads = [threading.Thread(target=client_loop) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    assert not errors
    assert counter.get_data("count") == len(increments) == 2 * rounds
    assert sorted(increments) == list(range(1, 2 * rounds + 1))
    nodes = [id(node) for shape in shapes for node in containers(shape, [])]
    assert len(set(nodes)) == len(nodes)
    assert codec._KEPT.snapshot()[0] >= 2  # requests and replies were kept
