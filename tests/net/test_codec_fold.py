"""The site boundary folded into the codec.

A sending site passes its export hook to the encoder, and a receiving
site passes its reference resolver to the decoder, so each message is
walked once per side. These tests hold the fold to the two walks it
replaced:

* byte identity — encoding with the hook gives the bytes the old
  recursive ``export_value`` walk followed by a plain encode gave (that
  walk is kept below as the reference);
* resolver equivalence — decoding with the resolver gives what
  ``import_value`` over a plain decode gives;
* frozen bytes — a request is encoded once and a reply is recorded as
  its encoding, so a retry or a replay sends the first bytes even after
  an object named in them has moved;
* handler-time resolution — a request decodes to inert references, so
  a handler that runs after a service delay sees the registrations of
  that moment, and admission still sees the references of a package.
"""

from __future__ import annotations

import random

import pytest

from repro.analysis.admission import analyze_package
from repro.core import HtmlText, Principal, owner_only
from repro.core.errors import RemoteInvocationError
from repro.core.items import ItemHandle
from repro.core.mobject import MROMObject
from repro.mobility import MobilityManager
from repro.net import LAN, Network, RemoteRef, RetryPolicy, Site
from repro.net.marshal import Reference, encode, marshal, unmarshal
from repro.sim import Simulator

_PLAIN = frozenset((str, int, float, bool, type(None), bytes))


def old_export_walk(site: Site, value):
    """The recursive ``Site.export_value`` the encoder hook replaced."""
    cls = type(value)
    if cls in _PLAIN:
        return value
    if cls is dict:
        return {
            key: val if type(val) in _PLAIN else old_export_walk(site, val)
            for key, val in value.items()
        }
    if cls is list or cls is tuple:
        return [
            element if type(element) in _PLAIN else old_export_walk(site, element)
            for element in value
        ]
    if isinstance(value, MROMObject):
        home = site.site_id if site.has_object(value.guid) else ""
        return Reference(value.guid, home)
    if isinstance(value, RemoteRef):
        return Reference(value.guid, value.site)
    if isinstance(value, ItemHandle):
        return value.token()
    if isinstance(value, (list, tuple)):
        return [old_export_walk(site, element) for element in value]
    if isinstance(value, dict):
        return {key: old_export_walk(site, val) for key, val in value.items()}
    return value


class Rows(list):
    pass


class Record(dict):
    pass


@pytest.fixture
def pair():
    network = Network(Simulator(7))
    a, b = Site(network, "a", "dom.a"), Site(network, "b", "dom.b")
    network.topology.connect("a", "b", *LAN)
    return network, a, b


def object_pool(a: Site, b: Site) -> list:
    """Every kind of value the export hook converts, seen from *a*."""
    here = a.create_object(display_name="here")
    here.seal()
    a.register_object(here)
    there = b.create_object(display_name="there")
    there.seal()
    b.register_object(there)
    loose = a.create_object(display_name="loose")  # registered nowhere
    loose.seal()
    owner = Principal("mrom://a/9.9", "dom.a", "owner")
    editable = a.create_object(
        display_name="editable", owner=owner, extensible_meta=True,
        meta_acl=owner_only(owner),
    )
    editable.seal()
    editable.self_view().add_data("config", {"mode": "fast"})
    _description, handle = editable.invoke("getDataItem", ["config"], caller=owner)
    assert isinstance(handle, ItemHandle)
    return [
        here, there, loose, handle,
        a.ref_to(here), a.ref_to(there.guid, site="b"),
        RemoteRef(a, "c", "mrom://c/1.1"),
        Reference("mrom://b/5.5", "b"), Reference("mrom://a/404.1", "a"),
    ]


def random_payload(rng: random.Random, pool: list, depth: int = 0):
    roll = rng.randrange(14 if depth < 4 else 9)
    if roll == 0:
        return rng.choice([None, True, False])
    if roll == 1:
        return rng.choice([0, -1, 7, 255, 300, -65, 2**40, -(2**70)])
    if roll == 2:
        return rng.choice([0.5, -2.25, 1e300])
    if roll == 3:
        return rng.choice(["", "x", "method", "é" * 3, "y" * 90])
    if roll == 4:
        return rng.choice([b"", b"\x00\xff", bytes(range(40))])
    if roll == 5:
        return HtmlText("<b>%d</b>" % rng.randrange(10))
    if roll in (6, 7, 8):
        return rng.choice(pool)
    size = rng.randrange(5)
    children = [random_payload(rng, pool, depth + 1) for _ in range(size)]
    if roll == 9:
        return children
    if roll == 10:
        return tuple(children)
    if roll == 11:
        return Rows(children)
    keys = [f"k{index}" for index in range(size)]
    return (Record if roll == 12 else dict)(zip(keys, children))


SEEDS = range(300)


class TestByteIdentity:
    def test_hook_encoding_matches_the_old_walk(self, pair):
        _network, a, b = pair
        pool = object_pool(a, b)
        for seed in SEEDS:
            value = random_payload(random.Random(seed), pool)
            expected = marshal(old_export_walk(a, value))
            assert marshal(value, a.export_value) == expected, seed
            assert marshal(encode(value, a.export_value)) == expected, seed

    def test_an_encoding_splices_in_unchanged(self, pair):
        _network, a, b = pair
        pool = object_pool(a, b)
        for seed in SEEDS:
            value = random_payload(random.Random(seed), pool)
            envelope = {"ok": True, "result": value}
            spliced = {"ok": True, "result": encode(value, a.export_value)}
            assert marshal(spliced) == marshal(envelope, a.export_value), seed
            assert marshal([spliced, 1]) == marshal([envelope, 1], a.export_value)

    def test_hook_is_only_asked_about_values_without_a_wire_form(self, pair):
        _network, a, b = pair
        asked = []

        def hook(value):
            asked.append(type(value).__name__)
            return a.export_value(value)

        here = object_pool(a, b)[0]
        marshal({"s": "x", "n": [1, 2.5, None], "obj": here, "t": (True,)}, hook)
        assert asked == ["MROMObject"]


class TestResolverEquivalence:
    def test_decoding_with_the_resolver_matches_import_value(self, pair):
        _network, a, b = pair
        pool = object_pool(a, b)
        for seed in SEEDS:
            wire = marshal(random_payload(random.Random(seed), pool), a.export_value)
            for site in (a, b):
                folded = unmarshal(wire, site.resolve_reference)
                assert folded == site.import_value(unmarshal(wire)), seed

    def test_local_references_resolve_to_the_registered_object(self, pair):
        _network, a, b = pair
        here, there = object_pool(a, b)[:2]
        wire = marshal([here, a.ref_to(there.guid, site="b"), there], a.export_value)
        assert unmarshal(wire, a.resolve_reference)[0] is here
        at_b = unmarshal(wire, b.resolve_reference)
        assert isinstance(at_b[0], RemoteRef) and at_b[0].site == "a"
        assert at_b[1] is there
        # an object registered nowhere on the sender travels without a
        # home, so no receiver takes it for one of its own
        assert isinstance(at_b[2], RemoteRef) and at_b[2].guid == there.guid

    def test_a_reply_arrives_resolved(self, pair):
        network, a, b = pair
        there = b.create_object(display_name="there")
        there.seal()
        b.register_object(there)
        b.add_handler("give", lambda message: {"obj": there, "mine": message.payload})
        mine = a.create_object(display_name="mine")
        mine.seal()
        a.register_object(mine)
        result = a.request("b", "give", [mine])
        assert isinstance(result["obj"], RemoteRef) and result["obj"].guid == there.guid
        assert result["mine"] == [mine] and result["mine"][0] is mine


def wires_of(monkeypatch, kind: str) -> list[bytes]:
    """Record the wire form of every *kind* message the transport sends."""
    seen: list[bytes] = []
    real_send = Network.send

    def send(self, src, dst, message_kind, payload, *args, **kwargs):
        if message_kind == kind:
            seen.append(marshal(payload))
        return real_send(self, src, dst, message_kind, payload, *args, **kwargs)

    monkeypatch.setattr(Network, "send", send)
    return seen


class TestFrozenBytes:
    def test_a_replay_after_the_result_moved_sends_the_first_bytes(
        self, pair, monkeypatch
    ):
        network, a, b = pair
        obj = b.create_object(display_name="result")
        obj.seal()
        b.register_object(obj)
        b.add_handler("give", lambda message: obj)
        replies = wires_of(monkeypatch, "reply")
        network.send("a", "b", "give", {}, request_id="a:1")
        network.run()
        b.unregister_object(obj.guid)
        network.send("a", "b", "give", {}, request_id="a:1")
        network.run()
        assert b.replayed_requests == 1
        assert len(replies) == 2 and replies[0] == replies[1]
        assert unmarshal(replies[0])["result"] == Reference(obj.guid, "b")
        # a fresh encoding would no longer call the object b's own
        assert marshal({"ok": True, "result": obj}, b.export_value) != replies[0]

    def test_a_retry_after_the_argument_moved_resends_the_first_bytes(
        self, pair, monkeypatch
    ):
        network, a, b = pair
        arg = a.create_object(display_name="arg")
        arg.seal()
        a.register_object(arg)
        seen = []
        b.add_handler("take", lambda message: seen.append(message.payload) or True)
        requests = wires_of(monkeypatch, "take")
        # the first attempt times out just before its reply lands
        policy = RetryPolicy(attempts=2, timeout=0.0015, backoff=0.0)
        future = a.request_async("b", "take", {"arg": arg}, policy=policy)
        a.unregister_object(arg.guid)
        network.run()
        assert future.done and future.result() is True
        assert len(requests) == 2 and requests[0] == requests[1]
        assert seen[0]["arg"] == Reference(arg.guid, "a")


class TestHandlerTimeResolution:
    def test_a_request_field_resolves_when_the_handler_runs(self, pair):
        network, a, b = pair
        b.service_delay = 1.0
        late = b.create_object(display_name="late")
        late.seal()
        delivered, resolved = [], []

        def probe(message):
            delivered.append(message.payload["ref"])
            resolved.append(b.import_value(message.payload["ref"]))
            return True

        b.add_handler("probe", probe)
        future = a.request_async("b", "probe", {"ref": a.ref_to(late.guid, site="b")})
        # the object registers at b inside the service window
        network.simulator.schedule(0.5, lambda: b.register_object(late))
        network.run()
        assert future.result() is True
        assert delivered == [Reference(late.guid, "b")]
        assert resolved[0] is late

    def test_admission_still_sees_the_references_of_a_package(self, pair):
        network, a, b = pair
        MobilityManager(a)
        seen = []
        MobilityManager(b, policy=lambda package, src: seen.append(package))
        gated = Site(network, "c", "dom.c")
        network.topology.connect("a", "c", *LAN)
        MobilityManager(gated, verify_arrivals=True, strict_admission=True)
        remote = b.create_object(display_name="remote")
        remote.seal()
        b.register_object(remote)
        for dst in ("b", "c"):
            tethered = a.create_object(display_name="tethered")
            tethered.define_fixed_data("friend", a.ref_to(remote.guid, site="b"))
            tethered.seal()
            a.register_object(tethered)
            if dst == "b":
                a.mobility.migrate(tethered, "b")
            else:
                with pytest.raises(RemoteInvocationError) as refused:
                    a.mobility.migrate(tethered, "c")
                assert refused.value.remote_type == "AdmissionRefusal"
        rules = {finding.rule for finding in analyze_package(seen[0])}
        assert "adm.external-reference" in rules
