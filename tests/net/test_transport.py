"""Transport internals: accounting, by-value delivery, lifecycle."""

import pytest

from repro.core.errors import NetworkError
from repro.net import LAN, Network, Site
from repro.net.transport import Message
from repro.sim import Simulator


@pytest.fixture
def wired():
    network = Network(Simulator())
    a = Site(network, "a", "dom.a")
    b = Site(network, "b", "dom.b")
    network.topology.connect("a", "b", *LAN)
    return network, a, b


class TestAccounting:
    def test_messages_and_bytes_counted(self, wired):
        network, a, _b = wired
        before_messages = network.messages_sent
        before_bytes = network.bytes_sent
        a.request("b", "ping", {})
        # one request + one reply
        assert network.messages_sent == before_messages + 2
        assert network.bytes_sent > before_bytes

    def test_bigger_payloads_cost_more_bytes_and_time(self, wired):
        network, a, _b = wired
        a.request("b", "ping", {})
        small_time = network.now
        small_bytes = network.bytes_sent
        network_big = Network(Simulator())
        a2 = Site(network_big, "a", "dom.a")
        Site(network_big, "b", "dom.b")
        network_big.topology.connect("a", "b", *LAN)
        a2.request("b", "ping", {"padding": "x" * 50_000})
        assert network_big.bytes_sent > small_bytes
        assert network_big.now > small_time

    def test_one_batch_frame_pair_replaces_sixteen_request_pairs(self, wired):
        """Frames are counted, not timed: 16 blocking invokes put 32
        frames on the wire; one flushed 16-call batch puts 2."""
        from repro.core import allow_all

        network, a, b = wired
        obj = b.create_object(display_name="counter")
        obj.define_fixed_data("total", 0)
        obj.define_fixed_method(
            "bump",
            "n = self.get('total') + 1\nself.set('total', n)\nreturn n",
            acl=allow_all(),
        )
        obj.seal()
        b.register_object(obj)
        ref = a.ref_to(obj.guid, site="b")
        before = network.messages_sent
        for _ in range(16):
            ref.invoke("bump", [], caller=a.principal)
        assert network.messages_sent - before == 32
        before = network.messages_sent
        batch = a.batch("b")
        futures = [
            batch.invoke(obj.guid, "bump", [], caller=a.principal)
            for _ in range(16)
        ]
        batch.flush()
        assert network.messages_sent - before == 2
        assert [f.result() for f in futures] == list(range(17, 33))

    def test_send_to_unknown_site(self, wired):
        network, _a, _b = wired
        with pytest.raises(NetworkError):
            network.send("a", "ghost", "ping", {})


class TestByValueDelivery:
    def test_payload_identity_never_crosses(self, wired):
        network, _a, b = wired
        captured = {}

        def capture(message: Message):
            captured["payload"] = message.payload
            return True

        b.add_handler("capture", capture)
        original = {"rows": [1, 2, 3]}
        network.send("a", "b", "capture", original, request_id="a:1")
        network.run()
        assert captured["payload"] == original
        assert captured["payload"] is not original
        assert captured["payload"]["rows"] is not original["rows"]

    def test_message_metadata(self, wired):
        network, _a, b = wired
        seen = {}

        def capture(message: Message):
            seen["message"] = message
            return True

        b.add_handler("capture", capture)
        msg_id = network.send(
            "a", "b", "capture", {"x": 1}, lamport=7, request_id="a:1"
        )
        network.run()
        message = seen["message"]
        assert message.kind == "capture"
        assert (message.src, message.dst) == ("a", "b")
        assert message.msg_id == msg_id
        assert message.lamport == 7
        assert message.request_id == "a:1"
        assert message.size > 0

    def test_repeat_deliveries_each_get_their_own_containers(self, wired):
        # the same bytes delivered again come from the decode memo
        network, _a, b = wired
        payloads = []

        def capture(message: Message):
            payloads.append(message.payload)
            return True

        b.add_handler("capture", capture)
        for n in range(4):
            network.send("a", "b", "capture", {"rows": [1, [2]]}, request_id=f"a:{n}")
        network.run()
        assert payloads == [{"rows": [1, [2]]}] * 4
        containers = [
            id(node) for p in payloads for node in (p, p["rows"], p["rows"][1])
        ]
        assert len(set(containers)) == len(containers)
        payloads[2]["rows"][1].append(3)
        assert payloads[3] == {"rows": [1, [2]]}


class TestMessage:
    def test_a_message_is_immutable(self):
        message = Message("ping", "a", "b", {}, 1, None, 0, 10)
        with pytest.raises(AttributeError):
            message.payload = {"forged": True}
        with pytest.raises(AttributeError):
            message.verdict = "dropped"

    def test_fields_order_defaults_and_equality(self):
        message = Message("ping", "a", "b", {"x": 1}, 1, None, 0, 10)
        assert Message._fields == (
            "kind", "src", "dst", "payload", "msg_id", "reply_to", "lamport",
            "size", "request_id", "verdict",
        )
        assert (message.request_id, message.verdict) == ("", "ok")
        assert message == Message(
            kind="ping", src="a", dst="b", payload={"x": 1}, msg_id=1,
            reply_to=None, lamport=0, size=10,
        )
        assert message != Message("ping", "a", "b", {"x": 2}, 1, None, 0, 10)


class TestLifecycle:
    def test_unregister_then_replace(self, wired):
        network, a, b = wired
        network.unregister("b")
        with pytest.raises(NetworkError):
            a.request("b", "ping", {})
        replacement = Site(network, "b", "dom.b")
        assert a.request("b", "ping", {})["site"] == "b"
        assert replacement.site_id == "b"

    def test_unregister_unknown(self, wired):
        network, *_ = wired
        with pytest.raises(NetworkError):
            network.unregister("ghost")

    def test_duplicate_handler_rejected(self, wired):
        _network, a, _b = wired
        with pytest.raises(NetworkError):
            a.add_handler("ping", lambda message: None)
