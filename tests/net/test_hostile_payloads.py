"""Every built-in request kind refuses a malformed payload with a typed error.

A peer may put anything in a request's payload. Each built-in handler
reads it through :func:`repro.net.transport.request_body`, so a payload
that is not a mapping is refused with a typed ``NetworkError`` before
any field is read, and a mapping with missing or wrongly typed fields
ends in a reply or a typed :class:`MROMError`, never in an untyped
``AttributeError``/``KeyError``/``TypeError`` that would unwind the
simulator pump delivering it.

The battery sends each (kind, payload) pair over the three entry paths
a request has: the simulated wire, one entry of a ``batch`` frame, and
the TCP gateway. After each, the site must still serve a good request.
"""

from __future__ import annotations

import pytest

from repro.core import allow_all
from repro.core.errors import MROMError
from repro.hadas import IOO, Trader
from repro.mobility import MobilityManager
from repro.naming import ClusterManager, HashRing
from repro.net import LAN, Network, Site
from repro.net.gateway import TcpGateway, TcpGatewayClient
from repro.sim import Simulator

#: kinds whose handler never reads its payload: any payload is served
PAYLOAD_FREE = ("ping", "cluster.stats")

#: every kind a built-in handler serves
KINDS = (
    "invoke", "get_data", "describe", "resolve", "ping", "batch",
    "transfer.prepare", "transfer.query", "forward",
    "dir.resolve", "dir.update",
    "cluster.invoke", "cluster.adopt", "cluster.depart", "cluster.arrive",
    "cluster.stats",
    "hadas.link", "hadas.import", "hadas.trade",
)

#: kinds no handler serves any more (the single-shot ``transfer``): any
#: payload gets the typed unknown-kind reply
RETIRED = ("transfer",)

#: every field a built-in handler reads, each of a type it does not take;
#: ``target`` and ``method`` name a live object and method so that the
#: handlers get past the lookup to the other fields
WRONG_TYPES = {
    "method": "increment", "args": 7, "caller": 7, "name": 7, "path": 7,
    "generation": "1", "guid": 7, "site": 7, "src": 7, "package": 7,
    "transfer_id": 7, "install_args": 7, "dst": 7, "requests": 7,
    "apo": 7, "from_site": 7, "from_domain": 7, "forward": 7, "tags": 7,
}

PAYLOADS = {
    "none": None,
    "int": 7,
    "text": "s",
    "list": [1],
    "empty": {},
    "wrong-types": WRONG_TYPES,
}

PATHS = ("wire", "batch", "tcp")


class World:
    """A server site carrying every built-in handler, a client site on
    the same LAN, and a TCP gateway into the server."""

    def __init__(self) -> None:
        self.network = Network(Simulator(7))
        self.server = Site(self.network, "srv", "lab.srv")
        self.client = Site(self.network, "cli", "lab.cli")
        self.network.topology.connect("srv", "cli", *LAN)
        mobility = MobilityManager(self.server)
        ClusterManager(self.server, HashRing(["srv"]), mobility=mobility)
        Trader(IOO(self.server, mobility=mobility))
        counter = self.server.create_object(display_name="counter")
        counter.define_fixed_data("count", 0)
        counter.define_fixed_method(
            "increment",
            "self.set('count', self.get('count') + 1)\nreturn self.get('count')",
            acl=allow_all(),
        )
        counter.seal()
        self.server.register_object(counter)
        self.counter = counter
        self.gateway = TcpGateway(self.server)
        self.tcp = TcpGatewayClient(self.gateway.host, self.gateway.port)

    def close(self) -> None:
        self.tcp.close()
        self.gateway.close()

    def send(self, path: str, kind: str, payload) -> MROMError | None:
        """Send one request; the typed error it ended in, or None if it
        was served. Any other exception escapes and fails the test."""
        try:
            if path == "wire":
                self.client.wait(self.client.request_async("srv", kind, payload))
            elif path == "batch":
                batch = self.client.batch("srv")
                future = batch.add(kind, payload)
                batch.flush()
                future.result()
            else:
                self.tcp._call(kind, payload)
        except MROMError as exc:
            return exc
        return None

    def count(self) -> int:
        return self.counter.get_data("count", caller=self.counter.owner)


@pytest.fixture
def world():
    world = World()
    yield world
    world.close()


def _payload(world: World, name: str):
    payload = PAYLOADS[name]
    if payload is WRONG_TYPES:
        return {**WRONG_TYPES, "target": world.counter.guid}
    return payload


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("payload_name", sorted(PAYLOADS))
@pytest.mark.parametrize("kind", KINDS + RETIRED)
def test_malformed_payload_is_refused_typed(world, kind, payload_name, path):
    payload = _payload(world, payload_name)
    error = world.send(path, kind, payload)
    if kind in PAYLOAD_FREE:
        assert error is None
    elif kind in RETIRED:
        assert f"unknown kind {kind!r}" in str(error)
    elif path == "batch" and kind == "batch":
        assert "unknown kind 'batch'" in str(error)  # no nested frames
    elif not isinstance(payload, dict):
        assert isinstance(error, MROMError)
        assert "payload must be a mapping" in str(error)
    # a mapping is either served or refused typed; both return here
    before = world.count()
    assert world.send(path, "invoke", {"target": world.counter.guid,
                                       "method": "increment"}) is None
    assert world.count() == before + 1
    assert world.server.inflight == 0


def test_wrong_typed_list_fields_are_refused_typed(world):
    """The list fields a handler passes on (``args``, ``install_args``,
    ``tags``) are refused typed when a peer sends anything else."""
    for path in PATHS:
        error = world.send(path, "invoke", {
            "target": world.counter.guid, "method": "increment", "args": 7,
        })
        assert "'invoke' field 'args' must be a list" in str(error)
        error = world.send(path, "hadas.trade", {"tags": "s"})
        assert "'hadas.trade' field 'tags' must be a list" in str(error)
