"""A method body that fails with a plain Python error is a typed reply.

A peer chooses the arguments of a remote invoke, so a body may raise
``TypeError`` (or any other ``Exception``) on them. The serving site
answers with a failure envelope named after the error's type, the same
way it answers an ``MROMError``: the caller gets a typed failure, the
reply is recorded so a retry replays it, and the pump (or the gateway
thread) that delivered the request keeps serving. The three entry paths
are covered: the simulated wire, one entry of a ``batch`` frame, and
the TCP gateway.
"""

from __future__ import annotations

import pytest

from repro.core.errors import RemoteInvocationError
from repro.faults import DropInjector, FaultPlane
from repro.net import RetryPolicy
from repro.net.gateway import TcpGateway, TcpGatewayClient

from ..conftest import build_counter, make_site_world

#: long enough for a LAN round trip, so only a lost reply forces a retry
RETRY = RetryPolicy(attempts=3, timeout=0.5, backoff=0.05)


@pytest.fixture
def world():
    network, sites = make_site_world(names=("cli", "srv"))
    counter = build_counter()
    sites["srv"].register_object(counter)
    return network, sites["cli"], sites["srv"], counter


def count(counter) -> int:
    return counter.get_data("count", caller=counter.owner)


def lose_first_reply(network) -> None:
    FaultPlane(network, seed=1).add(
        DropInjector(rate=1.0, only_kinds=["reply"], limit=1)
    )


def test_wire_caller_gets_the_error_type(world):
    network, client, server, counter = world
    with pytest.raises(RemoteInvocationError) as caught:
        client.remote_invoke("srv", counter.guid, "increment", ["s"])
    assert caught.value.remote_type == "TypeError"
    assert server.handling_depth == 0 and server.inflight == 0
    assert client.remote_invoke("srv", counter.guid, "increment", [2]) == 2


def test_a_retry_replays_the_recorded_failure(world):
    network, client, server, counter = world
    lose_first_reply(network)
    with pytest.raises(RemoteInvocationError) as caught:
        client.remote_invoke(
            "srv", counter.guid, "increment", ["s"], policy=RETRY
        )
    assert caught.value.remote_type == "TypeError"
    assert server.replayed_requests == 1  # the body ran once
    assert client.remote_invoke("srv", counter.guid, "increment", [1]) == 1


def test_batch_entry_fails_alone(world):
    network, client, server, counter = world
    lose_first_reply(network)
    batch = client.batch("srv", policy=RETRY)
    bad = batch.add("invoke", {"target": counter.guid, "method": "increment",
                               "args": ["s"]})
    good = batch.add("invoke", {"target": counter.guid, "method": "increment",
                                "args": [3]})
    batch.flush()
    client.wait_all([good])
    assert good.result() == 3
    with pytest.raises(RemoteInvocationError) as caught:
        bad.result()
    assert caught.value.remote_type == "TypeError"
    assert server.replayed_requests == 1  # the frame was retried, not re-run
    assert count(counter) == 3


def test_tcp_gateway_keeps_serving(world):
    network, client, server, counter = world
    gateway = TcpGateway(server)
    try:
        with TcpGatewayClient(gateway.host, gateway.port) as tcp:
            with pytest.raises(RemoteInvocationError) as caught:
                tcp.invoke(counter.guid, "increment", ["s"])
            assert caught.value.remote_type == "TypeError"
            assert tcp.invoke(counter.guid, "increment", [4]) == 4
    finally:
        gateway.close()
    assert server.inflight == 0
