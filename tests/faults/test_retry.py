"""Timeout + backoff retries, and at-most-once execution under them."""

from __future__ import annotations

import pytest

from repro.core.errors import (
    NetworkError,
    PartitionError,
    RequestTimeoutError,
)
from repro.faults import DropInjector, DuplicateInjector, FaultPlane
from repro.net import LAN, RetryPolicy
from repro.persistence import WriteAheadLog, attach_journal, make_store

from ..conftest import build_counter
from .conftest import Recorder, make_sites

FAST = RetryPolicy(attempts=4, timeout=0.5, backoff=0.05, multiplier=2.0)


def counter_world(seed=0):
    network, sites = make_sites(seed=seed)
    counter = build_counter()
    sites["b"].register_object(counter)
    return network, sites, counter


class TestRetryPolicy:
    def test_backoff_schedule_caps(self):
        policy = RetryPolicy(backoff=0.5, multiplier=2.0, max_backoff=1.6)
        assert policy.backoff_for(0) == 0.5
        assert policy.backoff_for(1) == 1.0
        assert policy.backoff_for(2) == 1.6  # capped
        assert policy.backoff_for(9) == 1.6

    @pytest.mark.parametrize(
        "bad",
        [
            dict(attempts=0),
            dict(timeout=0.0),
            dict(backoff=-1.0),
            dict(multiplier=0.5),
        ],
    )
    def test_validation(self, bad):
        with pytest.raises(NetworkError):
            RetryPolicy(**bad)


class TestRetries:
    def test_dropped_requests_are_retried_to_success(self):
        network, sites, counter = counter_world()
        FaultPlane(network, seed=1).add(
            DropInjector(rate=1.0, only_kinds=["invoke"], limit=2)
        )
        result = sites["a"].remote_invoke(
            "b", counter.guid, "increment", [1], policy=FAST
        )
        assert result == 1
        assert counter.get_data("count", caller=counter.owner) == 1

    def test_dropped_reply_is_replayed_not_reexecuted(self):
        network, sites, counter = counter_world()
        FaultPlane(network, seed=1).add(
            DropInjector(rate=1.0, only_kinds=["reply"], limit=1)
        )
        result = sites["a"].remote_invoke(
            "b", counter.guid, "increment", [1], policy=FAST
        )
        assert result == 1
        # the retried request hit the served-reply ledger: the handler ran
        # exactly once and the recorded reply was replayed
        assert counter.get_data("count", caller=counter.owner) == 1
        assert sites["b"].replayed_requests == 1

    def test_exhausted_attempts_raise_timeout(self):
        network, sites, counter = counter_world()
        FaultPlane(network, seed=1).add(
            DropInjector(rate=1.0, only_kinds=["invoke"])
        )
        with pytest.raises(RequestTimeoutError):
            sites["a"].remote_invoke(
                "b", counter.guid, "increment", [1], policy=FAST
            )
        # bookkeeping fully unwound: no attempt still awaits a reply
        assert sites["a"]._async_calls == {}
        assert counter.get_data("count", caller=counter.owner) == 0

    def test_drained_wait_unwinds_the_call(self):
        network, sites, counter = counter_world()
        FaultPlane(network, seed=1).add(
            DropInjector(rate=1.0, only_kinds=["invoke"])
        )
        with pytest.raises(NetworkError, match="drained"):
            sites["a"].remote_invoke("b", counter.guid, "increment", [1])
        assert sites["a"]._async_calls == {}

    def test_pump_exception_abandons_the_call(self):
        network, sites, counter = counter_world()

        class Halt(BaseException):
            """Not an ``Exception``: the serving site lets it through."""

        def broken(message):
            raise Halt("host shutting down")

        sites["b"].add_handler("broken", broken)
        with pytest.raises(Halt):
            sites["a"].request("b", "broken", {}, policy=FAST)
        sent = network.messages_sent
        network.run()
        # the abandoned call's timer and retries stand down
        assert network.messages_sent == sent
        assert sites["a"]._async_calls == {}

    def test_late_reply_after_timeout_is_stale(self):
        network, sites, counter = counter_world()
        # a one-shot policy whose timeout is shorter than the LAN RTT
        rtt = network.topology.path_cost("a", "b", 200) * 2
        impatient = RetryPolicy(attempts=1, timeout=rtt / 10, backoff=0.01)
        with pytest.raises(RequestTimeoutError):
            sites["a"].remote_invoke(
                "b", counter.guid, "increment", [1], policy=impatient
            )
        network.run()  # the reply lands after the caller gave up
        assert sites["a"].stale_replies == 1
        assert sites["a"]._async_calls == {}
        # ...but the remote side did execute (at-least-once ambiguity)
        assert counter.get_data("count", caller=counter.owner) == 1

    def test_site_default_policy_applies(self):
        network, sites, counter = counter_world()
        sites["a"].retry_policy = FAST
        FaultPlane(network, seed=1).add(
            DropInjector(rate=1.0, only_kinds=["invoke"], limit=1)
        )
        assert (
            sites["a"].remote_invoke("b", counter.guid, "increment", [1]) == 1
        )

    def test_duplicated_request_without_policy_executes_once(self):
        network, sites, counter = counter_world()
        FaultPlane(network, seed=1).add(
            DuplicateInjector(rate=1.0, only_kinds=["invoke"])
        )
        assert sites["a"].remote_invoke("b", counter.guid, "increment", [1]) == 1
        network.run()  # the trailing copy lands after the reply
        # every blocking request carries a request id, policy or not: the
        # copy is answered from the served ledger, not executed again
        assert counter.get_data("count", caller=counter.owner) == 1
        assert sites["b"].replayed_requests == 1

    def test_reply_landing_during_backoff_settles_the_call(self):
        network, sites, counter = counter_world()
        start = network.now
        sites["a"].remote_invoke("b", counter.guid, "increment", [1])
        rtt = network.now - start
        # the first attempt times out just before its reply lands; the
        # reply arrives while the retry is backing off and ends the wait
        patient = RetryPolicy(attempts=2, timeout=0.75 * rtt, backoff=10 * rtt)
        start = network.now
        result = sites["a"].remote_invoke(
            "b", counter.guid, "increment", [1], policy=patient
        )
        assert result == 2
        assert network.now - start < 2 * rtt
        network.run()  # the scheduled retry finds the call settled
        assert counter.get_data("count", caller=counter.owner) == 2
        assert sites["a"]._async_calls == {}
        assert sites["a"].stale_replies == 0


class TestServedLedger:
    def test_replay_moves_the_entry_to_most_recent(self):
        network, sites, counter = counter_world()
        server = sites["b"]
        server._served_cap = 4
        for _ in range(server._served_cap):
            sites["a"].remote_invoke(
                "b", counter.guid, "increment", [1], policy=FAST
            )
        oldest = next(iter(server._served))
        # a late duplicate of the oldest request is replayed...
        network.send("a", "b", "invoke", {}, request_id=oldest)
        network.run()
        assert server.replayed_requests == 1
        # ...which makes it the most recently used entry: the next
        # request evicts the second-oldest instead
        sites["a"].remote_invoke("b", counter.guid, "increment", [1], policy=FAST)
        assert oldest in server._served
        assert len(server._served) == server._served_cap
        assert counter.get_data("count", caller=counter.owner) == 5


class TestRequestIdRequired:
    """Every request path mints a request_id; a hand-built request
    without one is refused before it can run, be admitted or be
    recorded (it could never be deduplicated)."""

    def test_id_less_request_is_refused_untouched(self):
        network, sites, counter = counter_world()
        server = sites["b"]
        wal = WriteAheadLog(make_store("memory", name="b"))
        attach_journal(server, wal)
        frames = len(wal.records())
        server.inflight_limit = 0  # any admission attempt would shed
        sender = Recorder(network, "r")
        network.topology.connect("r", "b", *LAN)
        payload = sites["a"]._invoke_payload(counter.guid, "increment", [1], None)
        network.send("r", "b", "invoke", payload)
        network.run()
        (reply,) = sender.received
        assert reply.payload["ok"] is False
        assert reply.payload["error"] == "NetworkError"
        assert "request_id" in reply.payload["message"]
        assert counter.get_data("count", caller=counter.owner) == 0
        assert server.shed_requests == 0 and server.inflight == 0
        assert not server._served and not server._in_progress
        assert len(wal.records()) == frames

    def test_id_less_batch_entry_is_refused_alone(self):
        network, sites, counter = counter_world()
        client, server = sites["a"], sites["b"]
        payload = client._invoke_payload(counter.guid, "increment", [1], None)
        result = client.request("b", "batch", {"requests": [
            {"kind": "invoke", "payload": payload},
            {"kind": "invoke", "payload": payload, "request_id": "a:batched"},
        ]})
        refused, served = result["replies"]
        assert refused["ok"] is False and refused["error"] == "NetworkError"
        assert served == {"ok": True, "result": 1}
        assert counter.get_data("count", caller=counter.owner) == 1
        # the frame and its one well-formed entry; nothing for the refusal
        assert len(server._served) == 2 and "a:batched" in server._served


class TestPartitionSemantics:
    def test_legacy_no_policy_path_raises_immediately(self):
        network, sites, counter = counter_world()
        network.topology.set_link_state("a", "b", False)
        with pytest.raises(PartitionError):
            sites["a"].remote_invoke("b", counter.guid, "increment", [1])
        assert sites["a"]._async_calls == {}

    def test_policy_with_nothing_sent_stays_atomic(self):
        network, sites, counter = counter_world()
        network.topology.set_link_state("a", "b", False)
        # every attempt fails at send time: no bytes hit the wire, so the
        # failure is atomic, not ambiguous
        with pytest.raises(PartitionError):
            sites["a"].remote_invoke(
                "b", counter.guid, "increment", [1], policy=FAST
            )
        assert counter.get_data("count", caller=counter.owner) == 0

    def test_partition_after_send_is_ambiguous(self):
        network, sites, counter = counter_world()
        cut_after_first = {"done": False}
        original_send = network.send

        def flaky_send(*args, **kwargs):
            if cut_after_first["done"]:
                raise PartitionError("'a' cannot reach 'b'")
            cut_after_first["done"] = True
            return original_send(*args, **kwargs)

        network.send = flaky_send
        FaultPlane(network, seed=1).add(
            DropInjector(rate=1.0, only_kinds=["invoke"])
        )
        with pytest.raises(RequestTimeoutError):
            sites["a"].remote_invoke(
                "b", counter.guid, "increment", [1], policy=FAST
            )

    def test_reply_path_partition_is_contained(self):
        network, sites, counter = counter_world()
        # the request gets through, then the link dies before the reply
        original_receive = sites["b"].receive

        def receive_and_cut(message):
            network.topology.set_link_state("a", "b", False)
            original_receive(message)

        sites["b"].receive = receive_and_cut
        with pytest.raises(RequestTimeoutError):
            sites["a"].remote_invoke(
                "b", counter.guid, "increment", [1], policy=FAST
            )
        assert sites["b"].replies_unsendable >= 1
