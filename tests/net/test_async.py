"""Non-blocking RMI: futures, event-loop retries, and admission control.

The synchronous request path pumps the simulator until its own reply
lands — correct, but it serializes the caller. `Site.request_async`
instead returns a :class:`BatchFuture` immediately and registers an
:class:`AsyncCall` state machine whose timeouts and retries are
scheduled simulator events, so hundreds of requests can be in flight
through one deterministic pump. These tests cover the future lifecycle,
retry behaviour under injected faults, typed error propagation, and the
per-site admission window (backpressure) the serving side now enforces.
"""

from __future__ import annotations

import pytest

from repro.core.errors import (
    MethodNotFoundError,
    NetworkError,
    OverloadError,
    RequestTimeoutError,
)
from repro.faults import DropInjector, FaultPlane
from repro.net import LAN, Network, RetryPolicy, Site
from repro.sim import Simulator

from ..conftest import build_counter

FAST = RetryPolicy(attempts=4, timeout=0.5, backoff=0.05, multiplier=2.0)


def counter_world(seed=0, sites=("a", "b")):
    network = Network(Simulator(seed))
    world = {name: Site(network, name) for name in sites}
    for left, right in zip(sites, sites[1:]):
        network.topology.connect(left, right, *LAN)
    counter = build_counter()
    world["b"].register_object(counter)
    return network, world, counter


class TestAsyncFutures:
    def test_future_pends_until_pumped_then_resolves(self):
        network, sites, counter = counter_world()
        future = sites["a"].remote_invoke_async("b", counter.guid, "increment", [5])
        assert not future.done  # nothing moved yet: no implicit pump
        with pytest.raises(NetworkError, match="not resolved yet"):
            future.result()
        assert sites["a"].wait(future) == 5
        assert future.done
        assert future.result() == 5  # results are stable once settled

    def test_many_in_flight_resolve_through_one_pump(self):
        network, sites, counter = counter_world()
        futures = [
            sites["a"].remote_invoke_async("b", counter.guid, "increment", [1])
            for _ in range(50)
        ]
        assert not any(future.done for future in futures)
        results = sites["a"].wait_all(futures)
        assert sorted(results) == list(range(1, 51))
        assert counter.get_data("count", caller=counter.owner) == 50

    def test_when_done_callbacks_chain_new_work(self):
        """The load drivers build closed loops this way: each completion
        schedules the next request from inside the event loop."""
        network, sites, counter = counter_world()
        seen: list = []

        def chain(future):
            seen.append(future.result())
            if len(seen) < 5:
                sites["a"].remote_invoke_async(
                    "b", counter.guid, "increment", [1]
                ).when_done(chain)

        sites["a"].remote_invoke_async("b", counter.guid, "increment", [1]).when_done(
            chain
        )
        network.run()
        assert seen == [1, 2, 3, 4, 5]

    def test_when_done_on_settled_future_fires_immediately(self):
        network, sites, counter = counter_world()
        future = sites["a"].remote_invoke_async("b", counter.guid, "peek")
        sites["a"].wait(future)
        fired: list = []
        future.when_done(fired.append)
        assert fired == [future]

    def test_async_and_sync_calls_interleave(self):
        """A sync call's pump settles async futures that are in flight —
        the reply path is shared."""
        network, sites, counter = counter_world()
        future = sites["a"].remote_invoke_async("b", counter.guid, "increment", [3])
        assert sites["a"].remote_invoke("b", counter.guid, "increment", [10]) in (
            3 + 10,
            10,
        )
        assert future.done  # the sync pump carried the async reply home
        assert counter.get_data("count", caller=counter.owner) == 13

    def test_get_data_and_describe_async(self):
        network, sites, counter = counter_world()
        counter.invoke("increment", [9], caller=counter.owner)
        data = sites["a"].remote_get_data_async("b", counter.guid, "count")
        description = sites["a"].remote_describe_async("b", counter.guid)
        assert sites["a"].wait(data) == 9
        names = [item["name"] for item in sites["a"].wait(description)["items"]]
        assert "increment" in names

    def test_remote_ref_async_verbs(self):
        network, sites, counter = counter_world()
        ref = sites["a"].ref_to(counter.guid, site="b")
        assert sites["a"].wait(ref.invoke_async("increment", [2])) == 2
        assert sites["a"].wait(ref.get_data_async("count")) == 2
        description = sites["a"].wait(ref.describe_async())
        assert any(item["name"] == "peek" for item in description["items"])

    def test_wait_on_drained_simulation_raises(self):
        """A policy-free request whose message is dropped can never
        settle; :meth:`Site.wait` surfaces that instead of spinning."""
        network, sites, counter = counter_world()
        FaultPlane(network, seed=1).add(
            DropInjector(rate=1.0, only_kinds=["invoke"], limit=1)
        )
        orphan = sites["a"].remote_invoke_async("b", counter.guid, "increment")
        with pytest.raises(NetworkError, match="drained"):
            sites["a"].wait(orphan)
        with pytest.raises(NetworkError, match="unresolved"):
            sites["a"].wait_all([orphan])


class TestAsyncRetries:
    def test_dropped_request_retried_by_scheduled_events(self):
        network, sites, counter = counter_world()
        FaultPlane(network, seed=1).add(
            DropInjector(rate=1.0, only_kinds=["invoke"], limit=2)
        )
        future = sites["a"].remote_invoke_async(
            "b", counter.guid, "increment", [1], policy=FAST
        )
        assert sites["a"].wait(future) == 1
        assert counter.get_data("count", caller=counter.owner) == 1

    def test_exhausted_attempts_fail_the_future_typed(self):
        network, sites, counter = counter_world()
        FaultPlane(network, seed=1).add(
            DropInjector(rate=1.0, only_kinds=["invoke"])
        )
        future = sites["a"].remote_invoke_async(
            "b", counter.guid, "increment", [1], policy=FAST
        )
        network.run()
        assert future.done
        with pytest.raises(RequestTimeoutError):
            future.result()
        assert counter.get_data("count", caller=counter.owner) == 0

    def test_retries_never_double_execute(self):
        """Dropped replies force retries; the served ledger replays."""
        network, sites, counter = counter_world()
        FaultPlane(network, seed=1).add(
            DropInjector(rate=1.0, only_kinds=["reply"], limit=1)
        )
        future = sites["a"].remote_invoke_async(
            "b", counter.guid, "increment", [1], policy=FAST
        )
        assert sites["a"].wait(future) == 1
        assert counter.get_data("count", caller=counter.owner) == 1
        assert sites["b"].replayed_requests == 1

    def test_async_runs_are_deterministic(self):
        def run(seed):
            network, sites, counter = counter_world(seed=seed)
            FaultPlane(network, seed=seed).add(
                DropInjector(rate=0.3, only_kinds=["invoke"])
            )
            futures = [
                sites["a"].remote_invoke_async(
                    "b", counter.guid, "increment", [1], policy=FAST
                )
                for _ in range(20)
            ]
            network.run()
            outcomes = []
            for future in futures:
                try:
                    outcomes.append(("ok", future.result()))
                except Exception as exc:
                    outcomes.append(("err", type(exc).__name__))
            return outcomes, network.now

        assert run(42) == run(42)


class TestTypedAsyncErrors:
    def test_remote_failure_settles_future_with_matching_type(self):
        network, sites, counter = counter_world()
        future = sites["a"].remote_invoke_async("b", counter.guid, "no_such")
        network.run()
        with pytest.raises(MethodNotFoundError, match="no_such"):
            future.result()

    def test_wait_all_raises_first_stored_failure(self):
        network, sites, counter = counter_world()
        futures = [
            sites["a"].remote_invoke_async("b", counter.guid, "increment", [1]),
            sites["a"].remote_invoke_async("b", counter.guid, "missing"),
        ]
        with pytest.raises(MethodNotFoundError):
            sites["a"].wait_all(futures)
        assert all(future.done for future in futures)


class TestAdmissionControl:
    def test_window_sheds_typed_overload_under_concurrency(self):
        network, sites, counter = counter_world()
        sites["b"].inflight_limit = 1
        sites["b"].service_delay = 0.01  # requests overlap in the window
        futures = [
            sites["a"].remote_invoke_async("b", counter.guid, "increment", [1])
            for _ in range(4)
        ]
        network.run()
        outcomes = []
        for future in futures:
            try:
                future.result()
                outcomes.append("ok")
            except OverloadError:
                outcomes.append("shed")
        assert outcomes.count("shed") == sites["b"].shed_requests > 0
        # every non-shed request completed: nothing was lost
        assert counter.get_data("count", caller=counter.owner) == outcomes.count(
            "ok"
        )
        assert sites["b"].inflight == 0  # window fully drained

    def test_shed_requests_get_fresh_admission_on_retry(self):
        """A shed refusal must not be pinned in the served ledger: once
        the window drains, a retry of the same logical request is
        admitted and executes."""
        network, sites, counter = counter_world()
        sites["b"].inflight_limit = 1
        sites["b"].service_delay = 0.05
        blocker = sites["a"].remote_invoke_async(
            "b", counter.guid, "increment", [1]
        )
        victim = sites["a"].remote_invoke_async(
            "b", counter.guid, "increment", [1],
            policy=RetryPolicy(attempts=3, timeout=0.02, backoff=0.2),
        )
        network.run()
        assert blocker.result() in (1, 2)
        assert victim.result() in (1, 2)
        assert counter.get_data("count", caller=counter.owner) == 2
        assert sites["b"].shed_requests >= 1

    def test_shed_blocking_call_retries_once_the_window_drains(self):
        """The blocking path retries a shed under a policy, exactly as
        the async path does."""
        network, sites, counter = counter_world()
        sites["b"].inflight_limit = 1
        sites["b"].service_delay = 0.05
        blocker = sites["a"].remote_invoke_async(
            "b", counter.guid, "increment", [1]
        )
        result = sites["a"].remote_invoke(
            "b", counter.guid, "increment", [1],
            policy=RetryPolicy(attempts=3, timeout=0.02, backoff=0.2),
        )
        network.run()
        assert result in (1, 2)
        assert blocker.result() in (1, 2)
        assert counter.get_data("count", caller=counter.owner) == 2
        assert sites["b"].shed_requests >= 1

    def test_unlimited_window_never_sheds(self):
        network, sites, counter = counter_world()
        sites["b"].service_delay = 0.01
        futures = [
            sites["a"].remote_invoke_async("b", counter.guid, "increment", [1])
            for _ in range(30)
        ]
        sites["a"].wait_all(futures)
        assert sites["b"].shed_requests == 0
        assert counter.get_data("count", caller=counter.owner) == 30

    def test_sync_path_shares_the_window(self):
        """Blocking requests honour the same admission budget."""
        network, sites, counter = counter_world()
        sites["b"].inflight_limit = 0
        with pytest.raises(OverloadError, match="admission window full"):
            sites["a"].remote_invoke("b", counter.guid, "increment", [1])
        assert sites["b"].shed_requests >= 1
        sites["b"].inflight_limit = None
        assert sites["a"].remote_invoke("b", counter.guid, "increment", [1]) == 1
