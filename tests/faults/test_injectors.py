"""Per-injector unit tests: effect, accounting, and seed determinism."""

from __future__ import annotations

import pytest

from repro.core.errors import NetworkError
from repro.faults import (
    DropInjector,
    DurableCrashInjector,
    DuplicateInjector,
    FaultPlane,
    JitterInjector,
    LinkFlapInjector,
    MessageInjector,
    ReorderInjector,
)

from .conftest import Recorder, make_recorders


def burst(network, n=10, src="a", dst="b", kind="data"):
    for index in range(n):
        network.send(src, dst, kind, index)
    network.run()


class TestDrop:
    def test_drops_everything_at_rate_one(self):
        network, recorders = make_recorders()
        FaultPlane(network, seed=1).add(DropInjector(rate=1.0))
        burst(network, 10)
        assert recorders["b"].received == []
        assert network.messages_dropped == 10
        assert network.bytes_dropped > 0
        assert network.messages_sent == 10  # sends still counted

    def test_limit_caps_injected_faults(self):
        network, recorders = make_recorders()
        FaultPlane(network, seed=1).add(DropInjector(rate=1.0, limit=3))
        burst(network, 10)
        payloads = [m.payload for m in recorders["b"].received]
        assert payloads == [3, 4, 5, 6, 7, 8, 9]
        assert network.messages_dropped == 3

    def test_rate_validation(self):
        with pytest.raises(NetworkError):
            DropInjector(rate=1.5)


class TestDuplicate:
    def test_every_message_arrives_twice(self):
        network, recorders = make_recorders()
        FaultPlane(network, seed=1).add(DuplicateInjector(rate=1.0))
        burst(network, 5)
        payloads = sorted(m.payload for m in recorders["b"].received)
        assert payloads == [0, 0, 1, 1, 2, 2, 3, 3, 4, 4]
        assert network.messages_duplicated == 5
        assert all(m.verdict == "duplicate" for m in recorders["b"].received)

    def test_copy_trails_the_original(self):
        network, recorders = make_recorders()
        FaultPlane(network, seed=1).add(DuplicateInjector(rate=1.0, spread=0.5))
        network.send("a", "b", "data", "only")
        network.run()
        assert len(recorders["b"].received) == 2


class TestReorder:
    def test_held_message_is_overtaken(self):
        network, recorders = make_recorders()
        FaultPlane(network, seed=1).add(
            DropInjector(rate=0.0)  # inert: proves pipeline composition is safe
        )
        plane = network.fault_plane
        plane.add(ReorderInjector(rate=1.0, hold=1.0, limit=1))
        network.send("a", "b", "data", "first")
        network.send("a", "b", "data", "second")
        network.run()
        assert [m.payload for m in recorders["b"].received] == ["second", "first"]

    def test_only_kinds_focuses_the_injector(self):
        network, recorders = make_recorders()
        FaultPlane(network, seed=1).add(
            ReorderInjector(rate=1.0, hold=1.0, only_kinds=["slow"])
        )
        network.send("a", "b", "slow", "held")
        network.send("a", "b", "data", "prompt")
        network.run()
        assert [m.payload for m in recorders["b"].received] == ["prompt", "held"]


class TestJitter:
    def test_delivery_is_late_but_complete(self):
        network, recorders = make_recorders()
        FaultPlane(network, seed=1).add(JitterInjector(max_jitter=0.5))
        baseline = network.topology.path_cost("a", "b", 1)
        network.send("a", "b", "data", "x")
        network.run()
        assert [m.payload for m in recorders["b"].received] == ["x"]
        assert network.now >= baseline  # jitter only ever adds latency
        assert recorders["b"].received[0].verdict == "jitter"


class TestKindFilters:
    def test_skip_kinds(self):
        injector = DropInjector(rate=1.0, skip_kinds=["reply"])
        network, recorders = make_recorders()
        FaultPlane(network, seed=1).add(injector)
        network.send("a", "b", "reply", "spared")
        network.send("a", "b", "data", "doomed")
        network.run()
        assert [m.payload for m in recorders["b"].received] == ["spared"]

    def test_judge_is_abstract(self):
        with pytest.raises(NotImplementedError):
            MessageInjector().judge(None, [0.0])


class TestFlap:
    def run_flaps(self, seed):
        network, recorders = make_recorders(seed=seed)
        plane = FaultPlane(network, seed=seed)
        plane.add(LinkFlapInjector("a", "b", every=0.5, down_for=0.1, flaps=4))
        network.run()
        return network, plane

    def test_flap_count_and_recovery(self):
        network, plane = self.run_flaps(seed=3)
        assert plane.counts["flap"] == 4
        downs = [entry for entry in plane.trace if entry[1] == "flap-down"]
        ups = [entry for entry in plane.trace if entry[1] == "flap-up"]
        assert len(downs) == len(ups) == 4
        assert network.topology.link_between("a", "b").up  # ends healed

    def test_same_seed_same_schedule(self):
        _, first = self.run_flaps(seed=3)
        _, second = self.run_flaps(seed=3)
        assert first.trace == second.trace
        assert first.digest() == second.digest()

    def test_different_seed_different_schedule(self):
        _, first = self.run_flaps(seed=3)
        _, second = self.run_flaps(seed=4)
        assert first.trace != second.trace


def stay_down(network, site_id):
    """A restart procedure that brings nothing back."""


class TestCrashRestart:
    def test_default_crash_detaches_the_site(self):
        network, recorders = make_recorders()
        plane = FaultPlane(network, seed=5)
        reborn = {}

        def recover(net, site_id):
            reborn[site_id] = Recorder(net, site_id)

        plane.add(DurableCrashInjector("b", recover, at=0.5, down_for=0.5))
        network.simulator.schedule(0.6, lambda: network.is_live("b"))
        network.run()
        assert plane.counts["crash"] == plane.counts["restart"] == 1
        assert [entry[1] for entry in plane.trace] == ["crash", "restart"]
        assert network.is_live("b")
        assert network.endpoint("b") is reborn["b"]

    def test_crash_closes_the_journal(self):
        network, recorders = make_recorders()

        class Journal:
            closed = False

            def close(self):
                self.closed = True

        journal = recorders["b"].journal = Journal()
        plane = FaultPlane(network, seed=5)
        plane.add(DurableCrashInjector("b", stay_down, at=0.5, down_for=0.5))
        network.run()
        assert journal.closed

    def test_sends_to_crashed_site_fail(self):
        network, recorders = make_recorders()
        plane = FaultPlane(network, seed=5)
        plane.add(DurableCrashInjector("b", stay_down, at=0.5, down_for=10.0))
        failures = []

        def try_send():
            try:
                network.send("a", "b", "data", "x")
            except NetworkError as exc:
                failures.append(str(exc))

        network.simulator.schedule(1.0, try_send)
        network.run()
        assert failures and "unknown site" in failures[0]

    def test_in_flight_delivery_to_dead_site_is_dropped(self):
        network, recorders = make_recorders()
        plane = FaultPlane(network, seed=5)
        plane.add(JitterInjector(max_jitter=2.0))  # stretch the flight time
        plane.add(DurableCrashInjector("b", stay_down, at=0.0005, down_for=10.0))
        network.send("a", "b", "data", "doomed")
        network.run()
        assert recorders["b"].received == []
        assert network.messages_undeliverable == 1

    def test_quiescent_crash_waits_for_handlers(self):
        network, recorders = make_recorders()
        recorders["b"].handling_depth = 1  # site mid-handler at crash time
        plane = FaultPlane(network, seed=5)
        plane.add(
            DurableCrashInjector("b", stay_down, at=0.1, down_for=0.1, grace=0.05)
        )
        network.simulator.schedule(
            0.3, lambda: setattr(recorders["b"], "handling_depth", 0)
        )
        network.run()
        crash_time = [e[0] for e in plane.trace if e[1] == "crash"][0]
        assert crash_time >= 0.3  # deferred past the busy window


class TestCrossSeedDeterminism:
    def run_world(self, seed):
        network, recorders = make_recorders(seed=seed)
        plane = FaultPlane(network, seed=seed)
        plane.add(DropInjector(rate=0.3))
        plane.add(DuplicateInjector(rate=0.3))
        burst(network, 40)
        return plane, [m.payload for m in recorders["b"].received]

    def test_identical_seeds_identical_traces(self):
        plane_a, got_a = self.run_world(11)
        plane_b, got_b = self.run_world(11)
        assert plane_a.trace == plane_b.trace
        assert got_a == got_b

    def test_distinct_seeds_distinct_traces(self):
        plane_a, _ = self.run_world(11)
        plane_b, _ = self.run_world(12)
        assert plane_a.trace != plane_b.trace
