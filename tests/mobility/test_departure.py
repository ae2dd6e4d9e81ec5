"""A departed object is freed by reference counting.

In the paper a migrating object is shipped as data, rebuilt at the
destination, and the original ceases to exist at the source. Here that
means the object graph a departure leaves behind is freed the moment
its last reference goes, not at some later pass of the cyclic
collector: no object holds a reference to itself (the level-0
``Invoker`` is built per call), and ``Site.unregister_object`` releases
the compiled closures and the self view, the two caches that hold an
invoked object. Both caches are rebuilt by the next call, so an
unregistered object still works.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import random
import weakref

import pytest

from repro.core import MROMObject
from repro.core.errors import MROMError, PolicyViolationError, RemoteInvocationError
from repro.mobility import MobilityManager
from repro.naming import ClusterManager, HashRing
from repro.security import HostPolicy, policy as policy_module

from tests.conftest import cyclic_garbage, make_site_world


@contextlib.contextmanager
def collector_off():
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def counter_on(site, name="counter", install=None):
    obj = site.create_object(display_name=name)
    obj.define_fixed_data("count", 0)
    obj.define_fixed_method(
        "increment",
        "self.set('count', self.get('count') + 1)\nreturn self.get('count')",
    )
    if install is not None:
        obj.define_fixed_method("install", install)
    obj.seal()
    site.register_object(obj)
    return obj


class TestCensus:
    def test_a_hop_leaves_at_most_three_cyclic_objects(self):
        """The ``migrate_sim`` traveller: 8 x 16 KiB of data and an
        ``install`` method that runs, compiled, at every arrival. What
        is left per hop is one sandbox function and its globals (see
        docs/MODEL.md)."""
        names = tuple(f"s{i}" for i in range(4))
        network, sites = make_site_world(names=names)
        managers = [MobilityManager(sites[name]) for name in names]
        world = random.Random(1)
        traveller = sites["s0"].create_object(display_name="traveller")
        traveller.define_fixed_data("hops", 0)
        for blob in range(8):
            traveller.define_fixed_data(f"blob{blob}", world.randbytes(16 * 1024))
        traveller.define_fixed_method(
            "install",
            "self.set('hops', self.get('hops') + 1)\n"
            "return len(self.get('blob3'))",
        )
        traveller.seal()
        sites["s0"].register_object(traveller)
        state = {"obj": traveller, "home": 0}

        def hop():
            home = state["home"]
            dst = (home + 1) % len(names)
            ref = managers[home].migrate(state["obj"], names[dst])
            state["obj"] = sites[names[dst]].local_object(ref.guid)
            state["home"] = dst

        for _ in range(8):  # warm: verified bodies, interned events
            hop()
        hops = 40
        garbage = cyclic_garbage(lambda: [hop() for _ in range(hops)])
        assert len(garbage) / hops <= 3.0, sorted(
            {type(item).__name__ for item in garbage}
        )
        assert not any(isinstance(item, MROMObject) for item in garbage)
        assert state["obj"].get_data("hops", caller=state["obj"].owner) == 48


class TestDepartedObjectIsFreed:
    """With the collector off, a weak reference to the departed object
    is dead as soon as the departure returns."""

    def test_committed_migrate(self):
        network, sites = make_site_world()
        MobilityManager(sites["b"])
        obj = counter_on(sites["a"])
        assert obj.invoke("increment", caller=obj.owner) == 1
        departed = weakref.ref(obj)
        with collector_off():
            ref = MobilityManager(sites["a"]).migrate(obj, "b")
            del obj
            assert departed() is None
        assert sites["b"].local_object(ref.guid).invoke("increment") == 2

    def test_cluster_move(self):
        names = ("s0", "s1", "s2")
        network, sites = make_site_world(names=names, domain="cluster.{name}")
        ring = HashRing(list(names), vnodes=64, seed=0)
        managers = {name: ClusterManager(sites[name], ring) for name in names}
        name = "apps/k0"
        home = ring.owner(name)
        counter = counter_on(sites[home], name)
        sites[home].unregister_object(counter.guid)
        managers[home].publish(counter, name)
        counter.invoke("increment", caller=counter.owner)
        dst = next(site for site in names if site != home)
        departed = weakref.ref(counter)
        with collector_off():
            managers[home].migrate(name, dst)
            network.run()
            del counter
            assert departed() is None
        assert managers[dst].placements[name]["generation"] == 2

    def test_failed_install(self):
        network, sites = make_site_world()
        receiver = MobilityManager(sites["b"])
        arrived = []
        real_install = receiver._install

        def watching(obj, install_args):
            arrived.append(weakref.ref(obj))
            return real_install(obj, install_args)

        receiver._install = watching
        obj = counter_on(
            sites["a"], install="self.call('increment')\nreturn 1 / 0"
        )
        with collector_off():
            with pytest.raises(MROMError):
                MobilityManager(sites["a"]).migrate(obj, "b")
            network.run()
            [copy] = arrived
            assert copy() is None
        assert not sites["b"].has_object(obj.guid)
        assert sites["a"].has_object(obj.guid)

    def test_refused_host_policy_arrival(self, monkeypatch):
        network, sites = make_site_world()
        receiver = MobilityManager(
            sites["b"], policy=HostPolicy(banned_method_names=frozenset({"increment"}))
        )
        built = []
        real_unpack = policy_module.unpack

        def watching(package, resolve=None):
            obj = real_unpack(package, resolve)
            built.append(weakref.ref(obj))
            return obj

        monkeypatch.setattr(policy_module, "unpack", watching)
        obj = counter_on(sites["a"])
        with collector_off():
            with pytest.raises(RemoteInvocationError) as refused:
                MobilityManager(sites["a"]).migrate(obj, "b")
            network.run()
            [guest] = built
            assert guest() is None
        assert refused.value.remote_type == PolicyViolationError.__name__
        assert receiver.rejections == 1

    def test_dropped_never_invoked_object(self):
        with collector_off():
            obj = MROMObject(display_name="dropped")
            dropped = weakref.ref(obj)
            del obj
            assert dropped() is None


class TestSelfMigration:
    def test_a_self_migrating_agent_completes_its_itinerary(self):
        """Each stop's ``tour`` body moves its own object on: the
        departure clears the closure table and the self view while the
        body that caused it is still running, and the body goes on
        reading its state through the view it holds."""
        names = ("a", "b", "c", "d")
        network, sites = make_site_world(names=names)
        managers = {name: MobilityManager(sites[name]) for name in names}

        def go(here, guid, dst):
            managers[here].migrate(sites[here].local_object(guid), dst)

        agent = sites["a"].create_object(display_name="agent")
        agent.define_fixed_data("stops", ["b", "c", "d"])
        agent.define_fixed_data("visited", [])
        agent.define_fixed_method(
            "tour",
            "log = self.get('visited')\n"
            "log.append(self.env['site'])\n"
            "self.set('visited', log)\n"
            "rest = self.get('stops')\n"
            "if not rest:\n"
            "    return log\n"
            "self.set('stops', rest[1:])\n"
            "self.env['host'](self.guid, rest[0])\n"
            "return len(self.get('visited'))",
        )
        agent.seal()
        sites["a"].register_object(agent)
        guid, here, results = agent.guid, "a", []
        while True:
            obj = sites[here].local_object(guid)
            obj.environment["host"] = functools.partial(go, here)
            result = obj.invoke("tour", caller=obj.owner)
            results.append(result)
            if isinstance(result, list):
                break
            assert not sites[here].has_object(guid)
            here = next(name for name in names if sites[name].has_object(guid))
        assert results == [1, 2, 3, ["a", "b", "c", "d"]]
        assert here == "d"


class TestUnregisteredObjectStillWorks:
    def test_called_again_it_answers_and_counts_a_discard_not_an_invalidation(self):
        _network, sites = make_site_world()
        obj = counter_on(sites["a"])
        for _ in range(3):
            obj.invoke("increment")
        cache = obj.fastpath
        before = cache.stats()
        assert before == {
            "compiled_hits": 2, "compiles": 1, "compiled_discards": 0,
            "invalidations": 0, "compiled_entries": 1,
        }
        sites["a"].unregister_object(obj.guid)
        # the released closure counts as a discard, not an invalidation
        assert cache.stats() == {
            **before, "compiled_discards": 1, "compiled_entries": 0,
        }
        assert obj.invoke("increment") == 4
        # one cold call rebuilds the closure and the self view
        assert cache.stats() == {
            "compiled_hits": 2, "compiles": 2, "compiled_discards": 1,
            "invalidations": 0, "compiled_entries": 1,
        }
        assert obj.invoke("increment") == 5
        assert cache.compiled_hits == 3
        assert cache.compiled_entries == cache.compiles - cache.compiled_discards
