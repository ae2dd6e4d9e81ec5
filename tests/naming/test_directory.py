"""The partitioned directory: shards, leases, typed staleness, moves.

Unit-level coverage for what the cluster scenarios exercise in bulk:
generation-monotonic shard updates, client lease caching, the typed
``StaleLeaseError`` surviving both wire rebuild paths (async
``error_for_name`` and the sync reply decoder), the migration commit
updating the directory inside the transfer's resolution hook, shard
crash/republish, and the TCP gateway serving ``dir.*`` / ``cluster.*``
to an external process.
"""

from __future__ import annotations

import pytest

from repro.core.errors import (
    MROMError,
    NamingError,
    RemoteInvocationError,
    StaleLeaseError,
    error_for_name,
)
from repro.naming import ClusterManager, DirectoryClient, HashRing, Lease

from tests.conftest import make_site_world

pytestmark = pytest.mark.cluster


def cluster_world(seed: int = 0, sites: int = 3, client_ids: tuple = ("c0",)):
    """Serving sites + managers on a shared ring, plus client sites."""
    names = tuple(f"s{i}" for i in range(sites)) + tuple(client_ids)
    network, all_sites = make_site_world(
        seed=seed, names=names, domain="cluster.{name}"
    )
    server_ids = [f"s{i}" for i in range(sites)]
    ring = HashRing(server_ids, vnodes=64, seed=seed)
    managers = {
        site_id: ClusterManager(all_sites[site_id], ring)
        for site_id in server_ids
    }
    clients = {
        cid: DirectoryClient(all_sites[cid], ring) for cid in client_ids
    }
    return network, all_sites, ring, managers, clients


def publish_counter(manager, name: str):
    site = manager.site
    counter = site.create_object(display_name=f"counter:{name}")
    counter.define_fixed_data("count", 0)
    counter.define_fixed_method(
        "increment",
        "step = args[0] if args else 1\n"
        "self.set('count', self.get('count') + step)\n"
        "return self.get('count')",
    )
    counter.define_fixed_method("peek", "return self.get('count')")
    counter.seal()
    manager.publish(counter, name)
    return counter


# -- the typed error -------------------------------------------------------


class TestStaleLeaseError:
    def test_carries_and_parses_its_generation(self):
        error = StaleLeaseError(name="apps/k0", generation=4)
        assert error.generation == 4
        assert "generation=4" in str(error)

    def test_survives_the_wire_rebuild(self):
        # the async path rebuilds errors by name from (type, message);
        # the generation must come back out of the message text
        error = StaleLeaseError(name="apps/k0", generation=7)
        rebuilt = error_for_name(type(error).__name__, str(error))
        assert isinstance(rebuilt, StaleLeaseError)
        assert rebuilt.generation == 7

    def test_is_a_naming_error(self):
        assert isinstance(StaleLeaseError(), NamingError)


# -- the shard -------------------------------------------------------------


class TestDirectoryShard:
    def test_resolve_hit_miss_and_counters(self):
        _network, _sites, ring, managers, clients = cluster_world()
        name = "apps/k0"
        publish_counter(managers[ring.owner(name)], name)
        client = clients["c0"]
        lease = client.lease_for(name)
        assert isinstance(lease, Lease)
        assert lease.site == ring.owner(name) and lease.generation == 1
        shard = managers[ring.owner(name)].shard
        assert shard.hits == 1 and shard.misses == 0
        with pytest.raises(MROMError):
            client.lease_for("apps/ghost", refresh=True)
        ghost_shard = managers[ring.owner("apps/ghost")].shard
        assert ghost_shard.misses == 1

    def test_updates_never_regress_generations(self):
        _network, _sites, ring, managers, _clients = cluster_world()
        shard = managers["s0"].shard
        fresh = {"name": "n", "guid": "g", "site": "s1", "generation": 3}
        assert shard.apply_update(fresh)["applied"] is True
        replay = {"name": "n", "guid": "g", "site": "s0", "generation": 2}
        verdict = shard.apply_update(replay)
        assert verdict == {"applied": False, "generation": 3}
        assert shard.entries["n"]["site"] == "s1"
        assert shard.stale_updates == 1
        # equal generation re-applies idempotently (a retried update)
        assert shard.apply_update(fresh)["applied"] is True

    def test_malformed_updates_are_refused(self):
        _network, _sites, _ring, managers, _clients = cluster_world()
        shard = managers["s0"].shard
        with pytest.raises(NamingError):
            shard.apply_update({"name": "n", "guid": "", "site": "s1",
                                "generation": 1})
        with pytest.raises(NamingError):
            shard.apply_update({"name": "n", "guid": "g", "site": "s1",
                                "generation": 0})

    @pytest.mark.parametrize(
        "path", ["update", "lease", "cluster.invoke", "cluster.adopt", "cluster.arrive"]
    )
    @pytest.mark.parametrize(
        "generation",
        ["x", None, [1], float("inf"), float("nan"), "9" * 5000, 2.5, True],
        ids=["text", "null", "list", "inf", "nan", "5000-digits", "real", "bool"],
    )
    def test_a_generation_that_is_not_an_int_is_refused_typed(self, generation, path):
        _network, sites, _ring, managers, clients = cluster_world()
        if path == "lease":
            # a lease reply from a directory shard is peer data too
            reply = {"name": "n", "guid": "g", "site": "s1", "generation": generation}
            with pytest.raises(NamingError):
                clients["c0"]._admit("n", reply)
            assert "n" not in clients["c0"].leases
            return
        if path == "update":
            shard = managers["s0"].shard
            update = {"name": "n", "guid": "g", "site": "s1", "generation": generation}
            with pytest.raises(NamingError):
                shard.apply_update(update)
            assert "n" not in shard.entries
            # over the wire the serving site replies with the failure
            with pytest.raises(RemoteInvocationError) as caught:
                sites["c0"].request("s0", "dir.update", update)
            assert caught.value.remote_type == "NamingError"
            assert "n" not in shard.entries and shard.updates == 0
            return
        # the cluster handlers refuse before touching any placement
        manager = managers["s0"]
        publish_counter(manager, "n")
        placements = dict(manager.placements)
        body = {"name": "n", "guid": "g", "generation": generation,
                "method": "peek", "package": {}}
        with pytest.raises(RemoteInvocationError) as caught:
            sites["c0"].request("s0", path, body)
        assert caught.value.remote_type == "NamingError"
        assert manager.placements == placements

    def test_forget_then_republish_rebuilds_the_soft_state(self):
        network, _sites, ring, managers, clients = cluster_world()
        name = "apps/k0"
        publish_counter(managers[ring.owner(name)], name)
        shard = managers[ring.owner(name)].shard
        shard.forget()
        client = clients["c0"]
        with pytest.raises(MROMError):
            client.lease_for(name, refresh=True)
        restored = sum(m.republish() for m in managers.values())
        network.run()
        assert restored == 1
        assert client.lease_for(name, refresh=True).site == ring.owner(name)


# -- the client ------------------------------------------------------------


class TestDirectoryClient:
    def test_lease_cache_hits_and_invalidate(self):
        _network, _sites, ring, managers, clients = cluster_world()
        name = "apps/k0"
        publish_counter(managers[ring.owner(name)], name)
        client = clients["c0"]
        first = client.lease_for(name)
        again = client.lease_for(name)
        assert first == again
        assert client.cache_hits == 1 and client.cache_misses == 1
        client.invalidate(name)
        client.lease_for(name)
        assert client.cache_misses == 2

    def test_admit_keeps_the_newer_generation(self):
        _network, _sites, ring, _managers, clients = cluster_world()
        client = clients["c0"]
        client._admit("n", {"guid": "g", "site": "s1", "generation": 5})
        stale = client._admit("n", {"guid": "g", "site": "s0", "generation": 2})
        # a late resolve from before the move must not clobber the cache
        assert stale.site == "s1" and stale.generation == 5

    def test_invoke_and_migrate_redirects_converge(self):
        network, _sites, ring, managers, clients = cluster_world()
        name = "apps/k0"
        home = ring.owner(name)
        publish_counter(managers[home], name)
        client = clients["c0"]
        assert client.invoke(name, "increment", [1]) == 1
        dst = next(s for s in managers if s != home)
        managers[home].migrate(name, dst)
        network.run()
        # the cached lease now points at the old home at generation 1:
        # the next invoke gets a typed refusal, re-resolves, lands at dst
        assert client.invoke(name, "increment", [1]) == 2
        assert client.stale == 1
        assert managers[home].stale_served == 1
        assert client.leases[name].site == dst
        assert client.leases[name].generation == 2

    def test_sync_stale_arrives_typed_through_decode_reply(self):
        network, sites, ring, managers, clients = cluster_world()
        name = "apps/k0"
        home = ring.owner(name)
        publish_counter(managers[home], name)
        dst = next(s for s in managers if s != home)
        managers[home].migrate(name, dst)
        network.run()
        # a raw request under the dead generation — no client redirect
        # machinery — must still surface as the typed error, not as an
        # opaque RemoteInvocationError
        with pytest.raises(StaleLeaseError) as caught:
            sites["c0"].request(
                home, "cluster.invoke",
                {"name": name, "generation": 1, "method": "peek",
                 "args": [], "caller": {}},
            )
        assert not isinstance(caught.value, RemoteInvocationError)

    def test_batched_stale_keeps_its_type(self):
        network, sites, ring, managers, clients = cluster_world()
        name = "apps/k0"
        home = ring.owner(name)
        publish_counter(managers[home], name)
        dst = next(s for s in managers if s != home)
        managers[home].migrate(name, dst)
        network.run()
        # a batched entry refused under the dead generation decodes like
        # the blocking call: typed, not an opaque RemoteInvocationError
        batch = sites["c0"].batch(home)
        future = batch.add(
            "cluster.invoke",
            {"name": name, "generation": 1, "method": "peek",
             "args": [], "caller": {}},
        )
        batch.flush()
        with pytest.raises(StaleLeaseError):
            future.result()
        assert not isinstance(future.error(), RemoteInvocationError)

    def test_redirect_budget_exhausts_with_the_typed_error(self):
        _network, _sites, ring, managers, clients = cluster_world()
        name = "apps/k0"
        home = ring.owner(name)
        publish_counter(managers[home], name)
        # wedge the placement in "moving": every invoke refuses as stale
        managers[home].placements[name]["state"] = "moving"
        client = clients["c0"]
        client.max_redirects = 2
        with pytest.raises(StaleLeaseError):
            client.invoke(name, "peek")
        assert client.stale == 3  # initial try + 2 redirects

    def test_async_redirect_budget_exhausts_counting_every_stale(self):
        """The async path notes the stale on every refusal, the last
        one included: the refused lease is dropped, so the next call on
        the name does not start on it."""
        network, _sites, ring, managers, clients = cluster_world()
        name = "apps/k0"
        home = ring.owner(name)
        publish_counter(managers[home], name)
        managers[home].placements[name]["state"] = "moving"
        client = clients["c0"]
        client.max_redirects = 2
        future = client.invoke_async(name, "peek")
        network.run()
        with pytest.raises(StaleLeaseError):
            future.result()
        assert client.stale == client.max_redirects + 1
        assert name not in client.leases

    def test_async_invoke_follows_the_same_redirects(self):
        network, _sites, ring, managers, clients = cluster_world()
        name = "apps/k0"
        home = ring.owner(name)
        publish_counter(managers[home], name)
        client = clients["c0"]
        client.lease_for(name)  # warm the cache with generation 1
        dst = next(s for s in managers if s != home)
        managers[home].migrate(name, dst)
        network.run()
        future = client.invoke_async(name, "increment", [5])
        network.run()
        assert future.done and future.result() == 5
        assert client.leases[name].site == dst

    def test_refresh_async_settles_with_the_lease(self):
        network, _sites, ring, managers, clients = cluster_world()
        name = "apps/k0"
        publish_counter(managers[ring.owner(name)], name)
        future = clients["c0"].refresh_async(name)
        network.run()
        lease = future.result()
        assert isinstance(lease, Lease) and lease.generation == 1
        assert clients["c0"].refreshes == 1


# -- the manager -----------------------------------------------------------


class TestClusterManager:
    def test_publish_is_single_shot_per_name(self):
        _network, _sites, ring, managers, _clients = cluster_world()
        name = "apps/k0"
        manager = managers[ring.owner(name)]
        publish_counter(manager, name)
        with pytest.raises(NamingError):
            publish_counter(manager, name)

    def test_migration_commit_updates_directory_in_the_hook(self):
        network, _sites, ring, managers, _clients = cluster_world()
        name = "apps/k0"
        home = ring.owner(name)
        counter = publish_counter(managers[home], name)
        dst = next(s for s in managers if s != home)
        managers[home].migrate(name, dst)
        network.run()
        assert name not in managers[home].placements
        assert managers[dst].placements[name] == {
            "guid": counter.guid, "generation": 2, "state": "active",
        }
        shard = managers[ring.owner(name)].shard
        assert shard.entries[name]["site"] == dst
        assert shard.entries[name]["generation"] == 2
        assert all(m.quiescent for m in managers.values())

    def test_migrating_a_missing_name_is_a_naming_error(self):
        _network, _sites, _ring, managers, _clients = cluster_world()
        with pytest.raises(NamingError):
            managers["s0"].migrate("apps/ghost", "s1")

    def test_adopt_is_idempotent_by_generation(self):
        network, sites, ring, managers, _clients = cluster_world()
        name = "apps/k0"
        home = ring.owner(name)
        counter = publish_counter(managers[home], name)
        dst = next(s for s in managers if s != home)
        managers[home].migrate(name, dst)
        network.run()
        # a duplicated adopt from the already-absorbed move
        verdict = sites[home].request(
            dst, "cluster.adopt",
            {"name": name, "guid": counter.guid, "generation": 2},
        )
        assert verdict == {"adopted": False, "generation": 2}

    def test_depart_arrive_round_trip_bumps_the_generation(self):
        network, sites, ring, managers, clients = cluster_world()
        name = "apps/k0"
        home = ring.owner(name)
        publish_counter(managers[home], name)
        clients["c0"].invoke(name, "increment", [3])
        dst = next(s for s in managers if s != home)
        # the coordinator-mediated move the multi-process driver uses
        shipment = sites["c0"].request(home, "cluster.depart", {"name": name})
        assert shipment["generation"] == 2
        landed = sites["c0"].request(
            dst, "cluster.arrive",
            {"name": name, "package": shipment["package"],
             "generation": shipment["generation"], "src": home},
        )
        assert landed["generation"] == 2
        sites["c0"].request(
            ring.owner(name), "dir.update",
            {"name": name, "guid": landed["guid"], "site": dst,
             "generation": 2},
        )
        # state survived the hop; the stale client converges onto dst
        assert clients["c0"].invoke(name, "peek") == 3
        assert clients["c0"].leases[name].site == dst

    def test_stats_reports_placements_and_counts(self):
        network, sites, ring, managers, clients = cluster_world()
        name = "apps/k0"
        home = ring.owner(name)
        publish_counter(managers[home], name)
        clients["c0"].invoke(name, "increment", [2])
        stats = sites["c0"].request(home, "cluster.stats", {})
        assert stats["counts"] == {name: 2}
        assert stats["placements"][name]["generation"] == 1
        assert stats["site"] == home


# -- the gateway path ------------------------------------------------------


class TestGatewayClusterSurface:
    def test_dir_and_cluster_kinds_round_trip_over_tcp(self):
        from repro.net.gateway import TcpGateway, TcpGatewayClient

        _network, sites, ring, managers, _clients = cluster_world()
        name = "apps/k0"
        home = ring.owner(name)
        publish_counter(managers[home], name)
        with TcpGateway(sites[home]) as gateway:
            with TcpGatewayClient(gateway.host, gateway.port) as tcp:
                lease = tcp.call("dir.resolve", {"name": name})
                assert lease["site"] == home and lease["generation"] == 1
                result = tcp.call(
                    "cluster.invoke",
                    {"name": name, "generation": 1, "method": "increment",
                     "args": [4], "caller": {}},
                )
                assert result == 4
                # a stale generation is typed even across real TCP
                with pytest.raises(StaleLeaseError):
                    tcp.call(
                        "cluster.invoke",
                        {"name": name, "generation": 9, "method": "peek",
                         "args": [], "caller": {}},
                    )

    def test_unknown_kind_is_still_refused(self):
        from repro.core.errors import NetworkError
        from repro.net.gateway import TcpGateway, TcpGatewayClient

        _network, sites, _ring, _managers, _clients = cluster_world()
        with TcpGateway(sites["s0"]) as gateway:
            with TcpGatewayClient(gateway.host, gateway.port) as tcp:
                with pytest.raises(NetworkError):
                    tcp.call("cluster.bogus", {})
