"""Sharded-cluster load scenarios: drivers over the partitioned directory.

Where :mod:`repro.load.scenario` drives raw guid-addressed RMI, this
module drives the cluster layer end to end: ``sites`` serving sites
share one seeded :class:`~repro.naming.HashRing`, every application
counter is *published* under a name at its ring owner, and every client
runs a :class:`~repro.naming.DirectoryClient` — resolving through the
ring-designated shard, caching leases, and following typed
:class:`~repro.core.errors.StaleLeaseError` redirects when a migration
moves a placement out from under a cached lease mid-load.

The op mix (:data:`~repro.load.profile.CLUSTER_PROFILE`) maps onto the
lease protocol: ``invoke`` increments through a lease, ``get_data``
peeks through one, ``describe`` is an unconditional lease refresh, and
``migrate`` hops a random placement to another site through the
two-phase handoff — which invalidates every cached lease for that name
cluster-wide, by generation, the moment it commits.

Accounting stays closed-form (PR-6): every issued request settles,
``counter_total == invoke_ok`` (no lost or double-counted updates even
across redirects — the serving site's at-most-once ledger and the
fail-fast stale check compose), and the *single-owner* invariant — no
name with two live active placements — is asserted after every move
and at drain. The soak variant arms the fault plane on top.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..core.errors import MROMError
from ..faults import FaultPlane
from ..naming import ClusterManager, DirectoryClient, HashRing
from ..net import Network, Site
from .harness import (
    ScenarioConfig,
    ScenarioReport,
    World,
    make_counter,
    run_scenario,
)
from .profile import CLUSTER_PROFILE, OpProfile

__all__ = [
    "ClusterConfig",
    "ClusterReport",
    "run_cluster_scenario",
    "run_cluster_soak",
]


@dataclass
class ClusterConfig(ScenarioConfig):
    """Knobs for one sim-mode cluster run; defaults are the smoke shape."""

    clients: int = 8            # client sites (one driver + lease cache each)
    requests: int = 2_000       # total logical requests across all drivers
    profile: OpProfile = field(default_factory=lambda: CLUSTER_PROFILE)
    keys_per_site: int = 4      # published names ~= sites * keys_per_site
    vnodes: int = 64            # ring virtual nodes per site
    max_redirects: int = 6      # stale-lease redirects per op

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.keys_per_site < 1 or self.vnodes < 1:
            raise ValueError("keys_per_site and vnodes must be positive")
        if self.max_redirects < 1:
            raise ValueError("max_redirects must be positive")


@dataclass
class ClusterReport(ScenarioReport):
    """Everything a cluster run learned, in one flat record."""

    keys: int
    moves_deferred: int
    #: client-side stale-lease redirects followed (across all clients)
    stale_client: int
    #: server-side stale refusals issued (across all serving sites)
    stale_served: int
    #: aggregated shard + client-cache counters
    directory: dict
    #: active placements per serving site at drain
    placements: dict
    #: no name ever had two live active placements (checked at every
    #: move commit and at drain)
    single_owner: bool
    owner_violations: int
    #: every name ends with exactly one active placement, the shard entry
    #: agrees with it, and a fresh (cache-less) client can reach it
    converged: bool

    derived = ("consistent", "stale_rate")
    event_fields = (
        "sites", "issued", "ok", "stale_client", "stale_served", "migrations",
        "throughput", "converged", "single_owner",
    )

    @property
    def stale_rate(self) -> float:
        """Client stale-redirects per completed op."""
        return self.stale_client / self.completed if self.completed else 0.0

    def violations(self) -> dict[str, str]:
        found = super().violations()
        if not self.single_owner or self.owner_violations:
            found["single-owner"] = (
                f"a name had two live owners ({self.owner_violations})"
            )
        if not self.converged:
            found["converged"] = "directory never converged after the run"
        return found

    def title(self) -> str:
        return (
            f"cluster report: {self.sites} sites x {self.clients} clients, "
            f"{self.keys} names, seed {self.seed}"
        )

    def detail_lines(self) -> list[str]:
        return [
            f"  directory stale_client={self.stale_client} "
            f"stale_served={self.stale_served} "
            f"rate={self.stale_rate:.4f}/op",
            f"  mobility  {self.migrations} move(s), "
            f"{self.moves_deferred} deferred, "
            + ("single-owner held" if self.single_owner
               else f"{self.owner_violations} OWNER VIOLATION(S)"),
            f"  placement "
            + " ".join(f"{site}={count}"
                       for site, count in sorted(self.placements.items()))
            + (" (converged)" if self.converged else " NOT CONVERGED"),
        ]


class _ClusterWorld(World):
    """Ring + shards + placements + directory clients."""

    domain = "cluster"
    report_type = ClusterReport
    # drain-time settlement: every ambiguous handoff gets its verdict,
    # every committed move finishes its adopt + directory update
    drain_rounds = 12

    def __init__(self, config: ClusterConfig, soak: bool):
        super().__init__(config, soak)
        #: one ring instance shared by every manager and client — in the
        #: multi-process driver each process derives the identical ring
        #: from (sites, vnodes, seed) instead
        self.ring = HashRing(self.server_ids, vnodes=config.vnodes,
                             seed=config.seed)
        self.managers = {
            name: ClusterManager(site, self.ring, retry_policy=config.retry)
            for name, site in self.servers.items()
        }
        self.names = [
            f"apps/k{i}" for i in range(config.sites * config.keys_per_site)
        ]
        self.targets = self.names
        for name in self.names:
            home = self.ring.owner(name)
            counter = make_counter(self.servers[home], f"counter@{home}", peek=True)
            self.managers[home].publish(counter, name)
        self.directory_clients = {
            client.site_id: self._directory_client(client)
            for client in self.clients
        }
        self.owner_violations = 0

    def _directory_client(self, client: Site) -> DirectoryClient:
        return DirectoryClient(
            client, self.ring, retry_policy=self.config.retry,
            max_redirects=self.config.max_redirects,
        )

    # -- invariants ----------------------------------------------------------

    def active_homes(self, name: str) -> list[str]:
        return [
            site_id for site_id, manager in self.managers.items()
            if manager.placements.get(name, {}).get("state") == "active"
        ]

    def check_single_owner(self) -> None:
        """Count the names with two live active placements right now."""
        self.owner_violations += sum(
            1 for name in self.names if len(self.active_homes(name)) > 1
        )

    def counter_total(self) -> int:
        total = 0
        for name in self.names:
            for site_id in self.active_homes(name):
                entry = self.managers[site_id].placements[name]
                obj = self.servers[site_id].local_object(entry["guid"])
                total += obj.get_data("count", caller=obj.owner)
        return total

    def converged(self) -> bool:
        """One active home per name, the shard agrees, and a cache-less
        client can reach it."""
        probe = self._directory_client(self.clients[0])
        for name in self.names:
            homes = self.active_homes(name)
            if len(homes) != 1:
                return False
            entry = self.managers[homes[0]].placements[name]
            shard = self.managers[self.ring.owner(name)].shard
            recorded = shard.entries.get(name)
            if recorded is None:
                return False
            if recorded["site"] != homes[0]:
                return False
            if recorded["generation"] != entry["generation"]:
                return False
            try:
                probe.invoke(name, "peek")
            except MROMError:
                return False
        return True

    def placements_by_site(self) -> dict[str, int]:
        return {
            site_id: sum(
                1 for entry in manager.placements.values()
                if entry["state"] == "active"
            )
            for site_id, manager in self.managers.items()
        }

    def directory_counters(self) -> dict:
        shards = [manager.shard for manager in self.managers.values()]
        dcs = list(self.directory_clients.values())
        return {
            "lookups": sum(s.lookups for s in shards),
            "hits": sum(s.hits for s in shards),
            "misses": sum(s.misses for s in shards),
            "updates": sum(s.updates for s in shards),
            "stale_updates": sum(s.stale_updates for s in shards),
            "cache_hits": sum(dc.cache_hits for dc in dcs),
            "cache_misses": sum(dc.cache_misses for dc in dcs),
            "refreshes": sum(dc.refreshes for dc in dcs),
        }

    def drained(self) -> bool:
        return all(manager.quiescent for manager in self.managers.values())

    def settle(self) -> None:
        for manager in self.managers.values():
            manager.settle()

    def report_fields(self) -> dict:
        self.check_single_owner()
        return dict(
            keys=len(self.names),
            moves_deferred=self.moves_deferred,
            stale_client=sum(
                dc.stale for dc in self.directory_clients.values()
            ),
            stale_served=sum(
                manager.stale_served for manager in self.managers.values()
            ),
            directory=self.directory_counters(),
            placements=self.placements_by_site(),
            single_owner=self.owner_violations == 0,
            owner_violations=self.owner_violations,
            converged=self.converged(),
        )

    # -- the op implementations ----------------------------------------------

    def weather(self) -> bool:
        """Under the fault plane a failed move (a dead or shedding
        destination) restored the placement; clients were never at risk,
        so the move is just tried again later."""
        return self.soak

    def client_ops(self, client: Site) -> dict:
        directory = self.directory_clients[client.site_id]
        return {
            "invoke": lambda name: directory.invoke_async(name, "increment", [1]),
            "get_data": lambda name: directory.invoke_async(name, "peek"),
            "describe": directory.refresh_async,
        }

    def _move_once(self, rng) -> str:
        """Hop one random placement to the next serving site."""
        name = self.names[rng.randrange(len(self.names))]
        # settle any committed-but-unfinished moves first: a placement
        # whose adopt is still pending must finish before a new hop of
        # the same name can even find its active home
        self.settle()
        homes = self.active_homes(name)
        if len(homes) != 1:
            return self._deferred()
        src = homes[0]
        dst = self._next_site(src)
        if dst == src:  # single-site ring: nothing to move
            return dst
        if not self.network.is_live(dst) or not self.network.is_live(src):
            return self._deferred()
        # an ambiguous verdict leaves the placement "moving" (refusing
        # clients with typed stale errors) until settle() resolves it
        self.managers[src].migrate(name, dst)
        self.migrations += 1
        self.check_single_owner()
        return dst


def run_cluster_scenario(config: ClusterConfig | None = None) -> ClusterReport:
    """One clean (fault-free) cluster run; see :class:`ClusterConfig`."""
    return run_scenario(_ClusterWorld, config or ClusterConfig(), soak=False)


def run_cluster_soak(
    config: ClusterConfig | None = None,
    attach: Callable[[Network, _ClusterWorld], FaultPlane] | None = None,
) -> ClusterReport:
    """A cluster run with the fault plane armed.

    The default plane is the load soak's (drops, duplicates, jitter on
    all traffic — directory RPCs included); tests pass their own
    ``attach(network, world)`` to aim harsher schedules (directory-RPC
    drops, mid-migration site flaps) at the lease protocol.
    """
    return run_scenario(
        _ClusterWorld, config or ClusterConfig(), soak=True, attach=attach
    )
