"""Chaos over the lease protocol: hostile schedules aimed at the directory.

The generic soak sprinkles faults everywhere; this suite aims them
where the protocol is most exposed — the directory RPCs themselves
(``dir.resolve`` / ``dir.update`` dropped, duplicated, reordered) plus
a serving site flapping fail-stop mid-run, while migrations keep
moving placements. Under all of it, resolution must stay
exactly-once-consistent: no name ever maps to two live owners, every
acknowledged increment is counted exactly once (the PR-6 closed-form
accounting), and the only admissible terminal failure is a *typed*
``StaleLeaseError`` — a client can be told "stale" or "try again",
never handed a wrong-site success.
"""

from __future__ import annotations

import pytest

from repro.faults import (
    DropInjector,
    DuplicateInjector,
    DurableCrashInjector,
    FaultPlane,
    ReorderInjector,
)
from repro.load import ClusterConfig, run_cluster_soak

pytestmark = [pytest.mark.cluster, pytest.mark.chaos]

#: the wire the directory itself speaks
DIRECTORY_KINDS = ("dir.resolve", "dir.update")
#: the commit-side traffic a move depends on
COMMIT_KINDS = ("dir.update", "cluster.adopt")


def hostile_attach(config: ClusterConfig):
    """A plane that drops/dups/reorders directory RPCs and flaps s1
    fail-stop mid-run (same endpoint re-registered, state intact —
    the flap model; WAL recovery is the durability suite's business)."""

    def attach(network, world) -> FaultPlane:
        plane = FaultPlane(network, seed=config.seed,
                          scenario="cluster-chaos")
        plane.add(DropInjector(rate=0.15, only_kinds=DIRECTORY_KINDS))
        plane.add(DuplicateInjector(rate=0.15, spread=0.02,
                                    only_kinds=DIRECTORY_KINDS))
        plane.add(ReorderInjector(rate=0.10, hold=0.05,
                                  only_kinds=COMMIT_KINDS))
        plane.add(DuplicateInjector(rate=0.05, spread=0.02,
                                    only_kinds=("cluster.invoke",)))

        def restart(net, site_id):
            site = world.servers[site_id]
            site.incarnation = net.register(site)

        plane.add(DurableCrashInjector("s1", restart, at=0.3, down_for=0.25))
        return plane

    return attach


@pytest.mark.parametrize("seed", (0, 1, 2))
def test_directory_chaos_stays_exactly_once_consistent(seed):
    config = ClusterConfig(
        sites=4, clients=8, requests=500, seed=seed, service_delay=0.002,
    )
    report = run_cluster_soak(config, attach=hostile_attach(config))

    # every future settled, even the ones racing the flap
    assert report.unresolved == 0
    assert report.issued == report.completed == 500

    # the PR-6 closed-form ledger survives dropped directory updates,
    # duplicated invokes and the mid-migration flap: acknowledged
    # increments == counted increments, exactly
    assert report.consistent, (
        f"seed {seed}: counters {report.counter_total} != "
        f"acked increments {report.invoke_ok}"
    )

    # resolution is exactly-once: never two live owners for one name,
    # and after drain every name has exactly one reachable home the
    # shard agrees with
    assert report.single_owner and report.owner_violations == 0
    assert report.converged

    # failures may happen (a redirect budget can die against a downed
    # shard) but they must be *typed* staleness — wrong-site silent
    # success or an untyped error would be a protocol hole
    untyped = report.failed - report.errors.get("StaleLeaseError", 0)
    assert untyped == 0, f"seed {seed}: untyped failures {report.errors}"

    # the schedule actually bit: faults fired on the directory wire and
    # the site flapped exactly once
    assert report.faults.get("drop", 0) >= 1
    assert report.faults.get("duplicate", 0) >= 1
    assert report.faults.get("crash", 0) == 1
    # and the protocol still did real work under it
    assert report.migrations >= 1
    assert report.stale_client >= 1


def test_chaos_is_deterministic_per_seed():
    config = ClusterConfig(
        sites=4, clients=8, requests=300, seed=5, service_delay=0.002,
    )
    first = run_cluster_soak(config, attach=hostile_attach(config))
    second = run_cluster_soak(config, attach=hostile_attach(config))
    assert first.to_mapping() == second.to_mapping()
