"""The sim-mode cluster scenarios: accounting, convergence, scaling.

Every run is seeded and simulated, so each assertion here is exact:
closed-form accounting (issued == settled, ``counter_total ==
invoke_ok``), the single-owner invariant, post-drain convergence, and
— because the whole point of sharding is parallel service lanes —
simulated throughput scaling with site count.
"""

from __future__ import annotations

import pytest

from repro.load import ClusterConfig, run_cluster_scenario, run_cluster_soak

pytestmark = pytest.mark.cluster

SEEDS = (0, 1, 2)


def small(seed: int, **overrides) -> ClusterConfig:
    defaults = dict(
        sites=4, clients=8, requests=600, seed=seed, service_delay=0.002,
    )
    defaults.update(overrides)
    return ClusterConfig(**defaults)


class TestCleanScenario:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_closed_form_accounting_across_seeds(self, seed):
        report = run_cluster_scenario(small(seed))
        assert report.issued == report.completed == 600
        assert report.ok == 600 and report.failed == 0 and report.shed == 0
        assert report.unresolved == 0
        assert report.consistent, (
            f"counters {report.counter_total} != ok increments "
            f"{report.invoke_ok}"
        )
        assert report.single_owner and report.owner_violations == 0
        assert report.converged

    @pytest.mark.parametrize("seed", SEEDS)
    def test_stale_redirects_and_migrations_exercised(self, seed):
        report = run_cluster_scenario(small(seed))
        # the mix's 5% migrate share guarantees both sides of the lease
        # protocol actually ran: moves happened, and at least one cached
        # lease went stale and was redirected
        assert report.migrations >= 1
        assert report.stale_client >= 1
        assert report.stale_served >= report.stale_client
        assert report.directory["updates"] >= report.migrations

    def test_identical_seeds_produce_identical_reports(self):
        first = run_cluster_scenario(small(3)).to_mapping()
        second = run_cluster_scenario(small(3)).to_mapping()
        assert first == second

    def test_different_seeds_diverge(self):
        a = run_cluster_scenario(small(0)).to_mapping()
        b = run_cluster_scenario(small(1)).to_mapping()
        assert a != b

    def test_throughput_scales_with_sites(self):
        # the sharding claim: double the ring, (nearly) double the
        # simulated ok-ops/s under the same total demand of 1,600
        # requests (measured 1.87x); both runs keep every invariant, and
        # the 4-site run exercises a stale redirect and a migration
        four = run_cluster_scenario(small(0, requests=1600))
        eight = run_cluster_scenario(
            small(0, sites=8, clients=16, requests=1600)
        )
        for report in (four, eight):
            assert report.ok == 1600 and report.unresolved == 0
            assert report.consistent
            assert report.single_owner and report.owner_violations == 0
            assert report.converged
        assert four.stale_client >= 1 and four.migrations >= 1
        ratio = eight.throughput / four.throughput
        assert ratio >= 1.6, (
            f"8 sites gave only {ratio:.2f}x the 4-site throughput"
        )

    def test_report_lines_render(self):
        report = run_cluster_scenario(small(0, requests=200))
        lines = report.to_lines()
        assert any("no lost updates" in line for line in lines)
        assert any("single-owner held" in line for line in lines)
        assert any("(converged)" in line for line in lines)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ClusterConfig(sites=0)
        with pytest.raises(ValueError):
            ClusterConfig(mode="sideways")
        with pytest.raises(ValueError):
            ClusterConfig(max_redirects=0)
        with pytest.raises(ValueError):
            ClusterConfig(keys_per_site=0)


class TestSoak:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_faulty_runs_keep_the_invariants(self, seed):
        report = run_cluster_soak(small(seed, requests=500))
        assert report.unresolved == 0
        assert report.issued == report.completed == 500
        assert report.consistent
        assert report.single_owner and report.converged
        # under drops/dups the only admissible terminal failure is a
        # typed stale lease whose redirect budget ran out — never an
        # untyped error, never a wrong-site success
        untyped = report.failed - report.errors.get("StaleLeaseError", 0)
        assert untyped == 0, f"untyped failures: {report.errors}"
        assert report.faults.get("drop", 0) >= 1
