"""The multi-process cluster driver, at smoke scale.

One real OS process per site (own simulator, own gateway), real TCP
between them, the ring rederived per-process from configuration alone.
Small runs prove the machinery: closed-form accounting across process
boundaries, directory-mediated rebalances mid-run, and
exactly-one-active-placement at the end. One 16-site run with no
service dwell (``service_sleep=0``, real work only) holds the same
accounting with zero failed ops and a stale-lease rate under
``MAX_STALE_RATE``.
"""

from __future__ import annotations

import sys

import pytest

from repro.load import ClusterProcsConfig, run_cluster_procs

pytestmark = [
    pytest.mark.cluster,
    pytest.mark.skipif(
        sys.platform == "win32", reason="fork-based multi-process driver"
    ),
]

#: stale redirects per ok op, process runs
MAX_STALE_RATE = 0.20


def test_small_proc_cluster_keeps_the_invariants():
    report = run_cluster_procs(ClusterProcsConfig(
        sites=3, duration=1.0, keys_per_site=2, service_sleep=0.02,
        client_procs=2, moves=2, seed=0,
    ))
    assert report["sites"] == 3 and report["keys"] == 6
    assert report["ok"] >= 1
    # a rebalance window can exhaust a few ops' stale-retry budgets at
    # this tiny scale; that is a visible typed failure, never a lost or
    # double-counted update — the accounting below is what must hold
    assert report["failed"] <= max(4, report["ok"] // 10)
    # the cross-process ledger: every acknowledged increment is in a
    # counter exactly once, despite rebalances moving objects mid-run
    assert report["consistent"], (
        f"counters {report['counter_total']} != acked {report['ok']}"
    )
    assert report["single_owner"]
    assert report["moves"] == 2
    assert report["throughput"] > 0


def test_moves_surface_stale_leases_to_real_clients():
    report = run_cluster_procs(ClusterProcsConfig(
        sites=4, duration=1.5, keys_per_site=2, service_sleep=0.02,
        client_procs=2, moves=4, seed=1,
    ))
    assert report["consistent"] and report["single_owner"]
    assert report["failed"] <= max(4, report["ok"] // 10)
    # with 4 rebalances in 1.5s some client held a dead lease: the
    # typed redirect path ran over real TCP
    assert report["stale"] >= 1
    assert report["stale_served"] >= 1
    assert 0 <= report["stale_rate"] <= MAX_STALE_RATE


def test_sixteen_sites_real_work_accounting_is_exact():
    report = run_cluster_procs(ClusterProcsConfig(
        sites=16, duration=1.5, keys_per_site=4, service_sleep=0,
        client_procs=2, moves=8, seed=0,
    ))
    assert report["sites"] == 16 and report["moves"] == 8
    assert report["ok"] >= 1
    assert report["failed"] == 0, (
        f"{report['failed']} op(s) exhausted retries"
    )
    assert report["consistent"], (
        f"counters {report['counter_total']} != acked {report['ok']}"
    )
    assert report["single_owner"]
    assert report["stale_rate"] <= MAX_STALE_RATE, (
        f"stale rate {report['stale_rate']:.3f} (ceiling {MAX_STALE_RATE})"
    )
