"""The shared invariant check on load and cluster reports, and the CLI
verdicts built on it.

Each closed-form invariant is flipped alone on a copy of a clean
report and must surface as exactly one named violation; the CLI table
then pins which exit status each command gives a violating report,
with its own failure policy on top (a clean cluster run admits no
terminal failure, a cluster soak admits typed stale leases, the
recovery selftest admits none and needs its restarts).
"""

from __future__ import annotations

from dataclasses import replace

import pytest

import repro.load
from repro.cli import main
from repro.load import (
    ClusterConfig,
    ClusterProcsConfig,
    LoadConfig,
    run_cluster_scenario,
    run_load_scenario,
    run_soak_scenario,
)

pytestmark = pytest.mark.load


@pytest.fixture(scope="module")
def reports():
    return {
        "load": run_load_scenario(LoadConfig(sites=2, clients=2, requests=200)),
        "durable": run_soak_scenario(LoadConfig(
            sites=2, clients=2, requests=300, durable=True, crash_cycles=3,
        )),
        "cluster": run_cluster_scenario(
            ClusterConfig(sites=2, clients=2, requests=200)
        ),
    }


#: invariant name -> the field change that breaks it alone
FLIPS = {
    "unresolved": lambda r: dict(unresolved=3),
    "accounting": lambda r: dict(ok=r.ok - 1),
    "lost-updates": lambda r: dict(counter_total=r.counter_total + 1),
    "exactly-once": lambda r: dict(
        durable={**r.durable, "ownership": {"mrom:g": 2}}
    ),
    "single-owner": lambda r: dict(single_owner=False),
    "converged": lambda r: dict(converged=False),
}
SHARED = ("unresolved", "accounting", "lost-updates")
CASES = [
    *[("load", name) for name in SHARED],
    *[("durable", name) for name in SHARED + ("exactly-once",)],
    *[("cluster", name) for name in SHARED + ("single-owner", "converged")],
]


def flipped(report, name: str):
    return replace(report, **FLIPS[name](report))


@pytest.mark.parametrize("world", ["load", "durable", "cluster"])
def test_clean_reports_have_no_violations(reports, world):
    assert reports[world].violations() == {}


@pytest.mark.parametrize(("world", "name"), CASES)
def test_each_flip_yields_exactly_one_named_violation(reports, world, name):
    assert list(flipped(reports[world], name).violations()) == [name]


def test_an_owner_violation_count_alone_breaks_single_owner(reports):
    report = replace(reports["cluster"], owner_violations=1)
    assert list(report.violations()) == ["single-owner"]


def stale_failure(report):
    """One request ended in a typed stale lease; accounting still holds."""
    return replace(
        report, ok=report.ok - 1, failed=report.failed + 1,
        errors={"StaleLeaseError": 1},
    )


#: (argv, runner the command calls, report world, flip) -> exit status
VERDICTS = [
    (["load"], "run_load_scenario", "load", None, 0),
    *[(["load"], "run_load_scenario", "load", name, 1) for name in SHARED],
    (["cluster"], "run_cluster_scenario", "cluster", None, 0),
    (["cluster"], "run_cluster_scenario", "cluster", "converged", 1),
    (["cluster"], "run_cluster_scenario", "cluster", "single-owner", 1),
    (["cluster"], "run_cluster_scenario", "cluster", stale_failure, 1),
    (["cluster", "--soak"], "run_cluster_soak", "cluster", None, 0),
    (["cluster", "--soak"], "run_cluster_soak", "cluster", "lost-updates", 1),
    (["cluster", "--soak"], "run_cluster_soak", "cluster", stale_failure, 0),
    (["recover", "--selftest"], "run_soak_scenario", "durable", None, 0),
    *[(["recover", "--selftest"], "run_soak_scenario", "durable", name, 1)
      for name in SHARED + ("exactly-once",)],
]


def verdict_id(row) -> str:
    argv, _runner, _world, flip, status = row
    flip_name = getattr(flip, "__name__", flip) or "clean"
    return f"{' '.join(argv)}:{flip_name}->{status}"


@pytest.mark.parametrize(
    ("argv", "runner", "world", "flip", "status"), VERDICTS,
    ids=[verdict_id(row) for row in VERDICTS],
)
def test_cli_exit_status_on_a_given_report(
    reports, monkeypatch, capsys, argv, runner, world, flip, status
):
    report = reports[world]
    if isinstance(flip, str):
        report = flipped(report, flip)
    elif flip is not None:
        report = flip(report)
    monkeypatch.setattr(repro.load, runner, lambda *args, **kwargs: report)
    assert main(argv) == status
    capsys.readouterr()


def test_recover_selftest_needs_its_restarts(reports, monkeypatch, capsys):
    report = replace(
        reports["durable"], durable={**reports["durable"].durable, "restarts": 2}
    )
    monkeypatch.setattr(repro.load, "run_soak_scenario", lambda config: report)
    assert main(["recover", "--selftest"]) == 1
    assert "2/3 crash-restart cycles" in capsys.readouterr().out


@pytest.mark.parametrize("moves", [-1, -2])
def test_procs_config_rejects_negative_moves_before_forking(moves):
    with pytest.raises(ValueError, match="moves"):
        ClusterProcsConfig(moves=moves)
