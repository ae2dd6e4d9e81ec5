"""The canonical chaos scenario and the ``repro chaos`` command."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.faults import run_chaos_scenario


@pytest.mark.chaos
class TestScenario:
    def test_default_run_holds_the_invariants(self):
        report = run_chaos_scenario(seed=0)
        assert report.ok
        assert report.live_copies == 1
        assert report.stray_objects == 0
        assert report.unresolved == 0

    def test_every_fault_family_actually_fires(self):
        report = run_chaos_scenario(seed=0)
        assert report.faults.get("crash", 0) >= 1
        assert report.faults.get("flap", 0) >= 1
        assert report.faults.get("drop", 0) + report.faults.get(
            "duplicate", 0
        ) >= 1

    def test_same_seed_bit_for_bit(self):
        first = run_chaos_scenario(seed=7)
        second = run_chaos_scenario(seed=7)
        assert first.to_lines() == second.to_lines()
        assert first.trace_digest == second.trace_digest

    def test_different_seeds_differ(self):
        first = run_chaos_scenario(seed=7)
        second = run_chaos_scenario(seed=8)
        assert first.trace_digest != second.trace_digest
        assert first.itinerary != second.itinerary  # the route is seeded too

    def test_fault_free_run_is_clean(self):
        report = run_chaos_scenario(
            seed=7, drop=0, dup=0, reorder=0, jitter=0, flap=False, crash=False
        )
        assert report.ok and report.completed
        assert report.faults == {}
        assert report.messages["dropped"] == 0
        assert report.messages["duplicated"] == 0

    def test_observations_cover_the_itinerary(self):
        report = run_chaos_scenario(seed=0)
        assert report.observations is not None
        assert [stop for stop, _ in report.observations] == list(
            report.itinerary
        )


@pytest.mark.chaos
class TestChaosCli:
    def test_cli_output_is_reproducible(self, capsys):
        assert main(["chaos", "--seed", "13"]) == 0
        first = capsys.readouterr().out
        assert main(["chaos", "--seed", "13"]) == 0
        second = capsys.readouterr().out
        assert first == second
        assert first.startswith("chaos seed 13: OK")

    def test_cli_flags_shape_the_run(self, capsys):
        assert (
            main(
                [
                    "chaos", "--seed", "3", "--sites", "4", "--passes", "1",
                    "--drop", "0.2", "--no-flap", "--no-crash",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "site3" in out and "site4" not in out
        assert "fault crash" not in out
        assert "fault flap" not in out
