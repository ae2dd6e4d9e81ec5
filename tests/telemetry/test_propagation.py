"""One trace id across a remote invocation and a migration hop.

These tests run :func:`repro.telemetry.scenario.run_traced_scenario` —
the same workload the ``repro trace`` CLI exports — and pin down the
acceptance shape: a single trace spanning client RMI, server-side
serving, the two-phase handoff (PREPARE/COMMIT) and the receiver's
install, with injected faults attributed to the scenario by name and
sequence number.
"""

from __future__ import annotations

import pytest

from repro import probes
from repro.telemetry import span_lines, validate_span_lines
from repro.telemetry.scenario import run_traced_scenario

pytestmark = pytest.mark.telemetry


@pytest.fixture(scope="module")
def report():
    return run_traced_scenario(seed=0)


def spans_named(report, name):
    return [s for s in report.telemetry.recorder if s.name == name]


def the_span(report, name):
    matches = spans_named(report, name)
    assert len(matches) == 1, f"expected exactly one {name!r} span"
    return matches[0]


class TestWorkload:
    def test_the_workload_itself_is_correct(self, report):
        assert report.remote_result == 41
        assert report.migrated_to == "gamma"
        assert report.final_count == 41

    def test_the_faults_actually_fired(self, report):
        assert report.faults == {"drop": 1, "duplicate": 1}

    def test_the_global_switch_is_restored(self, report):
        # enabled() is scoped: the scenario never leaks an active plane
        assert probes.ACTIVE is None


class TestSingleTrace:
    def test_every_span_shares_the_root_trace_id(self, report):
        recorder = report.telemetry.recorder
        assert len(recorder) > 0
        assert {s.trace_id for s in recorder} == {report.trace_id}

    def test_the_trace_covers_rmi_and_migration(self, report):
        names = {s.name for s in report.telemetry.recorder}
        assert {
            "scenario",
            "rmi.invoke",
            "serve.invoke",
            "transfer.handoff",
            "serve.transfer.prepare",
            "transfer.install",
        } <= names

    def test_no_span_is_left_open_and_none_is_orphaned(self, report):
        recorder = report.telemetry.recorder
        assert report.telemetry.open_spans == 0
        assert all(s.ended for s in recorder)
        known = {s.span_id for s in recorder}
        for span in recorder:
            assert span.parent_id is None or span.parent_id in known

    def test_the_export_validates_against_the_schema(self, report):
        lines = "\n".join(span_lines(report.telemetry.recorder))
        assert validate_span_lines(lines) == []


class TestStitching:
    def test_server_span_parents_to_the_client_rmi_span(self, report):
        client = the_span(report, "rmi.invoke")
        server = the_span(report, "serve.invoke")
        assert server.parent_id == client.span_id

    def test_install_parents_to_the_handoff_journey_stamp(self, report):
        handoff = the_span(report, "transfer.handoff")
        install = the_span(report, "transfer.install")
        assert install.parent_id == handoff.span_id

    def test_handoff_records_prepare_then_commit(self, report):
        handoff = the_span(report, "transfer.handoff")
        phases = [e.name for e in handoff.events if e.name.isupper()]
        assert phases == ["PREPARE", "COMMIT"]
        assert handoff.status == "ok"
        assert handoff.attrs["mode"] == "move"
        assert handoff.attrs["dst"] == "gamma"

    def test_the_retry_rides_the_same_client_span(self, report):
        client = the_span(report, "rmi.invoke")
        events = [e.name for e in client.events]
        assert "rmi.timeout" in events  # the dropped first attempt
        assert "rmi.retry" in events  # the second attempt that landed


class TestFaultAttribution:
    def test_fault_events_carry_scenario_name_and_sequence(self, report):
        faults = [
            event
            for span in report.telemetry.recorder
            for event in span.events
            if event.name == "fault"
        ]
        assert len(faults) == 2
        assert {e.attrs["scenario"] for e in faults} == {"trace-0"}
        assert sorted(e.attrs["seq"] for e in faults) == [1, 2]
        assert sorted(e.attrs["label"] for e in faults) == [
            "drop", "duplicate",
        ]

    def test_the_plane_keeps_matching_structured_records(self, report):
        records = report.plane.injections
        assert [r.seq for r in records] == [1, 2]
        assert all(r.scenario == "trace-0" for r in records)


class TestMetrics:
    def test_the_acceptance_counters(self, report):
        metrics = report.telemetry.metrics
        assert metrics.counter_value("invocations") >= 1
        assert metrics.counter_value("rmi.retries") >= 1
        assert metrics.counter_value("rmi.dedup_hits") >= 1
        assert metrics.counter_value("faults.injected") == 2
        assert metrics.counter_value("migrations") == 1
        assert metrics.counter_value("installs") == 1


class TestDeterminism:
    def test_same_seed_same_trace(self, report):
        again = run_traced_scenario(seed=0)
        assert again.summary() == report.summary()
        assert [s.span_id for s in again.telemetry.recorder] == [
            s.span_id for s in report.telemetry.recorder
        ]
