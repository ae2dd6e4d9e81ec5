"""Chaos: the trace stays coherent while the network misbehaves.

Two fronts. Duplicated/reordered/dropped RMI must still produce a
single, schema-valid trace per request with every span ended and
parented. An aborted two-phase migration — refused by admission, or
unresolved and later vetoed by reconciliation — must close its spans
with honest statuses instead of leaving orphans behind.
"""

from __future__ import annotations

import pytest

from repro.core.errors import (
    PolicyViolationError,
    RemoteInvocationError,
    TransferUnresolvedError,
)
from repro.faults import (
    DropInjector,
    DuplicateInjector,
    FaultPlane,
    ReorderInjector,
)
from repro.mobility import MobilityManager
from repro.telemetry import Telemetry, enabled, span_lines, validate_span_lines

from .conftest import FAST, make_sites

pytestmark = [pytest.mark.telemetry, pytest.mark.chaos]


def make_counter(site):
    counter = site.create_object(display_name="chaos-counter")
    counter.define_fixed_data("count", 0)
    counter.define_fixed_method(
        "add",
        "n = self.get('count') + (args[0] if args else 1)\n"
        "self.set('count', n)\n"
        "return n",
    )
    counter.seal()
    site.register_object(counter)
    return counter


def make_traveller(site):
    obj = site.create_object(display_name="traveller", owner=site.principal)
    obj.seal()
    site.register_object(obj)
    return obj


def assert_trace_is_clean(tel):
    """No open spans, no orphans, and a schema-valid export."""
    assert tel.open_spans == 0
    assert all(span.ended for span in tel.recorder)
    known = {span.span_id for span in tel.recorder}
    for span in tel.recorder:
        assert span.parent_id is None or span.parent_id in known
    assert validate_span_lines("\n".join(span_lines(tel.recorder))) == []


class TestRmiChaos:
    def test_dropped_and_duplicated_invokes_keep_one_clean_trace(self):
        network, sites = make_sites(seed=3, names=("a", "b"))
        plane = FaultPlane(network, seed=3, scenario="chaos-rmi")
        plane.add(DropInjector(rate=1.0, limit=1, only_kinds={"invoke"}))
        plane.add(
            DuplicateInjector(rate=1.0, spread=0.02, limit=1,
                              only_kinds={"invoke"})
        )
        with enabled(Telemetry()) as tel:
            counter = make_counter(sites["a"])
            owner = counter.owner
            results = [
                sites["b"].remote_invoke(
                    "a", counter.guid, "add", [1], caller=owner
                )
                for _ in range(3)
            ]
            network.run()  # land the duplicate and any late replies
        assert results == [1, 2, 3]
        assert_trace_is_clean(tel)
        # each logical request is one client trace; the server spans
        # joined those traces across the wire instead of minting their own
        client_traces = {
            s.trace_id for s in tel.recorder if s.name == "rmi.invoke"
        }
        server_traces = {
            s.trace_id for s in tel.recorder if s.name == "serve.invoke"
        }
        assert len(client_traces) == 3
        assert server_traces <= client_traces
        assert tel.metrics.counter_value("rmi.retries") >= 1
        assert tel.metrics.counter_value("rmi.dedup_hits") >= 1

    def test_reordered_invokes_still_close_every_span(self):
        network, sites = make_sites(seed=4, names=("a", "b"))
        FaultPlane(network, seed=4, scenario="chaos-reorder").add(
            ReorderInjector(rate=1.0, hold=0.1, limit=2,
                            only_kinds={"invoke"})
        )
        with enabled(Telemetry()) as tel:
            counter = make_counter(sites["a"])
            owner = counter.owner
            for expected in (1, 2, 3):
                assert (
                    sites["b"].remote_invoke(
                        "a", counter.guid, "add", [1], caller=owner
                    )
                    == expected
                )
            network.run()
        assert_trace_is_clean(tel)

    def test_injections_are_attributed_in_order(self):
        network, sites = make_sites(seed=5, names=("a", "b"))
        plane = FaultPlane(network, seed=5, scenario="chaos-attr")
        plane.add(DropInjector(rate=1.0, limit=2, only_kinds={"invoke"}))
        with enabled(Telemetry()) as tel:
            counter = make_counter(sites["a"])
            sites["b"].remote_invoke(
                "a", counter.guid, "add", [1], caller=counter.owner
            )
        assert [r.seq for r in plane.injections] == [1, 2]
        assert {r.scenario for r in plane.injections} == {"chaos-attr"}
        assert {r.label for r in plane.injections} == {"drop"}
        assert tel.metrics.counter_value("faults.injected") == 2

    def test_the_scenario_name_defaults_to_the_seed(self):
        network, _ = make_sites(seed=7, names=("a", "b"))
        assert FaultPlane(network, seed=7).scenario == "seed:7"


class TestAbortedMigration:
    def test_unresolved_handoff_then_reconcile_abort_leaves_no_orphans(self):
        network, sites = make_sites(seed=0, names=("a", "b"))
        managers = {
            name: MobilityManager(site, retry_policy=FAST)
            for name, site in sites.items()
        }
        plane = FaultPlane(network, seed=0, scenario="chaos-abort")
        injector = plane.add(
            DropInjector(rate=1.0, only_kinds={"transfer.prepare"})
        )
        with enabled(Telemetry()) as tel:
            traveller = make_traveller(sites["a"])
            with pytest.raises(TransferUnresolvedError):
                managers["a"].migrate(traveller, "b")
            handoff = next(
                s for s in tel.recorder if s.name == "transfer.handoff"
            )
            assert handoff.status == "unresolved"
            phases = [e.name for e in handoff.events if e.name.isupper()]
            assert phases == ["PREPARE", "UNRESOLVED"]
            injector.rate = 0.0  # the weather clears
            outcomes = managers["a"].reconcile()
        assert list(outcomes.values()) == ["aborted"]
        assert sites["a"].has_object(traveller.guid)  # never left
        reconcile = next(
            s for s in tel.recorder if s.name == "transfer.reconcile"
        )
        verdicts = [
            e.attrs["outcome"]
            for e in reconcile.events
            if e.name == "reconcile.outcome"
        ]
        assert verdicts == ["aborted"]
        assert tel.metrics.counter_value("transfers.unresolved") == 1
        assert tel.metrics.counter_value("transfers.reconciled") == 1
        assert tel.metrics.counter_value("migrations") == 0
        assert_trace_is_clean(tel)

    def test_admission_refusal_aborts_the_handoff_span(self):
        network, sites = make_sites(seed=0, names=("a", "b"))

        def no_guests(package, src, resolve=None):
            raise PolicyViolationError(f"{src!r} may not send guests")

        sender = MobilityManager(sites["a"], retry_policy=FAST)
        MobilityManager(sites["b"], policy=no_guests, retry_policy=FAST)
        with enabled(Telemetry()) as tel:
            traveller = make_traveller(sites["a"])
            with pytest.raises(RemoteInvocationError):
                sender.migrate(traveller, "b")
        assert sites["a"].has_object(traveller.guid)  # refusal is atomic
        handoff = next(
            s for s in tel.recorder if s.name == "transfer.handoff"
        )
        assert handoff.status == "aborted"
        phases = [e.name for e in handoff.events if e.name.isupper()]
        assert phases == ["PREPARE", "ABORT"]
        # the refusal itself is an event on the serving span at the door
        serve = next(
            s for s in tel.recorder if s.name == "serve.transfer.prepare"
        )
        assert any(e.name == "admission.refused" for e in serve.events)
        assert tel.metrics.counter_value("admission.refusals") == 1
        assert tel.metrics.counter_value("transfers.refused") == 1
        assert tel.metrics.counter_value("installs") == 0
        assert_trace_is_clean(tel)
