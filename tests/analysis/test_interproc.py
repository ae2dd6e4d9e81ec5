"""The interprocedural layer: call graphs, wait-for cycles, dedupe."""

import textwrap

import pytest

from repro.analysis.callgraph import scan_host
from repro.analysis.deadlock import analyze_host_source
from repro.analysis.diagnostics import Diagnostic, Severity, dedupe
from repro.analysis.interproc import analyze_paths

pytestmark = pytest.mark.analysis


HOST_TOPOLOGY = textwrap.dedent(
    """
    from repro.net import Network, Site
    from repro.mobility import MobilityManager

    net = Network()
    a = Site(net, "alpha")
    b = Site(net, "beta")
    a.inflight_limit = 2
    manager = MobilityManager(a)

    a.request("beta", "ping", {})
    b.remote_invoke_async("alpha", "guid", "m", [])
    manager.migrate(agent, "beta")
    """
)


class TestHostScan:
    def test_sites_windows_and_edge_kinds(self):
        scan = scan_host(HOST_TOPOLOGY)
        assert scan.sites == {"a": "alpha", "b": "beta"}
        assert scan.windows == {"alpha": 2}
        assert scan.managers == {"manager": "alpha"}
        kinds = {(e.src, e.dst, e.kind) for e in scan.graph.edges}
        assert kinds == {
            ("site:alpha", "site:beta", "rmi"),
            ("site:beta", "site:alpha", "rmi_async"),
            ("site:alpha", "site:beta", "migrate"),
        }

    def test_every_async_verb_is_an_async_edge(self):
        scan = scan_host(textwrap.dedent(
            """
            a = Site(net, "alpha")
            a.request_async("beta", "ping", {})
            a.remote_invoke_async("beta", "guid", "m", [])
            a.remote_get_data_async("beta", "guid", "x")
            a.remote_describe_async("beta", "guid")
            """
        ))
        assert [(e.line, e.kind) for e in scan.graph.edges] == [
            (3, "rmi_async"), (4, "rmi_async"), (5, "rmi_async"),
            (6, "rmi_async"),
        ]

    def test_dynamic_destinations_are_skipped(self):
        scan = scan_host(
            "a = Site(net, 'alpha')\na.request(pick_one(), 'ping', {})\n"
        )
        assert scan.graph.edges == []


class TestHostCycles:
    def test_cycle_reported_at_closing_edge_only(self):
        source = textwrap.dedent(
            """
            a = Site(net, "alpha")
            b = Site(net, "beta")
            a.request("beta", "ping", {})
            b.request("alpha", "ping", {})
            """
        )
        findings = analyze_host_source(source)
        assert [d.rule for d in findings] == ["cycle.await"]
        assert findings[0].line == 5
        assert findings[0].extra["sites"] == ["alpha", "beta"]

    def test_admission_cycle_needs_every_window(self):
        base = textwrap.dedent(
            """
            a = Site(net, "alpha")
            b = Site(net, "beta")
            {windows}
            a.request("beta", "ping", {{}})
            b.request("alpha", "ping", {{}})
            """
        )
        one = analyze_host_source(
            base.format(windows="a.inflight_limit = 1")
        )
        assert {d.rule for d in one} == {"cycle.await"}
        both = analyze_host_source(base.format(
            windows="a.inflight_limit = 1\nb.inflight_limit = 1"
        ))
        assert {d.rule for d in both} == {"cycle.await", "cycle.admission"}

    def test_same_cycle_is_reported_once(self):
        source = textwrap.dedent(
            """
            a = Site(net, "alpha")
            b = Site(net, "beta")
            a.request("beta", "ping", {})
            b.request("alpha", "ping", {})
            b.request("alpha", "ping", {})
            """
        )
        findings = analyze_host_source(source)
        assert [d.rule for d in findings] == ["cycle.await"]


def _diag(rule="race.lost-update", source="f.mpl", line=4, column=1):
    return Diagnostic(
        rule=rule, severity=Severity.WARNING, message="m",
        source=source, line=line, column=column,
    )


class TestDedupe:
    def test_same_rule_file_line_collapses(self):
        first = _diag(column=1)
        echo = _diag(column=9)  # column differences do not split findings
        assert dedupe([first, echo, _diag(line=5)]) == [
            first, _diag(line=5)
        ]

    def test_first_occurrence_wins_and_order_is_stable(self):
        a, b = _diag(rule="race.read-write"), _diag(rule="race.write-write")
        assert dedupe([a, b, a]) == [a, b]

    def test_analyzing_the_same_path_twice_reports_once(self, tmp_path):
        hazard = tmp_path / "dup.mpl"
        hazard.write_text(
            "object o {\n"
            "  data n = 0\n"
            "  method bump() {\n"
            "    n = n + 1\n"
            "  }\n"
            "}\n"
        )
        once = analyze_paths([hazard])
        twice = analyze_paths([hazard, hazard])
        assert [d.rule for d in once] == ["race.lost-update"]
        assert twice == once
