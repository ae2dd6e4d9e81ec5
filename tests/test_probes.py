"""The probe switch with both observer planes on at once.

Telemetry and the happens-before sanitizer subscribe to the same named
points (:mod:`repro.probes`). With both attached every point fans out
to each plane in turn, and neither plane may see the other: each
records exactly what it records alone, and switching one off leaves the
other recording.
"""

from __future__ import annotations

import pytest

from repro import probes
from repro.analysis import sanitizer as hb
from repro.core import allow_all
from repro.mobility import MobilityManager
from repro.net import LAN, Network, Site
from repro.sim import Simulator
from repro.telemetry import Telemetry, disable, enable

from .telemetry.capture import span_line

RMW_BODY = "self.set('n', self.get('n') + 1)\nreturn self.get('n')"


@pytest.fixture(autouse=True)
def planes_off():
    disable()
    hb.disable()
    yield
    disable()
    hb.disable()


def build_world():
    network = Network(Simulator(7))
    sites = {name: Site(network, name, f"dom.{name}") for name in ("a", "b", "c")}
    managers = {name: MobilityManager(site) for name, site in sites.items()}
    for left, right in (("a", "b"), ("a", "c"), ("b", "c")):
        network.topology.connect(left, right, *LAN)
    counter = sites["b"].create_object(display_name="counter")
    counter.define_fixed_data("n", 0)
    counter.define_fixed_method("bump", RMW_BODY, acl=allow_all())
    counter.seal()
    sites["b"].register_object(counter)
    return sites, managers, counter


def drive(sites, managers, counter) -> list:
    """A blocking invoke, an async invoke, a batch and a migration."""
    a = sites["a"]
    results = [a.remote_invoke("b", counter.guid, "bump", [])]
    results.append(a.wait(a.remote_invoke_async("b", counter.guid, "bump", [])))
    with a.batch("b") as batch:
        futures = [batch.invoke(counter.guid, "bump") for _ in range(2)]
    results.extend(future.result() for future in futures)
    managers["b"].migrate(counter, "c")
    results.append(a.remote_invoke("c", counter.guid, "bump", []))
    return results


def run(telemetry: bool, sanitizer: bool) -> dict:
    world = build_world()
    tel = enable(Telemetry()) if telemetry else None
    san = hb.enable() if sanitizer else None
    if san is not None:
        san.push(san.fork("driver", parent=None))
    try:
        results = drive(*world)
    finally:
        if san is not None:
            san.pop()
        disable()
        hb.disable()
    out = {"results": results}
    if tel is not None:
        out["spans"] = [span_line(span) for span in tel.recorder]
        out["metrics"] = tel.metrics.snapshot()
        out["events"] = [event.to_mapping() for event in tel.events]
    if san is not None:
        out["sanitizer"] = {
            "counts": (san.tasks_created, san.access_count, san.send_count,
                       san.sync_count),
            "races": list(san.races),
            "cycles": list(san.cycles),
        }
    return out


def test_each_plane_records_what_it_records_alone():
    both = run(telemetry=True, sanitizer=True)
    alone = run(telemetry=True, sanitizer=False)
    assert both["results"] == alone["results"] == [1, 2, 3, 4, 5]
    assert both["spans"] and both["spans"] == alone["spans"]
    assert both["metrics"] == alone["metrics"]
    assert both["events"] == alone["events"]
    sanitized = run(telemetry=False, sanitizer=True)
    assert both["sanitizer"] == sanitized["sanitizer"]
    assert all(both["sanitizer"]["counts"])


def test_both_planes_fan_out_and_detach_cleanly():
    sites, managers, counter = build_world()
    tel = enable(Telemetry())
    san = hb.enable()
    assert probes.planes() == (tel, san)
    san.push(san.fork("driver", parent=None))
    a = sites["a"]

    def bump():
        a.remote_invoke("b", counter.guid, "bump", [])

    def counts():
        return len(tel.recorder), san.access_count, san.send_count

    try:
        bump()
        spans, accesses, sends = counts()
        assert spans and accesses and sends
        # telemetry off: the sanitizer alone is the switch, and records on
        assert disable() is tel
        assert probes.ACTIVE is san
        bump()
        assert len(tel.recorder) == spans
        assert san.access_count > accesses and san.send_count > sends
        # and the other way round
        enable(tel)
        assert hb.disable() is san
        assert probes.ACTIVE is tel
        _, accesses, sends = counts()
        bump()
        assert len(tel.recorder) > spans
        assert (san.access_count, san.send_count) == (accesses, sends)
    finally:
        san.pop()
    disable()
    assert probes.ACTIVE is None
