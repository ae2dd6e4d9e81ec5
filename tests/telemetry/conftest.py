"""Shared scaffolding for the telemetry suite."""

from __future__ import annotations

import pytest

from repro.net import LAN, Network, RetryPolicy, Site
from repro.sim import Simulator
from repro.telemetry import disable, enable

#: quick enough for faulted tests, patient enough to ride one drop
FAST = RetryPolicy(attempts=3, timeout=0.5, backoff=0.05, multiplier=2.0)


@pytest.fixture(autouse=True)
def isolated_telemetry():
    """Every test starts and ends with the plane off — no capture leaks
    between tests, and no test depends on another having enabled it."""
    previous = disable()
    yield
    disable()
    if previous is not None:
        enable(previous)


def make_sites(
    seed: int = 0, names: tuple[str, ...] = ("a", "b", "c")
) -> tuple[Network, dict[str, Site]]:
    network = Network(Simulator(seed))
    sites = {name: Site(network, name, f"dom.{name}") for name in names}
    for name in names:
        sites[name].retry_policy = FAST
    for left, right in zip(names, names[1:]):
        network.topology.connect(left, right, *LAN)
    return network, sites
