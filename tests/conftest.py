"""Shared fixtures for the MROM reproduction test suite."""

from __future__ import annotations

import gc
import time
from typing import Callable

import pytest

from repro.core import (
    AccessControlList,
    MROMObject,
    Principal,
    allow_all,
)


@pytest.fixture
def alice() -> Principal:
    return Principal("mrom:obj:alice", "technion.ee", "alice")


@pytest.fixture
def bob() -> Principal:
    return Principal("mrom:obj:bob", "technion.cs", "bob")


@pytest.fixture
def mallory() -> Principal:
    return Principal("mrom:obj:mallory", "evil.example", "mallory")


def build_counter(
    owner: Principal | None = None,
    extensible_meta: bool = False,
    meta_acl: AccessControlList | None = None,
) -> MROMObject:
    """A counter object used across many tests.

    Fixed: data 'count', methods 'increment' and 'peek'.
    """
    obj = MROMObject(
        display_name="counter",
        owner=owner,
        extensible_meta=extensible_meta,
        meta_acl=meta_acl,
    )
    obj.define_fixed_data("count", 0)
    obj.define_fixed_method(
        "increment",
        "step = args[0] if args else 1\n"
        "self.set('count', self.get('count') + step)\n"
        "return self.get('count')",
    )
    obj.define_fixed_method("peek", "return self.get('count')")
    obj.seal()
    return obj


@pytest.fixture
def counter() -> MROMObject:
    return build_counter()


@pytest.fixture
def open_meta_counter(alice: Principal) -> MROMObject:
    """A counter owned by alice, with extensible meta-methods whose ACL
    admits everyone (for tower tests that are not about security)."""
    return build_counter(
        owner=alice,
        extensible_meta=True,
        meta_acl=allow_all(),
    )


@pytest.fixture
def owned_counter(alice: Principal) -> MROMObject:
    """A counter owned by alice with the default owner-only meta ACL."""
    return build_counter(owner=alice, extensible_meta=True)


def grant_invoke(acl_description: dict) -> dict:
    """Helper making an allow-all ACL description for added methods."""
    return acl_description


def make_site_world(
    seed: int = 0,
    names: tuple[str, ...] = ("a", "b"),
    domain: str = "dom.{name}",
    topology: str = "mesh",
):
    """The site factory shared by the load, recovery and cluster suites.

    Builds ``Network(Simulator(seed))`` plus one :class:`Site` per name
    (sites self-register, which creates their topology nodes) and wires
    them with LAN links — a full ``mesh`` or a linear ``chain``.
    Returns ``(network, sites)`` with ``sites`` keyed by site id.
    """
    from repro.net import LAN, Network, Site
    from repro.sim import Simulator

    network = Network(Simulator(seed))
    sites = {
        name: Site(network, name, domain.format(name=name)) for name in names
    }
    if topology == "mesh":
        pairs = [
            (left, right)
            for left in names for right in names if left < right
        ]
    elif topology == "chain":
        pairs = list(zip(names, names[1:]))
    else:
        raise ValueError(f"unknown topology {topology!r}")
    for left, right in pairs:
        network.topology.connect(left, right, *LAN)
    return network, sites


@pytest.fixture
def site_world():
    """Factory fixture over :func:`make_site_world`."""
    return make_site_world


def best_time_per_call(
    fn: Callable[[], object], trials: int = 3, min_time: float = 0.1
) -> float:
    """Best-of-*trials* mean seconds per call of *fn*.

    Each trial collects garbage first, then calls *fn* for at least
    *min_time* seconds (and at least five times). The minimum sheds the
    scheduler noise of a shared machine; the timing floors that use it
    sit several times below their measured ratios.
    """
    fn()  # warm-up: compile portable code, populate caches
    best = float("inf")
    for _ in range(trials):
        gc.collect()
        calls = 0
        start = time.perf_counter()
        while True:
            fn()
            calls += 1
            elapsed = time.perf_counter() - start
            if elapsed >= min_time and calls >= 5:
                break
        best = min(best, elapsed / calls)
    return best


def interleaved_speedup(
    slow: Callable[[], object],
    fast: Callable[[], object],
    rounds: int = 100,
    slow_batch: int = 100,
    fast_batch: int = 500,
) -> float:
    """Per-call time of *slow* over that of *fast*, timed in alternation.

    Each round times one batch of *slow* calls, then one batch of *fast*
    calls, with the collector off; the ratio is of each side's fastest
    batch. A shared machine whose speed changes during the measurement
    slows both sides' batches alike, where two back-to-back best-of-N
    timings could each see a different machine.
    """
    slow(), fast()  # warm-up: compile portable code, populate caches
    clock = time.perf_counter
    best_slow = best_fast = float("inf")
    gc.collect()
    gc.disable()
    try:
        for _ in range(rounds):
            start = clock()
            for _ in range(slow_batch):
                slow()
            middle = clock()
            for _ in range(fast_batch):
                fast()
            end = clock()
            best_slow = min(best_slow, (middle - start) / slow_batch)
            best_fast = min(best_fast, (end - middle) / fast_batch)
    finally:
        gc.enable()
    return best_slow / best_fast


def cyclic_garbage(fn: Callable[[], object]) -> list:
    """The objects that calling *fn* leaves for the cyclic collector.

    Collects first, then calls *fn* and collects again under
    ``gc.DEBUG_SAVEALL``, so everything only the collector could free —
    in that final pass or in any pass during the call — is kept and
    returned instead of freed. The collector's debug flags and
    ``gc.garbage`` are restored afterwards. Memory that reference
    counting frees never shows up.
    """
    flags = gc.get_debug()
    gc.collect()
    start = len(gc.garbage)
    gc.set_debug(flags | gc.DEBUG_SAVEALL)
    try:
        fn()
        gc.collect()
        return gc.garbage[start:]
    finally:
        del gc.garbage[start:]
        gc.set_debug(flags)


__all__ = [
    "best_time_per_call",
    "build_counter",
    "cyclic_garbage",
    "interleaved_speedup",
    "make_site_world",
]
