"""Regression tests for :class:`InvocationCache` accounting.

The compiled table is bounded and its accounting is closed: every
closure ever stored is live or counted in ``compiled_discards``. Pinned
here:

* ``reset()`` counts an invalidation exactly when it drops a non-empty
  table, so migration-install resets are visible in :meth:`stats` and a
  cold reset is silent;
* the ``fastpath.compiled.discards`` telemetry counter used to be bumped
  only at dispatch-time discards, so resets and cap evictions left it
  behind ``compiled_discards``; both are now bumped at the cache's own
  discard points;
* the compiled tier's reason to exist: a warm closure serves a repeated
  call at least ``MIN_COMPILE_SPEEDUP`` times faster than the
  interpreted path.
"""

from __future__ import annotations

import pytest

from repro.core import (
    AccessControlList,
    MROMObject,
    Permission,
    Principal,
    allow_all,
)
from repro.core.fastpath import InvocationCache
from repro.telemetry import Telemetry, enabled

from ..conftest import best_time_per_call

pytestmark = [pytest.mark.fastpath, pytest.mark.compile]

OWNER = Principal("mrom://cache/owner", "cache", "owner")


def store(cache: InvocationCache, *names: str) -> None:
    for name in names:
        cache.store_compiled(("g", "d", name), lambda caller, args, hit=True: None)


class TestResetAccounting:
    def test_reset_counts_only_nonempty_drops(self):
        cache = InvocationCache()
        assert not cache.reset(), "a cold reset is silent"
        assert cache.invalidations == 0
        store(cache, "m")
        assert cache.reset(), "a warm reset drops and counts"
        assert cache.invalidations == 1
        assert not cache.reset()
        assert cache.invalidations == 1

    def test_reset_discards_compiled_closures(self):
        cache = InvocationCache()
        store(cache, "m")
        assert cache.reset()
        assert cache.compiled_entries == 0
        assert cache.compiled_discards == 1


class TestCompiledTableBounds:
    def test_store_evicts_oldest_at_cap(self):
        cache = InvocationCache()
        for index in range(cache.COMPILED_CAP + 3):
            cache.store_compiled(("g", "d", f"m{index}"), lambda c, a: index)
        assert cache.compiled_entries == cache.COMPILED_CAP
        assert cache.compiled_discards == 3
        assert ("g", "d", "m0") not in cache.compiled, "oldest evicted first"
        assert ("g", "d", f"m{cache.COMPILED_CAP + 2}") in cache.compiled

    def test_discard_is_idempotent(self):
        cache = InvocationCache()
        store(cache, "m")
        cache.discard_compiled(("g", "d", "m"))
        cache.discard_compiled(("g", "d", "m"))
        assert cache.compiled_discards == 1

    def test_accounting_stays_closed(self):
        """Every closure ever stored is live or counted discarded."""
        cache = InvocationCache()
        store(cache, *(f"m{index}" for index in range(10)))
        cache.discard_compiled(("g", "d", "m4"))
        assert cache.compiled_entries == cache.compiles - cache.compiled_discards
        cache.reset()
        assert cache.compiled_entries == cache.compiles - cache.compiled_discards


def build_subject() -> MROMObject:
    obj = MROMObject(
        display_name="subject", owner=OWNER, meta_acl=allow_all(),
    )
    obj.define_fixed_data("base", 10)
    obj.define_fixed_method("get_base", "return self.get('base')")
    obj.seal()
    return obj


class TestLiveObjectAccounting:
    def test_fresh_object_first_invoke_counts_no_invalidation(self):
        """The first call compiles from a cold cache: nothing was cached,
        so nothing was invalidated."""
        obj = build_subject()
        assert obj.invoke("get_base", caller=OWNER) == 10
        assert obj.fastpath.compiles == 1
        assert obj.fastpath.invalidations == 0

    def test_mutation_counts_exactly_one_invalidation(self):
        obj = build_subject()
        obj.invoke("get_base", caller=OWNER)  # compiles
        obj.invoke("addDataItem", ["scratch", 1], caller=OWNER)
        obj.invoke("get_base", caller=OWNER)  # stale: discard, recompile
        assert obj.fastpath.invalidations == 1
        assert obj.fastpath.compiles == 2

    def test_fastpath_reset_counts_when_warm_only(self):
        obj = build_subject()
        obj.fastpath_reset()  # cold: nothing to drop
        assert obj.fastpath.invalidations == 0
        obj.invoke("get_base", caller=OWNER)
        obj.fastpath_reset()
        assert obj.fastpath.invalidations == 1

    def test_disable_drops_closures(self):
        obj = build_subject()
        obj.invoke("get_base", caller=OWNER)
        obj.enable_fastpath(False)
        assert obj.fastpath is None
        assert obj.invoke("get_base", caller=OWNER) == 10
        obj.enable_fastpath(True)
        assert obj.fastpath.compiled_entries == obj.fastpath.compiles == 0

    def test_discard_counter_matches_attribute(self):
        """``fastpath.compiled.discards`` and ``compiled_discards`` agree
        after a dispatch discard, a cap eviction and a reset."""
        obj = build_subject()
        cache = obj.fastpath
        with enabled(Telemetry()) as tel:
            def agree() -> None:
                counter = tel.metrics.counter_value("fastpath.compiled.discards")
                assert counter == cache.compiled_discards

            obj.invoke("get_base", caller=OWNER)
            obj.invoke("addDataItem", ["scratch", 1], caller=OWNER)
            obj.invoke("get_base", caller=OWNER)  # dispatch discard
            assert cache.compiled_discards == 1
            agree()
            store(cache, *(f"m{index}" for index in range(cache.COMPILED_CAP)))
            assert cache.compiled_discards == 2  # cap eviction
            agree()
            obj.fastpath_reset()
            assert cache.compiled_discards == 2 + cache.COMPILED_CAP
            agree()
            assert (
                tel.metrics.counter_value("fastpath.invalidations")
                == cache.invalidations == 2
            )


#: compiled over interpreted, best of 3 (measured 16-17x on 2 vCPUs)
MIN_COMPILE_SPEEDUP = 6.0
CALLER = Principal("mrom://cache/caller", "cache", "caller")


def build_worker(fastpath: bool, acl_entries: int = 16) -> MROMObject:
    """A worker whose hot method sits behind a 16-entry ACL: the modest
    HADAS-style policy the closure pins away, not a strawman."""
    obj = MROMObject(
        guid="mrom:obj:worker", domain="cache", display_name="worker",
        fastpath=fastpath,
    )
    acl = AccessControlList()
    for index in range(acl_entries):
        acl.grant(f"mrom://cache/member{index}", Permission.INVOKE)
    acl.grant(CALLER.guid, Permission.INVOKE)
    obj.define_fixed_data("count", 0)
    obj.define_fixed_method("work", "return args[0] + 1", acl=acl)
    obj.seal()
    return obj


class TestCompiledSpeedup:
    def test_compiled_call_beats_interpreted_by_the_floor(self):
        compiled, interpreted = build_worker(True), build_worker(False)
        hot = lambda: compiled.invoke("work", [1], caller=CALLER)  # noqa: E731
        cold = lambda: interpreted.invoke("work", [1], caller=CALLER)  # noqa: E731
        hot(), hot()  # the first call compiles, the second is a hit
        assert compiled.fastpath.compiled_hits == 1, (
            "the closure must be serving before it is timed"
        )
        speedup = best_time_per_call(cold) / best_time_per_call(hot)
        assert speedup >= MIN_COMPILE_SPEEDUP, (
            f"compiled invocations sped up only {speedup:.2f}x over the "
            f"interpreted path (floor {MIN_COMPILE_SPEEDUP}x)"
        )
