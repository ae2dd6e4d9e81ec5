"""Compiled invocations: the efficient form of the level-0 primitive.

The paper makes level 0 deliberately *non-reflective* precisely so it
"can be implemented in a more efficient way" (Section 3.1). This module
holds that efficiency's state: a per-object :class:`InvocationCache`
mapping each (caller, method) pair to a specialized closure that
inlines the whole Lookup→Match→Apply pipeline with the method handle
and the ALLOW verdict pinned at compile time
(:func:`repro.core.invocation.compile_invocation`).

The first *allowed* level-0 call of a pair builds its closure and runs
through it; every later call goes straight to the closure. Denials,
unknown names and meta-methods never compile: they take the
interpreted path, which stays as the reference implementation the
differential harness compares the closures against.

Trust is versioned, never assumed. Each closure re-checks two pins on
every call — the object's structural clock, which any edit of the
method moves, and its ACL's edit version — and returns
:data:`COMPILED_STALE` when the clock moved; the dispatcher then
discards the entry and recompiles (or takes the interpreted path).
ACLs may be shared across methods and objects, so an in-place ACL edit
moves no clock and can change Match alone: a closure that pinned the
list re-runs Match on it, re-pins and serves a caller still allowed
(counted as a rebuild, :meth:`InvocationCache.rematched`), and answers
``COMPILED_STALE`` for one now denied. Closures are
dropped by ``reset()`` (migration install, restart recovery), by
``enable_fastpath(False)``, by cap eviction and by a departure
(``release()``, which counts no invalidation), and are never packaged
— a migrated object arrives cold.

The cache is on by default; per object it can be declined at
construction (``MROMObject(fastpath=False)``) or toggled with
:meth:`~repro.core.mobject.MROMObject.enable_fastpath`. Counters live
in plain attributes and, when the telemetry plane is on, in the
``fastpath.*`` counters of the active
:class:`~repro.telemetry.metrics.MetricsRegistry` (see
``docs/PERF.md``); both are bumped at the same points, so they agree.
"""

from __future__ import annotations

from typing import Callable

from .. import probes as _probes

__all__ = ["InvocationCache", "COMPILED_STALE"]

#: Sentinel a compiled closure returns when one of its pins no longer
#: holds: "this entry is stale — discard me and take the cold step".
#: A private singleton, so no method body can forge it as a result.
COMPILED_STALE = object()


class InvocationCache:
    """One object's compiled (caller, method) closures and their counters.

    ``compiled`` maps ``(caller_guid, caller_domain, method_name)`` to a
    closure that carries its pins inside itself and self-invalidates by
    returning :data:`COMPILED_STALE`. Failures (unknown names, denials)
    are never compiled.

    Accounting is closed: every closure ever stored is either live or
    counted in ``compiled_discards`` (``compiled_entries == compiles -
    compiled_discards``). ``invalidations`` counts the times cached
    state was found stale at dispatch or dropped wholesale by a reset.
    """

    __slots__ = (
        "compiled",
        "compiled_hits",
        "compiles",
        "compiled_discards",
        "invalidations",
    )

    #: upper bound on compiled closures per object — one entry per
    #: (caller, method) pair; past it the oldest entry is evicted, so a
    #: churning caller population cannot grow the table without bound
    COMPILED_CAP = 256

    def __init__(self) -> None:
        self.compiled: dict[tuple[str, str, str], Callable] = {}
        self.compiled_hits = 0
        self.compiles = 0
        self.compiled_discards = 0
        self.invalidations = 0

    def reset(self) -> bool:
        """Forget every closure and go cold (migration install, restart
        recovery). Counters survive — they describe the cache's history,
        not its contents. Returns whether anything was dropped; only a
        drop of a non-empty table counts as an invalidation."""
        table = self.compiled
        if not table:
            return False
        self._discarded(len(table))
        table.clear()
        self._invalidated()
        return True

    def release(self) -> None:
        """Empty the table for a departure. Each closure counts in
        ``compiled_discards``, so the closed form holds; a departure is
        not an invalidation, so no invalidation counts and no probe
        fires."""
        self.compiled_discards += len(self.compiled)
        self.compiled.clear()

    def store_compiled(self, key: tuple[str, str, str], fn: Callable) -> None:
        table = self.compiled
        if len(table) >= self.COMPILED_CAP:
            table.pop(next(iter(table)))  # oldest-inserted first
            self._discarded(1)
        table[key] = fn
        self.compiles += 1
        probe = _probes.ACTIVE
        if probe is not None:
            probe.count("fastpath.compiled.compiles")

    def discard_compiled(self, key: tuple[str, str, str]) -> None:
        """Drop one stale closure (its guard failed at dispatch)."""
        if self.compiled.pop(key, None) is not None:
            self._discarded(1)
            self._invalidated()

    def rematched(self, key: tuple[str, str, str]) -> None:
        """Count a closure that re-ran Match and re-pinned itself as the
        discard and rebuild it replaces, and move it to the newest end."""
        fn = self.compiled[key]
        self.discard_compiled(key)
        self.store_compiled(key, fn)

    def _discarded(self, count: int) -> None:
        self.compiled_discards += count
        probe = _probes.ACTIVE
        if probe is not None:
            probe.count("fastpath.compiled.discards", count)

    def _invalidated(self) -> None:
        self.invalidations += 1
        probe = _probes.ACTIVE
        if probe is not None:
            probe.count("fastpath.invalidations")

    @property
    def compiled_entries(self) -> int:
        return len(self.compiled)

    def stats(self) -> dict:
        """A plain-mapping snapshot (benchmarks, debugging)."""
        return {
            "compiled_hits": self.compiled_hits,
            "compiles": self.compiles,
            "compiled_discards": self.compiled_discards,
            "invalidations": self.invalidations,
            "compiled_entries": self.compiled_entries,
        }

    def __repr__(self) -> str:
        return (
            f"InvocationCache({self.compiled_entries} compiled, "
            f"{self.compiled_hits}h/{self.compiles}c/"
            f"{self.compiled_discards}d, "
            f"{self.invalidations} invalidations)"
        )
