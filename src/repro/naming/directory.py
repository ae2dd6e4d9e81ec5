"""The partitioned naming directory and its lease protocol.

Three cooperating pieces turn the hash ring into a cluster service:

* :class:`DirectoryShard` — one partition of the name→site directory,
  attached to a site as the ``dir.resolve`` / ``dir.update`` handlers.
  Entries carry a monotonically increasing *placement generation*;
  updates regressing a generation are refused, so late or replayed
  ``dir.update`` messages (duplicates, reorders, retries) cannot roll
  the directory back. Entries are soft state: a shard that loses them
  (a crash) is rebuilt from the authoritative placements via
  :meth:`ClusterManager.republish`.
* :class:`DirectoryClient` — the client half: resolves names through
  the ring-designated shard, caches the resulting :class:`Lease`, and
  invokes through it. A lease is *invalidated by evidence*, not by
  time: a serving site that has moved past the lease's generation
  refuses with a typed
  :class:`~repro.core.errors.StaleLeaseError` carrying its current
  generation (the MutationClock trick from ``core/fastpath.py`` applied
  to placement), and the client drops the lease, re-resolves and
  retries — bounded by ``max_redirects``.
* :class:`ClusterManager` — the serving half: the per-site placement
  table (name → guid, generation, active/moving), the ``cluster.*``
  handlers, and migration. A migration rides the mobility layer's
  two-phase handoff; the placement removal, the destination's adoption
  under the bumped generation, and the shard update all happen inside
  the transfer's resolution hook — the commit point — so exactly-once
  transfer and lease invalidation land atomically. At every instant at
  most one site holds an *active* placement for a name: a client can
  be told "stale", but never get a silent success from the wrong site.

Telemetry (when enabled) counts ``directory.hits`` / ``.misses`` /
``.stale`` / ``.stale_served`` / ``.updates`` / ``.stale_updates`` and
the client cache's ``directory.cache.hits`` / ``.cache.misses``; the
same tallies are kept as plain attributes so reports stay closed-form
with telemetry off.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from ..core.errors import (
    MobilityError,
    MROMError,
    NamingError,
    StaleLeaseError,
    TransferUnresolvedError,
)
from .. import probes as _probes
from ..net.transport import request_body, request_list
from .ring import HashRing

if TYPE_CHECKING:  # pragma: no cover
    from ..net.rmi import BatchFuture, RetryPolicy
    from ..net.site import Site
    from ..net.transport import Message

__all__ = ["DirectoryShard", "DirectoryClient", "Lease", "ClusterManager"]


def _generation(body: Mapping, name: str) -> int:
    """The generation a peer sent for *name*: only an exact int >= 1
    names one, never a bool, a real or text to parse."""
    generation = body.get("generation")
    if type(generation) is not int or generation < 1:
        raise NamingError(f"malformed generation for {name!r}")
    return generation


def _count(name: str) -> None:
    probe = _probes.ACTIVE
    if probe is not None:
        probe.count(name)


class DirectoryShard:
    """One partition of the name→site directory, served by one site."""

    def __init__(self, site: "Site", ring: HashRing | None = None):
        self.site = site
        self.ring = ring
        #: name -> {"guid", "site", "generation"}
        self.entries: dict[str, dict] = {}
        self.lookups = 0
        self.hits = 0
        self.misses = 0
        self.updates = 0
        self.stale_updates = 0
        site.add_handler("dir.resolve", self._handle_resolve)
        site.add_handler("dir.update", self._handle_update)

    def _handle_resolve(self, message: "Message") -> dict:
        payload = request_body(message)
        name = str(payload.get("name", ""))
        self.lookups += 1
        entry = self.entries.get(name)
        if entry is None:
            self.misses += 1
            _count("directory.misses")
            raise NamingError(
                f"directory shard {self.site.site_id!r} has no entry "
                f"for {name!r}"
            )
        self.hits += 1
        _count("directory.hits")
        return {"name": name, **entry}

    def _handle_update(self, message: "Message") -> dict:
        payload = request_body(message)
        return self.apply_update(payload)

    def apply_update(self, payload: Mapping) -> dict:
        """Apply one placement update; shared by the wire handler and
        same-site (owner == publisher) fast paths."""
        name = str(payload.get("name", ""))
        guid = str(payload.get("guid", ""))
        site_id = str(payload.get("site", ""))
        if not name or not guid or not site_id:
            raise NamingError(f"malformed directory update for {name!r}")
        generation = _generation(payload, name)
        current = self.entries.get(name)
        if current is not None and generation < current["generation"]:
            # a replayed or out-of-order update from an older move: the
            # entry has already advanced past it — monotonic generations
            # are the whole invalidation story, never regress
            self.stale_updates += 1
            _count("directory.stale_updates")
            return {"applied": False, "generation": current["generation"]}
        self.entries[name] = {
            "guid": guid, "site": site_id, "generation": generation,
        }
        self.updates += 1
        _count("directory.updates")
        return {"applied": True, "generation": generation}

    def forget(self) -> None:
        """Drop every entry — the shard-crash model. The directory is
        soft state: :meth:`ClusterManager.republish` rebuilds it from
        the placements, which remain authoritative."""
        self.entries.clear()

    def to_mapping(self) -> dict:
        return {
            "site": self.site.site_id,
            "entries": len(self.entries),
            "lookups": self.lookups,
            "hits": self.hits,
            "misses": self.misses,
            "updates": self.updates,
            "stale_updates": self.stale_updates,
        }


@dataclass(frozen=True)
class Lease:
    """A client-cached resolution: where *name* lived, at which
    placement generation. Never expires by time — it is invalidated by
    a :class:`~repro.core.errors.StaleLeaseError` from the wire."""

    name: str
    guid: str
    site: str
    generation: int


class DirectoryClient:
    """Resolve-and-cache client over the sharded directory."""

    def __init__(
        self,
        site: "Site",
        ring: HashRing,
        retry_policy: "RetryPolicy | None" = None,
        max_redirects: int = 6,
    ):
        self.site = site
        self.ring = ring
        self.retry_policy = retry_policy
        self.max_redirects = int(max_redirects)
        self.leases: dict[str, Lease] = {}
        self.cache_hits = 0
        self.cache_misses = 0
        self.stale = 0
        self.refreshes = 0

    # -- resolution ----------------------------------------------------------

    def lease_for(self, name: str, refresh: bool = False) -> Lease:
        """The cached lease for *name*, resolving through the ring's
        shard on a miss (or unconditionally with ``refresh=True``)."""
        if not refresh:
            lease = self.leases.get(name)
            if lease is not None:
                self.cache_hits += 1
                _count("directory.cache.hits")
                return lease
        self.cache_misses += 1
        _count("directory.cache.misses")
        reply = self.site.request(
            self.ring.owner(name), "dir.resolve", {"name": name},
            policy=self.retry_policy,
        )
        return self._admit(name, reply)

    def invalidate(self, name: str) -> None:
        self.leases.pop(name, None)

    def _admit(self, name: str, reply: Any) -> Lease:
        if not isinstance(reply, Mapping):
            raise NamingError(f"malformed directory reply for {name!r}")
        lease = Lease(
            name=name,
            guid=str(reply.get("guid", "")),
            site=str(reply.get("site", "")),
            generation=_generation(reply, name),
        )
        cached = self.leases.get(name)
        if cached is None or lease.generation >= cached.generation:
            self.leases[name] = lease
        return self.leases[name]

    # -- invocation through leases -------------------------------------------

    def invoke(self, name: str, method: str, args: Sequence = (), caller=None):
        """Invoke *method* on the object behind *name* and wait for the
        result: a wait on :meth:`invoke_async`, so the blocking call
        follows stale leases exactly as the async one does."""
        return self.site.wait(self.invoke_async(name, method, args, caller))

    def invoke_async(
        self, name: str, method: str, args: Sequence = (), caller=None
    ) -> "BatchFuture":
        """The driver-shaped path: returns a future that follows stale
        redirects internally (lease → invoke → on stale: re-resolve →
        re-invoke) and settles with the final result or typed error."""
        from ..net.rmi import BatchFuture

        outer: BatchFuture = BatchFuture()
        payload = {
            "name": name,
            "method": method,
            "args": list(args),
            "caller": self.site._caller_payload(caller),
        }
        lease = self.leases.get(name)
        if lease is None:
            self._resolve_then(outer, name, payload, self.max_redirects)
        else:
            self.cache_hits += 1
            _count("directory.cache.hits")
            self._dispatch(outer, name, payload, self.max_redirects, lease)
        return outer

    def refresh_async(self, name: str) -> "BatchFuture":
        """Unconditional re-resolve — the 'describe' of the cluster mix;
        settles with the admitted :class:`Lease`."""
        from ..net.rmi import BatchFuture

        outer: BatchFuture = BatchFuture()
        self.refreshes += 1
        inner = self.site.request_async(
            self.ring.owner(name), "dir.resolve", {"name": name},
            policy=self.retry_policy,
        )

        def settled(future) -> None:
            error = future.error()
            if error is not None:
                outer._fail(error)
                return
            try:
                outer._resolve(self._admit(name, future.result()))
            except MROMError as exc:
                outer._fail(exc)

        inner.when_done(settled)
        return outer

    def _dispatch(self, outer, name, payload, redirects, lease) -> None:
        inner = self.site.request_async(
            lease.site,
            "cluster.invoke",
            {**payload, "generation": lease.generation},
            policy=self.retry_policy,
        )
        inner.when_done(
            lambda future: self._settle(outer, name, payload, redirects, future)
        )

    def _settle(self, outer, name, payload, redirects, inner) -> None:
        error = inner.error()
        if error is None:
            outer._resolve(inner.result())
            return
        if isinstance(error, StaleLeaseError):
            # the refused lease is dead whether or not budget remains
            self.stale += 1
            _count("directory.stale")
            self.invalidate(name)
            if redirects > 0:
                self._resolve_then(outer, name, payload, redirects - 1)
                return
        outer._fail(error)

    def _resolve_then(self, outer, name, payload, redirects) -> None:
        self.cache_misses += 1
        _count("directory.cache.misses")
        inner = self.site.request_async(
            self.ring.owner(name), "dir.resolve", {"name": name},
            policy=self.retry_policy,
        )

        def settled(future) -> None:
            error = future.error()
            if error is not None:
                outer._fail(error)
                return
            try:
                lease = self._admit(name, future.result())
            except MROMError as exc:
                outer._fail(exc)
                return
            self._dispatch(outer, name, payload, redirects, lease)

        inner.when_done(settled)

    def to_mapping(self) -> dict:
        return {
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "stale": self.stale,
            "refreshes": self.refreshes,
            "leases": len(self.leases),
        }


class ClusterManager:
    """Placements, the serving half of the lease protocol, and moves."""

    def __init__(
        self,
        site: "Site",
        ring: HashRing,
        mobility=None,
        retry_policy: "RetryPolicy | None" = None,
        shard: DirectoryShard | None = None,
    ):
        # lazy: the mobility package imports net.site, which imports naming
        from ..mobility import MobilityManager

        self.site = site
        self.ring = ring
        self.retry_policy = retry_policy
        self.mobility = (
            mobility if mobility is not None
            else MobilityManager(site, retry_policy=retry_policy)
        )
        self.shard = shard if shard is not None else DirectoryShard(site, ring)
        #: name -> {"guid", "generation", "state": "active" | "moving"}
        self.placements: dict[str, dict] = {}
        #: guid -> {"name", "dst", "generation"} for in-flight moves
        self._moves: dict[str, dict] = {}
        #: guid -> committed moves whose adopt/dir.update has not landed
        self.pending: dict[str, dict] = {}
        self.stale_served = 0
        #: real seconds slept per served invoke — the multi-process
        #: driver's latency-bound service model; the simulation uses
        #: ``site.service_delay`` instead and leaves this at zero
        self.service_sleep = 0.0
        site.add_handler("cluster.invoke", self._handle_invoke)
        site.add_handler("cluster.adopt", self._handle_adopt)
        site.add_handler("cluster.depart", self._handle_depart)
        site.add_handler("cluster.arrive", self._handle_arrive)
        site.add_handler("cluster.stats", self._handle_stats)
        self.mobility.resolution_hooks.append(self._transfer_resolved)

    # -- placement -----------------------------------------------------------

    def publish(self, obj, name: str) -> None:
        """Place *obj* here under *name* at generation 1 and tell the
        ring-designated shard."""
        if name in self.placements:
            raise NamingError(f"{name!r} is already placed at {self.site.site_id!r}")
        if not self.site.has_object(obj.guid):
            self.site.register_object(obj)
        self.placements[name] = {
            "guid": obj.guid, "generation": 1, "state": "active",
        }
        self._update_directory(name, obj.guid, self.site.site_id, 1)

    def republish(self) -> int:
        """Re-seed the directory from this site's active placements —
        the recovery path for a shard that lost its (soft) entries."""
        count = 0
        for name, entry in sorted(self.placements.items()):
            if entry["state"] != "active":
                continue
            try:
                self._update_directory(
                    name, entry["guid"], self.site.site_id, entry["generation"]
                )
                count += 1
            except MROMError:
                continue  # the shard is unreachable; a later pass retries
        return count

    def _update_directory(
        self, name: str, guid: str, site_id: str, generation: int
    ) -> None:
        owner = self.ring.owner(name)
        payload = {
            "name": name, "guid": guid, "site": site_id,
            "generation": generation,
        }
        if owner == self.site.site_id:
            self.shard.apply_update(payload)
        else:
            self.site.request(
                owner, "dir.update", payload, policy=self.retry_policy
            )

    # -- serving -------------------------------------------------------------

    def _refuse(self, name: str, entry: dict | None):
        self.stale_served += 1
        _count("directory.stale_served")
        generation = entry["generation"] if entry is not None else 0
        raise StaleLeaseError(name=name, generation=generation)

    def _handle_invoke(self, message: "Message"):
        body = request_body(message)
        name = str(body.get("name", ""))
        generation = _generation(body, name)
        caller = self.site._caller_from(body.get("caller"))
        entry = self.placements.get(name)
        if entry is None or entry["state"] != "active":
            self._refuse(name, entry)
        if generation != entry["generation"]:
            # fail fast *before* touching the object: a stale lease must
            # never see a silent success from the wrong placement
            self._refuse(name, entry)
        if self.service_sleep:
            time.sleep(self.service_sleep)
        obj = self.site.local_object(entry["guid"])
        args = self.site.import_value(request_list(message, "args"))
        return obj.invoke(str(body.get("method", "")), args, caller=caller)

    def _handle_adopt(self, message: "Message") -> dict:
        body = request_body(message)
        name = str(body.get("name", ""))
        guid = str(body.get("guid", ""))
        generation = _generation(body, name)
        current = self.placements.get(name)
        if current is not None and current["generation"] >= generation:
            # a replayed adopt from a move this site has already absorbed
            return {"adopted": False, "generation": current["generation"]}
        if not guid or not self.site.has_object(guid):
            raise MobilityError(
                f"cannot adopt {name!r}: {guid!r} is not resident at "
                f"{self.site.site_id!r}"
            )
        self.placements[name] = {
            "guid": guid, "generation": generation, "state": "active",
        }
        return {"adopted": True, "generation": generation}

    def _handle_depart(self, message: "Message") -> dict:
        """The coordinator-mediated move, sender half (multi-process
        driver): pack and drop the placement; the coordinator carries
        the package to ``cluster.arrive`` and updates the shard."""
        from ..mobility.package import pack

        body = request_body(message)
        name = str(body.get("name", ""))
        entry = self.placements.get(name)
        if entry is None or entry["state"] != "active":
            self._refuse(name, entry)
        obj = self.site.local_object(entry["guid"])
        package = pack(obj)
        self.placements.pop(name, None)
        self.site.unregister_object(obj.guid)
        return {
            "package": package,
            "guid": obj.guid,
            "generation": entry["generation"] + 1,
        }

    def _handle_arrive(self, message: "Message") -> dict:
        """Coordinator-mediated move, receiver half."""
        body = request_body(message)
        name = str(body.get("name", ""))
        generation = _generation(body, name)
        package = body.get("package")
        current = self.placements.get(name)
        if current is not None and current["generation"] >= generation:
            return {"guid": current["guid"], "generation": current["generation"]}
        if not isinstance(package, Mapping):
            raise MobilityError(f"cluster.arrive for {name!r} carries no package")
        report = self.mobility.install_package(
            package, src=str(body.get("src", message.src))
        )
        guid = str(report["guid"])
        self.placements[name] = {
            "guid": guid, "generation": generation, "state": "active",
        }
        return {"guid": guid, "generation": generation}

    def _handle_stats(self, message: "Message") -> dict:
        counts: dict[str, int] = {}
        placements: dict[str, dict] = {}
        for name, entry in sorted(self.placements.items()):
            placements[name] = {
                "guid": entry["guid"],
                "generation": entry["generation"],
                "state": entry["state"],
            }
            if entry["state"] != "active":
                continue
            if not self.site.has_object(entry["guid"]):
                continue
            obj = self.site.local_object(entry["guid"])
            try:
                counts[name] = int(obj.get_data("count", caller=obj.owner))
            except MROMError:
                continue  # not a counter; stats only tally counters
        return {
            "site": self.site.site_id,
            "placements": placements,
            "counts": counts,
            "stale_served": self.stale_served,
            "shard": self.shard.to_mapping(),
        }

    # -- migration -----------------------------------------------------------

    def migrate(self, name: str, dst: str) -> None:
        """Move the object behind *name* to *dst* through the two-phase
        handoff. The placement goes ``moving`` for the duration — stale
        refusals, not wrong-site successes, are what concurrent clients
        see — and the commit (placement removal, destination adoption at
        generation+1, directory update) fires inside the transfer's
        resolution hook."""
        entry = self.placements.get(name)
        if entry is None or entry["state"] != "active":
            raise NamingError(
                f"{name!r} has no active placement at {self.site.site_id!r}"
            )
        obj = self.site.local_object(entry["guid"])
        entry["state"] = "moving"
        self._moves[obj.guid] = {
            "name": name, "dst": dst, "generation": entry["generation"] + 1,
        }
        try:
            self.mobility.migrate(obj, dst)
        except TransferUnresolvedError:
            # verdict pending: the placement stays "moving" (refusing
            # clients) until settle() reconciles the transfer
            raise
        except BaseException:
            # pre-PREPARE failures (unportable object, dead link) fire
            # no resolution hook; restore the placement ourselves
            if self._moves.pop(obj.guid, None) is not None:
                entry["state"] = "active"
            raise

    def _transfer_resolved(
        self, transfer_id: str, guid: str, dst: str, mode: str, outcome: str
    ) -> None:
        move = self._moves.get(guid)
        if move is None or mode != "move":
            return
        del self._moves[guid]
        name = move["name"]
        entry = self.placements.get(name)
        if outcome != "committed":
            if entry is not None:
                entry["state"] = "active"
            return
        # the commit point: the old placement dies with the transfer's
        # commit, so from here no client can be served under the old
        # generation — only redirected
        self.placements.pop(name, None)
        self.pending[guid] = {
            "name": name, "dst": move["dst"], "generation": move["generation"],
        }
        self._complete(guid)

    def _complete(self, guid: str) -> bool:
        info = self.pending.get(guid)
        if info is None:
            return True
        try:
            self.site.request(
                info["dst"],
                "cluster.adopt",
                {
                    "name": info["name"], "guid": guid,
                    "generation": info["generation"],
                },
                policy=self.retry_policy,
            )
            self._update_directory(
                info["name"], guid, info["dst"], info["generation"]
            )
        except MROMError:
            return False  # unreachable mid-fault: settle() retries
        del self.pending[guid]
        return True

    def settle(self) -> None:
        """Drive interrupted work to a verdict: reconcile ambiguous
        handoffs (which fires their resolution hooks), then finish any
        committed move whose adopt/directory update could not land."""
        if self.mobility.unresolved:
            try:
                self.mobility.reconcile()
            except MROMError:
                pass
        for guid in list(self.pending):
            self._complete(guid)

    @property
    def quiescent(self) -> bool:
        return not self.pending and not self.mobility.unresolved
