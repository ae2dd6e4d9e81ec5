"""The six workloads: worlds built from public constructors, their op
streams, and the correctness gate each one must pass.

Every workload is closed loop with think time 0, driven from one
process and one thread (``gateway_tcp`` adds one forked server
process). The simulated ones reuse :class:`repro.load.ClosedLoopDriver`
and :class:`repro.load.DriverStats`; the scenario code under
``repro.load`` times in simulated seconds, so each op is issued through
a callback that stamps wall time at issue and again when its future
settles. :meth:`Workload.run` times each phase and scales every time to
the reference CPU's speed (see :mod:`.clock`).

Inputs come from ``random.Random`` streams named after the seed, the
workload and the client, so a seed fixes every op a run issues; a
time-boxed run issues a prefix of that stream whose length depends on
the machine.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import random
import resource
import shutil
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from repro.core import MROMObject, Permission, Principal
from repro.core.acl import principals_acl
from repro.core.errors import MROMError
from repro.load import CLUSTER_PROFILE, ClosedLoopDriver, DriverStats, LatencyRecorder, OpProfile
from repro.mobility import MobilityManager
from repro.naming import ClusterManager, DirectoryClient, HashRing
from repro.net import LAN, Network, Site, TcpGateway, TcpGatewayClient
from repro.net.rmi import BatchFuture
from repro.persistence import WriteAheadLog, attach_journal, make_store, recover_site
from repro.sim import Simulator
from repro.telemetry import Telemetry, enable

from .clock import ReferenceClock
from .stats import LatencyHistogram

__all__ = ["WORKLOADS", "Budget", "Phase", "Workload"]

#: Scratch space for the file-backed WALs, inside the benchmark's tree.
WORK_DIR = Path(__file__).resolve().parent / ".work"

RMI_PROFILE = OpProfile(invoke=70, get_data=20, describe=10, migrate=0)
GATEWAY_PROFILE = OpProfile(invoke=80, get_data=20, describe=0, migrate=0)

_INCREMENT = (
    "self.set('count', self.get('count') + (args[0] if args else 1))\n"
    "return self.get('count')"
)


class Budget:
    """When a measured phase stops: after ``max_ops`` ops, or at the
    absolute ``deadline_ns`` (``time.perf_counter_ns``), whichever is first."""

    def __init__(self, max_ops: int | None = None, deadline_ns: int | None = None):
        self.max_ops = max_ops
        self.deadline_ns = deadline_ns

    @classmethod
    def for_seconds(cls, seconds: float | None, max_ops: int | None = None) -> "Budget":
        if seconds is None:
            return cls(max_ops)
        return cls(max_ops, time.perf_counter_ns() + int(seconds * 1e9))

    def more(self, issued: int) -> bool:
        if self.max_ops is not None and issued >= self.max_ops:
            return False
        return self.deadline_ns is None or time.perf_counter_ns() < self.deadline_ns

    def chunk(self, issued: int, size: int) -> int:
        """How many ops may run before the next check (0 = stop)."""
        if not self.more(issued):
            return 0
        return size if self.max_ops is None else min(size, self.max_ops - issued)


@dataclass
class Phase:
    """What one measured phase observed."""

    stats: DriverStats
    latency: LatencyHistogram
    wall_ns: int
    #: the phase's duration on the reference CPU (see :mod:`.clock`)
    ref_ns: float

    @property
    def not_ok(self) -> int:
        """Failed, shed and unresolved ops: the numerator of error_rate."""
        stats = self.stats
        return stats.failed + stats.shed + stats.unresolved


def _stamped(issue: Callable[[], BatchFuture], latency: LatencyHistogram):
    """Wrap a driver's ``issue()`` so each op's wall latency is recorded
    when its future settles."""
    clock = time.perf_counter_ns
    record = latency.record

    def stamped() -> BatchFuture:
        start = clock()
        future = issue()
        future.when_done(lambda _future: record(clock() - start))
        return future

    return stamped


def _settled(value: Any = None, error: Exception | None = None) -> BatchFuture:
    """An already-settled future, for ops that complete synchronously."""
    future = BatchFuture()
    if error is None:
        future._resolve(value)
    else:
        future._fail(error)
    return future


def _text(rng: random.Random, size: int) -> str:
    return "".join(rng.choice("abcdefghijklmnopqrstuvwxyz ") for _ in range(size))


def _make_counter(site: Site, notes: str, peek: bool = False) -> MROMObject:
    counter = site.create_object(display_name=f"counter@{site.site_id}")
    counter.define_fixed_data("count", 0)
    counter.define_fixed_data("notes", notes)
    counter.define_fixed_method("increment", _INCREMENT)
    if peek:
        counter.define_fixed_method("peek", "return self.get('count')")
    counter.seal()
    site.register_object(counter)
    return counter


def _stream_state(rng: random.Random) -> str:
    """A short digest of where an op stream stands."""
    return hashlib.sha256(repr(rng.getstate()).encode()).hexdigest()[:12]


def _count_of(obj: MROMObject) -> int:
    return obj.get_data("count", caller=obj.owner)


def peak_rss_mb() -> float:
    """This process's peak resident set size, in MiB (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Workload:
    """One world, its op stream and its gate."""

    name = ""
    #: op count of a full-size run (used when no --seconds is given)
    ops = 0
    #: ops issued by every set-up, so caches are warm before timing
    warmup = 0
    #: ops per measured segment: at least 1000, so each segment's p99
    #: has ten samples beyond it, and about a second's worth on a 2-core VM
    segment_ops = 1_000
    #: the layer tracer of a traced run, for server processes to inherit
    tracer = None

    def __init__(self, seed: int, clock: ReferenceClock):
        self.seed = seed
        self.clock = clock

    def rng(self, stream: str) -> random.Random:
        return random.Random(f"{self.seed}:{self.name}:{stream}")

    def build(self) -> None:
        """Build the world and run the warm-up ops (the set-up)."""
        raise NotImplementedError

    def run(self, budget: Budget) -> Phase:
        """Issue ops until *budget* runs out, timing the whole phase in
        wall and in reference time and each op into a histogram."""
        latency = LatencyHistogram(self.clock)
        start_ns, start_ref = time.perf_counter_ns(), self.clock.now_ns()
        stats = self.drive(budget, latency)
        return Phase(stats, latency, time.perf_counter_ns() - start_ns,
                     self.clock.now_ns() - start_ref)

    def drive(self, budget: Budget, latency: LatencyHistogram) -> DriverStats:
        """Issue ops until *budget* runs out, recording each op's wall
        latency into *latency*."""
        raise NotImplementedError

    def gate(self) -> list[str]:
        """Correctness failures (empty when every check holds)."""
        raise NotImplementedError

    def digest_state(self) -> Any:
        """Deterministic end state: equal for equal (seed, op count)."""
        raise NotImplementedError

    def digest(self) -> str:
        return hashlib.sha256(repr(self.digest_state()).encode()).hexdigest()[:16]

    def counters(self) -> dict[str, int]:
        """Cumulative work counts read from public attributes."""
        return {}

    def phase_begin(self, reset_server_trace: bool, telemetry: bool) -> None:
        """Called before a measured phase (the gateway tells its server)."""

    def server_report(self) -> dict | None:
        """The server process's own measurements, when there is one."""
        return None

    def peak_rss_mb(self) -> float:
        return peak_rss_mb()

    def close(self) -> None:
        """Release what :meth:`build` acquired."""

    def _warm(self) -> None:
        phase = self.run(Budget(max_ops=self.warmup))
        if phase.not_ok or phase.stats.ok != self.warmup:
            raise MROMError(f"{self.name}: warm-up ops failed: {phase.stats.to_mapping()}")


# ---------------------------------------------------------------------------
# invoke_local: level-0 invocation with no network at all
# ---------------------------------------------------------------------------


class InvokeLocal(Workload):
    """Level-0 ``MROMObject.invoke`` only; p50 is the warm compiled
    path, p99 the cold path after ACL edits."""

    name = "invoke_local"
    ops = 600_000
    warmup = 20_000
    segment_ops = 100_000

    OBJECTS, METHODS, CALLERS, ACL_SIZE = 32, 8, 8, 16
    EDIT_EVERY = 200
    CYCLE = EDIT_EVERY * 64

    def build(self) -> None:
        rng = self.rng("world")
        principals = [
            Principal(guid=f"mrom://bench/p{k}", domain="bench.callers",
                      display_name=f"p{k}")
            for k in range(self.ACL_SIZE)
        ]
        # callers interleave with the non-calling subjects of each ACL
        callers = principals[:: self.ACL_SIZE // self.CALLERS]
        objects = []
        for index in range(self.OBJECTS):
            obj = MROMObject(guid=f"mrom:bench:obj{index}", domain="bench",
                             display_name=f"obj{index}")
            obj.define_fixed_data("base", index)
            for method in range(self.METHODS):
                obj.define_fixed_method(
                    f"m{method}",
                    f"return args[0] * {method + 1} + self.get('base')",
                    acl=principals_acl(principals, Permission.INVOKE),
                )
            obj.seal()
            objects.append(obj)
        ops = []
        prefix = [0]
        for _ in range(self.CYCLE):
            index = rng.randrange(self.OBJECTS)
            method = rng.randrange(self.METHODS)
            arg = rng.randrange(1000)
            ops.append((objects[index].invoke, f"m{method}", [arg],
                        callers[rng.randrange(self.CALLERS)]))
            prefix.append(prefix[-1] + arg * (method + 1) + index)
        self._ops = ops
        self._prefix = prefix
        # each edit drops and re-grants one subject: the ACL keeps its 16
        # entries, but its version moves, so the method's 8 compiled
        # (caller, method) closures go stale and take the cold path
        self._edits = []
        for _ in range(self.CYCLE // self.EDIT_EVERY):
            obj = objects[rng.randrange(self.OBJECTS)]
            method, _section = obj.containers.lookup_method(
                f"m{rng.randrange(self.METHODS)}"
            )
            subject = principals[rng.randrange(self.ACL_SIZE)].guid
            self._edits.append((method.acl, subject))
        self.position = 0
        self.checksum = 0
        self._warm()

    def _expected(self, position: int) -> int:
        """Closed form: the sum of every return value of ops [0, position)."""
        cycles, rest = divmod(position, self.CYCLE)
        return cycles * self._prefix[-1] + self._prefix[rest]

    def drive(self, budget: Budget, latency: LatencyHistogram) -> DriverStats:
        ops, edits = self._ops, self._edits
        cycle, edit_every = self.CYCLE, self.EDIT_EVERY
        invoke_permission = Permission.INVOKE
        record = latency.record
        clock = time.perf_counter_ns
        stats = DriverStats()
        position = self.position
        checksum = 0
        issued = failed = 0
        while True:
            count = budget.chunk(issued, 64)
            if not count:
                break
            for _ in range(count):
                slot = position % cycle
                if not slot % edit_every:
                    acl, subject = edits[slot // edit_every]
                    acl.remove_subject(subject)
                    acl.grant(subject, invoke_permission)
                invoke, method, args, caller = ops[slot]
                began = clock()
                try:
                    checksum += invoke(method, args, caller)
                except MROMError:
                    failed += 1
                record(clock() - began)
                position += 1
            issued += count
        stats.issued = stats.completed = issued
        stats.failed = failed
        stats.ok = issued - failed
        self.position = position
        self.checksum += checksum
        return stats

    def gate(self) -> list[str]:
        expected = self._expected(self.position)
        if self.checksum != expected:
            return [f"checksum {self.checksum} != closed form {expected}"]
        return []

    def digest_state(self) -> Any:
        return (self.position, self.checksum)


# ---------------------------------------------------------------------------
# rmi_sim / durable_sim: async RMI over the simulated LAN
# ---------------------------------------------------------------------------


class _SimWorkload(Workload):
    """A simulated world driven by one ClosedLoopDriver per client."""

    network: Network
    #: (client site, issue callback) per driver
    issuers: list[tuple[Site, Callable[[], BatchFuture]]]
    #: the clients' op streams, whose state the digest covers
    rngs: list[random.Random]

    def drive(self, budget: Budget, latency: LatencyHistogram) -> DriverStats:
        stats = DriverStats()
        drivers = [
            ClosedLoopDriver(
                site, _stamped(issue, latency), lambda: budget.more(stats.issued),
                stats, LatencyRecorder(),
            )
            for site, issue in self.issuers
        ]
        for driver in drivers:
            driver.start()
        self.network.run()
        self.drain()
        return stats

    def drain(self) -> None:
        """Settle work the drivers left in flight (nothing by default)."""

    def counters(self) -> dict[str, int]:
        network = self.network
        return {
            "messages": network.messages_sent,
            "events": network.simulator.events_processed,
        }

    def _rng_states(self) -> list[str]:
        return [_stream_state(rng) for rng in self.rngs]

    def _count_increment(self, future: BatchFuture) -> None:
        if future.error() is None:
            self.invoke_ok += 1


class RmiSim(_SimWorkload):
    """Async RMI from 2 clients to 4 servers over the simulated LAN; the
    wire path works, journal, mobility and directory do not."""

    name = "rmi_sim"
    ops = 30_000
    warmup = 1_000
    segment_ops = 5_000
    SERVERS, COUNTERS_PER_SERVER, CLIENTS, NOTES_BYTES = 4, 4, 2, 1024

    def build(self) -> None:
        network = self.network = Network(Simulator(self.seed))
        self.servers = [
            Site(network, f"s{i}", f"bench.s{i}") for i in range(self.SERVERS)
        ]
        clients = [Site(network, f"c{i}", f"bench.c{i}") for i in range(self.CLIENTS)]
        for client in clients:
            for server in self.servers:
                network.topology.connect(client.site_id, server.site_id, *LAN)
        for left in self.servers:
            for right in self.servers:
                if left.site_id < right.site_id:
                    network.topology.connect(left.site_id, right.site_id, *LAN)
        # the journal attaches before any counter registers, so the
        # initial images are already durable
        self.attach_journals()
        world = self.rng("world")
        self.counters_by_site = {
            server.site_id: [
                _make_counter(server, _text(world, self.NOTES_BYTES))
                for _ in range(self.COUNTERS_PER_SERVER)
            ]
            for server in self.servers
        }
        self.targets = [
            (site_id, counter.guid)
            for site_id, counters in self.counters_by_site.items()
            for counter in counters
        ]
        self.invoke_ok = 0
        self.rngs = [self.rng(client.site_id) for client in clients]
        self.issuers = [
            (client, self._issue_for(client, rng))
            for client, rng in zip(clients, self.rngs)
        ]
        self._warm()

    def attach_journals(self) -> None:
        """No durability plane here (see :class:`DurableSim`)."""

    def _issue_for(self, client: Site, rng: random.Random):
        targets = self.targets

        def issue() -> BatchFuture:
            op = RMI_PROFILE.pick(rng)
            dst, guid = targets[rng.randrange(len(targets))]
            if op == "invoke":
                future = client.remote_invoke_async(dst, guid, "increment", [1])
                future.when_done(self._count_increment)
                return future
            if op == "get_data":
                return client.remote_get_data_async(dst, guid, "count")
            return client.remote_describe_async(dst, guid)

        return issue

    def counter_values(self, site_id: str) -> dict[str, int]:
        return {
            counter.guid: _count_of(counter)
            for counter in self.counters_by_site[site_id]
        }

    def gate(self) -> list[str]:
        total = sum(
            sum(self.counter_values(site_id).values())
            for site_id in self.counters_by_site
        )
        if total != self.invoke_ok:
            return [f"counters sum to {total}, ok increments are {self.invoke_ok}"]
        return []

    def digest_state(self) -> Any:
        return (
            sorted(
                (guid, count)
                for site_id in self.counters_by_site
                for guid, count in self.counter_values(site_id).items()
            ),
            self.invoke_ok,
            self._rng_states(),
        )


class DurableSim(RmiSim):
    """``rmi_sim`` with a file-backed ``SiteJournal`` on every server;
    the gap to ``rmi_sim`` is the journal's cost."""

    name = "durable_sim"
    ops = 15_000
    warmup = 500
    segment_ops = 2_500
    def attach_journals(self) -> None:
        WORK_DIR.mkdir(exist_ok=True)
        self.wal_root = Path(tempfile.mkdtemp(prefix="wal-", dir=WORK_DIR))
        self.wals = {
            server.site_id: WriteAheadLog(
                make_store("file", root=self.wal_root, name=server.site_id)
            )
            for server in self.servers
        }
        for server in self.servers:
            attach_journal(server, self.wals[server.site_id])

    def counters(self) -> dict[str, int]:
        counts = super().counters()
        counts["wal_bytes"] = sum(wal.store.size_bytes() for wal in self.wals.values())
        return counts

    def gate(self) -> list[str]:
        failures = super().gate()
        # replay one server's log into a fresh incarnation on a private
        # network: its counters must come back exactly as they are live
        site_id = self.servers[0].site_id
        replayed = WriteAheadLog(make_store("file", root=self.wal_root, name=site_id))
        try:
            site, _manager, report = recover_site(
                Network(Simulator(self.seed)), site_id, replayed,
            )
            live = self.counter_values(site_id)
            recovered = {
                guid: _count_of(site.local_object(guid)) if site.has_object(guid) else None
                for guid in live
            }
        finally:
            replayed.store.close()
        if recovered != live:
            failures.append(
                f"replaying {site_id}'s WAL ({report.records_replayed} records) "
                f"gives {recovered}, live counters are {live}"
            )
        return failures

    def close(self) -> None:
        for wal in self.wals.values():
            wal.store.close()
        shutil.rmtree(self.wal_root, ignore_errors=True)


# ---------------------------------------------------------------------------
# migrate_sim: one traveller hopping around four sites
# ---------------------------------------------------------------------------


class MigrateSim(_SimWorkload):
    """Sequential two-phase migrations of an object carrying 8 x 16 KiB;
    pack/unpack, large frames and the cold first call dominate."""

    name = "migrate_sim"
    ops = 3_000
    warmup = 40
    SITES, BLOBS, BLOB_BYTES = 4, 8, 16 * 1024

    def build(self) -> None:
        network = self.network = Network(Simulator(self.seed))
        self.sites = [Site(network, f"s{i}", f"bench.s{i}") for i in range(self.SITES)]
        for left in self.sites:
            for right in self.sites:
                if left.site_id < right.site_id:
                    network.topology.connect(left.site_id, right.site_id, *LAN)
        self.managers = [MobilityManager(site) for site in self.sites]
        world = self.rng("world")
        traveller = self.sites[0].create_object(display_name="traveller")
        traveller.define_fixed_data("hops", 0)
        for blob in range(self.BLOBS):
            traveller.define_fixed_data(f"blob{blob}", world.randbytes(self.BLOB_BYTES))
        self.touched = world.randrange(self.BLOBS)
        traveller.define_fixed_method(
            "install",
            "self.set('hops', self.get('hops') + 1)\n"
            f"return len(self.get('blob{self.touched}'))",
        )
        traveller.seal()
        self.sites[0].register_object(traveller)
        self.traveller = traveller
        self.guid = traveller.guid
        self.payload = self.payload_digest()
        self.home = 0
        self.migrations = 0
        self.issuers = [(self.sites[0], self._hop)]
        self._warm()

    def payload_digest(self) -> str:
        digest = hashlib.sha256()
        for blob in range(self.BLOBS):
            digest.update(self.traveller.get_data(f"blob{blob}", caller=self.traveller.owner))
        return digest.hexdigest()[:16]

    def _hop(self) -> BatchFuture:
        dst = (self.home + 1) % self.SITES
        try:
            ref = self.managers[self.home].migrate(
                self.traveller, self.sites[dst].site_id
            )
        except MROMError as exc:
            return _settled(error=exc)
        self.traveller = self.sites[dst].local_object(ref.guid)
        self.home = dst
        self.migrations += 1
        return _settled(dst)

    def gate(self) -> list[str]:
        failures = []
        copies = sum(1 for site in self.sites if site.has_object(self.guid))
        if copies != 1:
            failures.append(f"{copies} live copies of the traveller, expected 1")
        hops = self.traveller.get_data("hops", caller=self.traveller.owner)
        if hops != self.migrations:
            failures.append(f"traveller counted {hops} hops, {self.migrations} migrations ran")
        if self.payload_digest() != self.payload:
            failures.append("the traveller's items changed in transit")
        return failures

    def digest_state(self) -> Any:
        hops = self.traveller.get_data("hops", caller=self.traveller.owner)
        return (self.migrations, self.home, hops, self.touched, self.payload_digest())


# ---------------------------------------------------------------------------
# cluster_sim: the sharded directory and its leases
# ---------------------------------------------------------------------------


class ClusterSim(_SimWorkload):
    """``CLUSTER_PROFILE`` through ``DirectoryClient`` leases with
    placement moves; the only workload where the directory and ring run."""

    name = "cluster_sim"
    ops = 20_000
    warmup = 500
    segment_ops = 4_000
    SERVERS, CLIENTS, KEYS_PER_SERVER, VNODES = 4, 4, 4, 64
    #: a lease can chase a name through several back-to-back moves; the
    #: default budget of 6 redirects then ends an op with a typed
    #: StaleLeaseError now and again, and no op may fail here
    MAX_REDIRECTS = 64

    def build(self) -> None:
        network = self.network = Network(Simulator(self.seed))
        self.servers = {
            f"s{i}": Site(network, f"s{i}", f"bench.s{i}") for i in range(self.SERVERS)
        }
        self.server_ids = list(self.servers)
        clients = [Site(network, f"c{i}", f"bench.c{i}") for i in range(self.CLIENTS)]
        everyone = self.server_ids + [client.site_id for client in clients]
        for left in everyone:
            for right in everyone:
                if left < right:
                    network.topology.connect(left, right, *LAN)
        self.ring = HashRing(self.server_ids, vnodes=self.VNODES, seed=self.seed)
        self.managers = {
            site_id: ClusterManager(site, self.ring)
            for site_id, site in self.servers.items()
        }
        world = self.rng("world")
        self.names = [f"apps/k{i}" for i in range(self.SERVERS * self.KEYS_PER_SERVER)]
        for name in self.names:
            home = self.ring.owner(name)
            counter = _make_counter(self.servers[home], _text(world, 64), peek=True)
            self.managers[home].publish(counter, name)
        self.directory_clients = [
            DirectoryClient(client, self.ring, max_redirects=self.MAX_REDIRECTS)
            for client in clients
        ]
        self.invoke_ok = 0
        self.migrations = 0
        self.moves_deferred = 0
        self.owner_violations = 0
        self._move_inflight = False
        self.rngs = [self.rng(client.site_id) for client in clients]
        self.issuers = [
            (client, self._issue_for(directory, rng))
            for client, directory, rng in zip(clients, self.directory_clients, self.rngs)
        ]
        self._warm()

    def _issue_for(self, directory: DirectoryClient, rng: random.Random):
        names = self.names

        def issue() -> BatchFuture:
            op = CLUSTER_PROFILE.pick(rng)
            name = names[rng.randrange(len(names))]
            if op == "invoke":
                future = directory.invoke_async(name, "increment", [1])
                future.when_done(self._count_increment)
                return future
            if op == "get_data":
                return directory.invoke_async(name, "peek")
            if op == "describe":
                return directory.refresh_async(name)
            return self._move(rng)

        return issue

    def active_homes(self, name: str) -> list[str]:
        return [
            site_id for site_id, manager in self.managers.items()
            if manager.placements.get(name, {}).get("state") == "active"
        ]

    def _check_single_owner(self) -> None:
        self.owner_violations += sum(
            1 for name in self.names if len(self.active_homes(name)) > 1
        )

    def _move(self, rng: random.Random) -> BatchFuture:
        """Hop one random placement to the next server.

        ``migrate`` pumps the simulator, so another driver's move can
        start inside it; moves are serialized and such a move defers.
        """
        name = self.names[rng.randrange(len(self.names))]
        if self._move_inflight:
            self.moves_deferred += 1
            return _settled("deferred")
        self._move_inflight = True
        try:
            for manager in self.managers.values():
                if not manager.quiescent:
                    manager.settle()
            homes = self.active_homes(name)
            if len(homes) != 1:
                self.moves_deferred += 1
                return _settled("deferred")
            src = homes[0]
            dst = self.server_ids[(self.server_ids.index(src) + 1) % self.SERVERS]
            try:
                self.managers[src].migrate(name, dst)
            except MROMError as exc:
                return _settled(error=exc)
            self.migrations += 1
            self._check_single_owner()
            return _settled(dst)
        finally:
            self._move_inflight = False

    def drain(self) -> None:
        for _round in range(12):
            if all(manager.quiescent for manager in self.managers.values()):
                return
            for manager in self.managers.values():
                manager.settle()
            self.network.run()

    def counter_total(self) -> int:
        total = 0
        for name in self.names:
            for site_id in self.active_homes(name):
                guid = self.managers[site_id].placements[name]["guid"]
                total += _count_of(self.servers[site_id].local_object(guid))
        return total

    def converged(self) -> list[str]:
        """One active home per name, the shard agrees with it, and a
        client with no cached lease reaches it."""
        probe = DirectoryClient(
            self.issuers[0][0], self.ring, max_redirects=self.MAX_REDIRECTS)
        problems = []
        for name in self.names:
            homes = self.active_homes(name)
            if len(homes) != 1:
                problems.append(f"{name} has {len(homes)} active homes")
                continue
            entry = self.managers[homes[0]].placements[name]
            recorded = self.managers[self.ring.owner(name)].shard.entries.get(name)
            if recorded is None or (recorded["site"], recorded["generation"]) != (
                homes[0], entry["generation"]
            ):
                problems.append(f"shard entry {recorded} disagrees with {homes[0]}/{entry}")
                continue
            try:
                probe.invoke(name, "peek")
            except MROMError as exc:
                problems.append(f"a fresh client cannot reach {name}: {exc!r}")
        return problems

    def gate(self) -> list[str]:
        self._check_single_owner()
        failures = []
        if self.owner_violations:
            failures.append(f"{self.owner_violations} single-owner violations")
        failures.extend(self.converged())
        total = self.counter_total()
        if total != self.invoke_ok:
            failures.append(f"counters sum to {total}, ok increments are {self.invoke_ok}")
        return failures

    def counters(self) -> dict[str, int]:
        counts = super().counters()
        counts["cache_hits"] = sum(dc.cache_hits for dc in self.directory_clients)
        counts["cache_misses"] = sum(dc.cache_misses for dc in self.directory_clients)
        counts["stale"] = sum(dc.stale for dc in self.directory_clients)
        return counts

    def digest_state(self) -> Any:
        placements = sorted(
            (name, site_id, manager.placements[name]["generation"])
            for site_id, manager in self.managers.items()
            for name in manager.placements
        )
        return (placements, self.invoke_ok, self.migrations, self.moves_deferred,
                self.counter_total(), self._rng_states())


# ---------------------------------------------------------------------------
# gateway_tcp: a real socket into a site served by another process
# ---------------------------------------------------------------------------


def _serve_gateway(conn, seed: int, counters: int, tracer) -> None:
    """The server process: a site with counters behind a TcpGateway,
    steered by commands over *conn* until ``stop`` or the pipe closes."""
    network = Network(Simulator(seed))
    site = Site(network, "gw", "bench.gw")
    world = random.Random(f"{seed}:gateway_tcp:world")
    guids = [_make_counter(site, _text(world, 1024)).guid for _ in range(counters)]
    gateway = TcpGateway(site)
    conn.send((gateway.port, guids))
    try:
        while True:
            try:
                command, *args = conn.recv()
            except EOFError:
                return
            if command == "stop":
                return
            if command == "phase":
                reset_trace, telemetry = args
                if reset_trace and tracer is not None:
                    tracer.reset()
                if telemetry:
                    enable(Telemetry())
                conn.send("ok")
            elif command == "report":
                conn.send({
                    "trace": tracer.snapshot() if tracer is not None else None,
                    "peak_rss_mb": peak_rss_mb(),
                })
    finally:
        gateway.close()
        conn.close()


class GatewayTcp(Workload):
    """One ``TcpGatewayClient`` over loopback to a forked server with 8
    counters; framing and the gateway lock work, the simulator does not."""

    name = "gateway_tcp"
    ops = 40_000
    warmup = 500
    segment_ops = 8_000
    COUNTERS = 8

    def build(self) -> None:
        context = multiprocessing.get_context("fork")
        self._conn, child_conn = context.Pipe()
        self._server = context.Process(
            target=_serve_gateway,
            args=(child_conn, self.seed, self.COUNTERS, self.tracer),
            name="gateway_tcp-server",
            daemon=True,
        )
        self._server.start()
        child_conn.close()
        self.client = None
        port, self.guids = self._request(None)
        self.client = TcpGatewayClient("127.0.0.1", port)
        self.rng_ops = self.rng("client")
        self.invoke_ok = 0
        self._warm()

    def _request(self, command: tuple | None, timeout: float = 30.0) -> Any:
        if command is not None:
            self._conn.send(command)
        if not self._conn.poll(timeout):
            raise MROMError(f"gateway server did not answer {command!r}")
        return self._conn.recv()

    def drive(self, budget: Budget, latency: LatencyHistogram) -> DriverStats:
        client, guids, rng = self.client, self.guids, self.rng_ops
        record = latency.record
        clock = time.perf_counter_ns
        stats = DriverStats()
        invoke_ok = 0
        while budget.more(stats.issued):
            op = GATEWAY_PROFILE.pick(rng)
            guid = guids[rng.randrange(len(guids))]
            stats.issued += 1
            began = clock()
            try:
                if op == "invoke":
                    client.invoke(guid, "increment", [1])
                    invoke_ok += 1
                else:
                    client.get_data(guid, "count")
            except MROMError as exc:
                stats.failed += 1
                name = type(exc).__name__
                stats.errors[name] = stats.errors.get(name, 0) + 1
            else:
                stats.ok += 1
            record(clock() - began)
            stats.completed += 1
        self.invoke_ok += invoke_ok
        return stats

    def phase_begin(self, reset_server_trace: bool, telemetry: bool) -> None:
        self._request(("phase", reset_server_trace, telemetry))

    def server_report(self) -> dict:
        return self._request(("report",))

    def peak_rss_mb(self) -> float:
        return max(peak_rss_mb(), self.server_report()["peak_rss_mb"])

    def counter_values(self) -> list[int]:
        return [self.client.get_data(guid, "count") for guid in self.guids]

    def gate(self) -> list[str]:
        total = sum(self.counter_values())
        if total != self.invoke_ok:
            return [f"counters sum to {total}, ok increments are {self.invoke_ok}"]
        return []

    def digest_state(self) -> Any:
        return (self.counter_values(), self.invoke_ok, _stream_state(self.rng_ops))

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
        try:
            self._conn.send(("stop",))
        except (BrokenPipeError, OSError):
            pass
        self._server.join(10)
        if self._server.is_alive():
            self._server.kill()
            self._server.join(10)
        self._conn.close()


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (InvokeLocal, RmiSim, DurableSim, MigrateSim, ClusterSim, GatewayTcp)
}
