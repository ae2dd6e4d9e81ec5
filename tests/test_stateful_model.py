"""Model-based (stateful) testing of the MROM object.

Hypothesis drives random sequences of meta-operations and invocations
against an MROM object while a plain-Python mirror tracks expected
state. Invariants checked continuously:

* the fixed section never changes (names, count, behaviour);
* the extensible section matches the mirror exactly;
* data values read back as the mirror predicts;
* every lookup failure the mirror predicts is a typed MROM error;
* pack -> unpack at any point yields an object that agrees with the
  mirror (mobility preserves observable state).
"""

import string

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.core import (
    DuplicateItemError,
    ItemNotFoundError,
    MROMObject,
    Permission,
    Principal,
    allow_all,
)
from repro.core.errors import FixedSectionError
from repro.mobility import pack, unpack

OWNER = Principal("mrom://model/1.1", "model", "owner")
FIXED_DATA = {"base": 10}
FIXED_METHODS = {"get_base": "return self.get('base')"}

names = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=6)
values = st.one_of(
    st.integers(min_value=-100, max_value=100),
    st.text(max_size=10),
    st.lists(st.integers(min_value=0, max_value=9), max_size=3),
)


def build_subject(fastpath: bool = True) -> MROMObject:
    obj = MROMObject(
        display_name="subject", owner=OWNER, extensible_meta=True,
        meta_acl=allow_all(), fastpath=fastpath,
    )
    for name, value in FIXED_DATA.items():
        obj.define_fixed_data(name, value)
    for name, source in FIXED_METHODS.items():
        obj.define_fixed_method(name, source)
    obj.seal()
    return obj


class MromMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.obj = build_subject()
        self.data: dict[str, object] = {}  # extensible data mirror
        self.methods: dict[str, int] = {}  # extensible method -> constant

    # -- rules -------------------------------------------------------------

    @rule(name=names, value=values)
    def add_data(self, name, value):
        occupied = name in self.data or name in FIXED_DATA
        try:
            self.obj.invoke("addDataItem", [name, value], caller=OWNER)
        except DuplicateItemError:
            assert occupied
        else:
            assert not occupied
            self.data[name] = value

    @rule(name=names)
    def delete_data(self, name):
        try:
            self.obj.invoke("deleteDataItem", [name], caller=OWNER)
        except ItemNotFoundError:
            assert name not in self.data and name not in FIXED_DATA
        except FixedSectionError:
            assert name in FIXED_DATA
        else:
            assert name in self.data
            del self.data[name]

    @rule(name=names, value=values)
    def set_data_value(self, name, value):
        if name in self.data:
            self.obj.set_data(name, value, caller=OWNER)
            self.data[name] = value

    @rule(name=names, constant=st.integers(min_value=0, max_value=999))
    def add_method(self, name, constant):
        occupied = (
            name in self.methods
            or name in FIXED_METHODS
            or name in self.obj.containers.fixed_methods.names()
        )
        if name == "invoke":
            return  # tower levels are exercised elsewhere
        try:
            self.obj.invoke(
                "addMethod",
                [name, f"return {constant}", {"acl": allow_all().describe()}],
                caller=OWNER,
            )
        except DuplicateItemError:
            assert occupied
        else:
            assert not occupied
            self.methods[name] = constant

    @rule(name=names)
    def delete_method(self, name):
        if name == "invoke":
            return
        try:
            self.obj.invoke("deleteMethod", [name], caller=OWNER)
        except ItemNotFoundError:
            assert name not in self.methods
            assert not self.obj.containers.has_method(name)
        except FixedSectionError:
            assert name in FIXED_METHODS or self.obj.containers.fixed_methods.find(name)
        else:
            assert name in self.methods
            del self.methods[name]

    @rule(name=names)
    def invoke_method(self, name):
        if name in self.methods:
            assert self.obj.invoke(name, caller=OWNER) == self.methods[name]

    @precondition(lambda self: True)
    @rule()
    def round_trip_through_pack(self):
        copy = unpack(pack(self.obj))
        for name, value in self.data.items():
            assert copy.get_data(name, caller=OWNER) == value
        for name, constant in self.methods.items():
            assert copy.invoke(name, caller=OWNER) == constant
        assert copy.invoke("get_base", caller=OWNER) == 10

    # -- invariants -----------------------------------------------------------

    @invariant()
    def fixed_section_is_immortal(self):
        assert set(self.obj.containers.fixed_data.names()) == set(FIXED_DATA)
        for name, value in FIXED_DATA.items():
            assert self.obj.get_data(name, caller=OWNER) == value
        assert self.obj.invoke("get_base", caller=OWNER) == FIXED_DATA["base"]

    @invariant()
    def extensible_data_matches_mirror(self):
        actual = set(self.obj.containers.ext_data.names())
        assert actual == set(self.data)
        for name, value in self.data.items():
            assert self.obj.get_data(name, caller=OWNER) == value

    @invariant()
    def extensible_methods_match_mirror(self):
        actual = {
            name
            for name in self.obj.containers.ext_methods.names()
            if not self.obj.containers.ext_methods.get(name).metadata.get("meta")
        }
        assert actual == set(self.methods)

    @invariant()
    def counts_are_consistent(self):
        counts = self.obj.containers.counts()
        assert counts["extensible_data"] == len(self.data)
        assert counts["fixed_data"] == len(FIXED_DATA)


MromMachine.TestCase.settings = settings(
    max_examples=30, stateful_step_count=30, deadline=None
)
TestMromModel = MromMachine.TestCase


# ---------------------------------------------------------------------------
# compiled-invocation invalidation rules (repro.core.fastpath)
# ---------------------------------------------------------------------------

#: (compiled_hits, compiles, compiled_discards) deltas of one call
HIT = (1, 0, 0)
COMPILE = (0, 1, 0)
RECOMPILE = (0, 1, 1)

GET_BASE_KEY = (OWNER.guid, OWNER.domain, "get_base")


def event_stream(record):
    return [
        (event.level, event.phase.value, event.method, event.note)
        for event in record.events
    ], record.outcome


class CompiledInvalidationMachine(RuleBasedStateMachine):
    """Model the discard contract of compiled invocations.

    The first allowed call of a (caller, method) pair compiles its
    closure and runs through it; every later call is a compiled hit.
    Rules invalidate the closure through each channel — structural
    mutation (data items, methods), in-place ACL edit, migration install
    and explicit reset — and assert the *ordering*: the stale closure is
    discarded (``compiled_discards`` +1) before a freshly compiled one
    runs (``compiles`` +1). Every call's result and record must equal
    those of an interpreted twin driven through the same operations. An
    invariant keeps the compile accounting closed: every closure ever
    stored is either live or counted as discarded.
    """

    def __init__(self):
        super().__init__()
        from repro.telemetry import Telemetry, enable

        self.obj = build_subject()
        self.ref = build_subject(fastpath=False)
        assert self.obj.fastpath is not None, "caching should default on"
        self.serial = 0
        self.tel = enable(Telemetry())

    def teardown(self):
        from repro.telemetry import disable

        disable()

    # -- helpers -----------------------------------------------------------

    def both(self, operation) -> None:
        for obj in (self.obj, self.ref):
            operation(obj)

    def invoke(self) -> tuple[int, int, int]:
        """One call on the compiled subject and its interpreted twin;
        returns the compiled subject's (hits, compiles, discards) deltas."""
        cache = self.obj.fastpath
        before = (cache.compiled_hits, cache.compiles, cache.compiled_discards)
        results = [obj.invoke("get_base", caller=OWNER) for obj in (self.obj, self.ref)]
        assert results == [10, 10]
        assert event_stream(self.obj.last_record) == event_stream(self.ref.last_record)
        after = (cache.compiled_hits, cache.compiles, cache.compiled_discards)
        return tuple(a - b for a, b in zip(after, before))

    def warm(self):
        """From any state, two calls reach a compiled hit."""
        assert self.invoke() in (HIT, COMPILE, RECOMPILE)
        assert self.invoke() == HIT, "second consecutive call must hit"
        return self.obj.fastpath.compiled[GET_BASE_KEY]

    def assert_recompiled(self, stale) -> None:
        assert self.invoke() == RECOMPILE, (
            "the stale closure must be discarded, then a fresh one compiled"
        )
        assert self.obj.fastpath.compiled[GET_BASE_KEY] is not stale
        assert self.invoke() == HIT

    # -- rules -------------------------------------------------------------

    @rule()
    def repeated_calls_compile_then_hit(self):
        self.warm()
        assert self.invoke() == HIT, "a compiled pair stays compiled absent mutation"

    @rule()
    def mutation_discards_then_recompiles(self):
        """Structural mutation: the generation pin fails at dispatch."""
        stale = self.warm()
        self.serial += 1
        name, value = f"cgen{self.serial}", self.serial
        self.both(lambda obj: obj.invoke("addDataItem", [name, value], caller=OWNER))
        self.assert_recompiled(stale)

    @rule()
    def method_add_and_delete_invalidate(self):
        stale = self.warm()
        self.serial += 1
        name = f"m{self.serial}"
        self.both(lambda obj: obj.invoke(
            "addMethod", [name, "return 1", {"acl": allow_all().describe()}],
            caller=OWNER,
        ))
        self.assert_recompiled(stale)
        stale = self.obj.fastpath.compiled[GET_BASE_KEY]
        self.both(lambda obj: obj.invoke("deleteMethod", [name], caller=OWNER))
        self.assert_recompiled(stale)

    @rule()
    def acl_edit_discards_then_recompiles(self):
        """An in-place ACL edit moves the version pin: same ordering as a
        mutation, without the container generation moving at all."""
        stale = self.warm()
        generation = self.obj.containers.generation
        self.serial += 1
        guest = f"mrom://model/cguest{self.serial}"

        def grant(obj):
            method, _ = obj.containers.lookup_method("get_base")
            method.acl.grant(guest, Permission.INVOKE)

        self.both(grant)
        assert self.obj.containers.generation == generation
        self.assert_recompiled(stale)

    @rule()
    def migration_arrives_cold(self):
        """pack -> unpack: compiled state is never packaged; the arrived
        object's first call compiles from scratch."""
        self.warm()
        self.obj = unpack(pack(self.obj))
        self.ref = unpack(pack(self.ref))
        self.ref.enable_fastpath(False)
        cache = self.obj.fastpath
        assert cache is not None, "unpacked objects default to caching"
        assert cache.compiled_entries == 0, (
            "migrated objects must arrive with no compiled state"
        )
        assert self.invoke() == COMPILE
        assert self.invoke() == HIT

    @rule()
    def reset_discards_everything(self):
        self.warm()
        cache = self.obj.fastpath
        live = cache.compiled_entries
        discards = cache.compiled_discards
        self.obj.fastpath_reset()
        assert cache.compiled_entries == 0
        assert cache.compiled_discards == discards + live
        assert self.invoke() == COMPILE

    # -- invariants --------------------------------------------------------

    @invariant()
    def compile_accounting_balances(self):
        cache = self.obj.fastpath
        assert cache.compiled_entries == cache.compiles - cache.compiled_discards
        assert cache.compiled_entries <= cache.COMPILED_CAP


CompiledInvalidationMachine.TestCase.settings = settings(
    max_examples=20, stateful_step_count=20, deadline=None
)
TestCompiledInvalidation = CompiledInvalidationMachine.TestCase
TestCompiledInvalidation.pytestmark = [pytest.mark.compile]


# ---------------------------------------------------------------------------
# crash-recovery rules (the durability layer, repro.persistence)
# ---------------------------------------------------------------------------


class CrashRecoveryMachine(RuleBasedStateMachine):
    """Model the durability contract of the write-ahead log.

    Rules interleave application work (remote increments, nomad
    migrations), maintenance (checkpoint, with and without compaction),
    and whole-site crash-restarts, while a plain-Python mirror tracks
    what the application believes: each counter's value, the nomad's
    home and hop count. Invariants after every step:

    * every object has exactly one owner (exactly-once transfer holds
      no matter which sites crashed mid-history);
    * each counter reads back what the mirror predicts — no lost
      updates, no double-applies;
    * the nomad lives where the mirror says, and ``install`` ran once
      per migration — recovery never re-runs it.
    """

    SITES = ("a", "b", "c")

    def __init__(self):
        super().__init__()
        from .conftest import build_counter
        from .persistence.conftest import DurableWorld

        self.world = DurableWorld(seed=7, names=self.SITES)
        self.counts: dict[str, int] = {}
        self.counters: dict[str, str] = {}
        for name in self.SITES:
            counter = build_counter()
            self.world.sites[name].register_object(counter)
            self.counters[name] = counter.guid
            self.counts[name] = 0
        nomad = self.world.sites["a"].create_object(display_name="nomad")
        nomad.define_fixed_data("hops", 0)
        nomad.define_fixed_method(
            "install", "self.set('hops', self.get('hops') + 1)"
        )
        nomad.seal()
        self.world.sites["a"].register_object(nomad)
        self.nomad_guid = nomad.guid
        self.nomad_home = "a"
        self.hops = 0

    # -- rules -------------------------------------------------------------

    @rule(
        target_index=st.integers(min_value=0, max_value=2),
        step=st.integers(min_value=1, max_value=5),
    )
    def increment(self, target_index, step):
        from .persistence.conftest import FAST

        target = self.SITES[target_index]
        caller = self.SITES[(target_index + 1) % len(self.SITES)]
        result = self.world.sites[caller].remote_invoke(
            target, self.counters[target], "increment", [step], policy=FAST
        )
        self.counts[target] += step
        assert result == self.counts[target]

    @rule(pick=st.integers(min_value=0, max_value=1))
    def migrate_nomad(self, pick):
        choices = [name for name in self.SITES if name != self.nomad_home]
        dst = choices[pick % len(choices)]
        home = self.world.sites[self.nomad_home]
        self.world.managers[self.nomad_home].migrate(
            home.local_object(self.nomad_guid), dst
        )
        self.nomad_home = dst
        self.hops += 1

    @rule(
        site_index=st.integers(min_value=0, max_value=2),
        compact=st.booleans(),
    )
    def checkpoint(self, site_index, compact):
        self.world.journals[self.SITES[site_index]].checkpoint(
            compact=compact
        )

    @rule(site_index=st.integers(min_value=0, max_value=2))
    def crash_restart(self, site_index):
        name = self.SITES[site_index]
        report = self.world.crash_restart(name)
        assert report.objects_failed == 0, f"recovery dropped objects at {name}"
        assert report.damage is None  # quiescent crash: the log is whole

    # -- invariants --------------------------------------------------------

    def _sole_owner(self, guid: str) -> str:
        owners = self.world.owners_of(guid)
        assert len(owners) == 1, f"{guid} owned by {owners}"
        return owners[0]

    @invariant()
    def counters_match_mirror(self):
        for name, guid in self.counters.items():
            owner = self._sole_owner(guid)
            assert owner == name  # counters never migrate
            obj = self.world.sites[owner].local_object(guid)
            assert obj.get_data("count", caller=obj.owner) == (
                self.counts[name]
            ), f"counter at {name} lost or double-applied an update"

    @invariant()
    def nomad_is_where_the_mirror_says(self):
        owner = self._sole_owner(self.nomad_guid)
        assert owner == self.nomad_home
        obj = self.world.sites[owner].local_object(self.nomad_guid)
        assert obj.get_data("hops", caller=obj.owner) == self.hops, (
            "install ran a different number of times than migrations"
        )


CrashRecoveryMachine.TestCase.settings = settings(
    max_examples=15, stateful_step_count=15, deadline=None
)
TestCrashRecovery = CrashRecoveryMachine.TestCase


# ---------------------------------------------------------------------------
# directory-lease rules (the cluster layer, repro.naming.directory)
# ---------------------------------------------------------------------------


class DirectoryLeaseMachine(RuleBasedStateMachine):
    """Model the lease protocol of the partitioned naming directory.

    Rules interleave resolution (cached and forced), lease-following
    invocations, migrations, client-side lease invalidation and whole
    cache amnesia, and directory-shard crashes (``forget`` + republish),
    while a plain-Python mirror tracks each name's true home, placement
    generation and counter value. The protocol's promise, checked
    continuously:

    * exactly one site ever holds an *active* placement per name;
    * the ring-designated shard agrees with the true placement;
    * counters read back what the mirror predicts (stale redirects
      never double-apply or drop an increment);
    * a client holding a dead lease is refused with a *typed*
      :class:`StaleLeaseError` — never served a wrong-site success —
      and converges after re-resolving.
    """

    WORLD_SEED = 0
    SERVERS = ("s0", "s1", "s2")
    NAMES = ("apps/k0", "apps/k1", "apps/k2", "apps/k3")

    def __init__(self):
        super().__init__()
        from repro.naming import ClusterManager, DirectoryClient, HashRing

        from .conftest import make_site_world

        names = self.SERVERS + ("c0",)
        self.network, self.sites = make_site_world(
            seed=self.WORLD_SEED, names=names, domain="cluster.{name}"
        )
        self.ring = HashRing(
            list(self.SERVERS), vnodes=32, seed=self.WORLD_SEED
        )
        self.managers = {
            site_id: ClusterManager(self.sites[site_id], self.ring)
            for site_id in self.SERVERS
        }
        self.client = DirectoryClient(self.sites["c0"], self.ring)
        self.counts: dict[str, int] = {}
        self.home: dict[str, str] = {}
        self.generation: dict[str, int] = {}
        self.guids: dict[str, str] = {}
        for name in self.NAMES:
            owner = self.ring.owner(name)
            manager = self.managers[owner]
            counter = manager.site.create_object(
                display_name=f"counter:{name}"
            )
            counter.define_fixed_data("count", 0)
            counter.define_fixed_method(
                "increment",
                "step = args[0] if args else 1\n"
                "self.set('count', self.get('count') + step)\n"
                "return self.get('count')",
            )
            counter.define_fixed_method("peek", "return self.get('count')")
            counter.seal()
            manager.publish(counter, name)
            self.counts[name] = 0
            self.home[name] = owner
            self.generation[name] = 1
            self.guids[name] = counter.guid
        self.network.run()

    # -- rules -------------------------------------------------------------

    @rule(index=st.integers(min_value=0, max_value=3), fresh=st.booleans())
    def resolve(self, index, fresh):
        name = self.NAMES[index]
        lease = self.client.lease_for(name, refresh=fresh)
        if fresh:
            # a forced resolve must return the true placement
            assert lease.site == self.home[name]
            assert lease.generation == self.generation[name]
            assert lease.guid == self.guids[name]
        # a cached lease may be stale — that is the protocol's whole
        # design — but it can never be *ahead* of the true placement
        assert lease.generation <= self.generation[name]

    @rule(
        index=st.integers(min_value=0, max_value=3),
        step=st.integers(min_value=1, max_value=5),
    )
    def invoke(self, index, step):
        name = self.NAMES[index]
        result = self.client.invoke(name, "increment", [step])
        self.counts[name] += step
        assert result == self.counts[name], (
            f"{name} acked {result}, mirror says {self.counts[name]}"
        )

    @rule(
        index=st.integers(min_value=0, max_value=3),
        pick=st.integers(min_value=0, max_value=1),
    )
    def migrate(self, index, pick):
        name = self.NAMES[index]
        choices = [s for s in self.SERVERS if s != self.home[name]]
        dst = choices[pick % len(choices)]
        self.managers[self.home[name]].migrate(name, dst)
        self.network.run()
        self.home[name] = dst
        self.generation[name] += 1

    @rule(
        index=st.integers(min_value=0, max_value=3),
        pick=st.integers(min_value=0, max_value=1),
    )
    def stale_direct(self, index, pick):
        """The heart of the contract: a client holding a lease across a
        migration is refused *typed* at the old site — never handed a
        wrong-site success — and its next protocol invoke converges."""
        from repro.core.errors import StaleLeaseError

        name = self.NAMES[index]
        lease = self.client.lease_for(name, refresh=True)
        choices = [s for s in self.SERVERS if s != self.home[name]]
        dst = choices[pick % len(choices)]
        self.managers[self.home[name]].migrate(name, dst)
        self.network.run()
        self.home[name] = dst
        self.generation[name] += 1
        # the lease is now dead; presenting it raw must be refused typed
        try:
            self.sites["c0"].request(
                lease.site,
                "cluster.invoke",
                {
                    "name": name,
                    "generation": lease.generation,
                    "method": "increment",
                    "args": [1],
                    "caller": None,
                },
            )
        except StaleLeaseError as exc:
            assert exc.generation != lease.generation
        else:
            raise AssertionError(
                f"stale lease for {name} was served silently at "
                f"{lease.site} — wrong-site success"
            )
        # the refused increment must NOT have been applied...
        stale_before = self.client.stale
        assert self.client.invoke(name, "peek") == self.counts[name]
        # ...and the client converged through the typed redirect path
        assert self.client.stale > stale_before
        assert self.client.leases[name].generation == self.generation[name]

    @rule(index=st.integers(min_value=0, max_value=3))
    def invalidate(self, index):
        self.client.invalidate(self.NAMES[index])

    @rule()
    def client_amnesia(self):
        self.client.leases.clear()

    @rule(shard_index=st.integers(min_value=0, max_value=2))
    def shard_crash(self, shard_index):
        """Drop a shard's (soft) entries; every manager republishes —
        the directory must rebuild to the authoritative placements."""
        self.managers[self.SERVERS[shard_index]].shard.forget()
        for manager in self.managers.values():
            manager.republish()
        self.network.run()

    # -- invariants --------------------------------------------------------

    @invariant()
    def exactly_one_active_placement_per_name(self):
        for name in self.NAMES:
            holders = [
                site_id
                for site_id, manager in self.managers.items()
                if manager.placements.get(name, {}).get("state") == "active"
            ]
            assert holders == [self.home[name]], (
                f"{name} active at {holders}, mirror says {self.home[name]}"
            )
            entry = self.managers[self.home[name]].placements[name]
            assert entry["generation"] == self.generation[name]
            assert entry["guid"] == self.guids[name]

    @invariant()
    def shard_agrees_with_the_true_placement(self):
        for name in self.NAMES:
            shard = self.managers[self.ring.owner(name)].shard
            entry = shard.entries.get(name)
            assert entry is not None, f"directory lost {name}"
            assert entry["site"] == self.home[name]
            assert entry["generation"] == self.generation[name]

    @invariant()
    def counters_match_mirror(self):
        for name in self.NAMES:
            obj = self.sites[self.home[name]].local_object(self.guids[name])
            assert obj.get_data("count", caller=obj.owner) == (
                self.counts[name]
            ), f"{name} lost or double-applied an increment"

    @invariant()
    def managers_are_quiescent(self):
        for site_id, manager in self.managers.items():
            assert manager.quiescent, f"{site_id} has unresolved moves"


DirectoryLeaseMachine.TestCase.settings = settings(
    max_examples=15, stateful_step_count=15, deadline=None
)
TestDirectoryLease = DirectoryLeaseMachine.TestCase


class DirectoryLeaseMachineSeed1(DirectoryLeaseMachine):
    WORLD_SEED = 1


class DirectoryLeaseMachineSeed2(DirectoryLeaseMachine):
    WORLD_SEED = 2


DirectoryLeaseMachineSeed1.TestCase.settings = settings(
    max_examples=10, stateful_step_count=15, deadline=None
)
DirectoryLeaseMachineSeed2.TestCase.settings = settings(
    max_examples=10, stateful_step_count=15, deadline=None
)
TestDirectoryLeaseSeed1 = DirectoryLeaseMachineSeed1.TestCase
TestDirectoryLeaseSeed2 = DirectoryLeaseMachineSeed2.TestCase

