"""Differential proof that compiled invocations change cost, never
observables.

Randomized op sequences — invoke / mutate items / edit ACLs in place /
specialize / migrate — run against two structurally identical subjects:
the *interpreted* reference (no cache: every call runs Lookup → Match →
Apply in :meth:`~repro.core.invocation.Invoker.invoke_primitive`) and
the *compiled* subject (the first allowed call of each (caller, method)
pair builds a specialized closure, and later calls run through it).
After **every** op, every observable must be identical across both:

* returned values (canonicalized: live handles compare by target, not
  identity);
* raised errors (type and message);
* :class:`InvocationRecord` streams (level, phase, method, note);
* audit/telemetry events (``acl.check`` counters and span events),
  checked by dedicated scripted tests since span ids are mint-order
  dependent.

The Hypothesis settings guarantee at least 250 distinct randomized
sequences across the two machine-driven tests.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    AccessControlList,
    MROMObject,
    Permission,
    Principal,
    allow_all,
    clone,
)
from repro.core.errors import MROMError
from repro.core.items import ItemHandle
from repro.mobility import pack, unpack
from repro.telemetry import Telemetry, enabled

pytestmark = [pytest.mark.fastpath, pytest.mark.compile]

OWNER = Principal("mrom://diff/owner", "diff", "owner")
FRIEND = Principal("mrom://diff/friend", "diff.lab", "friend")
STRANGER = Principal("mrom://elsewhere/stranger", "elsewhere", "stranger")
PRINCIPALS = (OWNER, FRIEND, STRANGER)

SUBJECT_GUID = "mrom:obj:differential"

METHOD_NAMES = ("ping", "double", "guarded", "touch_base")
DATA_NAMES = ("base", "scratch")


def build_subject(fastpath: bool) -> MROMObject:
    obj = MROMObject(
        guid=SUBJECT_GUID,
        domain="diff",
        display_name="subject",
        owner=OWNER,
        meta_acl=allow_all(),
        fastpath=fastpath,
    )
    obj.define_fixed_data("base", 10)
    obj.define_fixed_method("ping", "return 'pong'", acl=allow_all())
    obj.define_fixed_method("double", "return args[0] * 2", acl=allow_all())
    # guarded: FRIEND may invoke, STRANGER may not (until a grant lands)
    guarded_acl = AccessControlList().grant(FRIEND.guid, Permission.INVOKE)
    obj.define_fixed_method("guarded", "return 'secret'", acl=guarded_acl)
    obj.define_fixed_method(
        "touch_base",
        "n = self.get('base') + 1\nself.set('base', n)\nreturn n",
        acl=allow_all(),
    )
    obj.seal()
    return obj


def canon(value):
    """Canonicalize results: handles compare by referent name/validity."""
    if isinstance(value, ItemHandle):
        return ("handle", value.item.name)
    if isinstance(value, (list, tuple)):
        return [canon(element) for element in value]
    if isinstance(value, dict):
        return {key: canon(val) for key, val in value.items()}
    return value


def record_stream(obj: MROMObject):
    return [
        (event.level, event.phase.value, event.method, event.note)
        for record in obj.invocation_records()
        for event in record.events
    ]


TIERS = ("interpreted", "compiled")


def build_tier(tier: str) -> MROMObject:
    return build_subject(tier == "compiled")


def apply_tier(obj: MROMObject, tier: str) -> MROMObject:
    """Pin *obj* to one execution tier (returns obj for chaining)."""
    obj.enable_fastpath(tier == "compiled")
    return obj


class Pair:
    """The interpreted reference and the compiled subject, in lockstep."""

    def __init__(self):
        self.interpreted = build_tier("interpreted")
        self.compiled = build_tier("compiled")
        for obj in self.subjects:
            obj.enable_tracing(True)

    @property
    def subjects(self):
        return (self.interpreted, self.compiled)

    def step(self, op):
        outcomes = []
        for obj in self.subjects:
            try:
                outcomes.append(("ok", canon(op(obj))))
            except MROMError as exc:
                outcomes.append(("err", type(exc).__name__, str(exc)))
        assert outcomes[0] == outcomes[1], (
            f"tier outcomes diverged: "
            f"{dict(zip(TIERS, map(repr, outcomes)))}"
        )
        streams = [record_stream(obj) for obj in self.subjects]
        assert streams[0] == streams[1], (
            "InvocationRecord streams diverged across tiers"
        )

    def migrate(self):
        """pack -> unpack both subjects (closures must arrive cold)."""
        migrated = [
            apply_tier(unpack(pack(obj)), tier)
            for obj, tier in zip(self.subjects, TIERS)
        ]
        for obj in migrated:
            obj.enable_tracing(True)
        self.interpreted, self.compiled = migrated
        assert self.compiled.fastpath.compiled_entries == 0, (
            "compiled closures must never survive migration"
        )

    def specialize(self):
        """Clone both subjects under one fresh (but equal) identity."""
        guid = f"{SUBJECT_GUID}:spec"
        clones = [
            apply_tier(clone(obj, guid=guid, display_name="subject"), tier)
            for obj, tier in zip(self.subjects, TIERS)
        ]
        for obj in clones:
            obj.enable_tracing(True)
        self.interpreted, self.compiled = clones


# ---------------------------------------------------------------------------
# op vocabulary
# ---------------------------------------------------------------------------

ext_names = st.sampled_from(["alpha", "beta", "gamma"])
small_ints = st.integers(min_value=-50, max_value=50)


@st.composite
def ops(draw):
    kind = draw(
        st.sampled_from(
            [
                "invoke",
                "invoke_unknown",
                "invoke_denied",
                "add_data",
                "delete_data",
                "add_method",
                "delete_method",
                "acl_grant",
                "acl_revoke",
                "set_method_acl",
                "migrate",
                "specialize",
            ]
        )
    )
    if kind == "invoke":
        name = draw(st.sampled_from(METHOD_NAMES))
        arg = draw(small_ints)
        caller = draw(st.sampled_from(PRINCIPALS))
        return ("invoke", name, arg, caller)
    if kind == "invoke_unknown":
        return ("invoke_unknown", draw(st.sampled_from(["nope", "missing"])))
    if kind == "invoke_denied":
        return ("invoke_denied", draw(st.sampled_from([STRANGER, FRIEND])))
    if kind in ("add_data", "delete_data"):
        return (kind, draw(ext_names), draw(small_ints))
    if kind == "add_method":
        return (kind, draw(ext_names), draw(small_ints))
    if kind == "delete_method":
        return (kind, draw(ext_names))
    if kind in ("acl_grant", "acl_revoke"):
        principal = draw(st.sampled_from([STRANGER, FRIEND]))
        return (kind, principal)
    if kind == "set_method_acl":
        return (kind, draw(st.booleans()))
    return (kind,)


def apply_op(pair: Pair, op) -> None:
    kind = op[0]
    if kind == "invoke":
        _, name, arg, caller = op
        args = [arg] if name == "double" else []
        pair.step(lambda obj: obj.invoke(name, args, caller=caller))
    elif kind == "invoke_unknown":
        pair.step(lambda obj: obj.invoke(op[1], [], caller=OWNER))
    elif kind == "invoke_denied":
        pair.step(lambda obj: obj.invoke("guarded", [], caller=op[1]))
    elif kind == "add_data":
        pair.step(lambda obj: obj.invoke("addDataItem", [op[1], op[2]], caller=OWNER))
    elif kind == "delete_data":
        pair.step(lambda obj: obj.invoke("deleteDataItem", [op[1]], caller=OWNER))
    elif kind == "add_method":
        source = f"return {op[2]}"
        pair.step(
            lambda obj: obj.invoke(
                "addMethod",
                [op[1], source, {"acl": allow_all().describe()}],
                caller=OWNER,
            )
        )
    elif kind == "delete_method":
        pair.step(lambda obj: obj.invoke("deleteMethod", [op[1]], caller=OWNER))
    elif kind == "acl_grant":
        def grant(obj):
            method, _ = obj.containers.lookup_method("guarded")
            method.acl.grant(op[1].guid, Permission.INVOKE)
            return "granted"
        pair.step(grant)
    elif kind == "acl_revoke":
        def revoke(obj):
            method, _ = obj.containers.lookup_method("guarded")
            method.acl.revoke(op[1].guid, Permission.INVOKE)
            return "revoked"
        pair.step(revoke)
    elif kind == "set_method_acl":
        open_it = op[1]
        def swap(obj):
            method, _ = obj.containers.lookup_method("guarded")
            acl = allow_all() if open_it else AccessControlList().grant(
                FRIEND.guid, Permission.INVOKE
            )
            method.set_acl(acl)
            return "swapped"
        pair.step(swap)
    elif kind == "migrate":
        pair.migrate()
    elif kind == "specialize":
        pair.specialize()


# ---------------------------------------------------------------------------
# the differential suites
# ---------------------------------------------------------------------------


class TestDifferential:
    @given(st.lists(ops(), min_size=1, max_size=25))
    @settings(max_examples=150, deadline=None)
    def test_randomized_sequences_observably_identical(self, sequence):
        pair = Pair()
        for op in sequence:
            apply_op(pair, op)
        # the tiers kept their shapes all along the way
        assert pair.interpreted.fastpath is None
        assert pair.compiled.fastpath is not None

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(METHOD_NAMES),
                small_ints,
                st.sampled_from(PRINCIPALS),
            ),
            min_size=2,
            max_size=20,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_pure_invocation_storms_hit_and_stay_identical(self, calls):
        """Invocation-only sequences: each allowed (method, caller) pair
        compiles on its first call and is a compiled hit from its second
        call on; denied calls never compile. Observables stay identical
        to the interpreted reference throughout."""
        pair = Pair()
        for name, arg, caller in calls:
            args = [arg] if name == "double" else []
            pair.step(lambda obj: obj.invoke(name, args, caller=caller))
        counts: dict[tuple[str, str], int] = {}
        for name, _arg, caller in calls:
            if name != "guarded" or caller is FRIEND:
                key = (name, caller.guid)
                counts[key] = counts.get(key, 0) + 1
        cache = pair.compiled.fastpath
        assert cache.compiles == cache.compiled_entries == len(counts)
        assert cache.compiled_hits == sum(n - 1 for n in counts.values())
        assert cache.compiled_discards == 0


def audit(tel: Telemetry) -> tuple[int, int, list]:
    """The Match phase's audit evidence under one Telemetry."""
    events = [
        (event.name, event.attrs.get("outcome"),
         event.attrs.get("principal"), event.attrs.get("item"))
        for span in tel.recorder
        for event in span.events
        if event.name == "acl.check"
    ]
    return (
        tel.metrics.counter_value("acl.checks"),
        tel.metrics.counter_value("acl.denials"),
        events,
    )


class TestScriptedEdges:
    def test_post_mutation_sequences(self):
        """add -> call -> delete -> call -> re-add, in lockstep."""
        pair = Pair()
        pair.step(lambda obj: obj.invoke("ping", [], caller=OWNER))
        for op in (
            ("add_method", "alpha", 7),
            ("invoke", "ping", 0, OWNER),
            ("delete_method", "alpha"),
            ("add_method", "alpha", 9),
            ("invoke", "ping", 0, OWNER),
        ):
            apply_op(pair, op)
        # the extensible method behaves identically after re-add
        pair.step(lambda obj: obj.invoke("alpha", [], caller=OWNER))

    def test_denials_are_never_cached(self):
        """deny -> grant -> allow -> revoke -> deny, compiled and not."""
        pair = Pair()
        apply_op(pair, ("invoke_denied", STRANGER))     # denied
        apply_op(pair, ("acl_grant", STRANGER))         # in-place edit
        apply_op(pair, ("invoke_denied", STRANGER))     # now allowed
        apply_op(pair, ("acl_revoke", STRANGER))        # deny-overrides
        apply_op(pair, ("invoke_denied", STRANGER))     # denied again
        apply_op(pair, ("invoke_denied", STRANGER))     # still denied (no
        # negative caching could have flipped this)

    def test_migration_preserves_observables(self):
        pair = Pair()
        apply_op(pair, ("add_data", "alpha", 5))
        apply_op(pair, ("invoke", "touch_base", 0, OWNER))
        pair.migrate()
        apply_op(pair, ("invoke", "touch_base", 0, OWNER))
        pair.step(lambda obj: obj.get_data("alpha", caller=OWNER))


    def test_telemetry_observables_identical(self):
        """Same scripted run, each tier under a fresh Telemetry: the
        acl.check counters and span-event streams must match (a compiled
        call emits the same audit evidence as a fresh Match)."""
        script = [
            ("invoke", "ping", 0, FRIEND),         # compiles
            ("invoke", "guarded", 0, FRIEND),      # compiles
            ("invoke", "guarded", 0, FRIEND),      # compiled hit
            ("invoke_denied", STRANGER),           # general path
            ("invoke", "double", 21, FRIEND),      # compiles
            ("invoke", "double", 21, FRIEND),      # compiled hit
        ]
        streams = []
        for tier in TIERS:
            obj = build_tier(tier)
            with enabled(Telemetry()) as tel:
                with tel.span("harness"):
                    for op in script:
                        try:
                            if op[0] == "invoke":
                                args = [op[2]] if op[1] == "double" else []
                                obj.invoke(op[1], args, caller=op[3])
                            else:
                                obj.invoke("guarded", [], caller=op[1])
                        except MROMError:
                            pass
                assert tel.open_spans == 0
            if tier == "compiled":
                # the comparison is only meaningful if closures actually
                # served calls in the measured window
                assert obj.fastpath.compiled_hits == 2, (
                    "script must exercise compiled hits"
                )
            streams.append(audit(tel))
        assert streams[0] == streams[1], (
            f"telemetry observables diverged across tiers: {streams!r}"
        )

    @pytest.mark.parametrize(
        "call",
        [
            pytest.param(("guarded", [], STRANGER), id="denied"),
            pytest.param(("addDataItem", ["alpha", 1], FRIEND), id="meta-method"),
            pytest.param(("guarded", [], FRIEND), id="first-allowed"),
        ],
    )
    def test_cold_step_audits_exactly_once(self, call):
        """The cold step evaluates Match without auditing; the one audit
        comes from the path that then runs. A cold step that audited
        Match itself, or evaluated it twice, shows up as two checks."""
        name, args, caller = call
        for tier in TIERS:
            obj = build_tier(tier)
            with enabled(Telemetry()) as tel:
                try:
                    obj.invoke(name, args, caller=caller)
                except MROMError:
                    pass
            checks, _denials, events = audit(tel)
            assert (checks, len(events)) == (1, 1), (tier, checks, events)
