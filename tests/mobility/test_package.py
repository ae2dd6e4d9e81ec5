"""Packing and unpacking: objects as data."""

import pytest

from repro.core import (
    Kind,
    MROMObject,
    NotPortableError,
    Principal,
    allow_all,
    owner_only,
)
from repro.core.errors import MobilityError
from repro.mobility import (
    pack,
    pack_bytes,
    portability_report,
    unpack,
    unpack_bytes,
)

from ..conftest import best_time_per_call


@pytest.fixture
def owner():
    return Principal("mrom://origin/1.1", "technion.ee", "origin")


def make_portable(owner, extensible_meta=True):
    obj = MROMObject(
        guid="mrom://origin/2.1",
        domain="technion.ee",
        display_name="traveller",
        owner=owner,
        extensible_meta=extensible_meta,
        meta_acl=owner_only(owner),
    )
    obj.define_fixed_data("balance", 100, kind=Kind.INTEGER)
    obj.define_fixed_data("notes", ["a", "b"])
    obj.define_fixed_method(
        "spend",
        "self.set('balance', self.get('balance') - args[0])\n"
        "return self.get('balance')",
        pre="return args[0] <= self.get('balance')",
        post="return result >= 0",
    )
    obj.seal()
    view = obj.self_view()
    view.add_data("label", "hot", {"acl": allow_all().describe()})
    view.add_method("hello", "return 'hi from ' + self.get('label')")
    return obj


class TestRoundTrip:
    def test_identity_travels(self, owner):
        original = make_portable(owner)
        copy = unpack(pack(original))
        assert copy.guid == original.guid
        assert copy.owner.guid == owner.guid
        assert copy.principal.display_name == "traveller"

    def test_structure_and_behaviour_travel(self, owner):
        copy = unpack(pack(make_portable(owner)))
        assert copy.invoke("spend", [30], caller=owner) == 70
        assert copy.invoke("hello", caller=owner) == "hi from hot"

    def test_wrappers_travel(self, owner):
        from repro.core import PreProcedureVeto

        copy = unpack(pack(make_portable(owner)))
        with pytest.raises(PreProcedureVeto):
            copy.invoke("spend", [100000], caller=owner)

    def test_sections_preserved(self, owner):
        copy = unpack(pack(make_portable(owner)))
        assert copy.containers.lookup_data("balance")[1] == "fixed"
        assert copy.containers.lookup_data("label")[1] == "extensible"
        assert copy.containers.lookup_method("spend")[1] == "fixed"

    def test_kinds_and_acls_preserved(self, owner):
        mallory = Principal("mrom://evil/1.1", "evil", "mallory")
        copy = unpack(pack(make_portable(owner)))
        item, _ = copy.containers.lookup_data("balance")
        assert item.kind is Kind.INTEGER
        # owner-only meta ACL survived the trip
        from repro.core import AccessDeniedError

        with pytest.raises(AccessDeniedError):
            copy.invoke("addDataItem", ["evil", 1], caller=mallory)
        copy.invoke("addDataItem", ["fine", 1], caller=owner)

    def test_copies_are_independent(self, owner):
        original = make_portable(owner)
        copy = unpack(pack(original))
        copy.invoke("spend", [50], caller=owner)
        assert original.get_data("balance") == 100
        copy.get_data("notes", caller=owner).append("c")
        assert original.get_data("notes") == ["a", "b"]

    def test_wire_round_trip(self, owner):
        wire = pack_bytes(make_portable(owner))
        assert isinstance(wire, bytes)
        copy = unpack_bytes(wire)
        assert copy.invoke("hello", caller=owner) == "hi from hot"

    def test_tower_travels(self, owner):
        original = make_portable(owner)
        original.invoke(
            "addMethod",
            ["invoke", "return ['meta', ctx.proceed()]",
             {"acl": allow_all().describe()}],
            caller=owner,
        )
        copy = unpack(pack(original))
        assert copy.invoke("hello", caller=owner) == ["meta", "hi from hot"]

    def test_environment_travels_but_host_bindings_do_not(self, owner):
        original = make_portable(owner)
        original.environment.update(
            {"goal": "explore", "site": "origin", "install_context": {"x": 1}}
        )
        copy = unpack(pack(original))
        assert copy.environment.get("goal") == "explore"
        assert "site" not in copy.environment
        assert "install_context" not in copy.environment


class TestPortability:
    def test_native_code_blocks_packing(self, owner):
        obj = MROMObject(owner=owner)
        obj.define_fixed_method("local_only", lambda self, args, ctx: 42)
        obj.seal()
        report = portability_report(obj)
        assert report == ["local_only"]
        with pytest.raises(NotPortableError) as excinfo:
            pack(obj)
        assert "local_only" in str(excinfo.value)

    def test_native_pre_procedure_blocks_packing(self, owner):
        obj = MROMObject(owner=owner)
        obj.define_fixed_method(
            "m", "return 1", pre=lambda self, args, ctx: True
        )
        obj.seal()
        assert portability_report(obj) == ["m"]

    def test_meta_methods_do_not_block(self, owner):
        # bundled meta-methods are native but reinstalled, never packed
        obj = MROMObject(owner=owner)
        obj.seal()
        assert portability_report(obj) == []
        assert unpack(pack(obj)).guid == obj.guid

    def test_bad_format_rejected(self):
        with pytest.raises(MobilityError):
            unpack({"format": "not-a-package"})

    def test_unpacked_code_is_reverified(self, owner):
        # tamper with a packed method body: the sandbox must reject it
        # at first invocation on the receiving side
        from repro.core import SandboxViolation

        package = pack(make_portable(owner))
        for method in package["ext_methods"]:
            if method["name"] == "hello":
                method["components"]["body"]["source"] = "import os\nreturn 1"
        hostile = unpack(package)
        with pytest.raises(SandboxViolation):
            hostile.invoke("hello", caller=owner)


#: eager over untouched-lazy unpack, best of 3 (measured ~17x on 2 vCPUs)
MIN_LAZY_SPEEDUP = 1.5
PACK_ITEMS = 8
PACK_BLOB = b"\xa5" * (4 << 20)  # 4 MiB of bulk state per item


def make_heavy_traveller(owner):
    """A migration subject whose cost is its bulk data values (files,
    images, serialized state): the wire slices zero-copy lets the
    receiver never decode."""
    obj = MROMObject(
        guid="mrom://origin/2.2", domain="technion.ee",
        display_name="heavy", owner=owner,
    )
    for index in range(PACK_ITEMS):
        obj.define_fixed_data(f"item{index}", PACK_BLOB, kind=Kind.ANY)
    obj.define_fixed_method("noop", "return None")
    obj.seal()
    return obj


class TestZeroCopyPackage:
    def test_pack_frame_bytes_identical_to_pack_bytes(self, owner):
        from repro.mobility import pack_frame

        original = make_portable(owner)
        with pack_frame(original) as frame:
            assert frame.tobytes() == pack_bytes(original)

    def test_lazy_unpack_equals_eager_unpack(self, owner):
        wire = pack_bytes(make_portable(owner))
        lazy, eager = unpack_bytes(wire, lazy=True), unpack_bytes(wire, lazy=False)
        assert lazy.guid == eager.guid
        for name in ("balance", "notes", "label"):
            assert lazy.get_data(name, caller=owner) == eager.get_data(
                name, caller=owner
            )
        assert lazy.invoke("spend", [30], caller=owner) == eager.invoke(
            "spend", [30], caller=owner
        )

    def test_lazy_unpack_repacks_to_identical_bytes(self, owner):
        """A lazily unpacked object (touched or not) must re-pack: no
        lazy container may leak into structure the encoder rejects."""
        wire = pack_bytes(make_portable(owner))
        untouched = unpack_bytes(wire, lazy=True)
        assert pack_bytes(untouched) == pack_bytes(unpack_bytes(wire, lazy=False))

    def test_untouched_values_stay_undecoded(self, owner):
        from repro.core.values import LazyCell

        wire = pack_bytes(make_portable(owner))
        obj = unpack_bytes(wire, lazy=True)
        # "notes" is fully untyped (Kind.ANY): its value arrives as an
        # undecoded wire slice and stays one until somebody reads it
        notes, _section = obj.containers.lookup_data("notes")
        assert isinstance(notes._value, LazyCell)
        assert obj.get_data("notes", caller=owner) == ["a", "b"]
        assert not isinstance(notes._value, LazyCell), "reads materialize"
        # "balance" declares INTEGER: coercion needs the value at admit
        # time, so concretely-kinded items are never lazy
        balance, _section = obj.containers.lookup_data("balance")
        assert balance._value == 100

    def test_untouched_lazy_unpack_beats_eager_by_the_floor(self, owner):
        wire = pack_bytes(make_heavy_traveller(owner))
        eager = best_time_per_call(lambda: unpack_bytes(wire, lazy=False))
        untouched = best_time_per_call(lambda: unpack_bytes(wire, lazy=True))
        speedup = eager / untouched
        assert speedup >= MIN_LAZY_SPEEDUP, (
            f"untouched lazy unpack only {speedup:.2f}x faster than eager "
            f"(floor {MIN_LAZY_SPEEDUP}x)"
        )
        arrived = unpack_bytes(wire, lazy=True)
        last = f"item{PACK_ITEMS - 1}"
        assert arrived.get_data(last, caller=owner) == PACK_BLOB

    def test_compiled_state_never_travels(self, owner):
        """Warm the compiled closures on the sender; the wire image and
        the arrived object must know nothing about them."""
        original = make_portable(owner)
        for _ in range(3):
            original.invoke("hello", caller=owner)
        cache = original.fastpath
        assert cache.compiled_entries > 0 and cache.compiled_hits > 0
        wire = pack_bytes(original)
        arrived = unpack_bytes(wire)
        assert arrived.fastpath is not None
        assert arrived.fastpath.compiled_entries == 0, (
            "compiled closures must never be packaged"
        )
        assert arrived.fastpath.invalidations == 0, (
            "arriving cold is not an invalidation"
        )
        # and the cold wire image is byte-identical to a never-warmed one
        assert wire == pack_bytes(make_portable(owner))
