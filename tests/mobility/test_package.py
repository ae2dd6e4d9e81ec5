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
from repro.core.errors import DuplicateItemError, MarshalError, MobilityError
from repro.core.values import LazyCell
from repro.mobility import (
    pack,
    pack_bytes,
    portability_report,
    unpack,
    unpack_bytes,
)
from repro.net.marshal import DEFER_BINARY_MIN, marshal, unmarshal

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

    def test_a_held_object_is_shared_and_plain_containers_are_copied(self, owner):
        original = make_portable(owner)
        peer = MROMObject(guid="mrom://origin/3.1")
        nested = {"peer": peer, "refs": [peer, ("t", [1])]}
        original.self_view().add_data("nested", nested)
        value = next(
            raw["value"] for raw in pack(original)["ext_data"]
            if raw["name"] == "nested"
        )
        assert value == nested and value is not nested
        assert value["refs"] is not nested["refs"]
        assert value["refs"][1][1] is not nested["refs"][1][1]
        assert value["peer"] is peer and value["refs"][0] is peer

    def test_a_cyclic_value_is_refused_typed(self, owner):
        original = make_portable(owner)
        loop = [1]
        loop.append(loop)
        original.self_view().add_data("loop", loop)
        with pytest.raises(MarshalError):
            pack(original)

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

    def test_only_the_bundled_meta_methods_are_left_out(self, owner):
        # metadata saying "meta" does not make a method a bundled one: it
        # travels, clones and pins the object to this runtime like any other
        from repro.core.specialization import clone

        obj = MROMObject(owner=owner)
        obj.define_fixed_method("hello", "return 1", metadata={"meta": True})
        obj.seal()
        assert [m["name"] for m in pack(obj)["fixed_methods"]] == ["hello"]
        assert unpack(pack(obj)).invoke("hello", caller=owner) == 1
        assert clone(obj).invoke("hello", caller=owner) == 1

        native = MROMObject(owner=owner)
        native.define_fixed_method(
            "hello", lambda self, args, ctx: 1, metadata={"meta": True}
        )
        native.seal()
        assert portability_report(native) == ["hello"]
        with pytest.raises(NotPortableError):
            pack(native)

    def test_a_meta_method_given_another_body_keeps_it(self, owner):
        # setMethod patches getDataItem in place; deleteMethod + addMethod
        # puts a new getMethod under the bundled name. Each travels and
        # clones as the object now has it
        from repro.core.specialization import clone

        obj = make_portable(owner)
        _description, handle = obj.invoke("getMethod", ["getDataItem"], caller=owner)
        obj.invoke(
            "setMethod", [handle, {"body": "return ['patched', args[0]]"}], caller=owner
        )
        assert [m["name"] for m in pack(obj)["ext_methods"]][0] == "getDataItem"
        assert pack(unpack(pack(obj))) == pack(obj)
        obj.invoke("deleteMethod", ["getMethod"], caller=owner)
        obj.invoke("addMethod", ["getMethod", "return 'mine'"], caller=owner)
        for copy in (unpack(pack(obj)), unpack_bytes(pack_bytes(obj)), clone(obj)):
            assert copy.invoke("getDataItem", ["x"], caller=owner) == ["patched", "x"]
            assert copy.invoke("getMethod", [], caller=owner) == "mine"
            assert sorted(copy.containers.ext_methods.names()) == sorted(
                obj.containers.ext_methods.names()
            )
        # only a bundled meta-method gives way: a second 'hello', or a
        # 'getDataItem' beside fixed meta-methods, is still refused
        package = pack(obj)
        package["ext_methods"] += [m for m in package["ext_methods"] if m["name"] == "hello"]
        with pytest.raises(DuplicateItemError):
            unpack(package)
        fixed_meta = pack(make_portable(owner, extensible_meta=False))
        fixed_meta["ext_methods"].append(pack(obj)["ext_methods"][0])
        with pytest.raises(DuplicateItemError):
            unpack(fixed_meta)

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


#: eager over untouched-lazy unpack, best of 3 (measured ~30-50x on 2 vCPUs)
MIN_LAZY_SPEEDUP = 1.5
PACK_ITEMS = 8
PACK_BLOB = b"\xa5" * (4 << 20)  # 4 MiB of bulk state per item
#: one bulk binary value at the leaf rule's threshold
PHOTO = b"\x5a" * DEFER_BINARY_MIN


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


def make_blob_carrier(owner):
    """A threshold-size blob in each place a package can hold one."""
    obj = MROMObject(
        guid="mrom://origin/2.3", domain="technion.ee",
        display_name="carrier", owner=owner, environment={"icon": PHOTO},
    )
    obj.define_fixed_data("album", ["cover", PHOTO])
    obj.define_fixed_data("tagged", 1, metadata={"thumb": PHOTO})
    obj.define_fixed_data("photo", PHOTO)
    obj.define_fixed_data("essay", "a" * DEFER_BINARY_MIN)
    obj.seal()
    return obj


class TestCellsNeverLeak:
    def test_only_a_whole_item_value_stays_a_cell(self, owner):
        wire = pack_bytes(make_blob_carrier(owner))
        obj = unpack_bytes(wire)
        album, _section = obj.containers.lookup_data("album")
        tagged, _section = obj.containers.lookup_data("tagged")
        photo, _section = obj.containers.lookup_data("photo")
        assert album._value == ["cover", PHOTO]
        assert type(album._value[1]) is bytes
        assert type(tagged.metadata["thumb"]) is bytes
        assert type(obj.environment["icon"]) is bytes
        assert isinstance(photo._value, LazyCell)
        assert type(obj.get_data("album", caller=owner)[1]) is bytes
        assert isinstance(photo._value, LazyCell), "until it is read"
        assert pack_bytes(obj) == wire
        assert obj.get_data("photo", caller=owner) == PHOTO

    def test_a_blob_in_a_text_field_reads_as_it_does_eagerly(self, owner):
        package = pack(make_blob_carrier(owner))
        package["guid"] = package["fixed_data"][0]["name"] = PHOTO
        wire = marshal(package)
        # a text field must be text: the deferred cell and the eager bytes
        # are refused alike
        for rebuild in (unpack_bytes, lambda w: unpack(unmarshal(w))):
            with pytest.raises(MobilityError, match="not str"):
                rebuild(wire)

    def test_invalid_utf8_in_long_text_is_refused_at_decode(self, owner):
        wire = bytearray(pack_bytes(make_blob_carrier(owner)))
        wire[wire.index(b"a" * DEFER_BINARY_MIN) + DEFER_BINARY_MIN // 2] = 0xFF
        with pytest.raises(MarshalError, match="invalid UTF-8"):
            unpack_bytes(bytes(wire))


class TestZeroCopyPackage:
    def test_pack_frame_bytes_identical_to_pack_bytes(self, owner):
        from repro.mobility import pack_frame

        original = make_portable(owner)
        with pack_frame(original) as frame:
            assert frame.tobytes() == pack_bytes(original)

    def test_lazy_unpack_equals_eager_unpack(self, owner):
        wire = pack_bytes(make_portable(owner))
        lazy, eager = unpack_bytes(wire), unpack(unmarshal(wire))
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
        cell may leak into structure the encoder rejects."""
        wire = pack_bytes(make_portable(owner))
        untouched = unpack_bytes(wire)
        assert pack_bytes(untouched) == pack_bytes(unpack(unmarshal(wire)))

    def test_untouched_values_stay_undecoded(self, owner):
        original = make_portable(owner)
        original.self_view().add_data("photo", PHOTO)
        obj = unpack_bytes(pack_bytes(original))
        # "photo" is fully untyped (Kind.ANY) bulk binary: its value
        # arrives as a slice of the message and stays one until read
        photo, _section = obj.containers.lookup_data("photo")
        assert isinstance(photo._value, LazyCell)
        assert obj.get_data("photo", caller=owner) == PHOTO
        assert not isinstance(photo._value, LazyCell), "reads materialize"
        # a list is structure: it decodes with the message
        notes, _section = obj.containers.lookup_data("notes")
        assert notes._value == ["a", "b"]
        # "balance" declares INTEGER: coercion needs the value at admit
        # time, so concretely-kinded items are never lazy
        balance, _section = obj.containers.lookup_data("balance")
        assert balance._value == 100

    def test_untouched_lazy_unpack_beats_eager_by_the_floor(self, owner):
        wire = pack_bytes(make_heavy_traveller(owner))
        eager = best_time_per_call(lambda: unpack(unmarshal(wire)))
        untouched = best_time_per_call(lambda: unpack_bytes(wire))
        speedup = eager / untouched
        assert speedup >= MIN_LAZY_SPEEDUP, (
            f"untouched lazy unpack only {speedup:.2f}x faster than eager "
            f"(floor {MIN_LAZY_SPEEDUP}x)"
        )
        arrived = unpack_bytes(wire)
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
