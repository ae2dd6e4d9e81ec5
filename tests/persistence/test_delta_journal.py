"""The delta journal: a served invoke logs the data values it changed,
and falls back to the whole image whenever a delta could not say what
changed. Replay patches a copy of the latest image and reports a delta
that fits no image as typed damage."""

from __future__ import annotations

import copy

import pytest

from repro.concurrency import atomic
from repro.core import MROMMethod, MROMObject, Permission, allow_all
from repro.persistence import (
    FileStore,
    MemoryStore,
    SiteJournal,
    SqliteStore,
    WalRecord,
    WriteAheadLog,
    replay_records,
)
from repro.telemetry import Telemetry, enabled

from .conftest import FAST, DurableWorld, build_cell

pytestmark = pytest.mark.recovery


@pytest.fixture
def world():
    world = DurableWorld(names=("a", "b"))
    cell = build_cell()
    world.sites["a"].register_object(cell)
    world.cell = cell
    return world


def call(world, method: str, *args, target=None):
    guid = (target or world.cell).guid
    return world.sites["b"].remote_invoke("a", guid, method, list(args), policy=FAST)


def served(world) -> list[WalRecord]:
    return [r for r in world.wals["a"].records() if r.kind == "served.reply"]


def recovered_values(world) -> dict:
    world.crash_restart("a")
    obj = world.sites["a"].local_object(world.cell.guid)
    return {
        item.name: (type(item.peek()), repr(item.peek()))
        for item in (*obj.containers.fixed_data, *obj.containers.ext_data)
    }


class TestDeltaRecords:
    def test_increment_logs_the_changed_value_only(self, world):
        for _ in range(3):
            call(world, "increment")
        records = served(world)
        assert [r.attrs.get("delta") for r in records] == [
            {"count": 1}, {"count": 2}, {"count": 3},
        ]
        assert not any("image" in r.attrs for r in records)
        frames = world.wals["a"].store.frames()
        assert len(frames[-1]) * 4 < len(frames[0])  # delta vs first image
        assert recovered_values(world)["count"] == (int, "3")

    def test_an_invoke_that_changes_nothing_logs_no_state(self, world):
        call(world, "peek")
        (record,) = served(world)
        assert sorted(record.attrs) == ["kind", "reply", "request_id"]

    @pytest.mark.parametrize("before, after", [
        (1, 1.0), (1, True), (0, False), (0.0, -0.0), (1.0, 1),
    ])
    def test_a_type_or_sign_change_is_a_change(self, world, before, after):
        call(world, "put", "count", before)
        call(world, "put", "count", after)
        assert served(world)[-1].attrs["delta"] == {"count": after}
        assert recovered_values(world)["count"] == (type(after), repr(after))

    def test_a_local_write_rides_in_the_next_delta(self, world):
        world.journals["a"].checkpoint(compact=True)
        world.cell.set_data("notes", "edited", caller=world.cell.owner)
        call(world, "increment")
        assert served(world)[-1].attrs["delta"] == {
            "count": 1, "notes": "edited",
        }
        assert recovered_values(world)["notes"] == (str, "'edited'")


class TestImageFallbacks:
    def test_structural_change_logs_an_image_then_deltas_resume(self, world):
        call(world, "addDataItem", "extra", 5)
        call(world, "increment")
        first, second = served(world)
        assert "image" in first.attrs and "delta" not in first.attrs
        assert second.attrs["delta"] == {"count": 1}
        assert recovered_values(world)["extra"] == (int, "5")

    def test_a_kind_change_logs_an_image(self, world):
        call(world, "addDataItem", "tag", 1)
        _description, handle = call(world, "getDataItem", "tag")
        call(world, "setDataItem", handle, {"kind": "real"})
        assert "image" in served(world)[-1].attrs
        world.crash_restart("a")
        obj = world.sites["a"].local_object(world.cell.guid)
        item, _section = obj.containers.lookup_data("tag")
        assert (item.kind.value, repr(item.peek())) == ("real", "1.0")

    def test_an_in_place_acl_grant_logs_an_image(self, world):
        item, _section = world.cell.containers.lookup_data("count")
        item.acl.grant("mrom:obj:grantee", Permission.GET)
        call(world, "increment")
        assert "image" in served(world)[-1].attrs
        world.crash_restart("a")
        obj = world.sites["a"].local_object(world.cell.guid)
        item, _section = obj.containers.lookup_data("count")
        assert "mrom:obj:grantee" in repr(item.acl.describe())

    def test_an_in_place_grant_on_a_shared_acl_images_its_holders_only(self, world):
        # one list held by two items of the cell and by an item of
        # another object; a third object holds none of it
        other, bystander = build_cell(), build_cell()
        world.sites["a"].register_object(other)
        world.sites["a"].register_object(bystander)
        shared = allow_all()
        for obj, name in ((world.cell, "count"), (world.cell, "notes"), (other, "count")):
            item, _section = obj.containers.lookup_data(name)
            item.set_acl(shared)
        cells = (world.cell, other, bystander)
        for cell in cells:
            call(world, "increment", target=cell)
        shared.grant("mrom:obj:grantee", Permission.GET)
        for cell in cells:
            call(world, "increment", target=cell)
        cell_record, other_record, bystander_record = served(world)[-3:]
        assert "image" in cell_record.attrs and "image" in other_record.attrs
        assert bystander_record.attrs["delta"] == {"count": 2}
        world.crash_restart("a")
        obj = world.sites["a"].local_object(other.guid)
        item, _section = obj.containers.lookup_data("count")
        assert "mrom:obj:grantee" in repr(item.acl.describe())

    def test_a_tower_push_and_pop_log_an_image(self, world):
        world.cell.extensible_meta = True
        level = MROMMethod("invoke", "return ['meta', ctx.proceed()]", acl=allow_all())
        call(world, "increment")
        world.cell._push_meta_invoke(level)  # the only edit before the invoke
        assert call(world, "peek") == ["meta", 1]
        assert "image" in served(world)[-1].attrs
        world.cell._pop_meta_invoke()
        assert call(world, "peek") == 1
        assert "image" in served(world)[-1].attrs

    def test_an_in_place_grant_on_the_meta_acl_or_a_tower_level_logs_an_image(self, world):
        world.cell.extensible_meta = True
        level = MROMMethod("invoke", "return ctx.proceed()", acl=allow_all())
        world.cell._push_meta_invoke(level)
        call(world, "increment")
        for acl in (world.cell._meta_acl, level.acl):
            call(world, "increment")
            assert "delta" in served(world)[-1].attrs
            acl.grant("mrom:obj:grantee", Permission.META)
            call(world, "increment")
            assert "image" in served(world)[-1].attrs
        world.crash_restart("a")
        obj = world.sites["a"].local_object(world.cell.guid)
        for acl in (obj._meta_acl, obj.meta_invoke_at(1).acl):
            assert "mrom:obj:grantee" in repr(acl.describe())

    def test_an_environment_edit_logs_an_image(self, world):
        world.cell.environment["goal"] = "explore"
        call(world, "increment")
        call(world, "increment")
        assert "delta" in served(world)[-1].attrs
        world.cell.environment["goal"] = "rest"
        call(world, "increment")
        assert "image" in served(world)[-1].attrs
        world.crash_restart("a")
        obj = world.sites["a"].local_object(world.cell.guid)
        assert obj.environment["goal"] == "rest"

    def test_a_meta_method_given_another_body_recovers_with_it(self, world):
        obj = MROMObject(display_name="patched", meta_acl=allow_all(), extensible_meta=True)
        obj.seal()
        world.sites["a"].register_object(obj)
        _description, handle = obj.invoke("getMethod", ["getDataItem"], caller=obj.principal)
        obj.invoke(
            "setMethod", [handle, {"body": "return ['patched', args[0]]"}],
            caller=obj.principal,
        )
        assert call(world, "getDataItem", "x", target=obj) == ["patched", "x"]
        assert "image" in served(world)[-1].attrs
        world.crash_restart("a")
        recovered = world.sites["a"].local_object(obj.guid)
        assert recovered.invoke("getDataItem", ["x"]) == ["patched", "x"]

    def test_the_invoke_after_a_rollback_logs_an_image(self, world):
        # the block's invokes left a base that holds 'hello'; the rollback
        # swaps the containers back behind the journal's back
        with pytest.raises(RuntimeError):
            with atomic(world.cell):
                call(world, "addMethod", "hello", "return 42")
                call(world, "increment")
                raise RuntimeError("halfway")
        assert "delta" in served(world)[-1].attrs
        call(world, "increment")
        assert "image" in served(world)[-1].attrs
        world.crash_restart("a")
        obj = world.sites["a"].local_object(world.cell.guid)
        assert not obj.containers.has_method("hello")
        assert obj.get_data("count") == 1

    def test_a_list_value_is_always_imaged(self, world):
        call(world, "addDataItem", "log", [])
        call(world, "push", "log", 7)
        call(world, "push", "log", 8)
        assert all("image" in r.attrs for r in served(world))
        assert recovered_values(world)["log"] == (list, "[7, 8]")

    def test_a_fresh_journal_starts_without_bases(self, world):
        call(world, "increment")
        world.journals["a"].close()
        SiteJournal(world.sites["a"], world.wals["a"])  # no registrations
        call(world, "increment")
        assert "image" in served(world)[-1].attrs


class TestOtherObjects:
    def test_objects_built_and_edited_on_another_site_leave_deltas(self, world):
        # each stamp is the object's own: site b building an object and
        # editing another changes nothing a's journal or view cache reads
        b = world.sites["b"]
        b.remote_describe("a", world.cell.guid)
        view = world.cell._described
        peer = b.register_object(b.create_object(display_name="peer"))
        for step in range(50):
            b.create_object(display_name=f"new{step}")
            if step % 3 == 0:
                peer.invoke("addDataItem", [f"x{step}", step], caller=peer.principal)
            else:
                item, _section = peer.containers.lookup_method("addDataItem")
                if step % 3 == 1:
                    item.update_metadata({"doc": f"edit {step}"})
                else:
                    item.acl.grant(f"mrom:obj:{step}", Permission.META)
            call(world, "increment")
        records = [r for r in served(world) if r.attrs["kind"] == "invoke"]
        assert [r.attrs.get("delta") for r in records] == [
            {"count": step} for step in range(1, 51)
        ]
        assert not any("image" in r.attrs for r in served(world))
        assert world.cell._described is view
        b.remote_describe("a", world.cell.guid)
        assert world.cell._described is view
        assert recovered_values(world)["count"] == (int, "50")


IMAGE = {
    "guid": "mrom://a/1.1",
    "fixed_data": [{"name": "count", "value": 0}, {"name": "notes", "value": "n"}],
    "ext_data": [{"name": "tag", "value": 1}],
}


def image_record(seq: int) -> WalRecord:
    return WalRecord(seq, "object.image", float(seq), "a",
                     {"guid": IMAGE["guid"], "package": IMAGE})


def reply(seq: int, delta) -> WalRecord:
    return WalRecord(seq, "served.reply", float(seq), "a", {
        "kind": "invoke", "request_id": f"r{seq}", "reply": {"ok": True},
        "guid": IMAGE["guid"], "delta": delta,
    })


class TestReplay:
    def test_deltas_patch_a_copy_and_leave_the_records_alone(self):
        records = [
            image_record(1), reply(2, {"count": 1}),
            reply(3, {"count": 2, "tag": True}),
        ]
        before = copy.deepcopy([r.to_mapping() for r in records])
        state = replay_records(records)
        assert [r.to_mapping() for r in records] == before
        image = state.images[IMAGE["guid"]]
        assert image["fixed_data"][0] == {"name": "count", "value": 2}
        assert image["ext_data"][0]["value"] is True
        assert state.damage is None and list(state.served) == ["r2", "r3"]
        assert replay_records(records).images == state.images

    def test_a_delta_without_a_base_image_is_torn(self):
        state = replay_records([reply(1, {"count": 1})])
        assert state.damage == "torn"
        assert not state.images and not state.served

    def test_a_delta_naming_an_item_the_image_lacks_is_torn(self):
        state = replay_records([image_record(1), reply(2, {"missing": 1})])
        assert state.damage == "torn"
        assert not state.images and not state.served

    def test_a_later_image_restores_a_torn_object(self):
        state = replay_records([
            reply(1, {"count": 1}), image_record(2), reply(3, {"count": 4}),
        ])
        assert state.damage == "torn"
        assert state.images[IMAGE["guid"]]["fixed_data"][0]["value"] == 4
        assert list(state.served) == ["r3"]


class TestCheckpointFailure:
    @pytest.mark.parametrize("compact", [True, False])
    def test_a_refused_snapshot_emits_wal_failed_once(self, tmp_path, compact):
        with enabled(Telemetry()) as tel:
            world = DurableWorld(names=("a", "b"))
            store = SqliteStore(tmp_path / "a.db")
            world.journals["a"] = SiteJournal(world.sites["a"], WriteAheadLog(store))
            store.close()
            assert world.journals["a"].checkpoint(compact=compact) is None
        assert world.journals["a"].failed
        events = tel.events.events("wal.failed")
        assert [(e.attrs["site"], e.attrs["kind"]) for e in events] == [
            ("a", "snapshot"),
        ]
        assert tel.metrics.counter_value("wal.failures") == 1

    @pytest.mark.parametrize("refusal", ["too-small-memory", "closed-file"])
    def test_a_refused_compaction_leaves_the_frames_unchanged(
        self, tmp_path, refusal
    ):
        """A compaction is a write like an append: a store that would
        refuse the append refuses the rewrite, typed, before a byte of
        it lands."""
        with enabled(Telemetry()) as tel:
            world = DurableWorld(names=("a", "b"))
            if refusal == "too-small-memory":
                store = MemoryStore()
            else:
                store = FileStore(tmp_path / "a.wal")
            wal = WriteAheadLog(store)
            wal.append("marker", {"n": 1}, site="a")
            world.journals["a"] = SiteJournal(world.sites["a"], wal)
            if refusal == "too-small-memory":
                store.capacity_bytes = store.size_bytes()  # no room to grow
            else:
                store.close()
            before = store.frames()
            assert len(before) == 1
            assert world.journals["a"].checkpoint(compact=True) is None
        assert store.frames() == before
        assert world.journals["a"].failed
        events = tel.events.events("wal.failed")
        assert [(e.attrs["site"], e.attrs["kind"]) for e in events] == [
            ("a", "snapshot"),
        ]
