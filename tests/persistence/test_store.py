"""Self-contained persistence: versioned images, corruption, bootstrap."""

import struct

import pytest

from repro.core import MROMObject, Principal
from repro.core.errors import PersistenceError
from repro.core.values import LazyCell
from repro.mobility import pack_bytes
from repro.net.marshal import DEFER_BINARY_MIN
from repro.persistence import ObjectStore, persist, restore
from repro.persistence.wal import decode_frame


@pytest.fixture
def store(tmp_path):
    return ObjectStore(tmp_path / "store")


@pytest.fixture
def owner():
    return Principal("mrom://home/1.1", "dom.home", "owner")


def make_obj(owner, guid="mrom://home/2.1", balance=100):
    obj = MROMObject(guid=guid, display_name="persistent", owner=owner)
    obj.define_fixed_data("balance", balance)
    obj.define_fixed_method(
        "spend",
        "self.set('balance', self.get('balance') - args[0])\n"
        "return self.get('balance')",
    )
    obj.seal()
    return obj


def frame_of(store, guid, version):
    """*guid*'s archive file and the byte range of *version*'s frame in it
    (``MROMWAL1`` header, then ``u32 length | frame`` per version)."""
    path = store.allocate(guid) / "images.wal"
    raw = path.read_bytes()
    offset = len(b"MROMWAL1\n")
    while offset < len(raw):
        (length,) = struct.unpack_from(">I", raw, offset)
        start, offset = offset + 4, offset + 4 + length
        if decode_frame(raw[start:offset]).seq == version:
            return path, slice(start, offset)
    raise LookupError(f"no frame for version {version}")


def flip_last_byte(store, guid, version):
    path, span = frame_of(store, guid, version)
    raw = bytearray(path.read_bytes())
    raw[span.stop - 1] ^= 0xFF
    path.write_bytes(bytes(raw))


class TestSaveAndLoad:
    def test_round_trip(self, store, owner):
        obj = make_obj(owner)
        version = persist(obj, store)
        assert version == 1
        loaded = restore(store, obj.guid)
        assert loaded.guid == obj.guid
        assert loaded.invoke("spend", [25], caller=owner) == 75

    def test_versions_accumulate(self, store, owner):
        obj = make_obj(owner)
        persist(obj, store, keep=0)
        obj.invoke("spend", [10], caller=owner)
        persist(obj, store, keep=0)
        assert store.versions(obj.guid) == [1, 2]
        assert restore(store, obj.guid, version=1).get_data("balance") == 100
        assert restore(store, obj.guid).get_data("balance") == 90

    def test_keep_bounds_history(self, store, owner):
        obj = make_obj(owner)
        for _ in range(5):
            persist(obj, store, keep=2)
        assert len(store.versions(obj.guid)) == 2
        assert store.versions(obj.guid)[-1] == 5

    def test_missing_object(self, store):
        with pytest.raises(PersistenceError):
            store.load("mrom://home/99.99")

    def test_missing_version(self, store, owner):
        obj = make_obj(owner)
        persist(obj, store)
        with pytest.raises(PersistenceError):
            store.load(obj.guid, version=7)


class TestCorruption:
    def _corrupt_latest(self, store, guid):
        flip_last_byte(store, guid, store.versions(guid)[-1])

    def test_checksum_detects_corruption(self, store, owner):
        obj = make_obj(owner)
        persist(obj, store)
        self._corrupt_latest(store, obj.guid)
        with pytest.raises(PersistenceError, match="checksum"):
            store.load(obj.guid, version=1)

    def test_falls_back_to_previous_intact_version(self, store, owner):
        obj = make_obj(owner)
        persist(obj, store, keep=0)
        obj.invoke("spend", [40], caller=owner)
        persist(obj, store, keep=0)
        self._corrupt_latest(store, obj.guid)
        loaded = store.load(obj.guid)
        assert loaded.get_data("balance") == 100  # v1 survived

    def test_all_versions_corrupt(self, store, owner):
        obj = make_obj(owner)
        persist(obj, store)
        self._corrupt_latest(store, obj.guid)
        with pytest.raises(PersistenceError, match="every image"):
            store.load(obj.guid)

    def test_identity_mismatch_detected(self, store, owner):
        first = make_obj(owner, guid="mrom://home/2.1")
        second = make_obj(owner, guid="mrom://home/3.1")
        persist(first, store)
        persist(second, store)
        # swap the image files between the two allocations
        path_a, _span = frame_of(store, first.guid, 1)
        path_b, _span = frame_of(store, second.guid, 1)
        a, b = path_a.read_bytes(), path_b.read_bytes()
        path_a.write_bytes(b)
        path_b.write_bytes(a)
        with pytest.raises(PersistenceError, match="identity"):
            store.load(first.guid, version=1)


class TestAllocation:
    def test_allocate_is_idempotent(self, store):
        first = store.allocate("mrom://home/5.5")
        second = store.allocate("mrom://home/5.5")
        assert first == second

    def test_distinct_guids_distinct_space(self, store):
        a = store.allocate("mrom://home/1.1")
        b = store.allocate("mrom://home/1.2")
        assert a != b

    def test_nasty_guid_characters(self, store, owner):
        obj = make_obj(owner, guid="mrom://home/1.9")
        persist(obj, store)
        assert store.load(obj.guid).guid == obj.guid

    def test_delete_releases_space(self, store, owner):
        obj = make_obj(owner)
        persist(obj, store)
        store.delete(obj.guid)
        assert store.versions(obj.guid) == []
        assert obj.guid not in store.guids()


class TestBootstrap:
    def test_bootstrap_restores_everything(self, store, owner):
        guids = []
        for index in range(3):
            obj = make_obj(owner, guid=f"mrom://home/7.{index}", balance=index)
            persist(obj, store)
            guids.append(obj.guid)
        restored = store.bootstrap()
        assert sorted(obj.guid for obj in restored) == sorted(guids)

    def test_bootstrap_skips_corrupt_objects(self, store, owner):
        good = make_obj(owner, guid="mrom://home/8.1")
        bad = make_obj(owner, guid="mrom://home/8.2")
        persist(good, store)
        persist(bad, store)
        version = store.versions(bad.guid)[-1]
        path, span = frame_of(store, bad.guid, version)
        raw = bytearray(path.read_bytes())
        raw[span.start:span.start + 7] = b"garbage"
        path.write_bytes(bytes(raw))
        restored = store.bootstrap()
        assert [obj.guid for obj in restored] == [good.guid]
        report = store.bootstrap_report()
        assert len(report) == 1
        assert report[0][0] == bad.guid


class TestArchive:
    """Versions are frames of one file: a cut tail and a damaged frame
    each cost only their own version."""

    def test_cut_tail_falls_back_and_numbering_continues(self, store, owner):
        obj = make_obj(owner)
        persist(obj, store, keep=0)
        obj.invoke("spend", [10], caller=owner)
        persist(obj, store, keep=0)
        path, span = frame_of(store, obj.guid, 2)
        path.write_bytes(path.read_bytes()[: span.start + 5])  # cut mid-frame
        assert store.versions(obj.guid) == [1]
        assert store.load(obj.guid).get_data("balance") == 100
        obj.invoke("spend", [10], caller=owner)
        assert persist(obj, store, keep=0) == 2
        assert persist(obj, store, keep=0) == 3  # appends behind no hole
        assert store.versions(obj.guid) == [1, 2, 3]
        assert store.load(obj.guid).get_data("balance") == 80

    def test_damaged_middle_frame_is_skipped_not_repaired_past(self, store, owner):
        obj = make_obj(owner)
        for _ in range(3):
            persist(obj, store, keep=0)
            obj.invoke("spend", [10], caller=owner)
        flip_last_byte(store, obj.guid, 2)
        assert store.versions(obj.guid) == [1, 3]
        assert store.load(obj.guid).get_data("balance") == 80  # v3
        assert persist(obj, store) == 4  # keep=3 frames: v2 (damaged), v3, v4
        assert store.versions(obj.guid) == [3, 4]
        assert store.load(obj.guid, version=3).get_data("balance") == 80
        assert store.load(obj.guid).get_data("balance") == 70

    def test_a_version_is_the_package_and_loads_lazily(self, store, owner):
        obj = make_obj(owner)
        obj.self_view().add_data("photo", b"\x5a" * DEFER_BINARY_MIN)
        persist(obj, store)
        path, span = frame_of(store, obj.guid, 1)
        record = decode_frame(path.read_bytes()[span])
        assert record.kind == "object.image"
        assert record.attrs == {
            "guid": obj.guid, "wire": pack_bytes(obj, strip_native_wrappers=True),
        }
        photo, _section = store.load(obj.guid).containers.lookup_data("photo")
        assert isinstance(photo._value, LazyCell)

    def test_reads_create_nothing(self, tmp_path, owner):
        root = tmp_path / "fresh"
        fresh = ObjectStore(root)
        assert fresh.versions("mrom://home/99.99") == []
        assert fresh.guids() == []
        with pytest.raises(PersistenceError):
            fresh.load("mrom://home/99.99")
        assert not root.exists()
        persist(make_obj(owner), fresh)
        before = sorted(root.rglob("*"))
        assert fresh.versions("mrom://home/99.99") == []
        with pytest.raises(PersistenceError, match="no persisted image"):
            fresh.load("mrom://home/99.99")
        assert sorted(root.rglob("*")) == before
