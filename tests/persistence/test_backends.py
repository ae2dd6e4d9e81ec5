"""The pluggable frame stores: contract, capacity, damage, errors."""

from __future__ import annotations

import pytest

from repro.core.errors import PersistenceError
from repro.persistence import (
    BACKENDS,
    FileStore,
    MemoryStore,
    SqliteStore,
    Store,
    StoreFullError,
    WriteAheadLog,
    make_store,
)

pytestmark = pytest.mark.recovery

FRAMES = [b"alpha", b"beta-beta", b"\x00\xffgamma\x00"]


def open_store(backend: str, tmp_path, **kwargs) -> Store:
    return make_store(backend, root=tmp_path, name="site", **kwargs)


class TestContract:
    """Every backend honours the same ordered append-only contract."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_round_trip_preserves_order_and_bytes(self, backend, tmp_path):
        store = open_store(backend, tmp_path)
        ordinals = [store.append(frame) for frame in FRAMES]
        assert ordinals == [0, 1, 2]
        assert store.frames() == FRAMES
        assert store.appends == 3

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_rewrite_replaces_everything(self, backend, tmp_path):
        store = open_store(backend, tmp_path)
        for frame in FRAMES:
            store.append(frame)
        store.rewrite([b"compacted"])
        assert store.frames() == [b"compacted"]
        store.append(b"after")
        assert store.frames() == [b"compacted", b"after"]

    @pytest.mark.parametrize("backend", ("file", "sqlite"))
    def test_reopen_sees_appended_frames(self, backend, tmp_path):
        store = open_store(backend, tmp_path)
        for frame in FRAMES:
            store.append(frame)
        store.sync()
        store.close()
        again = open_store(backend, tmp_path)
        assert again.frames() == FRAMES

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_size_tracks_payload_bytes(self, backend, tmp_path):
        store = open_store(backend, tmp_path)
        assert store.size_bytes() == 0
        store.append(b"x" * 10)
        assert store.size_bytes() >= 10


def stored_bytes(store: Store) -> int:
    """What the backend holds, counted from its frames: a file store's
    count includes each frame's u32 length word, and equals the file's
    size after its header."""
    frames = store.frames()
    if isinstance(store, FileStore):
        size = sum(4 + len(frame) for frame in frames)
        assert size == store.path.stat().st_size - len(b"MROMWAL1\n")
        return size
    return sum(len(frame) for frame in frames)


class TestByteCount:
    """The store counts its bytes as it writes instead of reading them
    back: the count must match what the backend holds at every step."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_count_follows_appends_rewrite_and_reopen(self, backend, tmp_path):
        store = open_store(backend, tmp_path)
        for frame in FRAMES:
            store.append(frame)
            assert store.size_bytes() == stored_bytes(store)
        store.rewrite([b"compacted", b""])
        assert store.size_bytes() == stored_bytes(store)
        store.append(b"after")
        assert store.size_bytes() == stored_bytes(store)
        if backend != "memory":
            size = store.size_bytes()
            store.close()
            again = open_store(backend, tmp_path)
            assert again.size_bytes() == size == stored_bytes(again)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_count_follows_a_torn_tail_repair(self, backend, tmp_path):
        store = open_store(backend, tmp_path)
        wal = WriteAheadLog(store)
        for n in range(3):
            wal.append("served.reply", {"n": n})
        store.append(b"\x00" * 12)  # a frame whose checksum fails
        repaired = WriteAheadLog(store)
        assert repaired.repaired == "torn"
        assert len(store.frames()) == 3
        assert store.size_bytes() == stored_bytes(store)

    def test_count_follows_a_truncated_file_repair(self, tmp_path):
        store = FileStore(tmp_path / "site.wal")
        wal = WriteAheadLog(store)
        for n in range(3):
            wal.append("served.reply", {"n": n})
        store.close()
        path = tmp_path / "site.wal"
        path.write_bytes(path.read_bytes()[:-5])  # cut the last frame short
        again = FileStore(path)
        assert again.size_bytes() == path.stat().st_size - len(b"MROMWAL1\n")
        assert WriteAheadLog(again).repaired == "truncated"
        assert len(again.frames()) == 2
        assert again.size_bytes() == stored_bytes(again)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_an_append_never_reads_the_store_back(self, backend, tmp_path, monkeypatch):
        store = open_store(backend, tmp_path)
        wal = WriteAheadLog(store)  # opening replays: reads are fine here
        reads = []
        monkeypatch.setattr(store, "frames", lambda: reads.append("frames"))
        monkeypatch.setattr(store, "size_bytes", lambda: reads.append("size"))
        for n in range(5):
            wal.append("served.reply", {"n": n})
        store.capacity_bytes = 1 << 20  # a capacity must not make it read
        for frame in FRAMES:
            store.append(frame)
        assert reads == []

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_capacity_refusal_is_exact_after_reopen(self, backend, tmp_path):
        store = open_store(backend, tmp_path)
        for frame in FRAMES:
            store.append(frame)
        if backend != "memory":
            store.close()
            store = open_store(backend, tmp_path)
        store.capacity_bytes = store.size_bytes() + 5
        with pytest.raises(StoreFullError):
            store.append(b"123456")
        store.append(b"12345")  # exactly fills it
        with pytest.raises(StoreFullError):
            store.append(b"x")
        assert store.frames()[-1] == b"12345"


class TestCapacity:
    """A full store refuses the append — the journal's fail-safe hook."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_full_store_raises(self, backend, tmp_path):
        store = open_store(backend, tmp_path, capacity_bytes=16)
        store.append(b"x" * 10)
        with pytest.raises(StoreFullError):
            store.append(b"y" * 10)
        # the refused frame was not half-written
        assert store.frames() == [b"x" * 10]

    def test_capacity_must_be_positive(self):
        with pytest.raises(PersistenceError):
            MemoryStore(capacity_bytes=0)

    def test_store_full_is_a_persistence_error(self):
        assert issubclass(StoreFullError, PersistenceError)


class TestFileDamage:
    """Torn tails: the file store detects them, rewrite repairs them."""

    def test_truncated_length_word(self, tmp_path):
        store = FileStore(tmp_path / "site.wal")
        store.append(b"intact")
        store.close()
        raw = (tmp_path / "site.wal").read_bytes()
        (tmp_path / "site.wal").write_bytes(raw + b"\x00\x00")  # torn u32
        again = FileStore(tmp_path / "site.wal")
        assert again.frames() == [b"intact"]
        assert again.truncated

    def test_frame_cut_mid_body(self, tmp_path):
        store = FileStore(tmp_path / "site.wal")
        store.append(b"intact")
        store.append(b"doomed-frame")
        store.close()
        raw = (tmp_path / "site.wal").read_bytes()
        (tmp_path / "site.wal").write_bytes(raw[:-5])
        again = FileStore(tmp_path / "site.wal")
        assert again.frames() == [b"intact"]
        assert again.truncated

    def test_rewrite_clears_truncation(self, tmp_path):
        store = FileStore(tmp_path / "site.wal")
        store.append(b"intact")
        store.close()
        raw = (tmp_path / "site.wal").read_bytes()
        (tmp_path / "site.wal").write_bytes(raw + b"\x00")
        again = FileStore(tmp_path / "site.wal")
        frames = again.frames()
        assert again.truncated
        again.rewrite(frames)
        assert not again.truncated
        assert again.frames() == [b"intact"]

    def test_bad_header_is_fatal(self, tmp_path):
        (tmp_path / "site.wal").write_bytes(b"NOTAWAL0\n")
        store = FileStore(tmp_path / "site.wal")
        with pytest.raises(PersistenceError):
            store.frames()


class TestClosedStores:
    def test_file_append_after_close(self, tmp_path):
        store = FileStore(tmp_path / "site.wal")
        store.append(b"one")
        store.close()
        with pytest.raises(PersistenceError):
            store.append(b"two")

    def test_sqlite_append_after_close(self, tmp_path):
        store = SqliteStore(tmp_path / "site.db")
        store.append(b"one")
        store.close()
        with pytest.raises(PersistenceError):
            store.append(b"two")


class TestMakeStore:
    def test_unknown_backend(self):
        with pytest.raises(PersistenceError):
            make_store("papyrus")

    @pytest.mark.parametrize("backend", ("file", "sqlite"))
    def test_disk_backends_need_a_root(self, backend):
        with pytest.raises(PersistenceError):
            make_store(backend)

    def test_paths_are_namespaced(self, tmp_path):
        make_store("file", root=tmp_path, name="s7").append(b"x")
        make_store("sqlite", root=tmp_path, name="s7").append(b"x")
        assert (tmp_path / "s7.wal").exists()
        assert (tmp_path / "s7.db").exists()
