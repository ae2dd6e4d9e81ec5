"""Pluggable frame stores: where the write-ahead log keeps its bytes.

One small interface — :class:`Store` — behind which the WAL neither
knows nor cares whether frames live in memory, in a length-prefixed
file, or in a sqlite table. A *frame* is an opaque byte string the WAL
hands down (checksum + marshalled record); the store's only contract is
ordered, append-only retention plus one atomic :meth:`Store.rewrite`
used by log compaction. The image archive
(:class:`~repro.persistence.store.ObjectStore`) keeps each object's
versions as such frames in one :class:`FileStore`.

Three backends:

* :class:`MemoryStore` — a list; the default for simulated hosts and
  the property harnesses (fast, and "durable" across simulated crashes
  because the process survives them).
* :class:`FileStore` — ``MROMWAL1`` header then ``u32 length | frame``
  records, appended with flush-on-write and rewritten through a
  temporary file + ``os.replace`` (atomic publish). A tail whose
  declared length overruns the file marks the store ``truncated`` —
  the torn-tail case recovery must tolerate.
* :class:`SqliteStore` — stdlib :mod:`sqlite3`, one ``frames`` table
  ordered by an integer primary key.

Every backend takes an optional ``capacity_bytes``; an append past it
raises :class:`StoreFullError` so the journal's fail-safe path (disable
durability, keep serving) is exercisable in tests. A store keeps its
byte count as it writes (set from the backend at open, reset by every
rewrite), so an append never reads the store back to size it.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

from ..core.errors import PersistenceError

__all__ = [
    "Store",
    "StoreFullError",
    "MemoryStore",
    "FileStore",
    "SqliteStore",
    "make_store",
    "BACKENDS",
]

_FILE_HEADER = b"MROMWAL1\n"
_LEN = struct.Struct(">I")


class StoreFullError(PersistenceError):
    """The backend refused an append: its capacity is exhausted."""


class Store:
    """Ordered, append-only frame storage (see module docstring).

    ``truncated`` is set by :meth:`frames` when the backend detected a
    physically incomplete tail (only :class:`FileStore` can); the WAL
    reports it as replay damage. Both writes, :meth:`append` and
    :meth:`rewrite`, are refused typed by a closed store and by one
    they would fill past ``capacity_bytes``, before a byte is written.
    :meth:`size_bytes` is the running count of stored bytes: every
    frame plus ``frame_overhead`` bytes of backend framing per frame.
    """

    truncated = False
    closed = False
    frame_overhead = 0

    def __init__(self, capacity_bytes: int | None = None):
        if capacity_bytes is not None and capacity_bytes <= 0:
            raise PersistenceError(
                f"store capacity must be positive, got {capacity_bytes}"
            )
        self.capacity_bytes = capacity_bytes
        self.appends = 0
        self._size = 0

    def _admit(self, kept: int, added: int) -> None:
        """Refuse a write that leaves *kept* stored bytes and adds
        *added* if the store is closed or that would overfill it."""
        if self.closed:
            raise PersistenceError(f"{type(self).__name__} is closed")
        if self.capacity_bytes is not None and kept + added > self.capacity_bytes:
            raise StoreFullError(
                f"{type(self).__name__} is full "
                f"({kept}B + {added}B > {self.capacity_bytes}B)"
            )

    def append(self, frame: bytes) -> int:
        """Durably append one frame; returns its ordinal."""
        added = len(frame)
        self._admit(self._size, added)
        ordinal = self._append(frame)
        self._size += added + self.frame_overhead
        self.appends += 1
        return ordinal

    def rewrite(self, frames: list[bytes]) -> None:
        """Atomically replace the whole store's contents (compaction,
        or the repair of a damaged tail)."""
        size = sum(len(frame) for frame in frames)
        self._admit(0, size)
        self._rewrite(frames)
        self._size = size + self.frame_overhead * len(frames)
        self.truncated = False

    def _append(self, frame: bytes) -> int:
        raise NotImplementedError

    def _rewrite(self, frames: list[bytes]) -> None:
        raise NotImplementedError

    def frames(self) -> list[bytes]:
        """Every stored frame, in append order."""
        raise NotImplementedError

    def size_bytes(self) -> int:
        """Bytes stored, frames and their framing (see class doc)."""
        return self._size

    def sync(self) -> None:
        """Force written frames to stable storage (no-op by default)."""

    def close(self) -> None:
        """Release backend resources; further writes are refused."""
        self.closed = True


class MemoryStore(Store):
    """Frames in a process-local list (survives *simulated* crashes)."""

    def __init__(self, capacity_bytes: int | None = None):
        super().__init__(capacity_bytes)
        self._frames: list[bytes] = []

    def _append(self, frame: bytes) -> int:
        self._frames.append(bytes(frame))
        return len(self._frames) - 1

    def frames(self) -> list[bytes]:
        return list(self._frames)

    def _rewrite(self, frames: list[bytes]) -> None:
        self._frames = [bytes(frame) for frame in frames]


class FileStore(Store):
    """Length-prefixed frames in one append-only file; its size counts
    the length words (everything after the header)."""

    frame_overhead = _LEN.size

    def __init__(self, path: "Path | str", capacity_bytes: int | None = None):
        super().__init__(capacity_bytes)
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if not self.path.exists():
            self.path.write_bytes(_FILE_HEADER)
        self._size = max(0, self.path.stat().st_size - len(_FILE_HEADER))
        self._handle = None

    def _append(self, frame: bytes) -> int:
        if self._handle is None:
            self._handle = open(self.path, "ab")
        self._handle.write(_LEN.pack(len(frame)) + frame)
        self._handle.flush()
        return self.appends

    def frames(self) -> list[bytes]:
        if self._handle is not None:
            self._handle.flush()
        raw = self.path.read_bytes()
        if not raw.startswith(_FILE_HEADER):
            raise PersistenceError(f"{self.path}: bad WAL file header")
        body = raw[len(_FILE_HEADER):]
        frames: list[bytes] = []
        offset = 0
        self.truncated = False
        while offset < len(body):
            if offset + _LEN.size > len(body):
                self.truncated = True  # torn length word
                break
            (length,) = _LEN.unpack_from(body, offset)
            offset += _LEN.size
            if offset + length > len(body):
                self.truncated = True  # frame cut short mid-write
                break
            frames.append(body[offset:offset + length])
            offset += length
        return frames

    def _rewrite(self, frames: list[bytes]) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        image = bytearray(_FILE_HEADER)
        for frame in frames:
            image += _LEN.pack(len(frame)) + frame
        temporary = self.path.with_suffix(self.path.suffix + ".partial")
        temporary.write_bytes(bytes(image))
        os.replace(temporary, self.path)  # atomic publish

    def sync(self) -> None:
        if self._handle is not None:
            self._handle.flush()
            os.fsync(self._handle.fileno())

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        super().close()


class SqliteStore(Store):
    """Frames in a stdlib-sqlite table, ordered by integer primary key."""

    def __init__(self, path: "Path | str", capacity_bytes: int | None = None):
        import sqlite3

        super().__init__(capacity_bytes)
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._conn = sqlite3.connect(str(self.path))
        self._conn.execute(
            "CREATE TABLE IF NOT EXISTS frames ("
            " ordinal INTEGER PRIMARY KEY AUTOINCREMENT,"
            " body BLOB NOT NULL)"
        )
        self._conn.commit()
        (self._size,) = self._conn.execute(
            "SELECT COALESCE(SUM(LENGTH(body)), 0) FROM frames"
        ).fetchone()

    def _cursor(self):
        if self._conn is None:
            raise PersistenceError(f"store {self.path} is closed")
        return self._conn

    def _append(self, frame: bytes) -> int:
        conn = self._cursor()
        cursor = conn.execute(
            "INSERT INTO frames (body) VALUES (?)", (bytes(frame),)
        )
        conn.commit()
        return int(cursor.lastrowid) - 1

    def frames(self) -> list[bytes]:
        rows = self._cursor().execute(
            "SELECT body FROM frames ORDER BY ordinal"
        )
        return [bytes(row[0]) for row in rows]

    def _rewrite(self, frames: list[bytes]) -> None:
        conn = self._cursor()
        with conn:  # one transaction: compaction is all-or-nothing
            conn.execute("DELETE FROM frames")
            conn.executemany(
                "INSERT INTO frames (body) VALUES (?)",
                [(bytes(frame),) for frame in frames],
            )

    def sync(self) -> None:
        self._cursor().commit()

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None
        super().close()


#: backend name -> constructor expectations (documented in DURABILITY.md)
BACKENDS = ("memory", "file", "sqlite")


def make_store(
    backend: str,
    root: "Path | str | None" = None,
    name: str = "site",
    capacity_bytes: int | None = None,
) -> Store:
    """Build a backend by name; file-backed stores live under *root*
    as ``<name>.wal`` (file) or ``<name>.db`` (sqlite)."""
    if backend == "memory":
        return MemoryStore(capacity_bytes=capacity_bytes)
    if root is None:
        raise PersistenceError(f"backend {backend!r} needs a root directory")
    if backend == "file":
        return FileStore(Path(root) / f"{name}.wal", capacity_bytes=capacity_bytes)
    if backend == "sqlite":
        return SqliteStore(Path(root) / f"{name}.db", capacity_bytes=capacity_bytes)
    raise PersistenceError(
        f"unknown WAL backend {backend!r} (expected one of {BACKENDS})"
    )
