"""Self-contained persistence: the object writes itself to host space.

"a long-lived persistent mobile object should contain its own persistence
scheme and be able to write itself to disk on a space allocated for it by
the host environment, as well as read itself into memory following some
bootstrap procedure initiated by the host environment." (Section 1.)

The division of labour is exactly that sentence:

* the **host** provides an :class:`ObjectStore` — it allocates a
  directory per object and runs :meth:`ObjectStore.bootstrap` at startup;
* the **object** provides its own image: the persisted bytes are its
  mobility package (:mod:`repro.mobility.package`) — the same self-
  contained representation it migrates with.

Each object's versions are the frames of one :class:`~.backends.FileStore`,
``<home>/images.wal``: an ``object.image`` :class:`~.wal.WalRecord` per
version, its ``seq`` the version number, so the archive shares the WAL's
checksum (:func:`~.wal.decode_frame`) and torn-tail rule. A damaged
version is skipped, never restored and never repaired past; restore
defaults to the newest intact one.
"""

from __future__ import annotations

import hashlib
import re
from pathlib import Path
from typing import Iterator

from ..core.errors import MarshalError, PersistenceError
from ..core.mobject import MROMObject
from ..mobility.package import pack_bytes, unpack_bytes
from .backends import FileStore
from .wal import WalRecord, _frame, decode_frame

__all__ = ["ObjectStore", "persist", "restore"]

_ARCHIVE = "images.wal"
_SAFE_RE = re.compile(r"[^A-Za-z0-9._-]")


def _safe_dirname(guid: str) -> str:
    """A filesystem-safe, collision-free directory name for a guid."""
    digest = hashlib.sha256(guid.encode("utf-8")).hexdigest()[:12]
    readable = _SAFE_RE.sub("_", guid)[:60]
    return f"{readable}.{digest}"


def _decoded(frames) -> Iterator[WalRecord | MarshalError]:
    """Each frame's record or the error that refused it, decoded lazily."""
    for frame in frames:
        try:
            yield decode_frame(frame)
        except MarshalError as exc:
            yield exc


def _restore(guid: str, record: WalRecord) -> MROMObject:
    found = record.attrs.get("guid")
    if record.kind != "object.image" or found != guid:
        raise PersistenceError(
            f"image identity mismatch: expected {guid}, found {found}"
        )
    return unpack_bytes(record.attrs.get("wire", b""))


class ObjectStore:
    """Host-allocated space for persistent objects, with versioned images."""

    def __init__(self, root: "Path | str"):
        self.root = Path(root)

    # -- host side: space allocation ---------------------------------------

    def allocate(self, guid: str) -> Path:
        """The space the host grants one object (idempotent)."""
        home = self.root / _safe_dirname(guid)
        home.mkdir(parents=True, exist_ok=True)
        marker = home / "GUID"
        if marker.exists():
            recorded = marker.read_text(encoding="utf-8")
            if recorded != guid:
                raise PersistenceError(
                    f"allocation collision: {home} belongs to {recorded!r}"
                )
        else:
            marker.write_text(guid, encoding="utf-8")
        return home

    def guids(self) -> list[str]:
        """Every object with allocated space (for bootstrap)."""
        if not self.root.is_dir():
            return []
        found = []
        for entry in sorted(self.root.iterdir()):
            marker = entry / "GUID"
            if entry.is_dir() and marker.exists():
                found.append(marker.read_text(encoding="utf-8"))
        return found

    # -- versioned images -----------------------------------------------------

    def _frames(self, guid: str) -> list[bytes]:
        """The whole frames of *guid*'s archive (reading creates nothing)."""
        path = self.root / _safe_dirname(guid) / _ARCHIVE
        return FileStore(path).frames() if path.is_file() else []

    def versions(self, guid: str) -> list[int]:
        """The intact versions, oldest first."""
        images = _decoded(self._frames(guid))
        return [image.seq for image in images if isinstance(image, WalRecord)]

    def save(self, obj: MROMObject, keep: int = 3) -> int:
        """Write a new image of *obj*, one past the newest intact version,
        and return its version; *keep* bounds the versions kept (0 keeps
        all). Host-attached native wrappers (mediators, hooks) are not
        part of the image — the host reattaches its own infrastructure
        after a restore; a native *body* still refuses to persist."""
        archive = FileStore(self.allocate(obj.guid) / _ARCHIVE)
        try:
            frames = archive.frames()
            version = 1 + next((image.seq for image in _decoded(reversed(frames))
                                if isinstance(image, WalRecord)), 0)
            wire = pack_bytes(obj, strip_native_wrappers=True)
            attrs = {"guid": obj.guid, "wire": wire}
            frames.append(_frame(WalRecord(version, "object.image", 0.0, "", attrs)))
            kept = frames[-keep:] if keep > 0 else frames
            if archive.truncated or len(kept) < len(frames):
                archive.rewrite(kept)  # drop the oldest versions or a cut tail
            else:
                archive.append(frames[-1])
        finally:
            archive.close()
        return version

    def load(self, guid: str, version: int | None = None) -> MROMObject:
        """Restore one object (newest intact image by default)."""
        frames = self._frames(guid)
        if not frames:
            raise PersistenceError(f"no persisted image for {guid}")
        last_error: Exception | None = None
        for image in _decoded(reversed(frames)):  # newest first
            if isinstance(image, MarshalError):
                last_error = image
            elif version is None or image.seq == version:
                try:
                    return _restore(guid, image)
                except PersistenceError as exc:
                    if version is not None:
                        raise
                    last_error = exc
        if version is not None:
            reason = f" (damaged: {last_error})" if last_error else ""
            raise PersistenceError(f"no version {version} for {guid}{reason}")
        raise PersistenceError(
            f"every image of {guid} is corrupt (last: {last_error})"
        )

    def delete(self, guid: str) -> None:
        """Release an object's space entirely."""
        home = self.root / _safe_dirname(guid)
        if not home.is_dir():
            return
        for entry in home.iterdir():
            entry.unlink()
        home.rmdir()

    # -- bootstrap ----------------------------------------------------------

    def bootstrap(self) -> list[MROMObject]:
        """The host's startup procedure: read every stored object back.

        Objects whose every image is corrupt are skipped (and reported by
        :meth:`bootstrap_report`), not fatal — one broken guest must not
        prevent the host from starting.
        """
        return [obj for _guid, obj, _err in self._bootstrap_all() if obj is not None]

    def bootstrap_report(self) -> list[tuple[str, str]]:
        """(guid, error) for every object that failed to restore."""
        results = self._bootstrap_all()
        return [(guid, str(err)) for guid, obj, err in results if obj is None]

    def _bootstrap_all(self):
        for guid in self.guids():
            try:
                yield guid, self.load(guid), None
            except PersistenceError as exc:
                yield guid, None, exc

    def __repr__(self) -> str:
        return f"ObjectStore({str(self.root)!r}, {len(self.guids())} objects)"


def persist(obj: MROMObject, store: ObjectStore, keep: int = 3) -> int:
    """The object-side verb: write yourself into host-allocated space."""
    return store.save(obj, keep=keep)


def restore(store: ObjectStore, guid: str, version: int | None = None) -> MROMObject:
    """The object-side verb: read yourself back into memory."""
    return store.load(guid, version=version)
