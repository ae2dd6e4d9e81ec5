"""Durable objects: a write-ahead log in front of a versioned image store.

Two planes, layered:

* the **WAL plane** (:mod:`.backends`, :mod:`.wal`, :mod:`.journal`,
  :mod:`.recovery`) — the primary durability path: every observable
  site transition is journaled before its effects reach the wire, and
  :func:`~.recovery.recover_site` rebuilds a crashed site's incarnation
  from the log with exactly-once semantics intact;
* the **image plane** (:mod:`.store`) — versioned whole-object images
  with checksums and bootstrap: the archive, not a crash path. A site
  restarts from its WAL only.
"""

from .backends import (
    BACKENDS,
    FileStore,
    MemoryStore,
    SqliteStore,
    Store,
    StoreFullError,
    make_store,
)
from .journal import SiteJournal, attach_journal
from .recovery import RecoveryReport, ReplayState, recover_site, replay_records
from .store import ObjectStore, persist, restore
from .wal import RECORD_KINDS, WalRecord, WriteAheadLog, decode_frames

__all__ = [
    # image plane
    "ObjectStore",
    "persist",
    "restore",
    # WAL plane
    "Store",
    "StoreFullError",
    "MemoryStore",
    "FileStore",
    "SqliteStore",
    "make_store",
    "BACKENDS",
    "WalRecord",
    "WriteAheadLog",
    "RECORD_KINDS",
    "decode_frames",
    "SiteJournal",
    "attach_journal",
    "RecoveryReport",
    "ReplayState",
    "replay_records",
    "recover_site",
]
