"""Regenerate the WAL golden corpus.

Run from the repo root::

    PYTHONPATH=src python tests/persistence/corpus/_generate.py

Each sample is a :class:`~repro.persistence.backends.FileStore` image
(``MROMWAL1`` header + length-prefixed frames) plus a ``.json`` sidecar
recording the exact replay expectation: the damage verdict, every
intact record's mapping, and the folded
:class:`~repro.persistence.recovery.ReplayState` summary. The corpus
pins the on-disk format: if framing, marshalling, or the replay fold
change shape, ``test_wal_corpus.py`` fails against these bytes and this
script must be re-run deliberately (and the diff reviewed as a format
change).

The samples are fully deterministic — fixed attrs, fixed timestamps,
no telemetry — so regeneration is byte-stable.

(The filename starts with ``_`` so pytest's ``bench_*/test_*`` globs
never collect it.)
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.persistence import (
    FileStore,
    WriteAheadLog,
    decode_frames,
    replay_records,
)

CORPUS = Path(__file__).resolve().parent

IMAGE = {
    "format": "mrom-package-v1",
    "guid": "mrom://a/2.1",
    "display_name": "golden-counter",
    "payload": {"count": 7},
}

#: an image shaped like a real package's data sections, for deltas
CELL = {
    "format": "mrom-object/1",
    "guid": "mrom://a/5.1",
    "fixed_data": [{"name": "count", "value": 0},
                   {"name": "notes", "value": "golden notes"}],
    "ext_data": [{"name": "tag", "value": 1}],
}


def fresh_wal(path: Path) -> WriteAheadLog:
    if path.exists():
        path.unlink()
    return WriteAheadLog(FileStore(path))


def data_values(images: dict) -> dict:
    """guid -> {item: value} over every image's data sections."""
    return {
        guid: {
            entry["name"]: entry["value"]
            for section in ("fixed_data", "ext_data")
            for entry in image.get(section, [])
        }
        for guid, image in images.items()
    }


def write_expectation(path: Path, store: FileStore, values: bool = False) -> None:
    """Write the sidecar; the fold's damage and (with *values*) each
    folded image's data values are pinned only by the delta samples, so
    the older sidecars keep their bytes."""
    records, damage = decode_frames(store.frames(), store.truncated)
    state = replay_records(records)
    expectation = {
        "damage": damage,
        "records": [record.to_mapping() for record in records],
        "state": {
            "images": sorted(state.images),
            "served": sorted(state.served),
            "ledger": sorted(state.ledger),
            "unresolved": sorted(state.unresolved),
            "snapshot_used": state.snapshot_used,
            "records_replayed": state.records_replayed,
            "unknown_kinds": state.unknown_kinds,
        },
    }
    if state.damage is not None:
        expectation["state"]["damage"] = state.damage
    if values:
        expectation["state"]["values"] = data_values(state.images)
    path.write_text(
        json.dumps(expectation, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


def sample_every_kind() -> None:
    """One intact record of every kind the replay fold understands."""
    path = CORPUS / "every_kind.wal"
    wal = fresh_wal(path)
    wal.append("object.image", {"guid": IMAGE["guid"], "package": IMAGE},
               site="a", time=1.0)
    wal.append("served.reply",
               {"kind": "invoke", "request_id": "req-1",
                "reply": {"status": "ok", "value": 7},
                "guid": IMAGE["guid"], "image": IMAGE},
               site="a", time=2.0)
    wal.append("transfer.intent",
               {"transfer_id": "xfer:a#1:1",
                "entry": {"guid": IMAGE["guid"], "dst": "b",
                          "mode": "move"}},
               site="a", time=3.0)
    wal.append("transfer.ledger",
               {"transfer_id": "xfer:b#1:9", "state": "settled",
                "report": {"guid": "mrom://b/3.1", "installed": True},
                "image": IMAGE},
               site="a", time=4.0)
    wal.append("transfer.resolved",
               {"transfer_id": "xfer:a#1:1", "outcome": "committed"},
               site="a", time=5.0)
    wal.append("object.remove", {"guid": IMAGE["guid"]},
               site="a", time=6.0)
    wal.append("snapshot",
               {"objects": {IMAGE["guid"]: IMAGE},
                "served": [["req-1", {"status": "ok", "value": 7}]],
                "ledger": [], "unresolved": {}},
               site="a", time=7.0)
    write_expectation(path.with_suffix(".json"), wal.store)


def sample_snapshot_then_updates() -> None:
    """Compaction mid-history: replay starts from the snapshot fold."""
    path = CORPUS / "snapshot_then_updates.wal"
    wal = fresh_wal(path)
    wal.append("object.image", {"guid": "mrom://a/9.9", "package": IMAGE},
               site="a", time=0.5)
    wal.compact(
        {"objects": {IMAGE["guid"]: IMAGE},
         "served": [["req-0", {"status": "ok"}]],
         "ledger": [["xfer:b#1:1", {"state": "aborted", "report": None}]],
         "unresolved": {}},
        site="a", time=1.0,
    )
    wal.append("served.reply",
               {"kind": "invoke", "request_id": "req-2",
                "reply": {"status": "ok", "value": 8},
                "guid": IMAGE["guid"],
                "image": {**IMAGE, "payload": {"count": 8}}},
               site="a", time=2.0)
    wal.append("transfer.intent",
               {"transfer_id": "xfer:a#2:1",
                "entry": {"guid": IMAGE["guid"], "dst": "c",
                          "mode": "copy"}},
               site="a", time=3.0)
    write_expectation(path.with_suffix(".json"), wal.store)


def sample_unknown_kind() -> None:
    """Forward compatibility: an unknown kind decodes but folds to a
    skip, never a failure."""
    path = CORPUS / "unknown_kind.wal"
    wal = fresh_wal(path)
    wal.append("object.image", {"guid": IMAGE["guid"], "package": IMAGE},
               site="a", time=1.0)
    wal.append("lease.granted", {"holder": "b", "until": 9.0},
               site="a", time=2.0)
    write_expectation(path.with_suffix(".json"), wal.store)


def sample_empty() -> None:
    """A header-only log: a site that crashed before its first write."""
    path = CORPUS / "empty.wal"
    wal = fresh_wal(path)
    write_expectation(path.with_suffix(".json"), wal.store)


def sample_truncated_tail() -> None:
    """A frame physically cut mid-write (the torn-page analogue): the
    intact prefix replays, the tail reports ``truncated``."""
    path = CORPUS / "truncated_tail.wal"
    wal = fresh_wal(path)
    wal.append("object.image", {"guid": IMAGE["guid"], "package": IMAGE},
               site="a", time=1.0)
    wal.append("served.reply",
               {"kind": "invoke", "request_id": "req-1",
                "reply": {"status": "ok", "value": 7}},
               site="a", time=2.0)
    wal.append("object.remove", {"guid": "mrom://a/doomed"},
               site="a", time=3.0)
    wal.store.close()
    raw = path.read_bytes()
    path.write_bytes(raw[:-11])  # cut the last frame mid-body
    write_expectation(path.with_suffix(".json"), FileStore(path))


def sample_torn_write() -> None:
    """A frame whose body was written but damaged (bit rot / torn
    sector): the checksum refuses it and everything after it."""
    path = CORPUS / "torn_write.wal"
    wal = fresh_wal(path)
    wal.append("object.image", {"guid": IMAGE["guid"], "package": IMAGE},
               site="a", time=1.0)
    wal.append("served.reply",
               {"kind": "invoke", "request_id": "req-1",
                "reply": {"status": "ok", "value": 7}},
               site="a", time=2.0)
    wal.append("snapshot", {"objects": {}, "served": [], "ledger": [],
                            "unresolved": {}},
               site="a", time=3.0)
    wal.store.close()
    raw = bytearray(path.read_bytes())
    raw[-20] ^= 0xFF  # flip one byte deep inside the final frame's body
    path.write_bytes(bytes(raw))
    write_expectation(path.with_suffix(".json"), FileStore(path))


def delta_reply(seq: int, delta: dict, guid: str = CELL["guid"]) -> tuple:
    return ("served.reply",
            {"kind": "invoke", "request_id": f"req-{seq}",
             "reply": {"ok": True, "result": seq},
             "guid": guid, "delta": delta})


def sample_delta_updates() -> None:
    """Image, deltas, a compacting snapshot, more deltas: each delta
    patches the latest image, the snapshot's included."""
    path = CORPUS / "delta_updates.wal"
    wal = fresh_wal(path)
    wal.append("object.image", {"guid": CELL["guid"], "package": CELL},
               site="a", time=1.0)
    for kind, attrs in (delta_reply(1, {"count": 1}),
                        delta_reply(2, {"count": 2, "tag": 1.0})):
        wal.append(kind, attrs, site="a", time=2.0)
    snapshot = {
        **CELL,
        "fixed_data": [{"name": "count", "value": 2},
                       {"name": "notes", "value": "golden notes"}],
        "ext_data": [{"name": "tag", "value": 1.0}],
    }
    wal.compact(
        {"objects": {CELL["guid"]: snapshot},
         "served": [["req-2", {"ok": True, "result": 2}]],
         "ledger": [], "unresolved": {}},
        site="a", time=3.0,
    )
    for kind, attrs in (delta_reply(3, {"count": 3, "tag": True}),
                        delta_reply(4, {"notes": "edited"})):
        wal.append(kind, attrs, site="a", time=4.0)
    write_expectation(path.with_suffix(".json"), wal.store, values=True)


def sample_orphan_delta() -> None:
    """A delta whose guid has no image: every frame is intact, the fold
    reports ``torn``, and a later image of that guid restores it."""
    path = CORPUS / "orphan_delta.wal"
    wal = fresh_wal(path)
    wal.append("object.image", {"guid": IMAGE["guid"], "package": IMAGE},
               site="a", time=1.0)
    for seq, (kind, attrs) in enumerate((
        delta_reply(1, {"count": 9}),
        delta_reply(2, {"count": 10}),
    ), start=2):
        wal.append(kind, attrs, site="a", time=float(seq))
    wal.append("object.image", {"guid": CELL["guid"], "package": CELL},
               site="a", time=4.0)
    kind, attrs = delta_reply(3, {"count": 1})
    wal.append(kind, attrs, site="a", time=5.0)
    write_expectation(path.with_suffix(".json"), wal.store, values=True)


def main() -> None:
    sample_every_kind()
    sample_snapshot_then_updates()
    sample_unknown_kind()
    sample_empty()
    sample_truncated_tail()
    sample_torn_write()
    sample_delta_updates()
    sample_orphan_delta()
    print(f"regenerated {len(list(CORPUS.glob('*.wal')))} samples "
          f"under {CORPUS}")


if __name__ == "__main__":
    main()
