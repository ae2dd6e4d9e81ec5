"""A checksum-valid record the replay fold cannot read is typed damage.

Every field the fold reads from each record kind is dropped, or given a
value of the wrong type, in turn. The fold must report ``"torn"``, skip
that record whole, drop the image of the object its ``guid`` names and
fold every other record as if the damaged one were absent. Neither
``recover_site`` nor ``repro recover --root`` may raise.
"""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.net import Network
from repro.persistence import (
    MemoryStore,
    WalRecord,
    WriteAheadLog,
    make_store,
    recover_site,
    replay_records,
)
from repro.sim import Simulator

pytestmark = pytest.mark.recovery

GUID = "mrom://s1/2.2"
OTHER = "mrom://s1/3.3"
PACKAGE = {"format": "mrom-object/1", "guid": GUID,
           "fixed_data": [{"name": "count", "value": 0}], "ext_data": []}
REPORT = {"guid": OTHER, "installed": True}
DROP = object()

#: one intact record per kind the fold reads
INTACT = {
    "object.image": {"guid": GUID, "package": PACKAGE},
    "object.remove": {"guid": GUID},
    "served.reply": {"kind": "invoke", "request_id": "c#1:1",
                     "reply": {"ok": True, "result": 1},
                     "guid": GUID, "image": PACKAGE},
    "transfer.intent": {"transfer_id": "x#1", "entry": {"guid": GUID, "dst": "b"}},
    "transfer.resolved": {"transfer_id": "x#0", "outcome": "committed"},
    "transfer.ledger": {"transfer_id": "x#2", "state": "settled",
                        "report": REPORT, "image": PACKAGE},
    "snapshot": {"objects": {OTHER: PACKAGE},
                 "served": [["c#1:0", {"ok": True}]],
                 "ledger": [["x#3", {"state": "aborted", "report": None}]],
                 "unresolved": {"x#4": {"guid": OTHER}}},
}

#: (kind, field, replacement): every field each kind reads, dropped or
#: of the wrong type; a field the fold may do without is only retyped.
#: A reply's ``delta`` has its own rule (test_wal_fuzz.py).
CASES = [
    ("object.image", "guid", DROP), ("object.image", "guid", 7),
    ("object.image", "package", DROP), ("object.image", "package", [1]),
    ("object.remove", "guid", DROP), ("object.remove", "guid", None),
    ("served.reply", "request_id", DROP), ("served.reply", "request_id", 5),
    ("served.reply", "reply", DROP),
    ("served.reply", "guid", DROP), ("served.reply", "guid", b"g"),
    ("served.reply", "image", "not an image"),
    ("transfer.intent", "transfer_id", DROP), ("transfer.intent", "transfer_id", 1.5),
    ("transfer.intent", "entry", DROP), ("transfer.intent", "entry", 5),
    ("transfer.resolved", "transfer_id", DROP), ("transfer.resolved", "transfer_id", []),
    ("transfer.ledger", "transfer_id", DROP), ("transfer.ledger", "transfer_id", 9),
    ("transfer.ledger", "state", DROP), ("transfer.ledger", "state", {"s": 1}),
    ("transfer.ledger", "report", ["guid", OTHER]),
    ("transfer.ledger", "image", 3),
    ("snapshot", "objects", [OTHER]), ("snapshot", "objects", {OTHER: "pkg"}),
    ("snapshot", "objects", {4: PACKAGE}),
    ("snapshot", "served", {"c#1:0": 1}), ("snapshot", "served", [["c#1:0"]]),
    ("snapshot", "served", [[0, {"ok": True}]]),
    ("snapshot", "ledger", 5), ("snapshot", "ledger", [["x#3", 5]]),
    ("snapshot", "ledger", [["x#3", {"report": None}]]),
    ("snapshot", "ledger", [["x#3", {"state": "aborted", "report": 1}]]),
    ("snapshot", "unresolved", [["x#4", {}]]), ("snapshot", "unresolved", {"x#4": 5}),
]


def _damaged(kind: str, field: str, replacement) -> dict:
    attrs = dict(INTACT[kind])
    if replacement is DROP:
        attrs.pop(field)
    else:
        attrs[field] = replacement
    return attrs


def _records(kind: str, attrs: dict) -> list[WalRecord]:
    """An image of GUID, the record under test, then one intact reply."""
    return [
        WalRecord(1, "object.image", 1.0, "s1", {"guid": GUID, "package": PACKAGE}),
        WalRecord(2, kind, 2.0, "s1", attrs),
        WalRecord(3, "served.reply", 3.0, "s1",
                  {"kind": "invoke", "request_id": "c#1:9", "reply": {"ok": True}}),
    ]


def _folded(state) -> tuple:
    return (dict(state.images), dict(state.served), dict(state.ledger),
            state.unresolved, state.snapshot_used)


@pytest.mark.parametrize("kind", sorted(INTACT))
def test_every_intact_record_folds_clean(kind):
    state = replay_records(_records(kind, INTACT[kind]))
    assert state.damage is None and state.records_replayed == 3


@pytest.mark.parametrize(
    "kind,field,replacement", CASES,
    ids=[f"{kind}-{field}-{'drop' if value is DROP else type(value).__name__}"
         for kind, field, value in CASES],
)
def test_an_unreadable_record_is_torn_and_skipped(kind, field, replacement):
    attrs = _damaged(kind, field, replacement)
    records = _records(kind, attrs)
    state = replay_records(records)
    assert state.damage == "torn"
    assert state.records_replayed == 3
    assert "c#1:9" in state.served  # the rest of the log still folds
    expected = replay_records([records[0], records[2]])
    if isinstance(attrs.get("guid"), str):
        expected.images.pop(attrs["guid"], None)
    assert _folded(state) == _folded(expected)

    store = MemoryStore()
    wal = WriteAheadLog(store)
    for record in records:
        wal.append(record.kind, record.attrs, site="s1", time=record.time)
    _site, _manager, report = recover_site(Network(Simulator(0)), "s1", wal)
    assert report.damage == "torn"


def test_recover_cli_reports_fold_damage_without_a_traceback(tmp_path, capsys):
    wal = WriteAheadLog(make_store("file", root=str(tmp_path), name="s1"))
    for record in _records("transfer.intent", _damaged("transfer.intent", "entry", 5)):
        wal.append(record.kind, record.attrs, site="s1", time=record.time)
    wal.store.close()
    assert main(["recover", "--root", str(tmp_path)]) == 1
    out, err = capsys.readouterr()
    assert "damage=torn" in out and "Traceback" not in err
