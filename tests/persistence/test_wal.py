"""The write-ahead log: framing, replay, damage repair, compaction."""

from __future__ import annotations

import hashlib

import pytest

from repro.net.marshal import marshal
from repro.persistence import (
    MemoryStore,
    WalRecord,
    WriteAheadLog,
    decode_frames,
)
from repro.persistence.wal import _frame
from repro.telemetry import Telemetry, enabled

pytestmark = pytest.mark.recovery


def filled_wal(kinds=("object.image", "served.reply", "object.remove")):
    wal = WriteAheadLog(MemoryStore())
    for index, kind in enumerate(kinds):
        wal.append(kind, {"index": index}, site="a", time=float(index))
    return wal


class TestAppendAndReplay:
    def test_records_come_back_in_order(self):
        wal = filled_wal()
        records, damage = wal.replay()
        assert damage is None
        assert [record.kind for record in records] == [
            "object.image", "served.reply", "object.remove",
        ]
        assert [record.seq for record in records] == [1, 2, 3]
        assert records[1].attrs == {"index": 1}
        assert records[1].site == "a"
        assert records[1].time == 1.0

    def test_sequence_survives_reopen(self):
        wal = filled_wal()
        again = WriteAheadLog(wal.store)
        assert again.next_seq == 4
        record = again.append("snapshot", {}, site="a", time=9.0)
        assert record.seq == 4

    def test_round_trip_preserves_mapping(self):
        record = WalRecord(
            seq=7, kind="served.reply", time=1.5, site="b",
            attrs={"request_id": "r1", "reply": {"value": [1, 2]}},
            trace={"trace_id": "t", "span_id": "s"},
        )
        assert WalRecord.from_mapping(record.to_mapping()).to_mapping() == (
            record.to_mapping()
        )

    def test_trace_stamp_rides_along_under_telemetry(self):
        with enabled(Telemetry()) as tel:
            span = tel.begin_span("outer")
            wal = WriteAheadLog(MemoryStore())
            record = wal.append("object.image", {"guid": "g"}, site="a")
            tel.end_span(span)
        assert record.trace == {
            "trace_id": span.trace_id, "span_id": span.span_id,
        }
        replayed = wal.records()[0]
        assert replayed.trace == record.trace
        # and the appends counter saw the write
        assert tel.metrics.counter_value("wal.appends") == 1

    def test_no_trace_stamp_without_telemetry(self):
        wal = filled_wal()
        assert all(record.trace is None for record in wal.records())


class TestDamage:
    def test_torn_checksum_cuts_the_tail(self):
        wal = filled_wal()
        frames = wal.store.frames()
        frames[-1] = frames[-1][:-1] + bytes([frames[-1][-1] ^ 0xFF])
        records, damage = decode_frames(frames)
        assert damage == "torn"
        assert [record.seq for record in records] == [1, 2]

    def test_undecodable_body_is_torn(self):
        records, damage = decode_frames([b"\x00" * 12])
        assert records == [] and damage == "torn"

    def test_malformed_record_mapping_is_torn(self):
        # checksums fine, but the mapping is not a WAL record
        body = marshal({"not": "a record"})
        import hashlib

        frame = hashlib.sha256(body).digest()[:8] + body
        records, damage = decode_frames([frame])
        assert records == [] and damage == "torn"

    @pytest.mark.parametrize(
        "field, value",
        [("seq", float("inf")), ("time", 2**1024)],
        ids=["seq-inf", "time-past-float-range"],
    )
    def test_overflowing_record_field_is_torn(self, field, value):
        # a checksum-valid frame whose field overflows int()/float() must
        # read as damage, and opening the log must repair it, not crash
        wal = filled_wal()
        mapping = {"seq": 4, "kind": "served.reply", "time": 4.0,
                   "site": "a", "attrs": {}}
        mapping[field] = value
        body = marshal(mapping)
        wal.store.append(hashlib.sha256(body).digest()[:8] + body)
        records, damage = decode_frames(wal.store.frames())
        assert damage == "torn"
        assert [record.seq for record in records] == [1, 2, 3]
        reopened = WriteAheadLog(wal.store)
        assert reopened.repaired == "torn"
        assert reopened.next_seq == 4

    def test_store_truncation_reports_truncated(self):
        wal = filled_wal()
        records, damage = decode_frames(wal.store.frames(), truncated=True)
        assert damage == "truncated"
        assert len(records) == 3

    def test_open_repairs_a_torn_tail(self):
        wal = filled_wal()
        store = wal.store
        frames = store.frames()
        store.rewrite(frames[:2] + [b"garbage-frame"])
        repaired = WriteAheadLog(store)
        assert repaired.repaired == "torn"
        records, damage = repaired.replay()
        assert damage is None  # the hole is gone from the store
        assert [record.seq for record in records] == [1, 2]
        # appends continue after the intact prefix
        assert repaired.append("snapshot", {}).seq == 3

    def test_repair_can_be_declined(self):
        wal = filled_wal()
        store = wal.store
        store.rewrite(store.frames()[:1] + [b"garbage"])
        readonly = WriteAheadLog(store, repair=False)
        assert readonly.repaired is None
        _records, damage = readonly.replay()
        assert damage == "torn"


class TestCompaction:
    def test_compact_folds_to_one_snapshot(self):
        wal = filled_wal()
        record = wal.compact({"objects": {}}, site="a", time=5.0)
        assert record.kind == "snapshot"
        records = wal.records()
        assert [r.kind for r in records] == ["snapshot"]
        assert records[0].seq == 4  # the LSN keeps counting
        assert wal.next_seq == 5

    def test_appends_after_compaction(self):
        wal = filled_wal()
        wal.compact({"objects": {}}, site="a")
        wal.append("object.image", {"guid": "g"}, site="a")
        assert [r.kind for r in wal.records()] == ["snapshot", "object.image"]

    def test_frame_is_checksummed(self):
        record = WalRecord(seq=1, kind="snapshot", time=0.0, site="a",
                           attrs={})
        frame = _frame(record)
        records, damage = decode_frames([frame])
        assert damage is None and records[0].seq == 1
        bad = frame[:-1]
        _records, damage = decode_frames([bad])
        assert damage == "torn"
