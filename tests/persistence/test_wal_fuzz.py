"""Seeded fuzz of WAL replay: one bad record never crashes recovery.

A checksum proves a frame is the one that was written, not that what was
written is a record. So the frames here all carry valid checksums, and
one of them holds a record mapping with a field replaced, removed or
added. ``decode_frames`` must never raise: it returns every record
before that frame intact, and either reads the frame as a record or
stops there as ``"torn"``. Opening the log must repair the same tail.
A mapping the marshal cannot encode is never written, so it is no case.

A served reply's ``delta`` gets the same treatment one level down: a
hostile one (not a mapping, naming an item the image lacks, keyed by
non-strings, or for a guid already removed) must end in a refused frame
or in the fold's typed ``"torn"`` damage, never in an exception.

Hypothesis runs derandomized, so every run draws the same examples.
"""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import HealthCheck, given, reject, settings, strategies as st

from repro.core.errors import MarshalError
from repro.net import Network
from repro.net.marshal import Reference, marshal
from repro.persistence import (
    MemoryStore,
    WalRecord,
    WriteAheadLog,
    decode_frames,
    recover_site,
    replay_records,
)
from repro.sim import Simulator

pytestmark = pytest.mark.fuzz

FUZZ = settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=150,
    suppress_health_check=[HealthCheck.too_slow],
)

RECORDS = [
    WalRecord(1, "object.image", 0.5, "s1",
              {"guid": "mrom://s1/2.2", "package": {"format": "mrom-package/1"}}),
    WalRecord(2, "served.reply", 0.75, "s1",
              {"request_id": "c#1:9", "reply": {"ok": True, "result": 3}},
              trace={"trace_id": "t1", "span_id": "s1"}),
    WalRecord(3, "object.remove", 1.0, "s1", {"guid": "mrom://s1/2.2"}),
]
FIELDS = ("seq", "kind", "time", "site", "attrs", "trace", "extra")

values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([float("inf"), float("-inf"), float("nan"), 2**1024, -(2**2000)]),
    st.floats(),
    st.text(max_size=8),
    st.binary(max_size=4),
    st.builds(Reference, st.just("mrom://x/1.1"), st.just("x")),
    st.lists(st.integers(), max_size=3),
    st.lists(st.tuples(st.text(max_size=2), st.integers()), max_size=2),
    st.dictionaries(st.text(max_size=4), st.integers(), max_size=2),
)


def _framed(mapping) -> bytes:
    try:
        body = marshal(mapping)
    except MarshalError:
        reject()  # e.g. an int past the widest varint: never written
    return hashlib.sha256(body).digest()[:8] + body


@FUZZ
@given(
    position=st.integers(min_value=0, max_value=len(RECORDS) - 1),
    edits=st.dictionaries(st.sampled_from(FIELDS), values | st.just(...), max_size=3),
    top=st.none() | values,
)
def test_a_mutated_record_never_crashes_replay(position, edits, top):
    mapping = RECORDS[position].to_mapping()
    for field, value in edits.items():
        if value is ...:
            mapping.pop(field, None)
        else:
            mapping[field] = value
    frames = [_framed(record.to_mapping()) for record in RECORDS]
    frames[position] = _framed(mapping if top is None else top)

    records, damage = decode_frames(frames)
    intact = [record.to_mapping() for record in records[:position]]
    assert intact == [record.to_mapping() for record in RECORDS[:position]]
    if damage == "torn":
        assert len(records) == position
    else:
        assert damage is None and len(records) == len(RECORDS)

    store = MemoryStore()
    store.rewrite(frames)
    reopened = WriteAheadLog(store)
    assert reopened.repaired == damage
    assert len(reopened.records()) == len(records)


GUID = "mrom://s1/2.2"
IMAGED = WalRecord(1, "object.image", 0.5, "s1", {"guid": GUID, "package": {
    "format": "mrom-object/1", "guid": GUID,
    "fixed_data": [{"name": "count", "value": 0}], "ext_data": [],
}})
REMOVED = WalRecord(2, "object.remove", 0.75, "s1", {"guid": GUID})

hostile_deltas = st.one_of(
    values.filter(lambda value: not isinstance(value, dict)),
    st.dictionaries(
        st.text(max_size=4).filter(lambda name: name != "count"),
        values, min_size=1, max_size=2,
    ),
    st.dictionaries(
        st.integers() | st.booleans() | st.none() | st.binary(max_size=2),
        values, min_size=1, max_size=2,
    ),
)


def _served(seq: int, delta) -> WalRecord:
    return WalRecord(seq, "served.reply", 1.0, "s1", {
        "kind": "invoke", "request_id": "c#1:9",
        "reply": {"ok": True, "result": 1}, "guid": GUID, "delta": delta,
    })


def _assert_damaged(records: list[WalRecord]) -> None:
    frames = [_framed(record.to_mapping()) for record in records]
    decoded, damage = decode_frames(frames)
    if damage == "torn":  # the frame itself was refused
        assert len(decoded) == len(records) - 1
        return
    state = replay_records(decoded)
    assert state.damage == "torn"
    assert GUID not in state.images and "c#1:9" not in state.served
    store = MemoryStore()
    store.rewrite(frames)
    _site, _manager, report = recover_site(
        Network(Simulator(0)), "s1", WriteAheadLog(store)
    )
    assert report.damage == "torn" and report.objects_restored == 0


@FUZZ
@given(delta=hostile_deltas)
def test_a_hostile_delta_is_refused_or_torn(delta):
    _assert_damaged([IMAGED, _served(2, delta)])


def test_a_delta_for_a_removed_guid_is_torn():
    _assert_damaged([IMAGED, REMOVED, _served(3, {"count": 1})])
