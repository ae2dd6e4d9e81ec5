"""Seeded fuzz of WAL replay: one bad record never crashes recovery.

A checksum proves a frame is the one that was written, not that what was
written is a record. So the frames here all carry valid checksums, and
one of them holds a record mapping with a field replaced, removed or
added. ``decode_frames`` must never raise: it returns every record
before that frame intact, and either reads the frame as a record or
stops there as ``"torn"``. Opening the log must repair the same tail.

Hypothesis runs derandomized, so every run draws the same examples.
"""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.net.marshal import Reference, marshal
from repro.persistence import MemoryStore, WalRecord, WriteAheadLog, decode_frames

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
    body = marshal(mapping)
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
