"""Golden-corpus replay: the WAL's on-disk format, pinned byte-for-byte.

Each ``corpus/*.wal`` is a committed :class:`FileStore` image with a
``.json`` sidecar recording the exact expected decode — damage verdict,
every intact record's mapping, and the folded replay state. The suite
exact-matches current code against those bytes, so any change to
framing, marshalling, or the replay fold fails here first and must be
accompanied by a deliberate corpus regeneration
(``tests/persistence/corpus/_generate.py``).

The corpus includes damaged samples — a physically cut tail
(``truncated_tail``) and a checksum-failing frame (``torn_write``) —
which must decode to the intact prefix and be repaired exactly once on
open. Two samples pin the delta fold: ``delta_updates`` (deltas on an
image and on a compacting snapshot) and ``orphan_delta`` (intact frames
whose delta fits no image, which the fold reports as ``torn``).
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repro.persistence import (
    RECORD_KINDS,
    FileStore,
    WriteAheadLog,
    decode_frames,
    replay_records,
)
from repro.persistence.wal import _frame

from .corpus._generate import data_values

pytestmark = pytest.mark.recovery

CORPUS = Path(__file__).resolve().parent / "corpus"
SAMPLES = sorted(CORPUS.glob("*.wal"))
DAMAGED = [path for path in SAMPLES
           if json.loads(path.with_suffix(".json").read_text())["damage"]]


def expectation(path: Path) -> dict:
    return json.loads(path.with_suffix(".json").read_text(encoding="utf-8"))


def decode(path: Path):
    store = FileStore(path)
    return decode_frames(store.frames(), store.truncated)


class TestExactMatchReplay:
    @pytest.mark.parametrize("path", SAMPLES, ids=lambda p: p.stem)
    def test_records_decode_exactly(self, path):
        expected = expectation(path)
        records, damage = decode(path)
        assert damage == expected["damage"]
        assert [record.to_mapping() for record in records] == (
            expected["records"]
        )

    @pytest.mark.parametrize("path", SAMPLES, ids=lambda p: p.stem)
    def test_replay_fold_matches(self, path):
        expected = expectation(path)["state"]
        records, _damage = decode(path)
        state = replay_records(records)
        assert sorted(state.images) == expected["images"]
        assert sorted(state.served) == expected["served"]
        assert sorted(state.ledger) == expected["ledger"]
        assert sorted(state.unresolved) == expected["unresolved"]
        assert state.snapshot_used == expected["snapshot_used"]
        assert state.records_replayed == expected["records_replayed"]
        assert state.unknown_kinds == expected["unknown_kinds"]
        # pinned by the delta samples only (see corpus/_generate.py)
        assert state.damage == expected.get("damage")
        if "values" in expected:
            assert data_values(state.images) == expected["values"]

    @pytest.mark.parametrize("path", SAMPLES, ids=lambda p: p.stem)
    def test_encoder_reproduces_the_golden_frames(self, path):
        # the write side is pinned too: re-framing each decoded record
        # must reproduce the committed bytes, so a silent marshal or
        # checksum change cannot hide behind a still-working decoder
        store = FileStore(path)
        records, _damage = decode_frames(store.frames(), store.truncated)
        for frame, record in zip(store.frames(), records):
            assert _frame(record) == frame


class TestDamagedSamples:
    @pytest.mark.parametrize("path", DAMAGED, ids=lambda p: p.stem)
    def test_open_repairs_the_tail_exactly_once(self, path, tmp_path):
        expected = expectation(path)
        scratch = tmp_path / path.name  # never mutate the committed bytes
        shutil.copy(path, scratch)
        wal = WriteAheadLog(FileStore(scratch))
        assert wal.repaired == expected["damage"]
        prefix = [record.to_mapping() for record in wal.records()]
        assert prefix == expected["records"]
        # appends land on firm ground, right after the intact prefix
        appended = wal.append("object.remove", {"guid": "mrom://a/x"})
        assert appended.seq == len(prefix) + 1
        reopened = WriteAheadLog(FileStore(scratch))
        assert reopened.repaired is None  # the damage was cut, not kept

    @pytest.mark.parametrize("path", DAMAGED, ids=lambda p: p.stem)
    def test_repair_can_be_declined(self, path, tmp_path):
        scratch = tmp_path / path.name
        shutil.copy(path, scratch)
        before = scratch.read_bytes()
        WriteAheadLog(FileStore(scratch), repair=False)
        assert scratch.read_bytes() == before


class TestCorpusCompleteness:
    def test_every_record_kind_is_covered(self):
        seen = {
            record["kind"]
            for path in SAMPLES
            for record in expectation(path)["records"]
        }
        missing = set(RECORD_KINDS) - seen
        assert not missing, (
            f"corpus lacks samples for {sorted(missing)}; extend "
            f"corpus/_generate.py and regenerate"
        )

    def test_every_damage_verdict_is_covered(self):
        verdicts = {expectation(path)["damage"] for path in SAMPLES}
        assert verdicts == {None, "torn", "truncated"}

    def test_every_sample_has_a_sidecar_and_vice_versa(self):
        wals = {path.stem for path in SAMPLES}
        sidecars = {path.stem for path in CORPUS.glob("*.json")}
        assert wals == sidecars
        assert wals  # the glob found the corpus at all
