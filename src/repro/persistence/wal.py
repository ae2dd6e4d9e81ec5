"""The write-ahead log: span-stamped records, replay, and compaction.

The record schema is the telemetry plane's, made durable. A
:class:`WalRecord` carries the same shape as a
:class:`~repro.telemetry.events.TelemetryEvent` — a name (``kind``),
a simulated timestamp, and a flat attribute mapping — plus the two
things a durable log needs that an in-memory event log does not: a
monotone sequence number (the LSN) and, when telemetry is active, the
``trace_id``/``span_id`` of the span that caused the write, so a
recovered site's history can be joined back to the traces that
produced it.

On disk a record is one *frame* in a :class:`~.backends.Store`::

    frame := sha256(body)[:8] | body
    body  := marshal({seq, kind, time, site, attrs[, trace]})

using the MRM1 tagged marshal — the WAL speaks the repository's own
wire format, not pickle, for exactly the reasons the network does.
:func:`decode_frame` is the one frame check (checksum, then record
decode); replay and the image archive (:mod:`.store`) both call it.

Replay is strict-prefix: records are decoded in order until the first
damaged frame (checksum mismatch or undecodable body → ``"torn"``;
store-reported incomplete tail → ``"truncated"``), and everything
before the damage is trusted. Opening a log *repairs* such a tail by
atomically rewriting the store to the intact prefix, so new appends
never land beyond a hole.

Compaction (:meth:`WriteAheadLog.compact`) folds the whole log into a
single ``snapshot`` record; sequence numbers keep counting so the LSN
order is preserved across compactions.
"""

from __future__ import annotations

import hashlib
from typing import Any, Mapping

from .. import probes as _probes
from ..core.errors import MarshalError
from ..net.marshal import Export, marshal, unmarshal
from .backends import Store

__all__ = [
    "WalRecord", "WriteAheadLog", "RECORD_KINDS", "decode_frame", "decode_frames",
]

#: Every record kind the recovery state machine understands. Unknown
#: kinds are skipped on replay (forward compatibility), never fatal.
RECORD_KINDS = (
    "object.image",         # latest durable image of one object
    "object.remove",        # the object left this site (move commit)
    "served.reply",         # request-id -> reply, + post-execution image or delta
    "transfer.intent",      # sender-side write-ahead: PREPARE is about to go out
    "transfer.ledger",      # receiver-side settle/abort ledger entry
    "transfer.resolved",    # a pending intent settled (commit/abort known)
    "snapshot",             # full-state fold written by compaction
)

_CHECKSUM_BYTES = 8


class WalRecord:
    """One durable event: the EventLog schema plus LSN and trace stamp."""

    __slots__ = ("seq", "kind", "time", "site", "attrs", "trace")

    def __init__(
        self,
        seq: int,
        kind: str,
        time: float,
        site: str,
        attrs: Mapping[str, Any],
        trace: Mapping[str, str] | None = None,
    ):
        self.seq = seq
        self.kind = kind
        self.time = time
        self.site = site
        self.attrs = dict(attrs)
        self.trace = dict(trace) if trace else None

    def to_mapping(self) -> dict:
        mapping: dict[str, Any] = {
            "seq": self.seq,
            "kind": self.kind,
            "time": self.time,
            "site": self.site,
            "attrs": self.attrs,
        }
        if self.trace is not None:
            mapping["trace"] = self.trace
        return mapping

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, Any]) -> "WalRecord":
        try:
            return cls(
                seq=int(mapping["seq"]),
                kind=str(mapping["kind"]),
                time=float(mapping["time"]),
                site=str(mapping["site"]),
                attrs=dict(mapping["attrs"]),
                trace=mapping.get("trace"),
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            # OverflowError: a real ``inf`` seq, or an int time past float range
            raise MarshalError(f"malformed WAL record: {exc}") from exc

    def __repr__(self) -> str:
        return (
            f"WalRecord(seq={self.seq}, kind={self.kind!r}, "
            f"site={self.site!r}, t={self.time:.6g})"
        )


def _frame(record: WalRecord, export: Export | None = None) -> bytes:
    body = marshal(record.to_mapping(), export)
    return hashlib.sha256(body).digest()[:_CHECKSUM_BYTES] + body


def decode_frame(frame: bytes) -> WalRecord:
    """Check one frame's checksum, then decode its record; a frame that
    fails either raises :class:`~repro.core.errors.MarshalError`."""
    stamp, body = frame[:_CHECKSUM_BYTES], frame[_CHECKSUM_BYTES:]
    if not body or hashlib.sha256(body).digest()[:_CHECKSUM_BYTES] != stamp:
        raise MarshalError("frame checksum mismatch")
    return WalRecord.from_mapping(unmarshal(body))


def decode_frames(
    frames: list[bytes], truncated: bool = False
) -> tuple[list[WalRecord], str | None]:
    """Strict-prefix decode: records up to the first damage.

    Returns ``(records, damage)`` where damage is ``None`` for a clean
    log, ``"torn"`` when a frame fails :func:`decode_frame`, and
    ``"truncated"`` when the store reported a physically cut tail.
    """
    records: list[WalRecord] = []
    for frame in frames:
        try:
            records.append(decode_frame(frame))
        except MarshalError:
            return records, "torn"
    return records, ("truncated" if truncated else None)


class WriteAheadLog:
    """An append-only, replayable log of :class:`WalRecord` frames.

    Opening the log replays the store once: the next sequence number
    continues after the last intact record, and a damaged tail (torn or
    truncated) is repaired in place — the store is rewritten to the
    intact prefix — so the damage is tolerated exactly once and new
    appends land on firm ground. ``repaired`` remembers what was cut.
    """

    def __init__(self, store: Store, repair: bool = True):
        self.store = store
        records, damage = decode_frames(store.frames(), store.truncated)
        self.repaired: str | None = None
        if damage is not None and repair:
            store.rewrite([_frame(record) for record in records])
            self.repaired = damage
        self._next_seq = (records[-1].seq + 1) if records else 1

    # -- writing -----------------------------------------------------------

    def append(
        self,
        kind: str,
        attrs: Mapping[str, Any],
        site: str = "",
        time: float = 0.0,
        export: Export | None = None,
    ) -> WalRecord:
        """Durably append one record (the ``wal_append`` probe point may
        stamp it with a trace first). *export* is the codec's export
        hook: a journal passes its site's, so a live object the record
        holds is written as a reference homed there."""
        record = WalRecord(
            seq=self._next_seq, kind=kind, time=time, site=site, attrs=attrs,
        )
        probe = _probes.ACTIVE
        if probe is not None:
            probe.wal_append(record)
        self.store.append(_frame(record, export))
        self._next_seq += 1
        if probe is not None:
            probe.count("wal.appends")
        return record

    # -- reading -----------------------------------------------------------

    def replay(self) -> tuple[list[WalRecord], str | None]:
        """Decode every intact record; see :func:`decode_frames`."""
        return decode_frames(self.store.frames(), self.store.truncated)

    def records(self) -> list[WalRecord]:
        records, _damage = self.replay()
        return records

    # -- compaction --------------------------------------------------------

    def compact(
        self,
        snapshot_attrs: Mapping[str, Any],
        site: str = "",
        time: float = 0.0,
        export: Export | None = None,
    ) -> WalRecord:
        """Fold the log into one ``snapshot`` record (LSN continues)."""
        record = WalRecord(
            seq=self._next_seq, kind="snapshot", time=time, site=site,
            attrs=snapshot_attrs,
        )
        self.store.rewrite([_frame(record, export)])
        self._next_seq += 1
        probe = _probes.ACTIVE
        if probe is not None:
            probe.count("wal.compactions")
        return record

    @property
    def next_seq(self) -> int:
        return self._next_seq

    def __repr__(self) -> str:
        return (
            f"WriteAheadLog(store={type(self.store).__name__}, "
            f"next_seq={self._next_seq})"
        )
