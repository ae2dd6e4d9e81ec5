"""Crash recovery: rebuild a site incarnation from its write-ahead log.

Replay is a fold over the record stream (snapshot first if one
survived compaction, then everything after it): the latest durable
image per object wins, a served invoke's ``delta`` patches a copy of
its object's latest image, removes erase, the served-reply ledger and the
receiver-side transfer ledger are reconstructed in order, and every
``transfer.intent`` without a matching ``transfer.resolved`` comes back
as an *unresolved* transfer on the new
:class:`~repro.mobility.transfer.MobilityManager` — the sender crashed
between PREPARE and COMMIT, and :meth:`~repro.mobility.transfer.
MobilityManager.reconcile` re-resolves it via ``transfer.query`` so the
object settles to exactly one owner.

Restoring an image deliberately does **not** re-invoke ``install``
(unlike :meth:`~.store.ObjectStore.bootstrap`): WAL images are taken
after the install already ran, so running it again would double-apply its
effects. The environment gets a fresh ``install_context`` marked
``recovered`` instead.

A delta that fits no image — its guid has none, or it names a data
item the image lacks — is damage the frames cannot show: the fold
reports it as ``"torn"``, drops that object (its later state is
unknowable) and does not fold the record's reply, then goes on with the
rest of the log, so a later image of the object restores it. A record
that lacks a field the fold reads, or holds one of the wrong type (an
id or a state that is not text, a package, image, entry or report that
is not a mapping), is the same damage: the fold skips the whole record,
drops the object its ``guid`` names and goes on.
"""

from __future__ import annotations

import time as _time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Mapping

from ..core.errors import MROMError
from ..mobility.package import unpack
from ..mobility.transfer import MobilityManager
from ..net.rmi import RetryPolicy
from ..net.site import Site
from ..net.transport import Network
from .. import probes as _probes
from .wal import WalRecord, WriteAheadLog

__all__ = ["ReplayState", "RecoveryReport", "replay_records", "recover_site"]


@dataclass
class ReplayState:
    """The fold of a record stream: everything recovery reinstates."""

    images: "OrderedDict[str, dict]" = field(default_factory=OrderedDict)
    served: "OrderedDict[str, Any]" = field(default_factory=OrderedDict)
    ledger: "OrderedDict[str, dict]" = field(default_factory=OrderedDict)
    unresolved: dict[str, dict] = field(default_factory=dict)
    snapshot_used: bool = False
    records_replayed: int = 0
    unknown_kinds: int = 0
    #: ``"torn"`` once a delta fit no image (see module doc)
    damage: str | None = None


def _patched(image: Any, delta: Any) -> dict | None:
    """A copy of *image* carrying *delta*'s item values, or None when
    the delta does not fit it. *image* itself is never changed."""
    if not isinstance(image, Mapping) or not isinstance(delta, Mapping):
        return None
    pending = dict(delta)
    if not all(type(name) is str for name in pending):
        return None
    patched = dict(image)
    for section in ("fixed_data", "ext_data"):
        entries = image.get(section)
        if not isinstance(entries, list):
            continue
        copied = []
        for entry in entries:
            if isinstance(entry, Mapping):
                name = entry.get("name")
                if type(name) is str and name in pending:
                    entry = {**entry, "value": pending.pop(name)}
            copied.append(entry)
        patched[section] = copied
    return None if pending else patched


def _torn(state: ReplayState, guid: Any) -> None:
    """Fold damage: drop the image of *guid*, whose state after the
    damaged record is unknowable."""
    if isinstance(guid, str):
        state.images.pop(guid, None)
    if state.damage is None:
        state.damage = "torn"


def _fold_delta(state: ReplayState, guid: str, delta: Any) -> bool:
    patched = _patched(state.images.get(guid), delta)
    if patched is None:
        _torn(state, guid)
        return False
    state.images[guid] = patched
    return True


class _Damaged(Exception):
    """A record whose checksum held but which lacks a field the fold
    reads, or holds one of the wrong type."""


def _text(value: Any) -> str:
    if not isinstance(value, str):
        raise _Damaged
    return value


def _mapping(value: Any) -> dict:
    if not isinstance(value, dict):
        raise _Damaged
    return value


def _optional_mapping(attrs: dict, name: str) -> dict | None:
    value = attrs.get(name)
    return None if value is None else _mapping(value)


def _pairs(attrs: dict, name: str) -> list:
    """The ``[[id, value], ...]`` list *name* (empty if absent)."""
    pairs = attrs.get(name) or []
    if not isinstance(pairs, list):
        raise _Damaged
    for pair in pairs:
        if not isinstance(pair, list) or len(pair) != 2:
            raise _Damaged
    return pairs


def _ledger_entry(entry: Any) -> dict:
    entry = dict(_mapping(entry))
    _text(entry.get("state"))
    if entry.get("report") is not None:
        _mapping(entry["report"])
    return entry


def _fold_snapshot(state: ReplayState, attrs: dict) -> None:
    objects = _optional_mapping(attrs, "objects") or {}
    images = OrderedDict(
        (_text(guid), _mapping(package)) for guid, package in objects.items()
    )
    served = OrderedDict(
        (_text(request_id), reply) for request_id, reply in _pairs(attrs, "served")
    )
    ledger = OrderedDict(
        (_text(transfer_id), _ledger_entry(entry))
        for transfer_id, entry in _pairs(attrs, "ledger")
    )
    unresolved = {
        _text(transfer_id): dict(_mapping(entry))
        for transfer_id, entry in (_optional_mapping(attrs, "unresolved") or {}).items()
    }
    state.images, state.served, state.ledger = images, served, ledger
    state.unresolved = unresolved
    state.snapshot_used = True


def _fold_image(state: ReplayState, attrs: dict) -> None:
    guid = _text(attrs.get("guid"))
    state.images[guid] = _mapping(attrs.get("package"))


def _fold_remove(state: ReplayState, attrs: dict) -> None:
    state.images.pop(_text(attrs.get("guid")), None)


def _fold_served(state: ReplayState, attrs: dict) -> None:
    request_id = _text(attrs.get("request_id"))
    if "reply" not in attrs:
        raise _Damaged
    image = _optional_mapping(attrs, "image")
    has_delta = "delta" in attrs
    guid = _text(attrs.get("guid")) if has_delta or image is not None else ""
    if not has_delta or _fold_delta(state, guid, attrs["delta"]):
        state.served[request_id] = attrs["reply"]
    if image is not None:
        state.images[guid] = image


def _fold_intent(state: ReplayState, attrs: dict) -> None:
    transfer_id = _text(attrs.get("transfer_id"))
    state.unresolved[transfer_id] = dict(_mapping(attrs.get("entry")))


def _fold_resolved(state: ReplayState, attrs: dict) -> None:
    state.unresolved.pop(_text(attrs.get("transfer_id")), None)


def _fold_ledger(state: ReplayState, attrs: dict) -> None:
    transfer_id = _text(attrs.get("transfer_id"))
    entry_state = _text(attrs.get("state"))
    report = _optional_mapping(attrs, "report")
    image = _optional_mapping(attrs, "image")
    state.ledger[transfer_id] = {"state": entry_state, "report": report}
    if image is not None:
        guid = str((report or {}).get("guid", ""))
        if guid:
            state.images[guid] = image


_FOLDS = {
    "snapshot": _fold_snapshot,
    "object.image": _fold_image,
    "object.remove": _fold_remove,
    "served.reply": _fold_served,
    "transfer.intent": _fold_intent,
    "transfer.resolved": _fold_resolved,
    "transfer.ledger": _fold_ledger,
}


def replay_records(records: list[WalRecord]) -> ReplayState:
    """Fold *records* (in LSN order) into a :class:`ReplayState`."""
    state = ReplayState()
    for record in records:
        fold = _FOLDS.get(record.kind)
        if fold is None:
            state.unknown_kinds += 1  # forward compatibility: skip, don't die
        else:
            try:
                fold(state, record.attrs)
            except _Damaged:
                _torn(state, record.attrs.get("guid"))
        state.records_replayed += 1
    return state


@dataclass
class RecoveryReport:
    """What one recovery actually reinstated (deterministic fields only
    in :meth:`to_mapping`; wall-clock timing stays an attribute)."""

    site_id: str
    records_replayed: int = 0
    objects_restored: int = 0
    objects_failed: int = 0
    served_restored: int = 0
    ledger_restored: int = 0
    unresolved_restored: int = 0
    snapshot_used: bool = False
    damage: str | None = None
    replay_seconds: float = 0.0

    def to_mapping(self) -> dict:
        return {
            "site_id": self.site_id,
            "records_replayed": self.records_replayed,
            "objects_restored": self.objects_restored,
            "objects_failed": self.objects_failed,
            "served_restored": self.served_restored,
            "ledger_restored": self.ledger_restored,
            "unresolved_restored": self.unresolved_restored,
            "snapshot_used": self.snapshot_used,
            "damage": self.damage,
        }


def recover_site(
    network: Network,
    site_id: str,
    wal: WriteAheadLog,
    domain: str = "",
    policy=None,
    retry_policy: RetryPolicy | None = None,
) -> tuple[Site, MobilityManager, RecoveryReport]:
    """Bring up a fresh incarnation of *site_id* from its WAL.

    Returns the new site, its mobility manager (pre-loaded with the
    durable transfer ledger and every dangling intent as an unresolved
    transfer), and a :class:`RecoveryReport`. The caller re-applies
    host configuration (admission limits, service delay, name bindings)
    and attaches a new journal — recovery itself journals nothing.
    """
    started = _time.perf_counter()
    records, damage = wal.replay()
    state = replay_records(records)

    site = Site(network, site_id, domain)
    manager = MobilityManager(site, policy=policy, retry_policy=retry_policy)
    report = RecoveryReport(
        site_id=site_id,
        records_replayed=state.records_replayed,
        snapshot_used=state.snapshot_used,
        damage=wal.repaired or damage or state.damage,
    )

    probe = _probes.ACTIVE
    if probe is not None:
        probe.recovery_begin(site, state.records_replayed)

    try:
        for guid, package in state.images.items():
            try:
                obj = unpack(package, site.resolve_reference)
                obj.fastpath_reset()  # caches never survive a restart
                site.register_object(obj)
                obj.environment["install_context"] = {
                    "site": site.site_id,
                    "domain": site.domain,
                    "recovered": True,
                }
            except MROMError:
                report.objects_failed += 1
                if probe is not None:
                    probe.recovery_image_failed(guid)
                continue
            report.objects_restored += 1

        for request_id, reply in state.served.items():
            site._served[request_id] = reply
        while len(site._served) > site._served_cap:
            site._served.popitem(last=False)
        report.served_restored = len(site._served)

        for transfer_id, entry in state.ledger.items():
            manager._record(transfer_id, entry["state"], entry.get("report"))
        report.ledger_restored = len(manager._ledger)

        manager.unresolved.update(state.unresolved)
        report.unresolved_restored = len(manager.unresolved)
    finally:
        report.replay_seconds = _time.perf_counter() - started
        if probe is not None:
            probe.recovery_end(report)
    return site, manager, report
