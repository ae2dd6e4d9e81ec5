"""The site journal: what a host writes ahead so a restart loses nothing.

A :class:`SiteJournal` binds one :class:`~repro.net.site.Site` to one
:class:`~.wal.WriteAheadLog` and translates the site's observable
transitions into WAL records *before* their effects reach the wire:

* ``object.image`` on registration;
* ``object.remove`` on unregistration (a move's commit);
* ``served.reply`` from the request-dedup ledger, upholding the
  record-before-reply discipline across restarts: a retry that lands on
  the next incarnation replays the recorded outcome instead of
  re-executing the handler (zero lost replies). A served invoke's
  record also carries the state the invoke produced, in the same frame
  as the reply, so the two are durable together (zero lost updates):
  a ``delta`` of the data values that differ from what the log last
  holds for the target, or its whole ``image`` when a delta cannot say
  what changed (see *Deltas* below);
* ``transfer.intent`` *before* a PREPARE leaves the sender, and
  ``transfer.resolved`` once its verdict is known — the write-ahead
  half of crash-safe exactly-once migration (a dangling intent is
  re-resolved via ``transfer.query`` after restart);
* ``transfer.ledger`` for every receiver-side settle/abort, so a
  restarted receiver still suppresses duplicate PREPAREs and still
  vetoes late ones.

Failure policy is **fail-safe, not fail-stop**: if the store refuses a
write (full, closed, broken), the journal marks itself ``failed``,
emits a ``wal.failed`` telemetry event, and goes quiet — the site keeps
serving without durability rather than taking the service down with the
disk. ``close()`` models the crash instant itself: a fail-stopped
incarnation writes nothing more, ever.

Deltas
------

An object's image is its description (structure, code, ACLs, tower,
environment) plus its instance data; an invoke nearly always changes
only the data. So the journal keeps, per guid, a *base*: a structural
stamp and the data values of the last record that imaged it. The
stamp is the object's own structure stamp
(:meth:`~repro.core.mobject.MROMObject.structure_stamp`: its clock, the
edit counts of the ACLs it holds and its tower levels) plus the packed
environment, which no counter watches; another object's edit leaves it
where it was. A served invoke logs
``delta: {name: value}`` — every data item whose value is not the
base's (same type and ``==``, so ``1 -> 1.0`` or ``1 -> True`` is a
change) — and logs the whole image exactly as before when the stamp
moved, when a data or environment value is not an immutable scalar (it
could change in place, unseen), or when there is no base.
A deferred binary cell is never a base value (packing reads it), so it
is a change without being read. Every image record (registration, a
settled transfer, every snapshot) resets its guid's base, a remove
drops it, and a new incarnation starts with none.

One edit is invisible to the stamp: writing into ``item.metadata`` in
place instead of through ``update_metadata``, which moves the clock.
"""

from __future__ import annotations

from typing import Any, Mapping

from ..core.errors import MROMError
from ..mobility.package import _HOST_ONLY_ENV, pack
from ..net.site import Site
from .. import probes as _probes
from .wal import WriteAheadLog

__all__ = ["SiteJournal", "attach_journal"]

#: value types a delta carries: immutable, so a value the log holds can
#: change only by rebinding the item, which the comparison sees
_SCALARS = frozenset((type(None), bool, int, float, str, bytes))


def _stamp(obj) -> tuple | None:
    """*obj*'s structure stamp and packed environment; None when the
    environment could change in place."""
    if obj.environment.keys() <= _HOST_ONLY_ENV:  # nothing of it is packed
        return obj.structure_stamp(), {}
    environment = {
        key: value for key, value in obj.environment.items()
        if key not in _HOST_ONLY_ENV
    }
    for value in environment.values():
        if type(value) not in _SCALARS:
            return None
    return obj.structure_stamp(), environment


def _data_items(obj):
    containers = obj.containers
    yield from containers.fixed_data
    yield from containers.ext_data


def _same(value, old) -> bool:
    """Same type and equal; floats bit for bit, so ``-0.0`` differs from
    ``0.0`` and a NaN matches a NaN."""
    kind = type(value)
    if kind is not type(old):
        return False
    if kind is float:
        return value.hex() == old.hex()
    return value == old


class SiteJournal:
    """The durability plane of one site incarnation (see module doc)."""

    def __init__(self, site: Site, wal: WriteAheadLog):
        self.site = site
        self.wal = wal
        self.failed = False
        self.closed = False
        self.writes = 0
        self.skipped_unportable = 0
        #: guid -> (stamp, {item name: value}) of its last image record
        self._bases: dict[str, tuple[tuple, dict]] = {}
        site.journal = self

    # -- plumbing ----------------------------------------------------------

    def _write(self, kind: str, attrs: Mapping[str, Any]) -> None:
        if self.closed or self.failed:
            return
        try:
            self.wal.append(
                kind, attrs, site=self.site.site_id,
                time=self.site.network.now, export=self.site.export_value,
            )
        except MROMError as exc:
            # fail-safe: losing the disk must not lose the service
            self.failed = True
            probe = _probes.ACTIVE
            if probe is not None:
                probe.journal_failed(self.site, kind, exc)
        else:
            self.writes += 1

    def _image(self, obj) -> dict | None:
        """Pack *obj* for an image record, which becomes its base."""
        self._bases.pop(obj.guid, None)
        stamp = _stamp(obj)  # before packing: an edit during the pack moves it
        try:
            image = pack(obj, strip_native_wrappers=True)
        except MROMError:
            self.skipped_unportable += 1
            return None
        if stamp is not None:
            # packing read every deferred cell, so the slots hold values
            values = {item.name: item._value for item in _data_items(obj)}
            if all(type(value) in _SCALARS for value in values.values()):
                self._bases[obj.guid] = (stamp, values)
        return image

    def _delta(self, obj) -> dict | None:
        """The data values of *obj* that differ from its base, or None
        when only a whole image can say what changed (see module doc)."""
        base = self._bases.get(obj.guid)
        if base is None:
            return None
        stamp, values = base
        if _stamp(obj) != stamp:
            return None
        delta = {}
        for item in _data_items(obj):
            value = item._value  # not peek(): that would read a deferred cell
            old = values[item.name]
            if value is old:
                continue
            if type(value) not in _SCALARS:
                return None
            if not _same(value, old):
                delta[item.name] = value
        values.update(delta)
        return delta

    def close(self) -> None:
        """The crash instant: nothing after this reaches the log."""
        self.closed = True
        if self.site.journal is self:
            self.site.journal = None

    # -- site-side notes ---------------------------------------------------

    def note_register(self, obj) -> None:
        image = self._image(obj)
        if image is None:
            return  # native-code guests cannot be imaged; host rebuilds them
        self._write("object.image", {"guid": obj.guid, "package": image})

    def note_unregister(self, guid: str) -> None:
        self._bases.pop(guid, None)
        self._write("object.remove", {"guid": guid})

    def note_served(
        self,
        kind: str,
        request_id: str,
        reply: Any,
        request_payload: Any,
    ) -> None:
        attrs: dict[str, Any] = {
            "kind": kind, "request_id": request_id, "reply": reply,
        }
        if kind == "invoke" and isinstance(request_payload, Mapping):
            # the reply and the state it produced, durable in one frame
            guid = str(request_payload.get("target", ""))
            if guid and self.site.has_object(guid):
                obj = self.site.local_object(guid)
                delta = self._delta(obj)
                if delta is None:
                    image = self._image(obj)
                    if image is not None:
                        attrs["guid"] = guid
                        attrs["image"] = image
                elif delta:
                    attrs["guid"] = guid
                    attrs["delta"] = delta
        self._write("served.reply", attrs)

    # -- transfer-side notes -----------------------------------------------

    def note_intent(self, transfer_id: str, entry: Mapping[str, Any]) -> None:
        self._write(
            "transfer.intent",
            {"transfer_id": transfer_id, "entry": dict(entry)},
        )

    def note_resolved(self, transfer_id: str, outcome: str) -> None:
        self._write(
            "transfer.resolved",
            {"transfer_id": transfer_id, "outcome": outcome},
        )

    def note_ledger(
        self, transfer_id: str, state: str, report: Mapping | None
    ) -> None:
        attrs: dict[str, Any] = {
            "transfer_id": transfer_id,
            "state": state,
            "report": dict(report) if report is not None else None,
        }
        if state == "settled" and isinstance(report, Mapping):
            guid = str(report.get("guid", ""))
            if guid and self.site.has_object(guid):
                image = self._image(self.site.local_object(guid))
                if image is not None:
                    attrs["image"] = image
        self._write("transfer.ledger", attrs)

    # -- snapshots ---------------------------------------------------------

    def checkpoint(self, compact: bool = True):
        """Fold current observable state into one ``snapshot`` record.

        With ``compact=True`` (the default) the whole log is rewritten
        to that single record — recovery then replays one snapshot plus
        whatever the site journals afterwards.
        """
        site = self.site
        if self.closed or self.failed:
            return None
        objects: dict[str, dict] = {}
        self._bases.clear()  # the snapshot is every guid's new base
        for obj in site.objects():
            image = self._image(obj)
            if image is not None:
                objects[obj.guid] = image
        manager = site.mobility
        attrs: dict[str, Any] = {
            "objects": objects,
            "served": [
                [request_id, reply]
                for request_id, reply in site._served.items()
            ],
            "ledger": (
                [
                    [transfer_id, dict(entry)]
                    for transfer_id, entry in manager._ledger.items()
                ]
                if manager is not None else []
            ),
            "unresolved": (
                {
                    transfer_id: dict(entry)
                    for transfer_id, entry in manager.unresolved.items()
                }
                if manager is not None else {}
            ),
        }
        probe = _probes.ACTIVE
        if probe is not None:
            probe.snapshot_begin(site, len(objects), compact)
        error: BaseException | None = None
        try:
            if compact:
                record = self.wal.compact(
                    attrs, site=site.site_id, time=site.network.now,
                    export=site.export_value,
                )
            else:
                record = self.wal.append(
                    "snapshot", attrs, site=site.site_id,
                    time=site.network.now, export=site.export_value,
                )
        except MROMError as exc:
            error = exc
            self.failed = True
            if probe is not None:
                probe.journal_failed(site, "snapshot", exc)
            return None
        except BaseException as exc:
            error = exc
            raise
        finally:
            if probe is not None:
                probe.snapshot_end(error)
        self.writes += 1
        return record

    def __repr__(self) -> str:
        state = "closed" if self.closed else ("failed" if self.failed else "live")
        return (
            f"SiteJournal({self.site.site_id!r}, {state}, "
            f"writes={self.writes})"
        )


def attach_journal(site: Site, wal: WriteAheadLog) -> SiteJournal:
    """Bind *wal* to *site* and journal the current registrations, so a
    freshly-attached journal starts from a complete picture."""
    journal = SiteJournal(site, wal)
    for obj in site.objects():
        journal.note_register(obj)
    return journal
