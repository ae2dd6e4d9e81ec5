"""The migration protocol: ship an object to another site as data.

The sequence follows the paper's Import/Export narrative (Section 5),
hardened into an idempotent **two-phase handoff** so that a migration
survives dropped, duplicated, reordered and delayed messages with
exactly one live copy of the object at the end:

1. **PREPARE** — the sender packs the object and ships it under a fresh
   *transfer id* (a per-site package sequence number). The request is
   retried with timeout and backoff; every retry carries the same id.
2. **settle** — the receiving :class:`MobilityManager` runs its
   *admission policy* (the host restricting the guest — one half of the
   security duality), which unpacks the package once and judges the
   object it built; it installs that object, registers it, and records
   the outcome in its transfer ledger. Without a policy the package is
   simply unpacked. A re-delivered
   PREPARE — a network duplicate or a retry whose first copy already
   settled — is suppressed by the ledger and answered with the recorded
   report.
3. **ACK** — the settle report travels back as the reply. Only on a
   confirmed ACK does the sender unregister its original; a rejected or
   failed transfer leaves the object exactly where it was.

If every attempt times out the transfer is *unresolved* (the PREPARE may
or may not have settled remotely): the sender keeps its original, records
the transfer id, and raises
:class:`~repro.core.errors.TransferUnresolvedError`.
:meth:`MobilityManager.reconcile` later asks the destination
(``transfer.query``) and either completes the move (unregister the
original) or confirms the abort — the destination marks never-seen ids
*aborted* on query, so a PREPARE that is still crawling through the
network when the verdict falls is refused on arrival. The result is
exactly-once migration under any message-fault schedule, given eventual
connectivity.

Two modes:

* :meth:`MobilityManager.migrate` *moves* the object (unregisters the
  local original — there is exactly one of it afterwards);
* :meth:`MobilityManager.deploy_copy` ships an independent replica and
  keeps the original (how an APO deploys Ambassadors to many sites).

A ``forward`` request lets a remote party that is entitled to do so bounce
an object onward to a third site — the hop primitive multi-site agent
itineraries are built from. Forwards ride the same two-phase machinery.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from typing import Any, Callable, Mapping, Sequence

from .. import probes as _probes
from ..core.acl import Principal
from ..core.errors import (
    MobilityError,
    MROMError,
    PolicyViolationError,
    RequestTimeoutError,
    SecurityError,
    TransferUnresolvedError,
)
from ..core.mobject import MROMObject
from ..net.rmi import RemoteRef, RetryPolicy
from ..net.site import Site
from ..net.transport import Message, request_body, request_list
from .package import pack, unpack

__all__ = ["MobilityManager", "InstallReport"]

#: ``policy(package, src_site_id, resolve=None) -> MROMObject``: unpack
#: *package* once (with *resolve*, the receiving site's resolver), judge
#: the object, and return it to be installed, or raise
AdmissionPolicy = Callable[..., MROMObject]


class InstallReport(dict):
    """What a completed transfer reports back (a plain mapping on the
    wire): the settled object's guid, site, and its ``install`` result."""


class MobilityManager:
    """Attaches the migration protocol to a :class:`~repro.net.site.Site`."""

    #: receiver-side dedup table size: settled/aborted transfer ids kept
    _LEDGER_CAP = 1024

    def __init__(
        self,
        site: Site,
        policy: AdmissionPolicy | None = None,
        retry_policy: RetryPolicy | None = None,
    ):
        self.site = site
        #: the admission slot: unpacks each arrival with this site's
        #: resolver and returns the object to install, or raises
        self.policy = policy
        #: per-manager override for outgoing transfer requests; None
        #: falls through to the site's default retry policy
        self.retry_policy = retry_policy
        self.arrivals = 0
        self.departures = 0
        self.rejections = 0
        self.duplicates_suppressed = 0
        self._transfer_seq = itertools.count(1)
        self._ledger: OrderedDict[str, dict] = OrderedDict()
        #: transfer_id -> {"guid", "dst", "mode"} for unresolved handoffs
        self.unresolved: dict[str, dict] = {}
        #: observers of transfer verdicts, called as
        #: ``hook(transfer_id, guid, dst, mode, outcome)`` with outcome
        #: ``"committed"`` or ``"aborted"`` — at the COMMIT/ABORT point of
        #: a handoff and when :meth:`reconcile` settles an ambiguous one.
        #: The cluster directory hangs its placement/lease update here so
        #: exactly-once transfer and lease invalidation land atomically.
        self.resolution_hooks: list[Callable[[str, str, str, str, str], None]] = []
        #: let the site's journal snapshot transfer state at checkpoints
        site.mobility = self
        site.add_handler("transfer.prepare", self._handle_prepare)
        site.add_handler("transfer.query", self._handle_query)
        site.add_handler("forward", self._handle_forward)

    # ------------------------------------------------------------------
    # sender side
    # ------------------------------------------------------------------

    def migrate(
        self,
        obj: MROMObject,
        dst: str,
        install_args: Sequence[Any] = (),
    ) -> RemoteRef:
        """Move *obj* to *dst*; the local original ceases to exist here.

        The local object is unregistered only after the destination's
        confirmed ACK, so a rejected or failed transfer leaves the
        object where it was — and an ambiguous one (timeout) keeps it
        here too, flagged for :meth:`reconcile`.
        """
        report = self._handoff(obj, dst, install_args, mode="move")
        return RemoteRef(self.site, dst, str(report["guid"]))

    def deploy_copy(
        self,
        obj: MROMObject,
        dst: str,
        install_args: Sequence[Any] = (),
    ) -> RemoteRef:
        """Ship an independent replica of *obj* to *dst*, keeping the
        original registered here (the APO → Ambassador pattern)."""
        report = self._handoff(obj, dst, install_args, mode="copy")
        return RemoteRef(self.site, dst, str(report["guid"]))

    def preflight(self, obj: MROMObject, concurrency: bool = False) -> list:
        """Sender-side admission analysis of a live object.

        Returns the :class:`~repro.analysis.diagnostics.Diagnostic` list a
        destination running the admission gate would raise about *obj* —
        run it before :meth:`migrate` to avoid paying for a round trip
        that ends in an :class:`~repro.analysis.admission.AdmissionRefusal`.
        Pass ``concurrency=True`` to also see the ``adm.race.*``/
        ``adm.cycle.*`` advice a *strict* gate would veto on.
        """
        from ..analysis.admission import analyze_object

        return analyze_object(obj, concurrency=concurrency)

    def _notify(
        self, transfer_id: str, guid: str, dst: str, mode: str, outcome: str
    ) -> None:
        for hook in list(self.resolution_hooks):
            hook(transfer_id, guid, dst, mode, outcome)

    def _mint_transfer_id(self) -> str:
        """A package sequence number, unique across site incarnations."""
        return (
            f"xfer:{self.site.site_id}#{self.site.incarnation}"
            f":{next(self._transfer_seq)}"
        )

    def _handoff(
        self, obj: MROMObject, dst: str, install_args: Sequence[Any], mode: str
    ) -> Mapping:
        package = pack(obj)
        transfer_id = self._mint_transfer_id()
        probe = _probes.ACTIVE
        if probe is not None:
            probe.transfer_prepare(self.site, transfer_id, obj, dst, mode, package)
        journal = self.site.journal
        try:
            if journal is not None:
                # write-ahead intent: if this incarnation dies between
                # PREPARE and COMMIT, recovery re-raises the transfer as
                # unresolved and reconcile() settles it via transfer.query
                journal.note_intent(
                    transfer_id, {"guid": obj.guid, "dst": dst, "mode": mode}
                )
            report = self.site.request(
                dst,
                "transfer.prepare",
                {
                    "transfer_id": transfer_id,
                    "package": package,
                    "install_args": list(install_args),
                },
                policy=self.retry_policy,
            )
        except RequestTimeoutError as exc:
            # ambiguous: the PREPARE may have settled; keep the original
            # and leave the verdict to reconcile()
            self.unresolved[transfer_id] = {
                "guid": obj.guid, "dst": dst, "mode": mode,
            }
            if probe is not None:
                probe.transfer_unresolved(self.site, transfer_id)
            raise TransferUnresolvedError(transfer_id, obj.guid, dst) from exc
        except BaseException as exc:
            # the destination answered and refused (RemoteInvocationError),
            # or a PartitionError stopped the send: nothing settled there,
            # the object never left
            if journal is not None:
                journal.note_resolved(transfer_id, "aborted")
            if probe is not None:
                probe.transfer_abort(self.site, transfer_id, exc)
            self._notify(transfer_id, obj.guid, dst, mode, "aborted")
            raise
        if not isinstance(report, Mapping):
            error = MobilityError(f"malformed transfer report from {dst!r}")
            if probe is not None:
                probe.transfer_abort(self.site, transfer_id, error)
            raise error
        if mode == "move" and self.site.has_object(obj.guid):
            self.site.unregister_object(obj.guid)
        if journal is not None:
            journal.note_resolved(transfer_id, "committed")
        # the COMMIT point: the original is gone, the destination's copy
        # is the object — observers (the cluster directory) update
        # placements and leases here, inside the same verdict
        self._notify(transfer_id, obj.guid, dst, mode, "committed")
        self.departures += 1
        if probe is not None:
            probe.transfer_commit(self.site, transfer_id, mode)
        return report

    def reconcile(self) -> dict[str, str]:
        """Resolve unresolved transfers; returns transfer_id -> outcome.

        ``settled``: the destination installed the object — for a move,
        the local original is unregistered now (the deferred half of the
        handoff). ``aborted``: the destination never saw the PREPARE and
        has vetoed late arrivals — the original simply stays. Still
        unreachable destinations stay ``unreachable`` and keep their
        entry for a later reconcile.
        """
        probe = _probes.ACTIVE if self.unresolved else None
        if probe is not None:
            probe.reconcile_begin(self.site, len(self.unresolved))
        outcomes: dict[str, str] = {}
        try:
            for transfer_id, entry in sorted(self.unresolved.items()):
                try:
                    status = self.site.request(
                        entry["dst"],
                        "transfer.query",
                        {"transfer_id": transfer_id},
                        policy=self.retry_policy,
                    )
                except MROMError:
                    outcomes[transfer_id] = "unreachable"
                    continue
                state = (
                    status.get("state") if isinstance(status, Mapping) else None
                )
                if state == "settled":
                    if entry["mode"] == "move" and self.site.has_object(
                        entry["guid"]
                    ):
                        self.site.unregister_object(entry["guid"])
                    self.departures += 1
                    outcomes[transfer_id] = "settled"
                    self._notify(transfer_id, entry["guid"], entry["dst"],
                                 entry["mode"], "committed")
                else:
                    outcomes[transfer_id] = "aborted"
                    self._notify(transfer_id, entry["guid"], entry["dst"],
                                 entry["mode"], "aborted")
                journal = self.site.journal
                if journal is not None:
                    journal.note_resolved(transfer_id, outcomes[transfer_id])
                del self.unresolved[transfer_id]
        finally:
            if probe is not None:
                probe.reconcile_end(self.site, outcomes)
        return outcomes

    def forward(
        self,
        via: str,
        guid: str,
        dst: str,
        install_args: Sequence[Any] = (),
        caller: Principal | None = None,
    ) -> RemoteRef:
        """Ask site *via* to move its local object *guid* on to *dst*."""
        report = self.site.request(
            via,
            "forward",
            {
                "target": guid,
                "dst": dst,
                "install_args": list(install_args),
                "caller": self.site._caller_payload(caller),
            },
            policy=self.retry_policy,
        )
        if not isinstance(report, Mapping):
            raise MobilityError(f"malformed forward report from {via!r}")
        return RemoteRef(self.site, dst, str(report["guid"]))

    # ------------------------------------------------------------------
    # receiver side
    # ------------------------------------------------------------------

    def _record(self, transfer_id: str, state: str, report: dict | None = None) -> None:
        if not transfer_id:
            return
        self._ledger[transfer_id] = {"state": state, "report": report}
        self._ledger.move_to_end(transfer_id)
        while len(self._ledger) > self._LEDGER_CAP:
            self._ledger.popitem(last=False)
        journal = self.site.journal
        if journal is not None:
            # durable dedup: a restarted receiver must still suppress
            # re-delivered PREPAREs and still veto queried-away ones
            journal.note_ledger(transfer_id, state, report)

    def _suppress_duplicate(self, transfer_id: str, cause: str) -> None:
        self.duplicates_suppressed += 1
        probe = _probes.ACTIVE
        if probe is not None:
            probe.transfer_duplicate(self.site, transfer_id, cause)

    def _handle_prepare(self, message: Message) -> dict:
        body = request_body(message)
        transfer_id = str(body.get("transfer_id", ""))
        entry = self._ledger.get(transfer_id) if transfer_id else None
        if entry is not None:
            if entry["state"] == "settled":
                # re-delivery (network duplicate, or a retry racing its
                # own first copy): answer with the recorded report
                self._suppress_duplicate(transfer_id, "ledger-replay")
                return dict(entry["report"])
            raise MobilityError(
                f"transfer {transfer_id} was aborted by reconciliation"
            )
        package = body.get("package")
        if not isinstance(package, Mapping):
            raise MobilityError("transfer message carries no package")
        guid = str(package.get("guid", ""))
        if guid and self.site.has_object(guid):
            # the object is already here — an earlier incarnation settled
            # it before a crash and recovery brought it back; settle
            # without installing a second copy
            self._suppress_duplicate(transfer_id, "already-resident")
            report = InstallReport(
                guid=guid, site=self.site.site_id, install_result=None
            )
            self._record(transfer_id, "settled", dict(report))
            return report
        install_args = self.site.import_value(request_list(message, "install_args"))
        report = self.install_package(package, install_args, src=message.src)
        self._record(transfer_id, "settled", dict(report))
        return report

    def _handle_query(self, message: Message) -> dict:
        transfer_id = str(request_body(message).get("transfer_id", ""))
        entry = self._ledger.get(transfer_id)
        if entry is None:
            # never seen: veto it, so a PREPARE still in flight when the
            # sender gave up cannot settle afterwards and mint a second copy
            self._record(transfer_id, "aborted")
            return {"state": "aborted"}
        return {"state": entry["state"]}

    def install_package(
        self,
        package: Mapping,
        install_args: Sequence[Any] = (),
        src: str = "",
    ) -> dict:
        """Admit, unpack and install a package that arrived as data.

        Shared by the PREPARE handler and by protocols that carry
        packages inside their own replies (HADAS Link and Import/Export).
        Wire references inside the package resolve (to a live object
        registered here, else a remote proxy) as the object is rebuilt.
        The package is unpacked once: by the admission policy, which
        returns the object it judged, or by plain ``unpack`` without one.
        """
        probe = _probes.ACTIVE
        resolve = self.site.resolve_reference
        if self.policy is None:
            obj = unpack(package, resolve)
        else:
            try:
                obj = self.policy(package, src, resolve=resolve)
            except SecurityError as exc:
                self.rejections += 1
                if probe is not None:
                    probe.admission_refused(self.site, package, src, exc)
                raise
        if probe is not None:
            probe.install_begin(self.site, obj, src, package)
        error = None
        try:
            return self._install(obj, install_args)
        except BaseException as exc:
            error = exc
            raise
        finally:
            if probe is not None:
                probe.install_end(self.site, error)
            # the error's traceback holds this frame: drop the cycle, so
            # the refused guest is freed with the error
            error = None

    def _install(self, obj: MROMObject, install_args: Sequence[Any]) -> dict:
        # a migrated object's compiled closures arrive cold. Compiled
        # state is never packaged (a closure pins handles of the *sender's* live object
        # and would be meaningless, and dangerous, here); unpack builds a
        # fresh object, and this reset keeps the guarantee even if
        # pack/unpack ever learns to carry live state across.
        obj.fastpath_reset()
        self.site.register_object(obj)
        # the installation context: what the host tells the newcomer
        obj.environment["install_context"] = {
            "site": self.site.site_id,
            "domain": self.site.domain,
            "arrived_at": self.site.network.now,
        }
        self.arrivals += 1
        install_result = None
        if obj.containers.has_method("install"):
            # "passes to it an installation context and invokes the
            # Ambassador, which in turn installs itself"
            try:
                install_result = obj.invoke(
                    "install", list(install_args), caller=self.site.principal
                )
            except Exception:
                # a guest that cannot install does not stay, whatever its
                # body raised: the sender keeps its original on a failed
                # transfer, so leaving the copy registered would mint a
                # second live object
                self.site.unregister_object(obj.guid)
                self.arrivals -= 1
                raise
        return InstallReport(
            guid=obj.guid,
            site=self.site.site_id,
            install_result=install_result,
        )

    def _handle_forward(self, message: Message) -> Mapping:
        body = request_body(message)
        guid = str(body.get("target", ""))
        dst = str(body.get("dst", ""))
        caller = self.site._caller_from(body.get("caller"))
        obj = self.site.local_object(guid)
        # only the object's owner (or this site itself) may bounce it on —
        # a hostile third party must not be able to teleport guests around
        if caller.guid not in (obj.owner.guid, self.site.principal.guid):
            raise PolicyViolationError(
                f"{caller.guid} may not forward {guid} (owner: {obj.owner.guid})"
            )
        install_args = request_list(message, "install_args")
        return self._handoff(obj, dst, install_args, mode="move")
