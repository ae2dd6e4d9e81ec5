"""Site checkpointing: a host persists its guests and survives restarts.

The paper's bootstrap story made operational: the host allocates space
(the :class:`~repro.persistence.store.ObjectStore`), each portable object
writes itself, and after a restart the host's "bootstrap procedure"
restores every guest with identity, structure, behaviour, tower and
environment intact — the long-lived-persistent-mobile-object requirement
of Section 1.

Non-portable objects (host infrastructure built on native code) cannot be
imaged; :func:`checkpoint_site` records them as skipped rather than
failing the checkpoint — infrastructure is reconstructed by the host
program, guests are restored from disk.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.errors import NotPortableError, PersistenceError
from ..core.items import DataItem
from ..mobility.package import portability_report
from ..net.site import Site
from .. import probes as _probes
from .store import ObjectStore

__all__ = [
    "CheckpointReport",
    "checkpoint_site",
    "restore_site",
    "schedule_checkpoints",
]


@dataclass
class CheckpointReport:
    """What a checkpoint or restore actually covered."""

    saved: list[str] = field(default_factory=list)
    skipped_native: list[str] = field(default_factory=list)
    restored: list[str] = field(default_factory=list)
    failed: list[tuple[str, str]] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.failed


def checkpoint_site(site: Site, store: ObjectStore, keep: int = 3) -> CheckpointReport:
    """Persist every portable object registered at *site*."""
    probe = _probes.ACTIVE
    if probe is not None:
        probe.checkpoint_begin(site)
    report = CheckpointReport()
    try:
        for obj in site.objects():
            if portability_report(obj, ignore_wrappers=True):
                report.skipped_native.append(obj.guid)
                if probe is not None:
                    probe.checkpoint_object(obj.guid, "skip")
                continue
            try:
                store.save(obj, keep=keep)
            except (PersistenceError, NotPortableError) as exc:
                report.failed.append((obj.guid, str(exc)))
                if probe is not None:
                    probe.checkpoint_object(obj.guid, "fail", exc)
                continue
            report.saved.append(obj.guid)
            if probe is not None:
                probe.checkpoint_object(obj.guid, "write")
    finally:
        if probe is not None:
            probe.checkpoint_end(report)
    return report


def schedule_checkpoints(
    site: Site, store: ObjectStore, period: float, keep: int = 3
):
    """Checkpoint *site* every *period* simulated seconds, forever.

    The recurring event reschedules itself, so the site always has an
    image at most one period old — the standing posture a host needs for
    the crash-restart story (see :mod:`repro.faults`). Returns a zero-
    argument cancel function that stops future checkpoints.

    Two subtleties this schedule must survive:

    * a tick landing inside a crash window must *skip* the checkpoint
      but keep the period alive — an early version returned without
      rescheduling, permanently stranding the persistence plane the
      first time its site went down;
    * the pending event is cancelled through
      :meth:`~repro.sim.kernel.Simulator.cancel`, not just flagged, so
      ``Simulator.pending`` stays exact and ``run_until`` never stalls
      on a zombie checkpoint at the head of the queue (the same family
      as the cancelled-head deadline fix in the kernel).

    Each tick also re-resolves the site's *current* endpoint, so after
    a crash-restart the new incarnation gets checkpointed rather than
    the dead object the closure originally captured.
    """
    if period <= 0:
        raise PersistenceError(f"checkpoint period must be > 0, got {period}")
    network = site.network
    site_id = site.site_id
    simulator = network.simulator
    state: dict = {"live": True, "reports": [], "event": None}

    def tick() -> None:
        state["event"] = None
        if not state["live"]:
            return
        if network.is_live(site_id):
            target = network.endpoint(site_id)
            state["reports"].append(checkpoint_site(target, store, keep=keep))
        state["event"] = simulator.schedule(
            period, tick, label=f"checkpoint {site_id}"
        )

    state["event"] = simulator.schedule(
        period, tick, label=f"checkpoint {site_id}"
    )

    def cancel() -> None:
        state["live"] = False
        if state["event"] is not None:
            simulator.cancel(state["event"])
            state["event"] = None

    cancel.reports = state["reports"]  # type: ignore[attr-defined]
    return cancel


def _rebind_references(site: Site, obj) -> None:
    """Persisted images hold inert wire references; a restoring site
    turns them back into live proxies (or local objects), exactly as the
    transport does on message receipt."""
    for item, category, _section in obj.containers.iter_with_sections():
        if category == "data" and isinstance(item, DataItem):
            item.poke(site.import_value(item.peek()))
    obj.environment.update(site.import_value(dict(obj.environment)))


def restore_site(site: Site, store: ObjectStore) -> CheckpointReport:
    """The bootstrap procedure: restore every stored object into *site*.

    Objects already registered (the host re-created them before calling
    restore) are left alone; corrupt images are reported, not fatal.
    """
    report = CheckpointReport()
    for guid in store.guids():
        if site.has_object(guid):
            continue
        try:
            obj = store.load(guid)
        except PersistenceError as exc:
            report.failed.append((guid, str(exc)))
            continue
        _rebind_references(site, obj)
        site.register_object(obj)
        obj.environment["install_context"] = {
            "site": site.site_id,
            "domain": site.domain,
            "restored": True,
        }
        if obj.containers.has_method("install"):
            obj.invoke("install", [], caller=site.principal)
        report.restored.append(guid)
    return report
