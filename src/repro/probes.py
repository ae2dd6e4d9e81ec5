"""One switch for the observer planes: named probe points.

The runtime reports what happens at a fixed set of *probe points* and
nothing else: a call site passes runtime facts (the site, the message,
the object, the outcome) and never a span, a counter name of a plane,
or a vector clock. Each observer plane — telemetry
(:class:`repro.telemetry.runtime.Telemetry`) and the happens-before
sanitizer (:class:`repro.analysis.sanitizer.Sanitizer`) — is a
:class:`Probe` that overrides the points it uses; the rest stay no-ops.
The planes attach and detach through their own ``enable``/``disable``.

Every point is guarded the same way::

    probe = _probes.ACTIVE
    if probe is not None:
        probe.serve_begin(site, message, batched)

:data:`ACTIVE` is None with no plane on, the plane itself with one, and
a fan-out over the attached planes (in attach order) with more, so the
off path is one module-attribute read and an identity test: no call and
no allocation. The module imports nothing, so any layer can use it.

A point that opens an interval (``*_begin``) is closed by its matching
``*_end`` on the same probe object, read once by the call site; the
planes keep their own context stacks, so an end point finds what its
begin pushed without a token passing back through the call site.
``request_begin(call, payload)`` is the one point with a result: the
payload, which a plane may stamp. ``docs/TELEMETRY.md`` §3 lists every
point, where it fires and what each plane does there.
"""

from __future__ import annotations

__all__ = ["ACTIVE", "POINTS", "Probe", "attach", "detach", "planes"]

#: every point but ``request_begin``, whose default passes its payload on
POINTS = (
    # requests and serving (net/)
    "request_end", "sent", "retry", "timeout", "reply_begin", "reply_end",
    "reply_absorb", "serve_begin", "serve_end", "handle", "replay", "shed",
    "inflight_duplicate", "transmit",
    # transfers (mobility/)
    "transfer_prepare", "transfer_commit", "transfer_abort",
    "transfer_unresolved", "transfer_duplicate", "admission_refused",
    "install_begin", "install_end", "reconcile_begin", "reconcile_end",
    # invocation (core/)
    "invoke_begin", "invoke_end", "acl_check",
    # durability (persistence/)
    "checkpoint_begin", "checkpoint_object", "checkpoint_end",
    "snapshot_begin", "snapshot_end", "wal_append", "journal_failed",
    "recovery_begin", "recovery_image_failed", "recovery_end",
    # faults, audit, active objects, and the generic counter, event-log
    # and histogram points
    "fault", "audit", "submit", "work_begin", "work_end",
    "count", "emit", "observe",
)


class Probe:
    """An observer plane: every point is a no-op until overridden."""

    def request_begin(self, call, payload):
        return payload


def _ignore(self, *facts, **attrs) -> None:
    return None


class _Fanout(Probe):
    """Several planes on at once: each point runs on each plane in turn."""

    def __init__(self, attached: tuple):
        self.planes = attached

    def request_begin(self, call, payload):
        for plane in self.planes:
            payload = plane.request_begin(call, payload)
        return payload


def _fan(point: str):
    def fan(self, *facts, **attrs) -> None:
        for plane in self.planes:
            getattr(plane, point)(*facts, **attrs)

    fan.__name__ = point
    return fan


for _point in POINTS:
    setattr(Probe, _point, _ignore)
    setattr(_Fanout, _point, _fan(_point))

#: what every guard reads: None, the one attached plane, or a fan-out
ACTIVE: Probe | None = None
_attached: list[Probe] = []


def _rewire() -> None:
    global ACTIVE
    if not _attached:
        ACTIVE = None
    elif len(_attached) == 1:
        ACTIVE = _attached[0]
    else:
        ACTIVE = _Fanout(tuple(_attached))


def attach(plane: Probe) -> None:
    """Start delivering every point to *plane* (idempotent)."""
    if plane not in _attached:
        _attached.append(plane)
        _rewire()


def detach(plane: Probe) -> None:
    """Stop delivering points to *plane* (a no-op if it is not attached)."""
    if plane in _attached:
        _attached.remove(plane)
        _rewire()


def planes() -> tuple[Probe, ...]:
    """The attached planes, in attach order."""
    return tuple(_attached)
