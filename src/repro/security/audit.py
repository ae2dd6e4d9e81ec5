"""Audit trail: who invoked what, who was denied, what arrived and left.

The paper couples security with encapsulation at the mechanism level;
operationally a host also needs an account of what its guests did. The
:class:`AuditLog` aggregates three streams:

* invocation records from traced MROM objects (level/phase traces);
* security denials (``AccessDeniedError`` / policy rejections);
* mobility events (arrivals, departures, rejections) from a site.

Since the telemetry plane landed, the audit trail is *backed by* a
telemetry :class:`~repro.telemetry.events.EventLog`: :meth:`AuditLog.record`
is the single emit path, every audit record becomes an ``audit.<kind>``
structured event in the log's private stream (and is mirrored into the
active :class:`~repro.telemetry.runtime.Telemetry` event stream when one
is enabled, tagged with the originating log's identity), and every query
reconstructs its answers from that stream. The public API — ``record``,
``note_invocation``, ``events``, ``denials``, ``by_actor``, ``counts``,
sinks, iteration — is unchanged.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Callable, Iterable

from ..core.errors import AccessDeniedError
from ..core.invocation import InvocationRecord
from ..core.mobject import MROMObject
from .. import probes as _probes
from ..telemetry.events import EventLog, TelemetryEvent

__all__ = ["AuditEvent", "AuditKind", "AuditLog", "audited_invoke"]


class AuditKind(enum.Enum):
    INVOCATION = "invocation"
    DENIAL = "denial"
    VETO = "veto"
    ERROR = "error"
    ARRIVAL = "arrival"
    DEPARTURE = "departure"
    REJECTION = "rejection"


@dataclass(frozen=True)
class AuditEvent:
    kind: AuditKind
    subject: str  # object guid or site id
    actor: str  # caller guid or peer site
    detail: str = ""
    time: float = 0.0

    def __str__(self) -> str:
        return f"[{self.time:10.4f}] {self.kind.value:<10} {self.subject} by {self.actor} {self.detail}"


class AuditLog:
    """An append-only event log with simple queries.

    Records live in a private telemetry event stream (:attr:`stream`);
    queries are views over it. The log never drops records: the backing
    stream is unbounded.
    """

    def __init__(self, clock: Callable[[], float] | None = None):
        self._stream = EventLog()
        self._clock = clock or (lambda: 0.0)
        self._sinks: list[Callable[[AuditEvent], None]] = []

    @property
    def stream(self) -> EventLog:
        """The backing telemetry event stream (``audit.*`` events)."""
        return self._stream

    def add_sink(self, sink: Callable[[AuditEvent], None]) -> None:
        self._sinks.append(sink)

    def record(
        self, kind: AuditKind, subject: str, actor: str, detail: str = ""
    ) -> AuditEvent:
        event = AuditEvent(
            kind=kind, subject=subject, actor=actor, detail=detail,
            time=self._clock(),
        )
        # the single emit path: the private stream is the record of truth,
        # and the audit probe point hands an enabled plane the same event
        self._stream.emit(
            f"audit.{kind.value}", time=event.time,
            subject=subject, actor=actor, detail=detail,
        )
        probe = _probes.ACTIVE
        if probe is not None:
            probe.audit(self, event)
        for sink in self._sinks:
            sink(event)
        return event

    def note_invocation(self, obj_guid: str, record: InvocationRecord) -> None:
        kind = {
            "ok": AuditKind.INVOCATION,
            "veto": AuditKind.VETO,
            "error": AuditKind.ERROR,
        }.get(record.outcome, AuditKind.INVOCATION)
        self.record(kind, obj_guid, record.caller, detail=record.method)

    # -- queries ------------------------------------------------------------

    @staticmethod
    def _as_audit_event(event: TelemetryEvent) -> AuditEvent:
        return AuditEvent(
            kind=AuditKind(event.name.removeprefix("audit.")),
            subject=str(event.attrs.get("subject", "")),
            actor=str(event.attrs.get("actor", "")),
            detail=str(event.attrs.get("detail", "")),
            time=event.time,
        )

    def events(self, kind: AuditKind | None = None) -> list[AuditEvent]:
        if kind is None:
            raw = self._stream.events(prefix="audit.")
        else:
            raw = self._stream.events(prefix=f"audit.{kind.value}")
        return [self._as_audit_event(event) for event in raw]

    def denials(self) -> list[AuditEvent]:
        return self.events(AuditKind.DENIAL)

    def by_actor(self, actor: str) -> list[AuditEvent]:
        return [
            self._as_audit_event(event)
            for event in self._stream.events(prefix="audit.", actor=actor)
        ]

    def counts(self) -> dict[str, int]:
        result: dict[str, int] = {}
        for event in self._stream:
            result[event.name.removeprefix("audit.")] = (
                result.get(event.name.removeprefix("audit."), 0) + 1
            )
        return result

    def __len__(self) -> int:
        return len(self._stream)

    def __iter__(self):
        return iter(self.events())


def audited_invoke(
    obj: MROMObject,
    log: AuditLog,
    method: str,
    args: Iterable[Any] = (),
    caller=None,
) -> Any:
    """Invoke with every outcome — success, veto, denial, error — logged."""
    caller_guid = caller.guid if caller is not None else "mrom:anonymous"
    try:
        result = obj.invoke(method, list(args), caller=caller)
    except AccessDeniedError as exc:
        log.record(AuditKind.DENIAL, obj.guid, caller_guid, detail=str(exc))
        raise
    except Exception:
        # model errors AND guest-code failures alike: the record exists
        # whenever the invocation engine was reached
        if obj.last_record is not None and obj.last_record.method == method:
            log.note_invocation(obj.guid, obj.last_record)
        else:
            log.record(AuditKind.ERROR, obj.guid, caller_guid, detail=method)
        raise
    log.note_invocation(obj.guid, obj.last_record)
    return result
