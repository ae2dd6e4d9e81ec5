"""The telemetry runtime: span lifecycle, context stack, global switch.

One :class:`Telemetry` instance owns the three planes — a
:class:`~repro.telemetry.spans.SpanRecorder`, a
:class:`~repro.telemetry.metrics.MetricsRegistry`, and an
:class:`~repro.telemetry.events.EventLog` — plus the *context stack*
that makes nesting work: :meth:`Telemetry.begin_span` parents a new span
under whatever is current (a local parent span, or a
:class:`~repro.telemetry.context.TraceContext` a site re-activated from
the wire) and pushes it; :meth:`Telemetry.end_span` pops it.

The plane is a :class:`repro.probes.Probe` that :func:`enable` attaches
to the runtime's one probe switch. Every decision about what an
observation looks like lives in its probe-point methods: span names and
attributes, the COMMIT/ABORT/UNRESOLVED status of a handoff, counter
names, ``~trace`` stamping of requests, packages and WAL records. A
closing point ends the innermost open span of the name its opening
point gave, so a begin that leaked leaves only its own span open; each
thread nests on its own stack, and :attr:`Telemetry.open_spans` counts
over all of them.

Span and trace identifiers are minted from a per-instance counter, not
from entropy, so a seeded workload produces the *same ids* every run —
telemetry inherits the determinism of the simulator underneath it.
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Mapping

from .. import probes
from ..core.errors import MobilityError, RemoteInvocationError
from ..net.marshal import attach_trace, extract_trace
from .context import TraceContext
from .events import EventLog
from .metrics import MetricsRegistry
from .spans import Span, SpanRecorder

__all__ = ["Telemetry", "enable", "disable", "active", "enabled"]


class _ThreadContext(threading.local):
    """One thread's nesting state, so each thread's begin/end pairs stay
    balanced on their own (the gateway server and active-object workers
    run their own threads)."""

    def __init__(self, stacks: list, lock: threading.Lock) -> None:
        #: the context stack: TraceContext entries for remote parents,
        #: Span entries for local parents (a Span *is* positional state)
        self.stack: list[Span | TraceContext] = []
        #: request_id -> span of each blocking request in progress, in
        #: nesting order, so a retry or timeout lands on its request's span
        self.requests: dict[str, Span] = {}
        with lock:
            # every thread's stack, for open_spans; a finished thread
            # that left nothing open is forgotten
            stacks[:] = [(t, s) for t, s in stacks if s or t.is_alive()]
            stacks.append((threading.current_thread(), self.stack))


class Telemetry(probes.Probe):
    """The assembled telemetry plane for one process."""

    def __init__(
        self,
        clock: Callable[[], int] = time.perf_counter_ns,
        span_cap: int = 100_000,
        event_cap: int | None = None,
        id_prefix: str = "",
    ):
        self.clock = clock
        self.recorder = SpanRecorder(cap=span_cap)
        self.metrics = MetricsRegistry()
        self.events = EventLog(cap=event_cap)
        self._ids = itertools.count(1)
        self._id_prefix = id_prefix
        self._stacks: list[tuple[threading.Thread, list]] = []
        self._thread = _ThreadContext(self._stacks, threading.Lock())

    # -- identifiers -------------------------------------------------------

    def _next_id(self, kind: str) -> str:
        return f"{self._id_prefix}{kind}{next(self._ids):08x}"

    # -- the context stack -------------------------------------------------

    @property
    def current_span(self) -> Span | None:
        """The innermost *local* open span, if any."""
        for entry in reversed(self._thread.stack):
            if isinstance(entry, Span):
                return entry
        return None

    def current_context(self) -> TraceContext | None:
        """The propagation context of the innermost stack entry."""
        stack = self._thread.stack
        if not stack:
            return None
        top = stack[-1]
        if isinstance(top, TraceContext):
            return top
        return TraceContext(top.trace_id, top.span_id)

    def context_of(self, span: Span) -> TraceContext:
        return TraceContext(span.trace_id, span.span_id)

    def activate(self, context: TraceContext) -> TraceContext:
        """Push a remote parent (a context that arrived on the wire)."""
        self._thread.stack.append(context)
        return context

    def deactivate(self, context: TraceContext) -> None:
        """Pop a previously activated remote parent (LIFO discipline)."""
        stack = self._thread.stack
        if stack and stack[-1] is context:
            stack.pop()
        elif context in stack:  # defensive: unbalanced nesting
            stack.remove(context)

    # -- span lifecycle ----------------------------------------------------

    def begin_span(
        self,
        name: str,
        attrs: Mapping[str, Any] | None = None,
        parent: TraceContext | None = None,
    ) -> Span:
        """Open a span under *parent* (default: whatever is current).

        With no parent anywhere, this is the moment a new trace is born —
        "created at the first meta-method invocation" in the tentpole's
        terms — and the span becomes the trace root.
        """
        if parent is None:
            parent = self.current_context()
        if parent is None:
            trace_id = self._next_id("t")
            parent_id = None
        else:
            trace_id = parent.trace_id
            parent_id = parent.span_id
        span = Span(
            trace_id=trace_id,
            span_id=self._next_id("s"),
            parent_id=parent_id,
            name=name,
            attrs=attrs,
            clock=self.clock,
        )
        self._thread.stack.append(span)
        return span

    def end_span(self, span: Span, status: str = "ok") -> Span:
        """Close *span*, pop it from the stack, and record it."""
        span.end(status)
        stack = self._thread.stack
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:  # defensive: unbalanced nesting
            stack.remove(span)
        self.recorder.record(span)
        return span

    @contextmanager
    def span(self, name: str, attrs: Mapping[str, Any] | None = None):
        """``with tel.span("name") as s:`` — ends with ok/error status."""
        span = self.begin_span(name, attrs)
        try:
            yield span
        except BaseException:
            self.end_span(span, status="error")
            raise
        self.end_span(span)

    @property
    def open_spans(self) -> int:
        """Spans begun and not yet ended, on every thread."""
        return sum(
            isinstance(entry, Span)
            for _, stack in list(self._stacks) for entry in list(stack)
        )

    # -- probe points: runtime facts in, spans/counters/events out --------

    def _event(self, name: str, **attrs: Any) -> None:
        """A point event on the innermost open span, if any."""
        span = self.current_span
        if span is not None:
            span.event(name, **attrs)

    def _close(self, name: str, error: BaseException | None = None,
               status: str = "ok", **attrs: Any) -> None:
        """End the innermost open span called *name*, the one its begin
        point opened (a begin that leaked leaves only its own span open);
        nothing if there is none."""
        for span in reversed(self._thread.stack):
            if isinstance(span, Span) and span.name == name:
                break
        else:
            return
        if attrs:
            span.set(**attrs)
        if error is not None:
            span.set(error=type(error).__name__)
            status = "error"
        self.end_span(span, status)

    def count(self, name: str, amount: int = 1) -> None:
        self.metrics.counter(name).inc(amount)

    def emit(self, name: str, **attrs: Any) -> None:
        self.events.emit(name, **attrs)

    def observe(self, name: str, boundaries, value: float) -> None:
        self.metrics.histogram(name, boundaries).observe(value)

    # requests: a blocking one is an rmi.<kind> span whose context rides
    # in the envelope; an async one carries the current context, if any

    def request_begin(self, call, payload):
        site = call.site
        if not call.blocking:
            self.count("rmi.async.requests")
            context = self.current_context()
            if context is None:
                return payload
            return attach_trace(payload, context.to_wire())
        span = self.begin_span(f"rmi.{call.kind}", attrs={
            "src": site.site_id, "dst": call.dst, "sim_time": site.network.now})
        self.count("rmi.requests")
        self._thread.requests[call.request_id] = span
        return attach_trace(payload, self.context_of(span).to_wire())

    def request_end(self, site, dst: str, error: BaseException | None) -> None:
        _, span = self._thread.requests.popitem()  # the innermost
        if error is None:
            span.set(sim_time_done=site.network.now)
            self.end_span(span)
        else:
            span.set(error=type(error).__name__)
            self.end_span(span, status="error")

    def timeout(self, call) -> None:
        self.count("rmi.timeouts")
        span = self._thread.requests.get(call.request_id)
        if span is not None:
            span.event("rmi.timeout", attempt=call.attempt + 1, sim_time=call.site.network.now)

    def retry(self, call) -> None:
        self.count("rmi.retries")
        span = self._thread.requests.get(call.request_id)
        if span is not None:
            span.event("rmi.retry", attempt=call.attempt + 1, request_id=call.request_id,
                       sim_time=call.site.network.now)

    # serving: the server span parents to the caller's wire context (a
    # batched request without one nests under its frame's serve.batch)

    def serve_begin(self, site, message, batched: bool) -> None:
        attrs = {"site": site.site_id, "src": message.src, "msg_id": message.msg_id,
                 "sim_time": site.network.now}
        if batched:
            attrs["batched"] = True
        else:
            attrs["verdict"] = message.verdict
        self.begin_span(
            f"serve.{message.kind}", attrs=attrs,
            parent=TraceContext.from_wire(extract_trace(message.payload)),
        )
        self.count("rmi.served")

    def serve_end(self, site, message, batched: bool, error) -> None:
        self._close(f"serve.{message.kind}", error)

    def replay(self, site, kind: str, request_id: str) -> None:
        self.count("rmi.dedup_hits")
        self.emit("rmi.replay", time=site.network.now, site=site.site_id,
                  kind=kind, request_id=request_id)

    def shed(self, site, kind: str, src: str) -> None:
        self.count("site.shed")
        self.emit("site.shed", time=site.network.now, site=site.site_id,
                  kind=kind, src=src, inflight=site.inflight,
                  limit=site.inflight_limit)

    def inflight_duplicate(self, site, message) -> None:
        self.count("rmi.inflight_dups")

    def transmit(self, size: int, copies: int) -> None:
        self.count("net.messages")
        self.count("net.bytes", size)
        if not copies:
            self.count("net.dropped")
        elif copies > 1:
            self.count("net.duplicated", copies - 1)

    # transfers: one transfer.handoff span per handoff, whose context is
    # the package's journey stamp; its verdict is the span status

    def transfer_prepare(self, site, transfer_id: str, obj, dst: str,
                         mode: str, package: dict) -> None:
        span = self.begin_span("transfer.handoff", attrs={
            "mode": mode, "guid": obj.guid, "src": site.site_id, "dst": dst,
            "sim_time": site.network.now, "transfer_id": transfer_id})
        package["trace"] = self.context_of(span).to_wire()
        span.event("PREPARE", transfer_id=transfer_id, sim_time=site.network.now)

    def transfer_commit(self, site, transfer_id: str, mode: str) -> None:
        self._event("COMMIT", transfer_id=transfer_id, sim_time=site.network.now)
        self._close("transfer.handoff")
        self.count("migrations" if mode == "move" else "deploys")

    def transfer_abort(self, site, transfer_id: str, error: BaseException) -> None:
        now = site.network.now
        if isinstance(error, RemoteInvocationError):
            # the destination answered and refused
            self._event("ABORT", reason=type(error).__name__, sim_time=now)
            self._close("transfer.handoff", status="aborted")
            self.count("transfers.refused")
            return
        reason = "malformed-report" if isinstance(error, MobilityError) else "send-failure"
        self._event("ABORT", reason=reason, sim_time=now)
        self._close("transfer.handoff", status="error")

    def transfer_unresolved(self, site, transfer_id: str) -> None:
        self._event("UNRESOLVED", transfer_id=transfer_id, sim_time=site.network.now)
        self._close("transfer.handoff", status="unresolved")
        self.count("transfers.unresolved")

    def transfer_duplicate(self, site, transfer_id: str, cause: str) -> None:
        self.count("transfer.dedup_hits")
        self._event("transfer.duplicate", transfer_id=transfer_id, cause=cause)

    def admission_refused(self, site, package, src: str, error) -> None:
        self.count("admission.refusals")
        self._event("admission.refused", src=src, guid=str(package.get("guid", "")),
                    reason=type(error).__name__)

    def install_begin(self, site, obj, src: str, package) -> None:
        # parent preference: the journey stamp the sender packed with the
        # object; without one, whatever span is serving this request
        self.begin_span("transfer.install", attrs={
            "site": site.site_id, "guid": obj.guid, "src": src,
            "sim_time": site.network.now,
        }, parent=TraceContext.from_wire(package.get("trace")))

    def install_end(self, site, error) -> None:
        self._close("transfer.install", error)
        if error is None:
            self.count("installs")

    def reconcile_begin(self, site, pending: int) -> None:
        self.begin_span("transfer.reconcile", attrs={"site": site.site_id, "pending": pending})

    def reconcile_end(self, site, outcomes: Mapping[str, str]) -> None:
        for transfer_id, outcome in outcomes.items():
            self._event("reconcile.outcome", transfer_id=transfer_id, outcome=outcome)
            if outcome != "unreachable":
                self.count("transfers.reconciled")
        self._close("transfer.reconcile")

    # invocation: one invoke span per call, its status the outcome

    def invoke_begin(self, guid: str, method: str, caller: str, depth: int,
                     hit: bool) -> None:
        span = self.begin_span("invoke", attrs={
            "method": method, "object": guid, "caller": caller, "tower_depth": depth})
        span.event("invocation.enter", tower_depth=depth)
        self.count("invocations")
        if hit:
            self.count("fastpath.compiled.hits")

    def invoke_end(self, outcome: str, error: BaseException | None = None) -> None:
        attrs = {"outcome": outcome}
        if error is not None:
            attrs["error"] = type(error).__name__
        self._event("invocation.exit", **attrs)
        self._close("invoke", status=outcome)
        if outcome == "veto":
            self.count("invocations.vetoed")
        elif outcome == "error":
            self.count("invocations.failed")

    def acl_check(self, principal, item: str, permission, allowed: bool) -> None:
        self.count("acl.checks")
        if not allowed:
            self.count("acl.denials")
        self._event("acl.check", outcome="allowed" if allowed else "denied",
                    principal=principal.guid, item=item, permission=permission.name or "NONE")

    # durability

    def snapshot_begin(self, site, objects: int, compact: bool) -> None:
        self.begin_span("wal.checkpoint", attrs={
            "site": site.site_id, "objects": objects, "compact": compact,
            "sim_time": site.network.now})

    def snapshot_end(self, error) -> None:
        self._close("wal.checkpoint", error)

    def wal_append(self, record) -> None:
        span = self.current_span
        if span is not None:
            record.trace = {"trace_id": span.trace_id, "span_id": span.span_id}

    def journal_failed(self, site, kind: str, error) -> None:
        self.count("wal.failures")
        self.emit("wal.failed", time=site.network.now, site=site.site_id,
                  kind=kind, error=type(error).__name__)

    def recovery_begin(self, site, records: int) -> None:
        self.begin_span("recovery", attrs={
            "site": site.site_id, "records": records, "sim_time": site.network.now})
        self.count("recoveries")

    def recovery_image_failed(self, guid: str) -> None:
        self._event("recovery.image_failed", guid=guid)

    def recovery_end(self, report) -> None:
        self._close("recovery", objects=report.objects_restored,
                    served=report.served_restored,
                    unresolved=report.unresolved_restored)

    # the rest

    def fault(self, record) -> None:
        self.count("faults.injected")
        self._event("fault", label=record.label, scenario=record.scenario,
                    seq=record.seq, sim_time=record.time)
        self.emit("fault.injected", time=record.time, scenario=record.scenario,
                  seq=record.seq, label=record.label)

    def audit(self, log, event) -> None:
        # tagged with the log's identity so several logs stay apart
        self.emit(f"audit.{event.kind.value}", time=event.time,
                  log=f"audit:{id(log):x}", subject=event.subject,
                  actor=event.actor, detail=event.detail)
        self.count("audit.records")

    def __repr__(self) -> str:
        return (
            f"Telemetry({len(self.recorder)} spans recorded, "
            f"{self.open_spans} open, {len(self.events)} events)"
        )


def enable(telemetry: Telemetry | None = None, **options: Any) -> Telemetry:
    """Switch the telemetry plane on (idempotent: re-enabling with no
    instance keeps the current one). Returns the active instance."""
    current = active()
    if telemetry is None:
        telemetry = current if current is not None else Telemetry(**options)
    if current is not None and current is not telemetry:
        probes.detach(current)
    probes.attach(telemetry)
    return telemetry


def disable() -> Telemetry | None:
    """Switch the plane off; returns the instance that was active (its
    recorded spans and metrics remain readable after the switch)."""
    telemetry = active()
    if telemetry is not None:
        probes.detach(telemetry)
    return telemetry


def active() -> Telemetry | None:
    """The attached instance, or None."""
    for plane in probes.planes():
        if isinstance(plane, Telemetry):
            return plane
    return None


@contextmanager
def enabled(telemetry: Telemetry | None = None, **options: Any):
    """``with enabled() as tel:`` — scoped activation (tests, CLI)."""
    previous = active()
    telemetry = enable(telemetry if telemetry is not None else Telemetry(**options))
    try:
        yield telemetry
    finally:
        disable()
        if previous is not None:
            enable(previous)
