"""Trace context: the identity a distributed trace carries on the wire.

A :class:`TraceContext` is the (trace-id, span-id, baggage) triple that
makes one logical operation followable across sites: it is minted at the
first instrumented invocation, stamped into RMI request envelopes (under
:data:`~repro.net.marshal.TRACE_FIELD`) and into migration packages, and
re-activated by the receiving site so that server-side spans parent to
the caller's span even though the two sides share no Python state.

The wire form is a plain string mapping, so it survives the tagged
binary marshal byte-for-byte and a hostile peer can at worst send an
unusable context (which decodes to ``None``), never a crash.
"""

from __future__ import annotations

from typing import Any, Mapping

__all__ = ["TraceContext"]


class TraceContext:
    """Immutable propagation state of one trace position.

    ``trace_id`` names the whole distributed trace; ``span_id`` names the
    span this context speaks for (the parent of any child created from
    it); ``baggage`` is a small string→string mapping that travels with
    the trace (e.g. the workload name) and is inherited by children.
    """

    __slots__ = ("trace_id", "span_id", "baggage")

    def __init__(
        self,
        trace_id: str,
        span_id: str,
        baggage: Mapping[str, str] | None = None,
    ):
        self.trace_id = trace_id
        self.span_id = span_id
        self.baggage: dict[str, str] = dict(baggage) if baggage else {}

    def child(self, span_id: str) -> "TraceContext":
        """The context a child span carries: same trace, new span id."""
        return TraceContext(self.trace_id, span_id, self.baggage)

    # -- wire form ---------------------------------------------------------

    def to_wire(self) -> dict:
        """A marshal-friendly mapping (strings only)."""
        wire = {"trace_id": self.trace_id, "span_id": self.span_id}
        if self.baggage:
            wire["baggage"] = dict(self.baggage)
        return wire

    @classmethod
    def from_wire(cls, raw: Any) -> "TraceContext | None":
        """Decode a wire mapping; malformed input yields ``None`` (a
        broken peer must never break the receiver's telemetry). Baggage
        entries that do not map text to text are dropped."""
        if not isinstance(raw, Mapping):
            return None
        trace_id = raw.get("trace_id")
        span_id = raw.get("span_id")
        baggage = raw.get("baggage")
        if isinstance(baggage, Mapping):
            baggage = {
                str(key): str(value)
                for key, value in baggage.items()
                if isinstance(key, str) and isinstance(value, str)
            }
        if not isinstance(trace_id, str) or not isinstance(span_id, str):
            return None
        if not trace_id or not span_id:
            return None
        if not isinstance(baggage, Mapping):
            baggage = None
        # str() turns a text subclass (HtmlText) into plain text
        return cls(str(trace_id), str(span_id), baggage)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TraceContext)
            and other.trace_id == self.trace_id
            and other.span_id == self.span_id
            and other.baggage == self.baggage
        )

    def __repr__(self) -> str:
        return f"TraceContext(trace={self.trace_id}, span={self.span_id})"
