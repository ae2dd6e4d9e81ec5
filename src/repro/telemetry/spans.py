"""Spans: timed, structured slices of work inside one trace.

A :class:`Span` records what one operation did — monotonic start/end
timestamps, key/value attributes, a list of timestamped
:class:`SpanEvent` s (ACL outcomes, PREPARE/COMMIT/ABORT phases, fault
injections), and a final status. Finished spans land in a
:class:`SpanRecorder`, the in-memory buffer the exporters read.

Timestamps are ``time.perf_counter_ns`` by default (monotonic, never
steps backwards); hooks that run under the simulator additionally attach
the simulated clock as an attribute, so a trace can be read in either
time base.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Any, Callable, Mapping

__all__ = ["Span", "SpanEvent", "SpanRecorder"]


class SpanEvent:
    """One timestamped point event inside a span."""

    __slots__ = ("name", "time_ns", "attrs")

    def __init__(self, name: str, time_ns: int, attrs: Mapping[str, Any] | None = None):
        self.name = name
        self.time_ns = time_ns
        self.attrs: dict[str, Any] = dict(attrs) if attrs else {}

    def to_mapping(self) -> dict:
        event = {"name": self.name, "time_ns": self.time_ns}
        if self.attrs:
            event["attrs"] = dict(self.attrs)
        return event

    def __repr__(self) -> str:
        return f"SpanEvent({self.name!r}, attrs={self.attrs!r})"


class Span:
    """One unit of traced work. Created by
    :meth:`~repro.telemetry.runtime.Telemetry.begin_span`; mutated while
    open; immutable in spirit once :meth:`end` has run."""

    __slots__ = (
        "trace_id",
        "span_id",
        "parent_id",
        "name",
        "start_ns",
        "end_ns",
        "status",
        "attrs",
        "events",
        "_clock",
    )

    def __init__(
        self,
        trace_id: str,
        span_id: str,
        parent_id: str | None,
        name: str,
        attrs: Mapping[str, Any] | None = None,
        clock: Callable[[], int] = time.perf_counter_ns,
    ):
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self._clock = clock
        self.start_ns = clock()
        self.end_ns: int | None = None
        self.status = "open"
        self.attrs: dict[str, Any] = dict(attrs) if attrs else {}
        self.events: list[SpanEvent] = []

    # -- while open --------------------------------------------------------

    def set(self, **attrs: Any) -> "Span":
        """Attach attributes; returns self for chaining."""
        self.attrs.update(attrs)
        return self

    def event(self, name: str, **attrs: Any) -> SpanEvent:
        """Record a point event at the current monotonic time."""
        event = SpanEvent(name, self._clock(), attrs)
        self.events.append(event)
        return event

    def end(self, status: str = "ok") -> "Span":
        """Close the span (idempotent: the first close wins)."""
        if self.end_ns is None:
            self.end_ns = self._clock()
            self.status = status
        return self

    # -- after close -------------------------------------------------------

    @property
    def ended(self) -> bool:
        return self.end_ns is not None

    @property
    def duration_us(self) -> float:
        """Span duration in microseconds (0.0 while still open)."""
        if self.end_ns is None:
            return 0.0
        return (self.end_ns - self.start_ns) / 1_000.0

    def to_mapping(self) -> dict:
        """The JSON-lines export form (see ``docs/TELEMETRY.md``)."""
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "duration_us": self.duration_us,
            "status": self.status,
            "attrs": dict(self.attrs),
            "events": [event.to_mapping() for event in self.events],
        }

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, trace={self.trace_id}, span={self.span_id}, "
            f"status={self.status!r}, {len(self.events)} events)"
        )


class SpanRecorder:
    """The bounded buffer finished spans land in.

    When more than *cap* spans finish, the oldest are evicted and
    counted in :attr:`dropped` — a long-running host keeps a window, not
    an unbounded log.
    """

    def __init__(self, cap: int = 100_000):
        self.cap = cap
        # a full deque drops its oldest entry on append in O(1)
        self.spans: deque[Span] = deque(maxlen=cap)
        self.dropped = 0

    def record(self, span: Span) -> None:
        if len(self.spans) == self.cap:
            self.dropped += 1
        self.spans.append(span)

    def by_trace(self, trace_id: str) -> list[Span]:
        return [span for span in self.spans if span.trace_id == trace_id]

    def trace_ids(self) -> list[str]:
        """Distinct trace ids in first-seen order."""
        return list(dict.fromkeys(span.trace_id for span in self.spans))

    def __len__(self) -> int:
        return len(self.spans)

    def __iter__(self):
        return iter(self.spans)
