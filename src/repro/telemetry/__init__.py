"""repro.telemetry — the observability plane of the reproduction.

Three coordinated primitives, one switch:

* **Distributed tracing** — :class:`TraceContext` travels inside RMI
  request envelopes and migration packages, so a single trace id follows
  an object across sites and hops; :class:`Span` s record what each side
  did, with structured events (ACL outcomes, invocation phases,
  PREPARE/COMMIT/ABORT, fault injections).
* **Metrics** — a process-local :class:`MetricsRegistry` of counters,
  gauges and fixed-bucket histograms (invocations, coercions,
  migrations, retries, dedup hits, admission refusals, ...).
* **Events** — a flat :class:`EventLog` stream; the security audit log
  routes its records through it.

Enable with :func:`enable` (or ``with enabled() as tel:``), which
attaches the plane to the runtime's probe points (:mod:`repro.probes`);
when disabled — the default — every point reduces to a single
``ACTIVE is None`` test, so the untraced hot path stays O(1) and
allocation-free. Exporters render captures as JSON-lines spans, a
human-readable trace tree, or a JSON metrics snapshot; the
``repro trace`` CLI drives all three. See ``docs/TELEMETRY.md``.
"""

from .context import TraceContext
from .events import EventLog, TelemetryEvent
from .exporters import (
    metrics_snapshot,
    render_tree,
    span_lines,
    write_bench_json,
    write_spans_jsonl,
)
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .runtime import Telemetry, active, disable, enable, enabled
from .schema import SPAN_LINE_SCHEMA, validate_span_lines, validate_span_mapping
from .spans import Span, SpanEvent, SpanRecorder

__all__ = [
    "TraceContext",
    "Span",
    "SpanEvent",
    "SpanRecorder",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "EventLog",
    "TelemetryEvent",
    "Telemetry",
    "enable",
    "disable",
    "active",
    "enabled",
    "span_lines",
    "write_spans_jsonl",
    "render_tree",
    "metrics_snapshot",
    "write_bench_json",
    "SPAN_LINE_SCHEMA",
    "validate_span_lines",
    "validate_span_mapping",
]
