"""Exporters: the three readable forms of a telemetry capture.

* :func:`span_lines` / :func:`write_spans_jsonl` — JSON-lines, one span
  per line, the machine-readable trace export (schema in
  :mod:`repro.telemetry.schema`, validated by ``make trace-smoke``);
* :func:`render_tree` — a human-readable trace tree, one trace per
  block, children indented under parents;
* :func:`metrics_snapshot` / :func:`write_bench_json` — a JSON
  metrics snapshot (schema ``mrom-bench/1``), what
  ``repro trace --metrics`` writes.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping

from .metrics import MetricsRegistry
from .spans import Span

__all__ = [
    "span_lines",
    "write_spans_jsonl",
    "render_tree",
    "metrics_snapshot",
    "write_bench_json",
    "BENCH_SCHEMA",
]

#: Schema tag stamped into every metrics snapshot.
BENCH_SCHEMA = "mrom-bench/1"


# ---------------------------------------------------------------------------
# JSON-lines spans
# ---------------------------------------------------------------------------


def span_lines(spans: Iterable[Span]) -> Iterator[str]:
    """One compact JSON object per span, in recording order."""
    for span in spans:
        yield json.dumps(span.to_mapping(), sort_keys=True, default=repr)


def write_spans_jsonl(path: str | Path, spans: Iterable[Span]) -> int:
    """Write the JSON-lines export; returns the number of spans written."""
    lines = list(span_lines(spans))
    Path(path).write_text(
        "".join(line + "\n" for line in lines), encoding="utf-8"
    )
    return len(lines)


# ---------------------------------------------------------------------------
# the trace tree
# ---------------------------------------------------------------------------


def render_tree(spans: Iterable[Span]) -> list[str]:
    """Human-readable trace trees, one line per span or event.

    Spans whose parent never finished (or belongs to another capture)
    are shown at the root flagged ``[orphan]`` — visible, never hidden.
    """
    spans = list(spans)
    by_id = {span.span_id: span for span in spans}
    children: dict[str | None, list[Span]] = {}
    for span in spans:
        parent = span.parent_id if span.parent_id in by_id else None
        children.setdefault(parent, []).append(span)

    lines: list[str] = []

    def emit(span: Span, depth: int) -> None:
        indent = "  " * depth
        orphan = " [orphan]" if span.parent_id and span.parent_id not in by_id else ""
        status = "" if span.status == "ok" else f" !{span.status}"
        attrs = ""
        if span.attrs:
            shown = ", ".join(
                f"{key}={value}" for key, value in sorted(span.attrs.items())
            )
            attrs = f" ({shown})"
        lines.append(
            f"{indent}{span.name} [{span.duration_us:.1f}us]"
            f"{status}{attrs}{orphan}"
        )
        for event in span.events:
            event_attrs = ""
            if event.attrs:
                shown = ", ".join(
                    f"{key}={value}" for key, value in sorted(event.attrs.items())
                )
                event_attrs = f" ({shown})"
            lines.append(f"{indent}  * {event.name}{event_attrs}")
        for child in children.get(span.span_id, []):
            emit(child, depth + 1)

    roots = children.get(None, [])
    traces: dict[str, list[Span]] = {}
    for root in roots:
        traces.setdefault(root.trace_id, []).append(root)
    for trace_id, trace_roots in traces.items():
        lines.append(f"trace {trace_id}")
        for root in trace_roots:
            emit(root, 1)
    return lines


# ---------------------------------------------------------------------------
# metrics snapshots
# ---------------------------------------------------------------------------


def metrics_snapshot(
    registry: MetricsRegistry,
    name: str,
    extra: Mapping[str, Any] | None = None,
) -> dict:
    """The metrics snapshot mapping for *registry*."""
    snapshot = {
        "schema": BENCH_SCHEMA,
        "bench": name,
        "metrics": registry.snapshot(),
    }
    if extra:
        snapshot["extra"] = dict(extra)
    return snapshot


def write_bench_json(
    path: str | Path,
    registry: MetricsRegistry,
    name: str,
    extra: Mapping[str, Any] | None = None,
) -> dict:
    """Write the metrics snapshot as JSON to *path*; returns it."""
    snapshot = metrics_snapshot(registry, name, extra)
    Path(path).write_text(
        json.dumps(snapshot, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return snapshot
