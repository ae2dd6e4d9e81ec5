"""The pinned telemetry capture: what the plane records, minus wall time.

Two parts, both pure functions of their seeds once the four wall-clock
fields (``start_ns``, ``end_ns``, ``duration_us`` and each event's
``time_ns``) are dropped:

* ``run_traced_scenario`` for seeds 0 and 1: every span line and the
  metrics snapshot;
* a three-site closed-loop soak (300 requests, seed 1) under a fresh
  plane: the counters, and how many spans and events of each name.

``tests/telemetry/test_capture_golden.py`` compares :func:`capture` with
``tests/golden/seeded/telemetry-capture.txt``; ``make seeded-outputs
OUT=tests/golden/seeded`` re-records it with the other seeded outputs.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from typing import Iterable

from repro.load.scenario import LoadConfig, run_soak_scenario
from repro.telemetry import Telemetry, enabled
from repro.telemetry.scenario import run_traced_scenario

#: the wall-clock fields of a span line, and of each of its events
_SPAN_CLOCK = ("start_ns", "end_ns", "duration_us")
_EVENT_CLOCK = "time_ns"

SOAK = LoadConfig(sites=3, clients=3, requests=300, mode="closed", seed=1)


def span_line(span) -> str:
    """One span as JSON with its wall-clock fields removed."""
    mapping = span.to_mapping()
    for field in _SPAN_CLOCK:
        del mapping[field]
    for event in mapping["events"]:
        del event[_EVENT_CLOCK]
    return json.dumps(mapping, sort_keys=True, default=repr)


def _dump(value) -> str:
    return json.dumps(value, sort_keys=True, indent=1, default=repr)


def traced_part(seed: int) -> list[str]:
    telemetry = run_traced_scenario(seed).telemetry
    lines = [f"== traced scenario, seed {seed}: spans"]
    lines.extend(span_line(span) for span in telemetry.recorder)
    lines.append(f"== traced scenario, seed {seed}: metrics")
    lines.append(_dump(telemetry.metrics.snapshot()))
    return lines


def counts(names: Iterable[str]) -> dict:
    return dict(sorted(Counter(names).items()))


def soak_part() -> list[str]:
    with enabled(Telemetry()) as telemetry:
        run_soak_scenario(SOAK)
    return [
        "== closed-loop soak, 3 sites, 300 requests, seed 1: counters",
        _dump(telemetry.metrics.snapshot()["counters"]),
        "== span names",
        _dump(counts(span.name for span in telemetry.recorder)),
        "== event names",
        _dump(counts(event.name for event in telemetry.events)),
    ]


def capture() -> str:
    lines = traced_part(0) + traced_part(1) + soak_part()
    return "".join(line + "\n" for line in lines)


if __name__ == "__main__":
    sys.stdout.write(capture())
