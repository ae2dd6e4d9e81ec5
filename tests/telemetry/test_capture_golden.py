"""What the telemetry plane records, pinned.

The capture (see :mod:`tests.telemetry.capture`) is every span line of
the traced scenario at seeds 0 and 1, its metrics snapshot, and the
counter, span-name and event-name tallies of a traced closed-loop soak,
with the wall-clock fields dropped. A refactor of where the plane hooks
into the runtime must leave it byte-identical; a deliberate change
re-records it with ``make seeded-outputs OUT=tests/golden/seeded``.
"""

from __future__ import annotations

from pathlib import Path

from .capture import capture

GOLDEN = Path(__file__).resolve().parents[1] / "golden" / "seeded"


def test_capture_matches_golden():
    golden = (GOLDEN / "telemetry-capture.txt").read_text(encoding="utf-8")
    assert capture() == golden, (
        "the telemetry capture moved from tests/golden/seeded/"
        "telemetry-capture.txt; if the change is deliberate, re-record "
        "with `make seeded-outputs OUT=tests/golden/seeded`"
    )
