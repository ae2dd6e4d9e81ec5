"""The seeded ``repro chaos|load|cluster --seed 1`` reports, pinned.

Each report is a pure function of its seed: the chaos trace digest,
the load and cluster accounting, the simulated times and percentiles.
A refactor must leave all three byte-identical; a deliberate change
re-records them with ``make seeded-outputs OUT=tests/golden/seeded`` and
shows up as a reviewed diff of the golden files, like the WAL corpus
and the wire vectors.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
GOLDEN = ROOT / "tests" / "golden" / "seeded"


@pytest.mark.parametrize("command", ["chaos", "load", "cluster"])
def test_seed_one_report_matches_golden(command):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    completed = subprocess.run(
        [sys.executable, "-m", "repro", command, "--seed", "1"],
        capture_output=True, text=True, cwd=ROOT, env=env, timeout=120,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    golden = (GOLDEN / f"{command}.txt").read_text(encoding="utf-8")
    assert completed.stdout == golden, (
        f"`repro {command} --seed 1` moved from tests/golden/seeded/"
        f"{command}.txt; if the change is deliberate, re-record with "
        "`make seeded-outputs OUT=tests/golden/seeded`"
    )
