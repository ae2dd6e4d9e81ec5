"""The seeded ``repro chaos|load|cluster --seed 1`` reports, pinned.

Each report is a pure function of its seed: the chaos trace digest,
the load and cluster accounting, the simulated times and percentiles.
The soak variants (``load --soak``, ``cluster --soak``), the
crash-recovery soak (``recover --selftest``) and the happens-before
sanitized soak (``analyze --sanitize-smoke``: its task, access, send
and sync counts and its matched races) are pinned too, since they run
the fault, retry, WAL-recovery and sanitizer paths the clean reports
never reach. A refactor must leave all seven byte-identical; a
deliberate change re-records them with ``make seeded-outputs
OUT=tests/golden/seeded`` and shows up as a reviewed diff of the golden
files, like the WAL corpus and the wire vectors. The same command also
re-records the telemetry capture that
``tests/telemetry/test_capture_golden.py`` pins.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
GOLDEN = ROOT / "tests" / "golden" / "seeded"


#: golden file stem -> the command line it pins (``--seed 1`` appended)
REPORTS = {
    "chaos": ["chaos"],
    "load": ["load"],
    "cluster": ["cluster"],
    "load-soak": ["load", "--soak"],
    "cluster-soak": ["cluster", "--soak"],
    "recover-selftest": ["recover", "--selftest"],
    "sanitize-smoke": ["analyze", "--sanitize-smoke"],
}


@pytest.mark.parametrize("report", list(REPORTS))
def test_seed_one_report_matches_golden(report):
    command = REPORTS[report]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    completed = subprocess.run(
        [sys.executable, "-m", "repro", *command, "--seed", "1"],
        capture_output=True, text=True, cwd=ROOT, env=env, timeout=120,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    golden = (GOLDEN / f"{report}.txt").read_text(encoding="utf-8")
    assert completed.stdout == golden, (
        f"`repro {' '.join(command)} --seed 1` moved from tests/golden/"
        f"seeded/{report}.txt; if the change is deliberate, re-record with "
        "`make seeded-outputs OUT=tests/golden/seeded`"
    )
