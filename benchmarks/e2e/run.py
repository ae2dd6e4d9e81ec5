"""Entry point: ``python3 benchmarks/e2e/run.py [run|compare] ...``.

Runnable from the repository root without installing anything: it puts
the root and ``src/`` on the import path. Without the repository's
sources beside it, it exits non-zero and prints no result.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
# replace the script directory: its module names must not shadow others
sys.path[0:1] = [str(ROOT), str(ROOT / "src")]

try:
    from benchmarks.e2e.cli import main
except ImportError as exc:
    sys.stderr.write(f"benchmarks/e2e: cannot import the program under test: {exc}\n")
    sys.exit(1)

if __name__ == "__main__":
    sys.exit(main())
