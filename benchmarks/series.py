"""Helper for the benchmark harness: emit the series a bench reproduces.

pytest-benchmark reports wall-clock timings of the *mechanisms*; the
experiment tables (who wins, by what factor, where crossovers fall) are
emitted by :func:`emit` — printed to stdout (visible with ``pytest -s``)
and always written under ``benchmarks/out/`` so the series survive output
capture. EXPERIMENTS.md records these against the paper's claims.
"""

from __future__ import annotations

import statistics
import time
from pathlib import Path
from typing import Callable, Iterable, Sequence

OUT_DIR = Path(__file__).parent / "out"

__all__ = ["emit", "time_per_call", "OUT_DIR"]


def emit(name: str, title: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Print and persist one experiment series."""
    rows = [list(row) for row in rows]
    lines = [title, ""]
    widths = [
        max(
            [len(str(column))]
            + [len(_fmt(row[index])) for row in rows if index < len(row)]
        )
        for index, column in enumerate(header)
    ]
    lines.append("  ".join(str(c).ljust(w) for c, w in zip(header, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append(
            "  ".join(_fmt(value).ljust(w) for value, w in zip(row, widths))
        )
    text = "\n".join(lines)
    print("\n" + text)
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{name}.txt").write_text(text + "\n", encoding="utf-8")


def _fmt(value) -> str:
    if isinstance(value, float):
        if value != 0 and abs(value) < 0.001:
            return f"{value:.3e}"
        return f"{value:.4f}"
    return str(value)


def time_per_call(fn: Callable[[], object], min_time: float = 0.1) -> float:
    """Median seconds per call of *fn* over five timed batches that
    together take at least *min_time*.

    Used for the series tables, where many variants are compared inside
    one test (pytest-benchmark times one representative variant per test).
    A median of batches, not one mean, so a pause or a CPU speed step
    during one batch does not move the cell.
    """
    fn()  # warm-up (compile portable code, populate caches)
    batches = 5
    calls = 1
    while True:  # double the batch until it fills its share of min_time
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        elapsed = time.perf_counter() - start
        if elapsed >= min_time / batches:
            break
        calls *= 2
    samples = [elapsed / calls]
    while len(samples) < batches:
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        samples.append((time.perf_counter() - start) / calls)
    return statistics.median(samples)
