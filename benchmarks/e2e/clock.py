"""A clock that runs at the speed of a reference CPU.

The benchmark runs on shared virtual machines whose CPU speed is not
steady: the host's other tenants slow the virtual CPU by up to half, in
stretches from milliseconds to minutes, and the guest sees no steal
time. The same run then reads 10–46% apart from one minute to the next,
which is the neighbours' load, not the program's speed.

:class:`ReferenceClock` measures the CPU's speed while a run measures
the program. A ``SIGALRM`` every :data:`PERIOD_S` runs :func:`probe`, a
fixed piece of interpreter work that touches no code of the program
under test, and times it. ``scale`` is :data:`REFERENCE_NS` over the
median of the last three probe times: multiplied by a wall duration
measured now, it gives the duration on a CPU that runs the probe in
:data:`REFERENCE_NS`. :meth:`ReferenceClock.now_ns` integrates ``scale``
over wall time. A change to the program moves scaled times as it moves
wall times, while a slow stretch of the host moves the probe too and
cancels out.
"""

from __future__ import annotations

import signal
import time
from types import TracebackType

__all__ = ["PERIOD_S", "REFERENCE_NS", "ReferenceClock", "probe"]

#: probe interval in wall seconds: the host's slow stretches last from a
#: few milliseconds up, and a probe costs about 1% of a period
PERIOD_S = 0.002
#: the probe's duration on the reference CPU, chosen so that scaled
#: times match the wall times a 2-vCPU Xeon VM under CPython 3.11
#: measured in its quiet stretches
REFERENCE_NS = 12_500.0


class _Cell:
    __slots__ = ("value", "next")

    def __init__(self, value: int) -> None:
        self.value = value
        self.next = None


def _read(cell: _Cell, offset: int) -> int:
    return cell.value + offset


def probe() -> int:
    """A fixed mix of the interpreter work the workloads do most: object
    creation, attribute reads, calls, dict and list updates and string
    formatting. A mix like the workloads' tracks their slowdown closely;
    a bare arithmetic loop tracked it about half as well."""
    index = {}
    values = []
    for i in range(16):
        cell = _Cell(i)
        index[f"k{i}"] = cell
        values.append(_read(cell, len(values)))
    total = 0
    for cell in index.values():
        total += cell.value
    return total + sum(values)


class ReferenceClock:
    """Reference-speed time, sampled by a probe on ``SIGALRM``.

    Use as a context manager in the main thread; on exit the timer
    stops and the previous ``SIGALRM`` handler returns. Interrupted
    system calls are retried by the interpreter, so the workloads'
    sockets, pipes and files are unaffected. A forked child inherits the
    handler but not the timer, so it is never probed.
    """

    def __init__(self) -> None:
        self.scale = 1.0
        self.probes = 0
        self._recent = [REFERENCE_NS] * 3
        self._reference_ns = 0.0
        self._last_ns = time.perf_counter_ns()
        self._previous_handler = None

    def _sample(self, _signum: int = 0, _frame: object = None) -> None:
        clock = time.perf_counter_ns
        start = clock()
        probe()
        took = clock() - start
        self._reference_ns += (start - self._last_ns) * self.scale
        self._last_ns = start
        recent = self._recent
        recent.pop(0)
        recent.append(took)
        # the median of three: a probe preempted by another process on
        # the same CPU must not read as a slow CPU
        self.scale = REFERENCE_NS / sorted(recent)[1]
        self.probes += 1

    def now_ns(self) -> float:
        """Reference nanoseconds since the clock was made."""
        return self._reference_ns + (time.perf_counter_ns() - self._last_ns) * self.scale

    def __enter__(self) -> "ReferenceClock":
        for _ in range(3):
            self._sample()
        self._previous_handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(
        self,
        _type: type[BaseException] | None,
        _value: BaseException | None,
        _traceback: TracebackType | None,
    ) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)
