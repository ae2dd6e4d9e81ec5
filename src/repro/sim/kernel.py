"""A deterministic discrete-event simulation kernel.

This is the substitution for the paper's real JVM/RMI testbed (see
DESIGN.md): the simulated internetwork in :mod:`repro.net` schedules
message deliveries as events here, so every experiment — including the
bandwidth/latency sweeps of PERF-5 — is exactly reproducible.

The kernel is intentionally small: a monotonically increasing clock, a
heap of ``(time, seq, event)`` tuples, and a seeded random stream for
jitter. Events at equal times fire in scheduling order (a strictly
increasing sequence number breaks ties, so the heap never compares two
events), which is what makes runs deterministic.
"""

from __future__ import annotations

import heapq
import itertools
import random
from typing import Any, Callable

__all__ = ["Event", "Simulator"]

_QUEUED, _FIRED, _CANCELLED = 0, 1, 2


class Event:
    """One scheduled action: queued until it fires or is cancelled."""

    __slots__ = ("time", "seq", "action", "state")

    def __init__(self, time: float, seq: int, action: Callable[[], Any]):
        self.time = time
        self.seq = seq
        self.action = action
        self.state = _QUEUED

    def __repr__(self) -> str:
        state = ("queued", "fired", "cancelled")[self.state]
        return f"Event(time={self.time!r}, seq={self.seq}, {state})"


class Simulator:
    """The event loop.

    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(2.0, lambda: fired.append("late"))
    >>> _ = sim.schedule(1.0, lambda: fired.append("early"))
    >>> sim.run()
    2
    >>> fired
    ['early', 'late']
    """

    def __init__(self, seed: int = 0):
        self._now = 0.0
        self._queue: list[tuple[float, int, Event]] = []
        self._seq = itertools.count()
        self.seed = seed
        self.rng = random.Random(seed)
        self.events_processed = 0
        #: queued events not cancelled (cancelled ones leave the heap lazily)
        self.pending = 0

    def derive_rng(self, name: str) -> random.Random:
        """An independent random stream derived from this run's seed.

        Seeding from a string is deterministic across processes (CPython
        hashes str/bytes seeds with SHA-512), so every consumer — each
        fault injector, for instance — gets its own reproducible stream
        that does not perturb, and is not perturbed by, ``self.rng``.
        """
        return random.Random(f"{self.seed}:{name}")

    @property
    def now(self) -> float:
        """Current simulated time, in seconds."""
        return self._now

    # -- scheduling -----------------------------------------------------------

    def schedule(self, delay: float, action: Callable[[], Any]) -> Event:
        """Schedule *action* to fire *delay* seconds from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        time = self._now + delay
        seq = next(self._seq)
        event = Event(time, seq, action)
        heapq.heappush(self._queue, (time, seq, event))
        self.pending += 1
        return event

    def schedule_at(self, time: float, action: Callable[[], Any]) -> Event:
        """Schedule *action* at an absolute simulated time."""
        return self.schedule(time - self._now, action)

    def cancel(self, event: Event) -> None:
        """Cancel a queued event; a no-op once it fired or was cancelled."""
        if event.state == _QUEUED:
            event.state = _CANCELLED
            self.pending -= 1

    def _head_time(self) -> float | None:
        """The time of the next live event, dropping cancelled ones."""
        queue = self._queue
        while queue:
            head = queue[0]
            if head[2].state == _QUEUED:
                return head[0]
            heapq.heappop(queue)
        return None

    # -- execution --------------------------------------------------------------

    def step(self) -> bool:
        """Process the next event; returns False when the queue is empty."""
        queue = self._queue
        while queue:
            time, _seq, event = heapq.heappop(queue)
            if event.state == _QUEUED:
                event.state = _FIRED
                self.pending -= 1
                self._now = time
                self.events_processed += 1
                event.action()
                return True
        return False

    def run(self, max_events: int | None = None) -> int:
        """Run until the queue drains (or *max_events* fire)."""
        fired = 0
        while max_events is None or fired < max_events:
            if not self.step():
                break
            fired += 1
        return fired

    def run_until(self, time: float) -> int:
        """Run events with ``event.time <= time``; advance the clock to
        *time* even if the queue drains earlier.

        Cancelled events at the head are skipped *before* the deadline
        check: a cancelled head must not let a live event past the
        deadline sneak into this window.
        """
        fired = 0
        while True:
            head = self._head_time()
            if head is None or head > time:
                break
            self.step()
            fired += 1
        self._now = max(self._now, time)
        return fired

    def run_while(self, condition: Callable[[], bool], max_events: int = 1_000_000) -> int:
        """Run until *condition* becomes false or the queue drains.

        The synchronous RMI layer uses this to pump the network until a
        specific reply lands.
        """
        fired = 0
        while condition() and self.step():
            fired += 1
            if fired >= max_events:
                raise RuntimeError(
                    f"simulation did not converge within {max_events} events"
                )
        return fired

    def __repr__(self) -> str:
        return f"Simulator(now={self._now:.6f}, pending={self.pending})"
