"""Closed- and open-loop workload drivers.

Both shapes are built from the same two kernel primitives: an
``issue()`` callback that fires one operation and returns its
:class:`~repro.net.rmi.BatchFuture`, and the future's
:meth:`~repro.net.rmi.BatchFuture.when_done` hook, which the driver
uses to record the outcome and (closed loop) chain the next request —
all inside the event loop, with no pumping of its own. The scenario
layer owns the world and the ops; drivers own only pacing and
accounting.

The distinction matters for what a run can show (see Schroeder et al.,
"Open Versus Closed"): a closed loop self-throttles — offered load
falls as latency rises, so it measures capacity — while an open loop
keeps arriving at its configured rate and is the shape that drives a
bounded admission window into shedding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from ..core.errors import MROMError, OverloadError
from .latency import LatencyRecorder

if TYPE_CHECKING:  # pragma: no cover
    import random

    from ..net.rmi import BatchFuture
    from ..net.site import Site

__all__ = ["DriverStats", "ClosedLoopDriver", "OpenLoopDriver"]


@dataclass
class DriverStats:
    """Shared outcome ledger — one instance spans all drivers of a run."""

    issued: int = 0
    completed: int = 0
    ok: int = 0
    shed: int = 0
    failed: int = 0
    errors: dict = field(default_factory=dict)  # error type -> count

    @property
    def unresolved(self) -> int:
        """Futures issued but never settled (must be 0 after a drain)."""
        return self.issued - self.completed

    def to_mapping(self) -> dict:
        return {
            "issued": self.issued,
            "completed": self.completed,
            "ok": self.ok,
            "shed": self.shed,
            "failed": self.failed,
            "unresolved": self.unresolved,
            "errors": dict(self.errors),
        }


class _Driver:
    """Pacing-agnostic core: issue one op, record its settlement."""

    def __init__(
        self,
        site: "Site",
        issue: Callable[[], "BatchFuture"],
        budget: Callable[[], bool],
        stats: DriverStats,
        recorder: LatencyRecorder,
    ):
        self.site = site
        self.issue = issue
        self.budget = budget
        self.stats = stats
        self.recorder = recorder

    def _issue_one(self, then: Callable[[], None] | None = None) -> None:
        self.stats.issued += 1
        issued_at = self.site.network.now
        future = self.issue()
        future.when_done(lambda f: self._settled(f, issued_at, then))

    def _settled(
        self,
        future: "BatchFuture",
        issued_at: float,
        then: Callable[[], None] | None,
    ) -> None:
        self.stats.completed += 1
        try:
            future.result()
        except OverloadError:
            self.stats.shed += 1
        except MROMError as exc:
            self.stats.failed += 1
            name = type(exc).__name__
            self.stats.errors[name] = self.stats.errors.get(name, 0) + 1
        else:
            self.stats.ok += 1
            self.recorder.observe(self.site.network.now - issued_at)
        if then is not None:
            then()


class ClosedLoopDriver(_Driver):
    """One logical client: a single request outstanding at a time, the
    next issued ``think_time`` simulated seconds after each completion."""

    def __init__(self, *args, think_time: float = 0.0):
        super().__init__(*args)
        self.think_time = think_time

    def start(self) -> None:
        self._next()

    def _next(self) -> None:
        if not self.budget():
            return
        # chain through a zero-delay event rather than recursing: an op
        # that settles synchronously (migrate) would otherwise nest one
        # stack frame per request
        self._issue_one(then=self._schedule_next)

    def _schedule_next(self) -> None:
        self.site.network.simulator.schedule(self.think_time, self._next)


class OpenLoopDriver(_Driver):
    """Arrivals at a configured per-driver rate, independent of
    completions. With an RNG the interarrival gaps are exponential
    (Poisson arrivals); without, a fixed cadence."""

    def __init__(
        self,
        *args,
        rate: float,
        rng: "random.Random | None" = None,
    ):
        super().__init__(*args)
        if rate <= 0:
            raise ValueError(f"open-loop rate must be positive, got {rate}")
        self.rate = rate
        self.rng = rng

    def start(self) -> None:
        self._arrive()

    def _arrive(self) -> None:
        if not self.budget():
            return
        self._issue_one()
        gap = (
            self.rng.expovariate(self.rate)
            if self.rng is not None
            else 1.0 / self.rate
        )
        self.site.network.simulator.schedule(gap, self._arrive)
