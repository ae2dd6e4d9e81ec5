"""The injectors: each models one failure from the threat taxonomy.

Two families:

* **Message injectors** sit on the send path and judge every message
  the :class:`~repro.faults.plane.FaultPlane` shows them — silent loss
  (:class:`DropInjector`), duplication (:class:`DuplicateInjector`),
  reordering by holding a message back (:class:`ReorderInjector`), and
  latency jitter (:class:`JitterInjector`).
* **Scheduled injectors** translate themselves into ordinary simulator
  events at arm time — link flapping (:class:`LinkFlapInjector`) and
  fail-stop site crash with restart from the write-ahead log
  (:class:`DurableCrashInjector`).

Every injector draws only from the random stream the plane binds to it
(derived from the run seed and the injector's name), which is what makes
a chaos schedule a pure function of the seed.
"""

from __future__ import annotations

import random
from typing import Callable, Iterable, TYPE_CHECKING

from ..core.errors import NetworkError

if TYPE_CHECKING:  # pragma: no cover
    from ..net.transport import Network
    from .plane import FaultPlane, MessageInfo

__all__ = [
    "MessageInjector",
    "DropInjector",
    "DuplicateInjector",
    "ReorderInjector",
    "JitterInjector",
    "ScheduledInjector",
    "LinkFlapInjector",
    "DurableCrashInjector",
]


class _Bound:
    """Shared plumbing: a name, a plane, and a derived random stream."""

    name = "injector"

    def __init__(self) -> None:
        self.plane: "FaultPlane | None" = None
        self.rng: random.Random = random.Random(0)

    def bind(self, plane: "FaultPlane", rng: random.Random) -> None:
        self.plane = plane
        self.rng = rng

    @property
    def network(self) -> "Network":
        assert self.plane is not None, f"{self.name} injector is not bound"
        return self.plane.network


class MessageInjector(_Bound):
    """Base class for per-message fault decisions.

    *rate* is the fault probability per applicable message; *only_kinds*
    / *skip_kinds* focus the injector on specific message kinds (e.g.
    only ``reply`` traffic); *limit* caps how many faults this injector
    may inject in total — handy for deterministic tests ("drop exactly
    the first two messages").
    """

    def __init__(
        self,
        rate: float = 1.0,
        only_kinds: Iterable[str] | None = None,
        skip_kinds: Iterable[str] = (),
        limit: int | None = None,
    ):
        super().__init__()
        if not 0.0 <= rate <= 1.0:
            raise NetworkError(f"fault rate must be in [0, 1], got {rate}")
        self.rate = rate
        self.only_kinds = frozenset(only_kinds) if only_kinds is not None else None
        self.skip_kinds = frozenset(skip_kinds)
        self.limit = limit
        self.injected = 0

    def applies(self, info: "MessageInfo") -> bool:
        if self.only_kinds is not None and info.kind not in self.only_kinds:
            return False
        return info.kind not in self.skip_kinds

    def _fires(self) -> bool:
        # the rng is consulted for every applicable message, fault or
        # not, so the stream stays aligned with the message sequence
        fires = self.rng.random() < self.rate
        if not fires:
            return False
        if self.limit is not None and self.injected >= self.limit:
            return False
        self.injected += 1
        return True

    def judge(
        self, info: "MessageInfo", delays: list[float]
    ) -> tuple[str | None, list[float]]:
        raise NotImplementedError


class DropInjector(MessageInjector):
    """Silent message loss: the message is never delivered."""

    name = "drop"

    def judge(self, info, delays):
        if self._fires():
            return "drop", []
        return None, delays


class DuplicateInjector(MessageInjector):
    """The message arrives twice, the copy trailing by up to *spread*."""

    name = "duplicate"

    def __init__(self, rate: float = 1.0, spread: float = 0.05, **kwargs):
        super().__init__(rate, **kwargs)
        self.spread = spread

    def judge(self, info, delays):
        gap = self.rng.uniform(0.0, self.spread)
        if self._fires():
            return "duplicate", delays + [delays[0] + gap]
        return None, delays


class ReorderInjector(MessageInjector):
    """Hold a message back so later traffic overtakes it."""

    name = "reorder"

    def __init__(self, rate: float = 1.0, hold: float = 0.25, **kwargs):
        super().__init__(rate, **kwargs)
        self.hold = hold

    def judge(self, info, delays):
        pause = self.rng.uniform(0.5, 1.5) * self.hold
        if self._fires():
            return "reorder", [delay + pause for delay in delays]
        return None, delays


class JitterInjector(MessageInjector):
    """Additive latency noise on every delivery of the message."""

    name = "jitter"

    def __init__(self, max_jitter: float = 0.01, rate: float = 1.0, **kwargs):
        super().__init__(rate, **kwargs)
        self.max_jitter = max_jitter

    def judge(self, info, delays):
        noise = self.rng.uniform(0.0, self.max_jitter)
        if self._fires():
            return "jitter", [delay + noise for delay in delays]
        return None, delays


class ScheduledInjector(_Bound):
    """Base class for injectors that act through simulator events."""

    def arm(self) -> None:
        raise NotImplementedError


class LinkFlapInjector(ScheduledInjector):
    """Take one link down and up repeatedly on a seeded rhythm.

    The first flap starts uniformly within one *every* interval; each
    outage lasts *down_for* seconds; successive flaps are spaced by
    0.5–1.5 × *every*; *flaps* bounds the total number of outages.
    Messages crossing the dead link fail at send time with
    :class:`~repro.core.errors.PartitionError`, exactly like a real
    partition — retry policies are what survive this injector.
    """

    name = "flap"

    def __init__(self, a: str, b: str, every: float = 1.0,
                 down_for: float = 0.25, flaps: int = 10):
        super().__init__()
        self.a = a
        self.b = b
        self.every = every
        self.down_for = down_for
        self.flaps = flaps
        self._remaining = flaps

    def arm(self) -> None:
        first = self.rng.uniform(0.0, self.every)
        self.network.simulator.schedule(first, self._down)

    def _down(self) -> None:
        if self._remaining <= 0:
            return
        self._remaining -= 1
        self.network.topology.set_link_state(self.a, self.b, False)
        self.plane.record("flap-down", self.a, self.b)
        self.plane.counts["flap"] += 1
        self.network.simulator.schedule(self.down_for, self._up)

    def _up(self) -> None:
        self.network.topology.set_link_state(self.a, self.b, True)
        self.plane.record("flap-up", self.a, self.b)
        if self._remaining > 0:
            gap = self.rng.uniform(0.5, 1.5) * self.every
            self.network.simulator.schedule(gap, self._down)


class DurableCrashInjector(ScheduledInjector):
    """Kill a whole site repeatedly and restart it from its WAL.

    The runtime's one crash model: nothing is saved at the crash instant
    — durability must already be in the log, that is the point — and
    the site's journal is *closed* first, so nothing the dead
    incarnation does afterwards (late scheduled serves, stale replies)
    can reach the log. *recover* is the restart procedure
    (typically wrapping :func:`repro.persistence.recovery.recover_site`);
    it runs once per cycle, *cycles* times, with successive crashes
    spaced by 0.5–1.5 × *every* on the injector's seeded stream.

    The crash fires only at a quiescent instant (``handling_depth ==
    0``), retrying every *grace* seconds — an in-process simulation
    cannot kill a handler frame mid-flight, so torn in-flight writes are
    exercised through the WAL corpus instead. While the site is down,
    sends to it fail and in-flight deliveries are dropped by the
    transport.
    """

    name = "crash"

    def __init__(
        self,
        site_id: str,
        recover: Callable[["Network", str], None],
        at: float = 0.5,
        down_for: float = 0.4,
        cycles: int = 1,
        every: float = 1.2,
        grace: float = 0.05,
    ):
        super().__init__()
        self.site_id = site_id
        self.recover = recover
        self.at = at
        self.down_for = down_for
        self.cycles = cycles
        self.every = every
        self.grace = grace
        self.completed = 0

    def arm(self) -> None:
        self.network.simulator.schedule(self.at, self._crash)

    def _crash(self) -> None:
        if not self.network.is_live(self.site_id):
            # down through some other injector; try again shortly rather
            # than dropping a cycle from the schedule
            self.network.simulator.schedule(self.grace, self._crash)
            return
        endpoint = self.network.endpoint(self.site_id)
        if getattr(endpoint, "handling_depth", 0) > 0:
            self.network.simulator.schedule(self.grace, self._crash)
            return
        journal = getattr(endpoint, "journal", None)
        if journal is not None:
            journal.close()  # the fail-stop instant: the log goes silent
        self.network.unregister(self.site_id)
        self.plane.record("crash", self.site_id, self.completed + 1)
        self.plane.counts["crash"] += 1
        self.network.simulator.schedule(self.down_for, self._restart)

    def _restart(self) -> None:
        self.recover(self.network, self.site_id)
        self.completed += 1
        self.plane.record("restart", self.site_id, self.completed)
        self.plane.counts["restart"] += 1
        if self.completed < self.cycles:
            gap = self.rng.uniform(0.5, 1.5) * self.every
            self.network.simulator.schedule(gap, self._crash)
