"""The fault plane: a deterministic, seed-driven chaos controller.

A :class:`FaultPlane` attaches to a :class:`~repro.net.transport.Network`
and arbitrates every send. Message injectors (drop, duplicate, reorder,
jitter) issue a *verdict* per message; scheduled injectors (link flaps,
site crash/restart) arm themselves as ordinary simulator events. Every
random draw comes from a stream derived from ``(seed, injector name)``
via :meth:`~repro.sim.kernel.Simulator.derive_rng`, and the simulator
already fires equal-time events in scheduling order — so an identical
seed over an identical workload reproduces the *exact* same fault
schedule, message for message. The plane keeps a trace of everything it
did; :meth:`FaultPlane.digest` is the fingerprint reproducibility tests
compare.
"""

from __future__ import annotations

import hashlib
import random
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .. import probes as _probes

if TYPE_CHECKING:  # pragma: no cover
    from ..net.transport import Network
    from .injectors import Injector, MessageInjector

__all__ = ["FaultPlane", "FaultRecord", "MessageInfo"]


@dataclass(frozen=True)
class MessageInfo:
    """What an injector gets to judge: metadata, never the payload."""

    time: float
    kind: str
    src: str
    dst: str
    msg_id: int
    size: int
    base_delay: float


@dataclass(frozen=True)
class FaultRecord:
    """One injected fault, fully attributed.

    Every injection carries the *scenario* name the plane was seeded
    under and a monotonically increasing *seq* number, so a fault seen
    in a span, a log line, or a bug report can be traced back to the
    exact seeded schedule (and position within it) that produced it.
    The plane keeps one record per injection; its tuple trace (see
    :attr:`FaultPlane.trace`) is derived from these.
    """

    seq: int
    scenario: str
    label: str
    time: float
    details: tuple


class FaultPlane:
    """Seeded fault arbiter for one network.

    >>> from repro.net import Network
    >>> from repro.sim import Simulator
    >>> from repro.faults import DropInjector, FaultPlane
    >>> plane = FaultPlane(Network(Simulator(7)), seed=7)
    >>> _ = plane.add(DropInjector(rate=0.5))
    """

    def __init__(
        self, network: "Network", seed: int | None = None, scenario: str = ""
    ):
        self.network = network
        self.seed = network.simulator.seed if seed is None else seed
        #: the named fault schedule this plane runs; defaults to the seed
        #: identity so every injection is attributable even when the
        #: caller never names the run
        self.scenario = scenario or f"seed:{self.seed}"
        #: every injection, attributed (scenario + seq per fault)
        self.injections: list[FaultRecord] = []
        self.counts: Counter[str] = Counter()
        self._message_injectors: list["MessageInjector"] = []
        self._names: Counter[str] = Counter()
        network.fault_plane = self

    # -- wiring ------------------------------------------------------------

    def add(self, injector: "Injector") -> "Injector":
        """Register an injector, binding it to a derived random stream."""
        ordinal = self._names[injector.name]
        self._names[injector.name] += 1
        rng = random.Random(f"faults:{self.seed}:{injector.name}:{ordinal}")
        injector.bind(self, rng)
        if hasattr(injector, "judge"):
            self._message_injectors.append(injector)  # type: ignore[arg-type]
        else:
            injector.arm()  # type: ignore[union-attr]
        return injector

    # -- the send-path hook -------------------------------------------------

    def intercept(
        self,
        kind: str,
        src: str,
        dst: str,
        msg_id: int,
        size: int,
        base_delay: float,
    ) -> tuple[str, list[float]]:
        """Judge one message; returns ``(verdict, delivery delays)``.

        An empty delay list means the message is dropped; more than one
        means duplication. The verdict names every fault applied
        (``"drop"``, ``"duplicate+jitter"``, ...) or is ``"ok"``.
        """
        info = MessageInfo(
            time=self.network.simulator.now,
            kind=kind,
            src=src,
            dst=dst,
            msg_id=msg_id,
            size=size,
            base_delay=base_delay,
        )
        delays = [base_delay]
        labels: list[str] = []
        for injector in self._message_injectors:
            if not injector.applies(info):
                continue
            label, delays = injector.judge(info, delays)
            if label:
                labels.append(label)
            if not delays:
                break
        verdict = "+".join(labels) if labels else "ok"
        if verdict != "ok":
            for label in labels:
                self.counts[label] += 1
            self.record(verdict, kind, src, dst, msg_id)
        return verdict, delays

    # -- the trace ----------------------------------------------------------

    def record(self, label: str, *details) -> None:
        """Append one fault event to the reproducibility trace.

        The single funnel every injection passes through: it appends to
        the attributed :attr:`injections` list (which :attr:`trace` and
        :meth:`digest` read) and — when telemetry is enabled — tags the
        currently open span with a ``fault`` event and bumps the
        ``faults.injected`` counter.
        """
        record = FaultRecord(
            seq=len(self.injections) + 1,
            scenario=self.scenario,
            label=label,
            time=round(self.network.simulator.now, 9),
            details=details,
        )
        self.injections.append(record)
        probe = _probes.ACTIVE
        if probe is not None:
            probe.fault(record)

    @property
    def trace(self) -> list[tuple]:
        """The schedule as ``(time, label, *details)`` tuples, one per
        injection in order."""
        return [
            (record.time, record.label, *record.details)
            for record in self.injections
        ]

    def digest(self) -> str:
        """A stable fingerprint of the whole fault schedule."""
        body = "\n".join(repr(entry) for entry in self.trace)
        return hashlib.sha256(body.encode("utf-8")).hexdigest()

    def __repr__(self) -> str:
        return (
            f"FaultPlane(seed={self.seed}, "
            f"{len(self._message_injectors)} message injectors, "
            f"{len(self.injections)} trace entries)"
        )
