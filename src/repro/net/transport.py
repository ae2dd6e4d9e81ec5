"""Message transport over the simulated internetwork.

The transport enforces *by-value* semantics: every payload is marshalled
to the wire format at send time and unmarshalled at delivery, so no
Python object identity ever crosses a site boundary — the same guarantee
real serialization gives, and the property that makes the mobility layer
honest (an object that "migrated" is a genuinely independent copy).
A reply decodes with the receiving site's reference resolver; a request
decodes to inert references, which its handler resolves when it runs.

A :class:`Network` optionally carries a fault plane (see
:mod:`repro.faults`): when attached, every send is submitted to it for a
*verdict* — deliver, drop, duplicate, reorder, jitter — and the verdict
travels on the :class:`Message` so tests can assert exactly what the
wire did. Without a plane, behaviour is byte-identical to the unfaulted
transport.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Protocol, TYPE_CHECKING

from ..core.errors import NetworkError
from ..sim import Simulator
from .. import probes as _probes
from .marshal import marshal, unmarshal
from .topology import Topology

if TYPE_CHECKING:  # pragma: no cover
    from ..faults.plane import FaultPlane

__all__ = ["Message", "Network", "Endpoint"]


@dataclass(frozen=True)
class Message:
    """A delivered message (payload already decoded)."""

    kind: str
    src: str
    dst: str
    payload: Any
    msg_id: int
    reply_to: int | None
    lamport: int
    size: int  # wire size in bytes, for accounting
    request_id: str = ""  # stable across retries of one logical request
    verdict: str = "ok"  # what the fault plane did to this message


class Endpoint(Protocol):
    """What the network delivers to: any site-like object."""

    site_id: str

    def receive(self, message: Message) -> None: ...

    def witness_lamport(self, remote: int) -> None: ...


class Network:
    """Topology + simulator + registered endpoints.

    >>> from repro.sim import Simulator
    >>> network = Network(Simulator())
    >>> network.topology.add_node("haifa")
    """

    def __init__(self, simulator: Simulator | None = None):
        self.simulator = simulator if simulator is not None else Simulator()
        self.topology = Topology()
        self._endpoints: dict[str, Endpoint] = {}
        self._msg_ids = itertools.count(1)
        self._incarnations = itertools.count(1)
        self.fault_plane: "FaultPlane | None" = None
        self.messages_sent = 0
        self.bytes_sent = 0
        self.messages_dropped = 0
        self.bytes_dropped = 0
        self.messages_duplicated = 0
        self.messages_undeliverable = 0

    # -- endpoints -----------------------------------------------------------

    def register(self, endpoint: Endpoint) -> int:
        """Attach a site; returns its *incarnation* number.

        Incarnations increase monotonically across the whole network
        lifetime, so a site that crashes and re-registers under the same
        id can mint request identifiers that never collide with those of
        its previous life.
        """
        site_id = endpoint.site_id
        if site_id in self._endpoints:
            raise NetworkError(f"site {site_id!r} is already registered")
        if not self.topology.has_node(site_id):
            self.topology.add_node(site_id)
        self._endpoints[site_id] = endpoint
        return next(self._incarnations)

    def endpoint(self, site_id: str) -> Endpoint:
        try:
            return self._endpoints[site_id]
        except KeyError:
            raise NetworkError(f"unknown site {site_id!r}") from None

    def unregister(self, site_id: str) -> Endpoint:
        """Detach a site (crash/shutdown). Topology and links remain — a
        replacement endpoint with the same id may register later (the
        restart scenario); messages sent meanwhile fail at send time, and
        in-flight deliveries that land during the outage are dropped."""
        try:
            return self._endpoints.pop(site_id)
        except KeyError:
            raise NetworkError(f"unknown site {site_id!r}") from None

    def is_live(self, site_id: str) -> bool:
        return site_id in self._endpoints

    def sites(self) -> tuple[str, ...]:
        return tuple(sorted(self._endpoints))

    # -- sending --------------------------------------------------------------

    def send(
        self,
        src: str,
        dst: str,
        kind: str,
        payload: Any,
        reply_to: int | None = None,
        lamport: int = 0,
        request_id: str = "",
    ) -> int:
        """Marshal, price, and schedule delivery of one message.

        Raises :class:`~repro.core.errors.PartitionError` immediately when
        *dst* is unreachable — the simulated analog of a connect failure.
        With a fault plane attached, the scheduled deliveries follow its
        verdict: none (drop), one (possibly delayed), or several
        (duplication); the verdict is stamped on the message.
        """
        if src not in self._endpoints:
            # fail-stop: a crashed (unregistered) incarnation must not
            # keep emitting traffic under its old identity
            raise NetworkError(f"site {src!r} is not attached")
        self.endpoint(dst)  # raises for unknown sites
        wire = marshal(payload)
        size = len(wire)
        delay = self.topology.path_cost(src, dst, size)
        msg_id = next(self._msg_ids)
        verdict = "ok"
        delays = [delay]
        if self.fault_plane is not None:
            verdict, delays = self.fault_plane.intercept(
                kind=kind, src=src, dst=dst, msg_id=msg_id,
                size=size, base_delay=delay,
            )
        self.messages_sent += 1
        self.bytes_sent += size
        if not delays:
            self.messages_dropped += 1
            self.bytes_dropped += size
        elif len(delays) > 1:
            self.messages_duplicated += len(delays) - 1
        probe = _probes.ACTIVE
        if probe is not None:
            probe.transmit(size, len(delays))

        def deliver() -> None:
            # resolved at delivery time: a site that crashed after the
            # send must not receive into its dead incarnation (and its
            # replacement legitimately receives what was in flight)
            target = self._endpoints.get(dst)
            if target is None:
                self.messages_undeliverable += 1
                return
            resolve = getattr(target, "resolve_reference", None) if kind == "reply" else None
            decoded = unmarshal(wire, resolve)  # each delivery its own copy
            target.witness_lamport(lamport)
            target.receive(Message(
                kind, src, dst, decoded, msg_id, reply_to, lamport, size,
                request_id, verdict,
            ))

        for when in delays:
            self.simulator.schedule(when, deliver, label=f"{kind} {src}->{dst}")
        return msg_id

    # -- convenience ------------------------------------------------------------

    def run(self) -> int:
        """Drain all pending traffic; returns events processed."""
        return self.simulator.run()

    def run_while(self, condition: Callable[[], bool]) -> int:
        return self.simulator.run_while(condition)

    @property
    def now(self) -> float:
        return self.simulator.now

    def __repr__(self) -> str:
        return (
            f"Network({len(self._endpoints)} sites, "
            f"{self.messages_sent} msgs, {self.bytes_sent} bytes)"
        )
