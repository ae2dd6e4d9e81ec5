"""The canonical chaos scenario: a seeded agent tour through hostile weather.

One function, :func:`run_chaos_scenario`, builds a deterministic world —
N sites on a WAN ring with chords, a collector agent, retrying sites, a
fault plane with the full injector set — runs a multi-pass itinerary
while links flap and one site crash-restarts from its write-ahead log,
then reconciles, audits the single-live-copy invariant, and returns a
:class:`ChaosReport` whose rendered form is a pure function of the
parameters. ``repro chaos --seed N`` prints it; running the same seed
twice is bit-for-bit identical.

The crash model is fail-stop with restart from the log: the victim site
journals to a :class:`~repro.persistence.wal.WriteAheadLog` from the
start (guest images, served-request replies, the transfer ledger), the
journal goes silent at the crash instant, and the restarted incarnation
is rebuilt by :func:`~repro.persistence.recovery.recover_site`. That is
what lets exactly-once semantics span the restart.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..core.errors import MROMError
from ..mobility import AgentTour, Itinerary, MobilityManager, make_collector_agent
from ..net import Network, RetryPolicy, Site, WAN
from ..persistence import MemoryStore, WriteAheadLog, attach_journal, recover_site
from ..sim import Simulator
from .injectors import (
    DropInjector,
    DurableCrashInjector,
    DuplicateInjector,
    JitterInjector,
    LinkFlapInjector,
    ReorderInjector,
)
from .plane import FaultPlane

__all__ = ["ChaosReport", "run_chaos_scenario", "CHAOS_POLICY"]

#: generous enough to ride out the default flap outages and crash window
CHAOS_POLICY = RetryPolicy(
    attempts=6, timeout=0.75, backoff=0.25, multiplier=2.0, max_backoff=2.0
)


@dataclass
class ChaosReport:
    """Everything a chaos run observed, rendered deterministically."""

    seed: int
    sites: tuple[str, ...]
    itinerary: tuple[str, ...]
    completed: bool
    observations: list | None
    live_copies: int
    agent_at: tuple[str, ...]
    stray_objects: int
    unresolved: int
    faults: dict[str, int] = field(default_factory=dict)
    messages: dict[str, int] = field(default_factory=dict)
    trace_digest: str = ""
    sim_time: float = 0.0

    @property
    def ok(self) -> bool:
        """The exactly-once verdict: one live agent, nothing dangling."""
        return self.live_copies == 1 and self.unresolved == 0 and self.stray_objects == 0

    def to_lines(self) -> list[str]:
        lines = [
            f"chaos seed {self.seed}: {'OK' if self.ok else 'VIOLATED'}",
            f"sites:        {' '.join(self.sites)}",
            f"itinerary:    {' '.join(self.itinerary)}",
            f"completed:    {self.completed}",
            f"live copies:  {self.live_copies} (at: {' '.join(self.agent_at) or '-'})",
            f"stray objects: {self.stray_objects}",
            f"unresolved:   {self.unresolved}",
            f"sim time:     {self.sim_time:.6f}s",
        ]
        for label in sorted(self.faults):
            lines.append(f"fault {label:<12} {self.faults[label]}")
        for label in sorted(self.messages):
            lines.append(f"net {label:<14} {self.messages[label]}")
        lines.append(f"trace digest: {self.trace_digest}")
        if self.observations is not None:
            for stop, finding in self.observations:
                lines.append(f"observed {stop}: {finding!r}")
        return lines


def _build_world(seed: int, n_sites: int):
    simulator = Simulator(seed)
    network = Network(simulator)
    names = [f"site{i}" for i in range(n_sites)]
    sites: dict[str, Site] = {}
    managers: dict[str, MobilityManager] = {}
    for name in names:
        site = Site(network, name, f"dom.{name}")
        site.retry_policy = CHAOS_POLICY
        sites[name] = site
        managers[name] = MobilityManager(site)
    for index in range(n_sites):  # the WAN ring
        a, b = names[index], names[(index + 1) % n_sites]
        network.topology.connect(a, b, *WAN)
    if n_sites > 3:  # a chord, so a single flapping ring link rarely partitions
        network.topology.connect(names[0], names[n_sites // 2], *WAN)
    return network, names, sites, managers


def run_chaos_scenario(
    seed: int = 0,
    n_sites: int = 5,
    passes: int = 2,
    drop: float = 0.10,
    dup: float = 0.10,
    reorder: float = 0.05,
    jitter: float = 0.005,
    flap: bool = True,
    crash: bool = True,
    crash_at: float = 0.4,
    crash_down_for: float = 0.8,
) -> ChaosReport:
    """Run the seeded chaos scenario; see the module docstring."""
    if n_sites < 3:
        raise MROMError("the chaos scenario needs at least 3 sites")
    network, names, sites, managers = _build_world(seed, n_sites)
    home = names[0]
    plane = FaultPlane(network, seed, scenario=f"chaos-{seed}")
    if drop > 0:
        plane.add(DropInjector(rate=drop))
    if dup > 0:
        plane.add(DuplicateInjector(rate=dup, spread=0.05))
    if reorder > 0:
        plane.add(ReorderInjector(rate=reorder, hold=0.1))
    if jitter > 0:
        plane.add(JitterInjector(max_jitter=jitter))
    if flap:
        # flap one ring link that the chord routes around
        victim_link = (names[1], names[2])
        plane.add(
            LinkFlapInjector(*victim_link, every=0.6, down_for=0.15, flaps=8)
        )

    if crash:
        crash_site = names[n_sites // 2]
        wal = WriteAheadLog(MemoryStore())
        attach_journal(sites[crash_site], wal)

        def recover(network: Network, site_id: str) -> None:
            site, manager, _report = recover_site(
                network, site_id, wal, domain=f"dom.{site_id}"
            )
            site.retry_policy = CHAOS_POLICY
            attach_journal(site, wal)
            sites[site_id] = site
            managers[site_id] = manager

        plane.add(
            DurableCrashInjector(
                crash_site, recover, at=crash_at, down_for=crash_down_for
            )
        )

    route_rng = random.Random(f"chaos:{seed}:itinerary")
    stops = names[1:]
    route_rng.shuffle(stops)
    itinerary = Itinerary(tuple(stops * passes))

    agent = make_collector_agent(sites[home])
    sites[home].register_object(agent)
    guid = agent.guid
    owner = agent.owner

    completed = True
    try:
        AgentTour(managers[home]).run(agent, itinerary)
    except MROMError:
        completed = False
    network.run()  # drain remaining traffic, flaps, the restart
    network.topology.heal()
    for _ in range(10):  # resolve every ambiguous handoff
        if not any(manager.unresolved for manager in managers.values()):
            break
        for name in sorted(managers):
            managers[name].reconcile()
        network.run()

    holders = tuple(
        name for name in sorted(sites) if sites[name].has_object(guid)
    )
    stray = sum(
        1
        for name in sites
        for obj in sites[name].objects()
        if obj.guid != guid
    )
    observations = None
    if len(holders) == 1:
        holder = sites[holders[0]]
        try:
            observations = holder.local_object(guid).invoke(
                "report", [], caller=owner
            )
        except MROMError:
            observations = None
    report = ChaosReport(
        seed=seed,
        sites=tuple(names),
        itinerary=tuple(itinerary.stops),
        completed=completed,
        observations=observations,
        live_copies=len(holders),
        agent_at=holders,
        stray_objects=stray,
        unresolved=sum(len(m.unresolved) for m in managers.values()),
        faults=dict(sorted(plane.counts.items())),
        messages={
            "sent": network.messages_sent,
            "dropped": network.messages_dropped,
            "duplicated": network.messages_duplicated,
            "undeliverable": network.messages_undeliverable,
            "stale_replies": sum(sites[n].stale_replies for n in sorted(sites)),
            "replayed": sum(sites[n].replayed_requests for n in sorted(sites)),
        },
        trace_digest=plane.digest(),
        sim_time=round(network.now, 6),
    )
    return report
