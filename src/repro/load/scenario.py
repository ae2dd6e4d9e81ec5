"""Multi-site load and soak scenarios, and their reports.

A scenario builds a world — ``sites`` serving sites each hosting a
counter object, ``clients`` client sites fully connected to them over
the simulated LAN — starts one driver per client, and pumps the kernel
dry. Drivers issue a weighted mix of protocol ops; one *nomad* object
hops between serving sites whenever the mix draws ``migrate``, so
mobility runs concurrently with invocation traffic, the combination
the paper's runtime exists for.

Accounting is closed-form: every issued request must settle (reply,
typed shed, or typed failure) — ``unresolved`` is the count that did
not and must be zero after a drain — and the sum of the server
counters must equal the number of successful increments, which is the
end-to-end no-lost-updates check.

The soak variant layers the fault plane (drops, duplicates, jitter)
and arms retry policies, demonstrating the exactly-once and
backpressure machinery holding under sustained adversarial load.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.errors import MROMError
from ..faults import DurableCrashInjector, FaultPlane
from ..mobility import MobilityManager
from ..net import Network, Site
from ..persistence import (
    BACKENDS,
    WriteAheadLog,
    attach_journal,
    make_store,
    recover_site,
)
from .harness import (  # SOAK_RETRY stays importable from here
    SOAK_RETRY,
    ScenarioConfig,
    ScenarioReport,
    World,
    make_counter,
    run_scenario,
)

__all__ = ["LoadConfig", "LoadReport", "run_load_scenario", "run_soak_scenario"]


@dataclass
class LoadConfig(ScenarioConfig):
    """Knobs for one load run; the defaults are the smoke shape."""

    #: durability plane: journal every serving site into a WAL
    durable: bool = False
    backend: str = "memory"        # WAL store backend (see persistence.BACKENDS)
    wal_root: str | None = None    # directory for file/sqlite backends
    #: crash-and-restart schedule (requires durable=True): kill whole
    #: serving sites mid-run, this many cycles total, restarting each
    #: from its WAL
    crash_cycles: int = 0
    crash_start: float = 0.5       # first crash fires at this sim time
    crash_down: float = 0.4        # seconds each victim stays dark
    crash_every: float = 1.2       # base spacing between a victim's cycles

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.backend not in BACKENDS:
            raise ValueError(
                f"backend must be one of {BACKENDS}, not {self.backend!r}"
            )
        if self.backend != "memory" and self.wal_root is None:
            raise ValueError(f"backend {self.backend!r} needs wal_root")
        if self.crash_cycles < 0:
            raise ValueError("crash_cycles cannot be negative")
        if self.crash_cycles and not self.durable:
            raise ValueError("crash_cycles requires durable=True")
        if self.crash_start < 0 or self.crash_down <= 0 or self.crash_every <= 0:
            raise ValueError("crash schedule values must be positive")


@dataclass
class LoadReport(ScenarioReport):
    """Everything a run learned, in one flat record."""

    mode: str
    server_sheds: dict
    #: durability summary (empty for non-durable runs): restarts,
    #: per-guid ownership counts after drain, per-recovery reports —
    #: deterministic values only, so seed-determinism holds over mappings
    durable: dict = field(default_factory=dict)
    #: the raw RecoveryReport objects (wall-clock replay timings live
    #: here, deliberately outside to_mapping)
    recovery_reports: list = field(default_factory=list, repr=False)

    derived = ("consistent", "exactly_once")
    latency_keys = ("p50", "p95", "p99", "mean")
    event_fields = (
        "mode", "issued", "ok", "shed", "failed", "unresolved", "throughput",
        "p50", "p99",
    )

    @property
    def restarts(self) -> int:
        return int(self.durable.get("restarts", 0))

    @property
    def exactly_once(self) -> bool:
        """Exactly one live copy of every application object at drain."""
        ownership = self.durable.get("ownership")
        if ownership is None:
            return True
        return all(count == 1 for count in ownership.values())

    def violations(self) -> dict[str, str]:
        found = super().violations()
        if not self.exactly_once:
            found["exactly-once"] = (
                f"ownership not exactly-once: {self.durable.get('ownership')}"
            )
        return found

    def title(self) -> str:
        return (
            f"load report: {self.mode} loop, {self.sites} sites x "
            f"{self.clients} clients, seed {self.seed}"
        )

    def detail_lines(self) -> list[str]:
        return [f"  mobility  {self.migrations} migration(s) under load"]

    def tallies(self) -> list[tuple[str, list]]:
        failures, faults = super().tallies()
        sheds = (
            list(self.server_sheds.items())
            if any(self.server_sheds.values()) else []
        )
        return [failures, ("sheds", sheds), faults]

    def to_lines(self) -> list[str]:
        lines = super().to_lines()
        if self.durable:
            lines.append(
                f"  durable   restarts={self.restarts} "
                + ("exactly-once ownership" if self.exactly_once
                   else "OWNERSHIP VIOLATION")
            )
        return lines


class _Workload(World):
    """The world plus the op implementations the drivers draw from."""

    domain = "load"
    report_type = LoadReport

    def __init__(self, config: LoadConfig, soak: bool):
        super().__init__(config, soak)
        self.managers = {
            name: MobilityManager(site, retry_policy=config.retry)
            for name, site in self.servers.items()
        }
        # drain-time reconciliation gives every write-ahead intent a
        # restart resurrected (and every timeout-flagged handoff) its
        # verdict, so ownership is settled before accounting
        self.drain_rounds = 10 if config.durable else 0
        # the durability plane attaches before any application object is
        # registered, so the initial registrations are already journaled
        self.wals: dict[str, WriteAheadLog] = {}
        self.journals: dict = {}
        self.recovery_reports: list = []
        self.restarts = 0
        if config.durable:
            for name, site in self.servers.items():
                wal = WriteAheadLog(
                    make_store(config.backend, root=config.wal_root, name=name)
                )
                self.wals[name] = wal
                self.journals[name] = attach_journal(site, wal)
        self.targets = []
        for name, site in self.servers.items():
            counter = make_counter(site, f"counter@{name}")
            site.register_object(counter, name="apps/counter")
            self.targets.append((name, counter.guid))
        self.nomad = self._make_nomad(self.servers[self.server_ids[0]])
        self.nomad_home = self.server_ids[0]
        self.nomad_guid = self.nomad.guid

    @staticmethod
    def _make_nomad(site: Site):
        nomad = site.create_object(display_name="nomad")
        nomad.define_fixed_data("hops", 0)
        nomad.define_fixed_method(
            "install", "self.set('hops', self.get('hops') + 1)"
        )
        nomad.seal()
        site.register_object(nomad)
        return nomad

    def counter_total(self) -> int:
        total = 0
        for name, guid in self.targets:
            obj = self.servers[name].local_object(guid)
            total += obj.get_data("count", caller=obj.owner)
        return total

    def ownership(self) -> dict[str, int]:
        """Live-copy count per application guid across serving sites."""
        guids = [guid for _name, guid in self.targets] + [self.nomad_guid]
        return {
            guid: sum(
                1 for site in self.servers.values() if site.has_object(guid)
            )
            for guid in guids
        }

    def report_fields(self) -> dict:
        config = self.config
        return dict(
            mode=config.mode,
            server_sheds={
                name: site.shed_requests for name, site in self.servers.items()
            },
            durable=(
                {
                    "backend": config.backend,
                    "restarts": self.restarts,
                    "ownership": self.ownership(),
                    "recoveries": [
                        recovery.to_mapping()
                        for recovery in self.recovery_reports
                    ],
                }
                if config.durable else {}
            ),
            recovery_reports=list(self.recovery_reports),
        )

    # -- the crash-and-restart plane ---------------------------------------

    def arm(self, plane: FaultPlane | None) -> FaultPlane | None:
        """Schedule ``config.crash_cycles`` whole-site kill/restart
        cycles, spread round-robin across the serving sites."""
        config = self.config
        if not config.crash_cycles:
            return plane
        if plane is None:  # durable non-soak runs still need a plane to
            plane = FaultPlane(  # carry the crash schedule
                self.network, seed=config.seed, scenario="load-durable"
            )
        share: dict[str, int] = {}
        for index in range(config.crash_cycles):
            victim = self.server_ids[index % len(self.server_ids)]
            share[victim] = share.get(victim, 0) + 1
        for offset, (victim, cycles) in enumerate(sorted(share.items())):
            plane.add(
                DurableCrashInjector(
                    victim,
                    self._recover,
                    at=config.crash_start + offset * config.crash_every,
                    down_for=config.crash_down,
                    cycles=cycles,
                    every=config.crash_every * len(share),
                )
            )
        return plane

    def _recover(self, network: Network, site_id: str) -> None:
        """The restart procedure: a fresh incarnation from the WAL, host
        configuration re-applied, journal re-attached and compacted."""
        site, manager, report = recover_site(
            network, site_id, self.wals[site_id],
            domain=f"{self.domain}.{site_id}", retry_policy=self.config.retry,
        )
        self.admit(site)
        for name, guid in self.targets:
            if name == site_id and site.has_object(guid):
                site.names.bind("apps/counter", guid)
        self.servers[site_id] = site
        self.managers[site_id] = manager
        journal = attach_journal(site, self.wals[site_id])
        journal.checkpoint(compact=True)  # fold replayed history away
        self.journals[site_id] = journal
        if self.nomad_home == site_id and site.has_object(self.nomad_guid):
            self.nomad = site.local_object(self.nomad_guid)
        self.restarts += 1
        self.recovery_reports.append(report)

    def drained(self) -> bool:
        return not any(manager.unresolved for manager in self.managers.values())

    def settle(self) -> None:
        for manager in list(self.managers.values()):
            try:
                manager.reconcile()
            except MROMError:
                pass

    def weather(self) -> bool:
        """A failed hop that aborted cleanly under a crash schedule, with
        the nomad still home, is environment weather, not a protocol
        failure; the driver will hop again."""
        return bool(self.config.crash_cycles) and self.servers[
            self.nomad_home
        ].has_object(self.nomad_guid)

    def client_ops(self, client: Site) -> dict:
        retry = self.config.retry
        return {
            "invoke": lambda target: client.remote_invoke_async(
                *target, "increment", [1], policy=retry
            ),
            "get_data": lambda target: client.remote_get_data_async(
                *target, "count", policy=retry
            ),
            "describe": lambda target: client.remote_describe_async(
                *target, policy=retry
            ),
        }

    def _move_once(self, rng) -> str:
        """Migrate the nomad one serving site onward (synchronously:
        the transfer protocol pumps)."""
        manager = self.managers[self.nomad_home]
        if manager.unresolved:
            # a previous handoff's verdict is still pending (a restart
            # resurrected its write-ahead intent, or a timeout left it
            # ambiguous): never migrate a guid whose ownership is in
            # question — resolve first, then adopt wherever it settled
            try:
                manager.reconcile()
            except MROMError:
                pass
            if manager.unresolved:
                return self._deferred()
            ring = [self.nomad_home] + [
                name for name in self.server_ids if name != self.nomad_home
            ]
            for name in ring:
                if self.servers[name].has_object(self.nomad_guid):
                    # re-adopt the live instance wherever the verdict put
                    # it (a restart may have swapped the site object out
                    # from under our stale reference)
                    self.nomad = self.servers[name].local_object(
                        self.nomad_guid
                    )
                    self.nomad_home = name
                    break
            else:
                return self._deferred()
        dst = self._next_site(self.nomad_home)
        if dst == self.nomad_home:  # single-site world: nothing to do
            return dst
        if not self.network.is_live(dst):
            # never migrate toward a dead host; hop again once it is back
            return self._deferred()
        ref = self.managers[self.nomad_home].migrate(self.nomad, dst)
        self.nomad = self.servers[dst].local_object(ref.guid)
        self.nomad_home = dst
        self.migrations += 1
        return dst


def run_load_scenario(config: LoadConfig | None = None) -> LoadReport:
    """One clean (fault-free) load run; see :class:`LoadConfig`."""
    return run_scenario(_Workload, config or LoadConfig(), soak=False)


def run_soak_scenario(config: LoadConfig | None = None) -> LoadReport:
    """A load run with the PR 1 fault plane armed: messages are dropped,
    duplicated and jittered while the drivers sustain offered load, and
    retry policies (``SOAK_RETRY`` unless the config brings its own)
    carry every logical request to a settled outcome anyway."""
    return run_scenario(_Workload, config or LoadConfig(), soak=True)
