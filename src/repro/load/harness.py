"""The scenario harness the load and cluster worlds share.

One program runs both: serving and client sites on the simulated LAN
(every client linked to every server, the servers pairwise; client
links to clients would carry no traffic), one closed- or open-loop
driver per client, a pump to quiescence, a drain, and a closed-form
report. A world (:mod:`.scenario`, :mod:`.cluster`) adds only what
differs; the rest of the difference is data, its ``domain``, which
names its sites, RNG streams, soak scenario and telemetry event.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Any, Callable

from ..core.errors import MROMError, TransferUnresolvedError
from ..faults import DropInjector, DuplicateInjector, FaultPlane, JitterInjector
from ..net import LAN, Network, RetryPolicy, Site
from ..net.rmi import BatchFuture
from ..sim import Simulator
from .. import probes as _probes
from .drivers import ClosedLoopDriver, DriverStats, OpenLoopDriver
from .latency import LatencyRecorder
from .profile import DEFAULT_PROFILE, OpProfile

__all__ = [
    "SOAK_RETRY",
    "ScenarioConfig",
    "ScenarioReport",
    "World",
    "make_counter",
    "run_scenario",
]

#: Retry schedule armed for soak runs when the config does not bring one:
#: generous attempts, short timeouts — tuned for the injected fault rates.
SOAK_RETRY = RetryPolicy(
    attempts=6, timeout=0.5, backoff=0.05, multiplier=2.0, max_backoff=1.0
)


@dataclass
class ScenarioConfig:
    """The knobs every world takes; the defaults are the load smoke shape."""

    sites: int = 4             # serving sites
    clients: int = 4           # client sites (one driver each)
    requests: int = 10_000     # total logical requests across all drivers
    mode: str = "closed"       # "closed" or "open"
    rate: float = 500.0        # open loop: per-client arrivals / sim second
    think_time: float = 0.0    # closed loop: gap after each completion
    seed: int = 0
    inflight_limit: int | None = None  # per-server admission window
    service_delay: float = 0.0         # per-request service time at servers
    profile: OpProfile = field(default_factory=lambda: DEFAULT_PROFILE)
    retry: RetryPolicy | None = None

    def __post_init__(self) -> None:
        if self.sites < 1 or self.clients < 1 or self.requests < 1:
            raise ValueError("sites, clients and requests must be positive")
        if self.mode not in ("closed", "open"):
            raise ValueError(f"mode must be 'closed' or 'open', not {self.mode!r}")
        if self.rate <= 0 or self.think_time < 0 or self.service_delay < 0:
            raise ValueError("rate must be positive; delays cannot be negative")


def _ms(value: Any) -> str:
    return "-" if value is None else f"{value * 1e3:.3f}ms"


@dataclass
class ScenarioReport:
    """The fields every world reports, and the invariants on them.

    A world's report adds its own fields and supplies ``title()`` and
    ``detail_lines()``, its rows between ``integrity`` and ``time``.
    """

    sites: int
    clients: int
    requests: int
    seed: int
    soak: bool
    issued: int
    completed: int
    ok: int
    shed: int
    failed: int
    unresolved: int
    errors: dict
    migrations: int
    invoke_ok: int
    counter_total: int
    duration: float
    throughput: float
    latency: dict
    profile: dict
    faults: dict

    #: properties :meth:`to_mapping` adds to the fields
    derived = ("consistent",)
    #: the latency statistics the ``latency`` row shows
    latency_keys = ("p50", "p95", "p99")
    #: the attributes of the ``<domain>.report`` telemetry event
    event_fields = ()

    @property
    def consistent(self) -> bool:
        """No lost updates: counters account for every ok increment."""
        return self.counter_total == self.invoke_ok

    def violations(self) -> dict[str, str]:
        """Every broken closed-form invariant, by name (empty: all hold)."""
        found = {}
        if self.unresolved:
            found["unresolved"] = f"{self.unresolved} request(s) never settled"
        if self.ok + self.shed + self.failed != self.completed:
            found["accounting"] = (
                f"outcome accounting does not add up (ok {self.ok} + shed "
                f"{self.shed} + failed {self.failed} != completed "
                f"{self.completed})"
            )
        if not self.consistent:
            found["lost-updates"] = (
                f"lost updates (counters {self.counter_total} != "
                f"ok increments {self.invoke_ok})"
            )
        return found

    def to_mapping(self) -> dict:
        mapping = {f.name: getattr(self, f.name) for f in fields(self) if f.repr}
        mapping.update((name, getattr(self, name)) for name in self.derived)
        return mapping

    def tallies(self) -> list[tuple[str, list]]:
        """``(label, [(key, count), ...])`` rows, printed when non-empty."""
        return [
            ("failures", sorted(self.errors.items())),
            ("faults", sorted(self.faults.items())),
        ]

    def to_lines(self) -> list[str]:
        lat = self.latency
        stats = " ".join(f"{key}={_ms(lat.get(key))}" for key in self.latency_keys)
        lines = [
            self.title() + (", soak (faults armed)" if self.soak else ""),
            f"  requests  issued={self.issued} completed={self.completed} "
            f"ok={self.ok} shed={self.shed} failed={self.failed} "
            f"unresolved={self.unresolved}",
            f"  integrity counters={self.counter_total} "
            f"increments_ok={self.invoke_ok} "
            + ("(no lost updates)" if self.consistent else "LOST UPDATES"),
            *self.detail_lines(),
            f"  time      {self.duration:.3f}s simulated, "
            f"throughput {self.throughput:.1f} ok-ops/s",
            f"  latency   {stats} (n={lat.get('count', 0)})",
        ]
        for label, pairs in self.tallies():
            if pairs:
                lines.append(
                    f"  {label:<10}" + ", ".join(f"{k}={v}" for k, v in pairs)
                )
        return lines


def make_counter(site: Site, display_name: str, peek: bool = False):
    """A sealed counter object on *site*: ``count`` and
    ``increment([n])``, plus ``peek()`` for directory-served counters."""
    counter = site.create_object(display_name=display_name)
    counter.define_fixed_data("count", 0)
    counter.define_fixed_method(
        "increment",
        "self.set('count', self.get('count') + (args[0] if args else 1))\n"
        "return self.get('count')",
    )
    if peek:
        counter.define_fixed_method("peek", "return self.get('count')")
    counter.seal()
    return counter


class World:
    """Network, serving and client sites, LAN links and admission
    settings, plus the move guard and the increment ledger.

    A subclass sets ``domain`` and ``report_type``, builds its objects
    and ``targets``, and supplies ``client_ops(client)`` (``invoke``,
    ``get_data`` and ``describe``, each a function of a target),
    ``_move_once(rng)``, ``weather()``, ``counter_total()`` and
    ``report_fields()``. A world whose run can end with verdicts pending
    sets ``drain_rounds`` and supplies ``drained()`` and ``settle()``.
    """

    domain = ""
    report_type = ScenarioReport
    drain_rounds = 0

    def __init__(self, config: ScenarioConfig, soak: bool):
        self.config = config
        self.soak = soak
        self.network = Network(Simulator(config.seed))
        self.server_ids = [f"s{i}" for i in range(config.sites)]
        self.servers = {
            name: Site(self.network, name, f"{self.domain}.{name}")
            for name in self.server_ids
        }
        self.clients = [
            Site(self.network, f"c{i}", f"{self.domain}.c{i}")
            for i in range(config.clients)
        ]
        topology = self.network.topology
        for client in self.clients:
            for name in self.server_ids:
                topology.connect(client.site_id, name, *LAN)
        for left in self.server_ids:
            for right in self.server_ids:
                if left < right:
                    topology.connect(left, right, *LAN)
        for site in self.servers.values():
            self.admit(site)
        self.migrations = 0
        self.moves_deferred = 0
        self.invoke_ok = 0
        self._move_inflight = False

    def admit(self, site: Site) -> None:
        """Apply the configured admission window and service time."""
        site.inflight_limit = self.config.inflight_limit
        site.service_delay = self.config.service_delay

    def arm(self, plane: FaultPlane | None) -> FaultPlane | None:
        """Add the world's own schedule to the fault plane (if any)."""
        return plane

    def issue_for(self, client: Site, rng) -> Callable[[], BatchFuture]:
        """The per-client ``issue()`` callback: draw an op and a target,
        fire the op at it (``migrate`` moves instead)."""
        ops = self.client_ops(client)

        def issue() -> BatchFuture:
            op = self.config.profile.pick(rng)
            target = self.targets[rng.randrange(len(self.targets))]
            if op == "migrate":
                return self._move(rng)
            future = ops[op](target)
            if op == "invoke":
                future.when_done(self._count_increment)
            return future

        return issue

    def _count_increment(self, future: BatchFuture) -> None:
        try:
            future.result()
        except MROMError:
            return
        self.invoke_ok += 1

    def _move(self, rng) -> BatchFuture:
        """Run one move; the future settles with ``_move_once``'s
        outcome: the destination, or ``"deferred"``.

        Moves are serialized: ``migrate`` pumps the simulator, so while a
        handoff is stretched out by faults other drivers' events fire
        inside the pump and would otherwise start a second, concurrent
        move racing the two-phase protocol; such a move defers. So does
        a handoff with an ambiguous verdict (typically: the destination
        crashed mid-handshake), which stays pending until the next move
        or the drain settles it. Any other failure defers when the
        world's ``weather()`` blames the environment, else fails the op.
        """
        future = BatchFuture()
        if self._move_inflight:
            future._resolve(self._deferred())
            return future
        self._move_inflight = True
        try:
            future._resolve(self._move_once(rng))
        except TransferUnresolvedError:
            future._resolve(self._deferred())
        except MROMError as exc:
            if self.weather():
                future._resolve(self._deferred())
            else:
                future._fail(exc)
        finally:
            self._move_inflight = False
        return future

    def _deferred(self) -> str:
        self.moves_deferred += 1
        return "deferred"

    def _next_site(self, site_id: str) -> str:
        """The serving site after *site_id*, round the ring of ids."""
        return self.server_ids[
            (self.server_ids.index(site_id) + 1) % len(self.server_ids)
        ]


def soak_plane(network: Network, world: World) -> FaultPlane:
    """The default soak weather: drops, duplicates and jitter on every
    wire, directory RPCs included."""
    plane = FaultPlane(network, seed=world.config.seed,
                       scenario=f"{world.domain}-soak")
    plane.add(DropInjector(rate=0.02))
    plane.add(DuplicateInjector(rate=0.02))
    plane.add(JitterInjector(max_jitter=0.005, rate=0.25))
    return plane


def run_scenario(
    world_type: type[World],
    config: ScenarioConfig,
    soak: bool,
    attach: Callable[[Network, World], FaultPlane] | None = None,
) -> ScenarioReport:
    """Build the world, drive it to quiescence, drain it, report.

    A soak run arms ``SOAK_RETRY`` unless the config brings its own
    policy, and :func:`soak_plane` unless the caller passes its own
    ``attach(network, world)``.
    """
    if soak:
        if config.retry is None:
            config = replace(config, retry=SOAK_RETRY)
        attach = attach or soak_plane
    world = world_type(config, soak)
    # faults attach after the world exists but before traffic starts
    plane = world.arm(attach(world.network, world) if attach else None)
    stats = DriverStats()
    recorder = LatencyRecorder()
    budget = lambda: stats.issued < config.requests  # noqa: E731

    drivers = []
    for index, client in enumerate(world.clients):
        rng = world.network.simulator.derive_rng(f"{world.domain}.client.{index}")
        issue = world.issue_for(client, rng)
        if config.mode == "closed":
            drivers.append(
                ClosedLoopDriver(
                    client, issue, budget, stats, recorder,
                    think_time=config.think_time,
                )
            )
        else:
            drivers.append(
                OpenLoopDriver(
                    client, issue, budget, stats, recorder,
                    rate=config.rate, rng=rng,
                )
            )
    for driver in drivers:
        driver.start()
    world.network.run()
    for _round in range(world.drain_rounds):
        if world.drained():
            break
        world.settle()
        world.network.run()

    duration = world.network.now
    counter_total = world.counter_total()
    # the world's fields may still send (the cluster's convergence
    # probe), so the fault counts are read after them
    extra = world.report_fields()
    report = world.report_type(
        sites=config.sites,
        clients=config.clients,
        requests=config.requests,
        seed=config.seed,
        soak=soak,
        **stats.to_mapping(),
        migrations=world.migrations,
        invoke_ok=world.invoke_ok,
        counter_total=counter_total,
        duration=duration,
        throughput=stats.ok / duration if duration > 0 else 0.0,
        latency=recorder.snapshot(),
        profile=config.profile.to_mapping(),
        faults=dict(plane.counts) if plane is not None else {},
        **extra,
    )
    probe = _probes.ACTIVE
    if probe is not None:
        values = {**report.latency, **vars(report)}
        probe.emit(
            f"{world.domain}.report",
            **{name: values.get(name) for name in report.event_fields},
        )
    return report
