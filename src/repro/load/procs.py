"""The multi-process cluster driver: real sites, real sockets.

The simulation proves the protocols; this module proves the *deployment
shape*. Each serving site runs as its own OS process — an independent
interpreter with its own simulator, :class:`~repro.net.site.Site`,
:class:`~repro.naming.ClusterManager` shard, and a
:class:`~repro.net.gateway.TcpGateway` on a kernel-assigned localhost
port. Nothing is shared but configuration: every process rebuilds the
identical :class:`~repro.naming.HashRing` from ``(sites, vnodes,
seed)``, which is the whole point of the seeded ring — ownership is
agreed without coordination traffic.

Client processes run thread-per-logical-client over
:class:`~repro.net.gateway.TcpGatewayClient`, speaking the lease
protocol by hand: resolve at the ring owner's shard, invoke at the
leased site with the lease generation, and on a typed
:class:`~repro.core.errors.StaleLeaseError` (rebuilt from the wire by
name) drop the lease and re-resolve. The parent process plays the
rebalancer, migrating placements between live sites mid-run via
``cluster.depart`` / ``cluster.arrive`` / ``dir.update`` — so clients
demonstrably chase moving placements across process boundaries.

Each served invoke sleeps ``service_sleep`` real seconds inside the
gateway's lock (one service lane per site, the single-threaded site
model), so with a dwell a site caps at about ``1/service_sleep`` ops/s
and aggregate throughput counts how many dwells overlap: it grows with
the number of sites whatever the runtime costs. ``service_sleep=0``
(``repro cluster --procs --service-sleep 0``) removes the dwell, and the
rate then measures real work: about 22k ok-ops/s at 4 sites and 20k at
16 on a 2-vCPU VM (``docs/CLUSTER.md``).
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from dataclasses import dataclass

from ..core.errors import MROMError, OverloadError, StaleLeaseError

__all__ = ["ClusterProcsConfig", "run_cluster_procs"]


@dataclass
class ClusterProcsConfig:
    """Knobs for one multi-process run; defaults are the smoke shape."""

    sites: int = 4
    duration: float = 2.0          # seconds of offered load (wall clock)
    keys_per_site: int = 2
    vnodes: int = 64
    seed: int = 0
    service_sleep: float = 0.02    # real seconds per served invoke
    client_procs: int = 2
    threads: int | None = None     # client threads per process (None: sites)
    moves: int | None = None       # mid-run rebalances (None: sites)
    host: str = "127.0.0.1"

    def __post_init__(self) -> None:
        if self.sites < 1 or self.client_procs < 1:
            raise ValueError("sites and client_procs must be positive")
        if self.duration <= 0 or self.service_sleep < 0:
            raise ValueError("duration must be positive; sleep non-negative")
        if self.keys_per_site < 1 or self.vnodes < 1:
            raise ValueError("keys_per_site and vnodes must be positive")
        if self.moves is not None and self.moves < 0:
            raise ValueError("moves cannot be negative")


def _site_names(config: ClusterProcsConfig) -> tuple[list[str], list[str]]:
    site_ids = [f"s{i}" for i in range(config.sites)]
    names = [
        f"apps/k{i}" for i in range(config.sites * config.keys_per_site)
    ]
    return site_ids, names


def _site_main(
    index: int,
    site_ids: list[str],
    names: list[str],
    vnodes: int,
    seed: int,
    service_sleep: float,
    conn,
) -> None:
    """One serving site process: build, publish owned keys, serve until
    the parent says stop."""
    from ..naming import ClusterManager, HashRing
    from ..net import Network, Site, TcpGateway
    from ..sim import Simulator
    from .harness import make_counter

    site_id = site_ids[index]
    network = Network(Simulator(seed + index))
    site = Site(network, site_id, f"cluster.{site_id}")
    ring = HashRing(site_ids, vnodes=vnodes, seed=seed)
    manager = ClusterManager(site, ring)
    manager.service_sleep = service_sleep
    for name in names:
        # initial placement == ring owner, so publish's directory update
        # stays site-local and needs no cross-process traffic
        if ring.owner(name) != site_id:
            continue
        manager.publish(make_counter(site, f"counter@{name}", peek=True), name)
    gateway = TcpGateway(site)
    conn.send(gateway.port)
    conn.recv()  # blocks until the parent closes the run
    gateway.close()


class _Channels:
    """One shared gateway connection per serving site, lock-guarded.

    A per-thread connection per site would mint ``threads x sites``
    sockets (and as many server-side connection threads); since the
    serving site serializes requests anyway, one channel per (client
    process, site) loses no concurrency the cluster actually has."""

    def __init__(self, host: str, ports: dict[str, int]):
        from ..net import TcpGatewayClient

        self._clients = {
            site_id: TcpGatewayClient(host, port, timeout=10.0)
            for site_id, port in ports.items()
        }
        self._locks = {site_id: threading.Lock() for site_id in ports}

    def call(self, site_id: str, kind: str, payload: dict):
        with self._locks[site_id]:
            return self._clients[site_id].call(kind, payload)

    def close(self) -> None:
        for client in self._clients.values():
            try:
                client.close()
            except OSError:  # pragma: no cover - teardown noise
                pass


def _client_thread(
    thread_index: int,
    channels: _Channels,
    ring,
    names: list[str],
    seed: int,
    deadline: float,
    stats: dict,
    lock: threading.Lock,
    leases: dict,
) -> None:
    """One logical client: lease-directed invokes until the deadline.

    ``names`` is this thread's pinned key set, cycled round-robin — a
    balanced closed loop, so measured scaling reflects the cluster's
    capacity rather than the luck of random key draws. ``leases`` is
    the process-wide lease cache — shared across the threads of one
    client process the way one application's tasks share a resolver
    cache; a stale verdict from any thread invalidates the entry for
    all of them."""
    local = {"ok": 0, "stale": 0, "shed": 0, "failed": 0, "resolves": 0}
    at = thread_index % len(names)

    def resolve(name: str) -> dict:
        local["resolves"] += 1
        lease = channels.call(ring.owner(name), "dir.resolve", {"name": name})
        leases[name] = lease
        return lease

    try:
        while time.monotonic() < deadline:
            name = names[at]
            at = (at + 1) % len(names)
            done = False
            for _attempt in range(6):
                try:
                    lease = leases.get(name) or resolve(name)
                    channels.call(
                        lease["site"],
                        "cluster.invoke",
                        {
                            "name": name,
                            "generation": lease["generation"],
                            "method": "increment",
                            "args": [1],
                            "caller": {},
                        },
                    )
                    local["ok"] += 1
                    done = True
                    break
                except StaleLeaseError:
                    # the placement moved: drop the lease, re-resolve
                    local["stale"] += 1
                    leases.pop(name, None)
                    time.sleep(0.001)
                except OverloadError:
                    local["shed"] += 1
                    time.sleep(0.002)
                except (MROMError, OSError):
                    leases.pop(name, None)
                    time.sleep(0.005)
            if not done:
                local["failed"] += 1
    finally:
        with lock:
            for key, value in local.items():
                stats[key] = stats.get(key, 0) + value


def _client_main(
    proc_index: int,
    site_ids: list[str],
    ports: dict[str, int],
    names: list[str],
    vnodes: int,
    seed: int,
    threads: int,
    duration: float,
    out_queue,
) -> None:
    from ..naming import HashRing

    ring = HashRing(site_ids, vnodes=vnodes, seed=seed)
    channels = _Channels("127.0.0.1", ports)
    deadline = time.monotonic() + duration
    stats: dict = {}
    lock = threading.Lock()
    leases: dict = {}
    threads = min(threads, len(names))
    workers = [
        threading.Thread(
            target=_client_thread,
            args=(
                proc_index * 1000 + i, channels, ring, names[i::threads],
                seed, deadline, stats, lock, leases,
            ),
            daemon=True,
        )
        for i in range(threads)
    ]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    channels.close()
    out_queue.put(stats)


def _rebalance(
    gateways: dict,
    ring,
    site_ids: list[str],
    placement: dict[str, str],
    name: str,
) -> None:
    """Parent-mediated move of *name* to the next site: depart at the
    holder, arrive at the destination, then update the ring shard —
    every leg over TCP, every leg generation-guarded."""
    src = placement[name]
    dst = site_ids[(site_ids.index(src) + 1) % len(site_ids)]
    if dst == src:
        return
    departed = gateways[src].call("cluster.depart", {"name": name})
    gateways[dst].call(
        "cluster.arrive",
        {
            "name": name,
            "package": departed["package"],
            "generation": departed["generation"],
            "src": src,
        },
    )
    gateways[ring.owner(name)].call(
        "dir.update",
        {
            "name": name,
            "guid": departed["guid"],
            "site": dst,
            "generation": departed["generation"],
        },
    )
    placement[name] = dst


def run_cluster_procs(config: ClusterProcsConfig | None = None) -> dict:
    """Drive a cluster of real site processes; returns a flat report
    mapping: ok/stale/shed/failed counts, throughput, stale rate, and
    the ``consistent`` and ``single_owner`` verdicts."""
    from ..naming import HashRing
    from ..net import TcpGatewayClient

    config = config or ClusterProcsConfig()
    site_ids, names = _site_names(config)
    ring = HashRing(site_ids, vnodes=config.vnodes, seed=config.seed)
    context = multiprocessing.get_context("fork")

    site_procs = []
    pipes = []
    for index in range(config.sites):
        parent_conn, child_conn = context.Pipe()
        proc = context.Process(
            target=_site_main,
            args=(index, site_ids, names, config.vnodes, config.seed,
                  config.service_sleep, child_conn),
            daemon=True,
        )
        proc.start()
        site_procs.append(proc)
        pipes.append(parent_conn)
    report: dict = {}
    gateways: dict[str, TcpGatewayClient] = {}
    client_procs = []
    try:
        ports = {
            site_ids[index]: pipes[index].recv()
            for index in range(config.sites)
        }
        gateways = {
            site_id: TcpGatewayClient(config.host, port, timeout=10.0)
            for site_id, port in ports.items()
        }
        for site_id in site_ids:
            gateways[site_id].ping()

        out_queue = context.Queue()
        started = time.monotonic()
        thread_total = 0
        for proc_index in range(config.client_procs):
            # each client process drives a disjoint slice of the key
            # space, one pinned thread per key by default: a balanced
            # closed loop that saturates every key-owning site
            subset = names[proc_index::config.client_procs]
            if not subset:
                continue
            threads = (
                config.threads if config.threads is not None else len(subset)
            )
            thread_total += min(threads, len(subset))
            proc = context.Process(
                target=_client_main,
                args=(proc_index, site_ids, ports, subset, config.vnodes,
                      config.seed, threads, config.duration, out_queue),
                daemon=True,
            )
            proc.start()
            client_procs.append(proc)

        # mid-run rebalances: placements move while clients are invoking,
        # so the stale-lease path is exercised across real processes
        moves = config.moves if config.moves is not None else config.sites
        placement = {name: ring.owner(name) for name in names}
        move_gap = config.duration / (moves + 1) if moves else 0.0
        moved = 0
        for index in range(moves):
            time.sleep(move_gap)
            _rebalance(gateways, ring, site_ids, placement,
                       names[index % len(names)])
            moved += 1

        totals: dict = {}
        for _proc in client_procs:
            stats = out_queue.get(timeout=config.duration + 60.0)
            for key, value in stats.items():
                totals[key] = totals.get(key, 0) + value
        elapsed = time.monotonic() - started
        for proc in client_procs:
            proc.join(timeout=30.0)

        site_stats = {
            site_id: gateways[site_id].call("cluster.stats", {})
            for site_id in site_ids
        }
        counter_total = sum(
            sum(stats["counts"].values()) for stats in site_stats.values()
        )
        owners: dict[str, list[str]] = {name: [] for name in names}
        for site_id, stats in site_stats.items():
            for name, entry in stats["placements"].items():
                if entry["state"] == "active":
                    owners[name].append(site_id)
        ok = int(totals.get("ok", 0))
        report = {
            "sites": config.sites,
            "client_procs": len(client_procs),
            "threads": thread_total,
            "keys": len(names),
            "seed": config.seed,
            "duration": round(elapsed, 3),
            "service_sleep": config.service_sleep,
            "moves": moved,
            "ok": ok,
            "stale": int(totals.get("stale", 0)),
            "shed": int(totals.get("shed", 0)),
            "failed": int(totals.get("failed", 0)),
            "resolves": int(totals.get("resolves", 0)),
            "counter_total": counter_total,
            "consistent": counter_total == ok,
            "single_owner": all(
                len(sites) == 1 for sites in owners.values()
            ),
            "stale_served": sum(
                int(stats["stale_served"]) for stats in site_stats.values()
            ),
            "stale_rate": (
                round(totals.get("stale", 0) / ok, 6) if ok else 0.0
            ),
            "throughput": round(ok / elapsed, 2) if elapsed > 0 else 0.0,
        }
        return report
    finally:
        for client in gateways.values():
            try:
                client.close()
            except OSError:  # pragma: no cover
                pass
        for pipe in pipes:
            try:
                pipe.send("stop")
            except OSError:  # pragma: no cover
                pass
        for proc in site_procs + client_procs:
            proc.join(timeout=10.0)
            if proc.is_alive():  # pragma: no cover - hung child
                proc.terminate()
