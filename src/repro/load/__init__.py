"""Workload drivers and load/soak scenarios over the deterministic kernel.

The serving runtime (async RMI + per-site admission windows) is only
credible under load: this package generates it. Two driver shapes —
closed-loop (a fixed population of logical clients, each with one
request outstanding) and open-loop (arrivals at a configured rate that
does *not* slow down when the servers back up, the shape that exposes
overload) — issue mixed protocol operations (invoke / get_data /
describe / migrate) against a multi-site simulated world, record
latencies into fixed buckets, and report interpolated p50/p95/p99
percentiles plus shed/failure accounting. Two worlds share one harness
(:mod:`.harness`: world build, driver loop and drain, report core and
invariant check): the load world (:mod:`.scenario`) adds nomad hops and
crash/WAL recovery, the cluster world (:mod:`.cluster`) a ring, shards
and leases. Their soak variants layer the fault plane (drops,
duplicates, jitter) with retry policies on top.

Everything runs in simulated time on seeded randomness: a load run is a
deterministic program, so a throughput or tail-latency regression is
reproducible by seed.
"""

from .cluster import (
    ClusterConfig,
    ClusterReport,
    run_cluster_scenario,
    run_cluster_soak,
)
from .drivers import ClosedLoopDriver, DriverStats, OpenLoopDriver
from .latency import LOAD_BUCKETS, LatencyRecorder
from .procs import ClusterProcsConfig, run_cluster_procs
from .profile import CLUSTER_PROFILE, DEFAULT_PROFILE, READ_HEAVY, OpProfile
from .scenario import (
    LoadConfig,
    LoadReport,
    run_load_scenario,
    run_soak_scenario,
)

__all__ = [
    "LOAD_BUCKETS",
    "LatencyRecorder",
    "OpProfile",
    "DEFAULT_PROFILE",
    "READ_HEAVY",
    "CLUSTER_PROFILE",
    "DriverStats",
    "ClosedLoopDriver",
    "OpenLoopDriver",
    "LoadConfig",
    "LoadReport",
    "run_load_scenario",
    "run_soak_scenario",
    "ClusterConfig",
    "ClusterReport",
    "run_cluster_scenario",
    "run_cluster_soak",
    "ClusterProcsConfig",
    "run_cluster_procs",
]
