"""PERF-10: the fast-path layer — batched RMI and the cache-off guard.

Two contracts, each enforced as an assertion and recorded in
``BENCH_fastpath.json`` at the repo root:

* **frame reduction** — a 16-call batch must put at least 1.5x fewer
  frames on the wire than 16 individual remote invocations (it actually
  achieves 16x: 32 frames down to 2);
* **off-switch overhead** — with caching disabled the invoker pays one
  attribute read and an identity test per call; that guard, generously
  multiplied, must stay under 3% of a disabled-path invocation.

The speed of compiled invocations over the interpreted path is gated
in PERF-15 (``bench_perf15_compile.py``).
"""

import gc
from pathlib import Path

from repro.core import AccessControlList, MROMObject, Permission, Principal
from repro.net import LAN, Network, Site
from repro.sim import Simulator
from repro.telemetry import Telemetry, enabled
from repro.telemetry.exporters import write_bench_json

from .series import emit, time_per_call

REPO_ROOT = Path(__file__).resolve().parent.parent

#: enforced floors/ceilings (the PR's acceptance criteria)
MIN_FRAME_REDUCTION = 1.5
MAX_DISABLED_OVERHEAD = 0.03

ACL_ENTRIES = 16
BATCH_CALLS = 16
TRIALS = 3

CALLER = Principal("mrom://perf10/caller", "perf10", "caller")


def _best(fn, trials: int = TRIALS) -> float:
    best = float("inf")
    for _ in range(trials):
        gc.collect()
        best = min(best, time_per_call(fn))
    return best


def build_uncached_worker(acl_entries: int = ACL_ENTRIES) -> MROMObject:
    """A worker on the interpreted path; its 16-entry ACL is the modest
    HADAS-style policy, not a strawman."""
    obj = MROMObject(
        guid="mrom:obj:perf10",
        domain="perf10",
        display_name="worker",
        fastpath=False,
    )
    acl = AccessControlList()
    for index in range(acl_entries):
        acl.grant(f"mrom://perf10/member{index}", Permission.INVOKE)
    acl.grant(CALLER.guid, Permission.INVOKE)
    obj.define_fixed_data("count", 0)
    obj.define_fixed_method("work", "return args[0] + 1", acl=acl)
    obj.seal()
    return obj


def _guard_cost() -> float:
    """Seconds per cache-off guard: an attribute read + identity test."""
    n = 100_000
    obj = build_uncached_worker()

    def guarded() -> None:
        for _ in range(n):
            cache = obj._fastpath
            if cache is not None:  # pragma: no cover - off in this loop
                raise AssertionError("cache unexpectedly attached")

    def bare() -> None:
        for _ in range(n):
            pass

    return max((_best(guarded) - _best(bare)) / n, 0.0)


def _remote_world():
    network = Network(Simulator())
    client = Site(network, "client", "perf10.client")
    server = Site(network, "server", "perf10.server")
    network.topology.connect("client", "server", *LAN)
    obj = server.create_object(display_name="remote-worker")
    from repro.core import allow_all

    obj.define_fixed_data("total", 0)
    obj.define_fixed_method(
        "bump",
        "n = self.get('total') + 1\nself.set('total', n)\nreturn n",
        acl=allow_all(),
    )
    obj.seal()
    server.register_object(obj)
    return network, client, server, obj


def test_perf10_fastpath(benchmark):
    # -- the disabled path the guard is measured against ----------------
    uncached = build_uncached_worker()
    cold = lambda: uncached.invoke("work", [1], caller=CALLER)  # noqa: E731
    uncached_time = _best(cold)

    # -- transport-frame reduction for a 16-call batch ------------------
    network, client, server, remote = _remote_world()
    ref = client.ref_to(remote.guid, site="server")
    before = network.messages_sent
    for _ in range(BATCH_CALLS):
        ref.invoke("bump", [], caller=client.principal)
    individual_frames = network.messages_sent - before
    before = network.messages_sent
    batch = client.batch("server")
    futures = [
        batch.invoke(remote.guid, "bump", [], caller=client.principal)
        for _ in range(BATCH_CALLS)
    ]
    batch.flush()
    batched_frames = network.messages_sent - before
    assert [f.result() for f in futures] == list(
        range(BATCH_CALLS + 1, 2 * BATCH_CALLS + 1)
    )
    frame_reduction = individual_frames / batched_frames

    # -- cache-off overhead --------------------------------------------
    guard = _guard_cost()
    # one guard in invoke_primitive; count it four times over to be
    # generous about call-path variants and attribute-cache effects
    guard_share = (4 * guard) / uncached_time

    # -- counters through the MetricsRegistry ---------------------------
    with enabled(Telemetry()) as tel:
        for _ in range(100):
            cold()
        assert tel.metrics.counter_value("invocations") == 100
        assert tel.metrics.counter_value("acl.checks") == 100

    emit(
        "perf10_fastpath",
        "PERF-10: batched RMI + cache-off guard"
        f" (ACL {ACL_ENTRIES} entries, batch of {BATCH_CALLS})",
        ["metric", "value", "floor/ceiling"],
        [
            ("uncached us/call", uncached_time * 1e6, "-"),
            ("frames individual", individual_frames, "-"),
            ("frames batched", batched_frames, "-"),
            ("frame reduction", frame_reduction, f">= {MIN_FRAME_REDUCTION}"),
            ("guard share (x4)", guard_share, f"< {MAX_DISABLED_OVERHEAD}"),
        ],
    )
    write_bench_json(
        REPO_ROOT / "BENCH_fastpath.json",
        tel.metrics,
        name="perf10_fastpath",
        extra={
            "uncached_us_per_call": round(uncached_time * 1e6, 4),
            "individual_frames": individual_frames,
            "batched_frames": batched_frames,
            "frame_reduction": round(frame_reduction, 4),
            "min_frame_reduction": MIN_FRAME_REDUCTION,
            "guard_ns": round(guard * 1e9, 2),
            "disabled_overhead": round(guard_share, 4),
            "max_disabled_overhead": MAX_DISABLED_OVERHEAD,
            "acl_entries": ACL_ENTRIES,
            "batch_calls": BATCH_CALLS,
        },
    )

    assert frame_reduction >= MIN_FRAME_REDUCTION, (
        f"batching reduced frames only {frame_reduction:.2f}x "
        f"(floor {MIN_FRAME_REDUCTION}x)"
    )
    assert guard_share < MAX_DISABLED_OVERHEAD, (
        f"cache-off guard costs {guard_share:.2%} of an invocation "
        f"(ceiling {MAX_DISABLED_OVERHEAD:.0%})"
    )
    benchmark(cold)


def test_perf10_batch_correctness_smoke(benchmark):
    """The batch path under the benchmark harness: results identical to
    sequential invocation, one frame pair per flush."""
    network, client, server, remote = _remote_world()

    def batched_round() -> list:
        batch = client.batch("server")
        futures = [
            batch.invoke(remote.guid, "bump", [], caller=client.principal)
            for _ in range(4)
        ]
        batch.flush()
        return [future.result() for future in futures]

    first = batched_round()
    assert first == sorted(first)
    benchmark(batched_round)
