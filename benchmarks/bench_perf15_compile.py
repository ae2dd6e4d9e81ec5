"""PERF-15: compiled invocations and the zero-copy migration path.

Three contracts, each enforced as an assertion and recorded in
``BENCH_compile.json`` at the repo root:

* **compiled speedup** — repeated invocation of one method by one
  caller must run at least 6x faster through its compiled closure than
  on the interpreted path (``fastpath=False``): the whole
  Lookup→Match→Apply pipeline collapses into one specialized closure
  whose guard is four loads and compares;
* **zero-copy migration scaling** — unpacking a wire image lazily must
  beat eager unpacking when the receiver touches little of the state,
  and the cost series must grow with the state actually touched;
* **wire identity** — the zero-copy frame encoder must produce bytes
  identical to the eager encoder (same package, same image).

The speedup workload guards the hot method with a 16-entry ACL, so the
Match work the closure pins away is the modest HADAS-style policy, not
a strawman.
"""

import gc
from pathlib import Path

import pytest

from repro.core import AccessControlList, Kind, MROMObject, Permission, Principal
from repro.mobility import pack_bytes, pack_frame, unpack_bytes
from repro.telemetry import Telemetry, enabled
from repro.telemetry.exporters import write_bench_json

from .series import emit, time_per_call

pytestmark = pytest.mark.compile

REPO_ROOT = Path(__file__).resolve().parent.parent

#: enforced floors/ceilings (the PR's acceptance criteria)
MIN_COMPILE_SPEEDUP = 6.0
MIN_LAZY_SPEEDUP = 1.5

ACL_ENTRIES = 16
TRIALS = 3
PACK_ITEMS = 8
PACK_BLOB = b"\xa5" * (4 << 20)  # 4 MiB of bulk state per item

CALLER = Principal("mrom://perf15/caller", "perf15", "caller")
OWNER = Principal("mrom://perf15/owner", "perf15", "owner")


def _best(fn, trials: int = TRIALS) -> float:
    best = float("inf")
    for _ in range(trials):
        gc.collect()
        best = min(best, time_per_call(fn))
    return best


def build_worker(fastpath: bool, acl_entries: int = ACL_ENTRIES) -> MROMObject:
    obj = MROMObject(
        guid="mrom:obj:perf15",
        domain="perf15",
        display_name="worker",
        fastpath=fastpath,
    )
    acl = AccessControlList()
    for index in range(acl_entries):
        acl.grant(f"mrom://perf15/member{index}", Permission.INVOKE)
    acl.grant(CALLER.guid, Permission.INVOKE)
    obj.define_fixed_data("count", 0)
    obj.define_fixed_method("work", "return args[0] + 1", acl=acl)
    obj.seal()
    return obj


def build_heavy_traveller() -> MROMObject:
    """A migration subject whose cost is dominated by bulk data values
    (the shape zero-copy exists for: an object carrying files, images,
    serialized state — wire slices the receiver may never decode)."""
    obj = MROMObject(
        guid="mrom:obj:perf15:traveller",
        domain="perf15",
        display_name="traveller",
        owner=OWNER,
    )
    for index in range(PACK_ITEMS):
        obj.define_fixed_data(f"item{index}", PACK_BLOB, kind=Kind.ANY)
    obj.define_fixed_method("noop", "return None")
    obj.seal()
    return obj


def test_perf15_compile(benchmark):
    # -- compiled-invocation speedup over the interpreted path ----------
    compiled_worker = build_worker(True)
    interpreted_worker = build_worker(False)
    hot = lambda: compiled_worker.invoke("work", [1], caller=CALLER)  # noqa: E731
    cold = lambda: interpreted_worker.invoke("work", [1], caller=CALLER)  # noqa: E731
    hot(), hot()  # the first call compiles, the second is a compiled hit
    assert compiled_worker.fastpath.compiled_hits == 1, (
        "the closure must be serving before it is timed"
    )
    compiled_time = _best(hot)
    interpreted_time = _best(cold)
    speedup = interpreted_time / compiled_time

    # -- counters through the MetricsRegistry -----------------------------
    with enabled(Telemetry()) as tel:
        for _ in range(100):
            hot()
        compiled_hits = tel.metrics.counter_value("fastpath.compiled.hits")
        assert compiled_hits == 100, (
            "a warm compiled pair must serve every repeated invocation"
        )

    # -- zero-copy migration: wire identity and touch scaling -------------
    traveller = build_heavy_traveller()
    wire = pack_bytes(traveller)
    with pack_frame(traveller) as frame:
        assert frame.tobytes() == wire, (
            "zero-copy frame must be byte-identical to the eager image"
        )

    def unpack_eager():
        return unpack_bytes(wire, lazy=False)

    def unpack_touch(count: int):
        def run():
            arrived = unpack_bytes(wire, lazy=True)
            for index in range(count):
                arrived.get_data(f"item{index}", caller=OWNER)
            return arrived

        return run

    eager_time = _best(unpack_eager)
    touch_series = [
        (count, _best(unpack_touch(count)))
        for count in (0, 1, PACK_ITEMS // 2, PACK_ITEMS)
    ]
    untouched_time = touch_series[0][1]
    lazy_speedup = eager_time / untouched_time
    # sanity: a fully-touched lazy object equals the eager one
    full = unpack_touch(PACK_ITEMS)()
    assert full.get_data("item0", caller=OWNER) == PACK_BLOB
    assert full.get_data(f"item{PACK_ITEMS - 1}", caller=OWNER) == PACK_BLOB

    emit(
        "perf15_compile",
        "PERF-15: compiled invocations + zero-copy migration"
        f" (ACL {ACL_ENTRIES} entries, package of {PACK_ITEMS}x"
        f"{len(PACK_BLOB) >> 20}MiB items)",
        ["metric", "value", "floor/ceiling"],
        [
            ("compiled us/call", compiled_time * 1e6, "-"),
            ("interpreted us/call", interpreted_time * 1e6, "-"),
            ("compile speedup", speedup, f">= {MIN_COMPILE_SPEEDUP}"),
            ("eager unpack us", eager_time * 1e6, "-"),
        ]
        + [
            (f"lazy unpack touch {count} us", seconds * 1e6, "-")
            for count, seconds in touch_series
        ]
        + [
            ("lazy speedup (untouched)", lazy_speedup, f">= {MIN_LAZY_SPEEDUP}"),
        ],
    )
    write_bench_json(
        REPO_ROOT / "BENCH_compile.json",
        tel.metrics,
        name="perf15_compile",
        extra={
            "compiled_us_per_call": round(compiled_time * 1e6, 4),
            "interpreted_us_per_call": round(interpreted_time * 1e6, 4),
            "compile_speedup": round(speedup, 4),
            "min_compile_speedup": MIN_COMPILE_SPEEDUP,
            "eager_unpack_us": round(eager_time * 1e6, 4),
            "lazy_unpack_us_by_touched": {
                str(count): round(seconds * 1e6, 4)
                for count, seconds in touch_series
            },
            "lazy_speedup_untouched": round(lazy_speedup, 4),
            "min_lazy_speedup": MIN_LAZY_SPEEDUP,
            "acl_entries": ACL_ENTRIES,
            "pack_items": PACK_ITEMS,
        },
    )

    assert speedup >= MIN_COMPILE_SPEEDUP, (
        f"compiled invocations sped up only {speedup:.2f}x over the "
        f"interpreted path (floor {MIN_COMPILE_SPEEDUP}x)"
    )
    assert lazy_speedup >= MIN_LAZY_SPEEDUP, (
        f"untouched lazy unpack only {lazy_speedup:.2f}x faster than eager "
        f"(floor {MIN_LAZY_SPEEDUP}x)"
    )
    benchmark(hot)


def test_perf15_compile_correctness_smoke(benchmark):
    """The compiled closure under the benchmark harness: results and
    record streams identical to the interpreted path."""
    compiled_worker = build_worker(True)
    interpreted = MROMObject(
        guid="mrom:obj:perf15", domain="perf15", display_name="worker",
        fastpath=False,
    )
    acl = AccessControlList().grant(CALLER.guid, Permission.INVOKE)
    interpreted.define_fixed_data("count", 0)
    interpreted.define_fixed_method("work", "return args[0] + 1", acl=acl)
    interpreted.seal()
    for obj in (compiled_worker, interpreted):
        obj.enable_tracing(True)
        for n in range(5):
            assert obj.invoke("work", [n], caller=CALLER) == n + 1

    def stream(obj):
        return [
            (event.level, event.phase.value, event.method, event.note)
            for record in obj.invocation_records()
            for event in record.events
        ]

    assert stream(compiled_worker) == stream(interpreted)
    assert compiled_worker.fastpath.compiled_hits >= 3
    benchmark(lambda: compiled_worker.invoke("work", [1], caller=CALLER))
