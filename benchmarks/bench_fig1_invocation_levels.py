"""FIG-1 / PERF-2: invocation cost vs meta-invoke tower depth.

The paper implements level 0 as a primitive precisely because a
reflective level "can be implemented in a more efficient way" below the
tower; each additional meta-invoke level should add a roughly constant
increment. This bench regenerates the series: latency at levels 0..4,
plus the marginal per-level cost.
"""

import statistics

import pytest

from repro.core import MROMObject, Principal, allow_all

from .series import emit, time_per_call

OWNER = Principal("mrom://bench/1.1", "bench", "owner")
PASS_THROUGH = "return ctx.proceed()"


def build_tower(levels: int) -> MROMObject:
    obj = MROMObject(display_name=f"tower{levels}", owner=OWNER, extensible_meta=True)
    obj.define_fixed_data("count", 0)
    obj.define_fixed_method("Mfoo", "return args[0] + 1")
    obj.seal()
    for _ in range(levels):
        obj.invoke(
            "addMethod",
            ["invoke", PASS_THROUGH, {"acl": allow_all().describe()}],
            caller=OWNER,
        )
    return obj


@pytest.mark.parametrize("levels", [0, 1, 2, 3, 4])
def test_invocation_at_level(benchmark, levels):
    obj = build_tower(levels)
    result = benchmark(lambda: obj.invoke("Mfoo", [41], caller=OWNER))
    assert result == 42


#: interleaved timing rounds per depth in the FIG-1 series
ROUNDS = 5


def test_fig1_series(benchmark):
    objs = {levels: build_tower(levels) for levels in range(5)}
    # every depth is timed once per round, the order rotating each round,
    # and a depth's cell is the median of its rounds: a VM speed step
    # then lands on every depth, not on one depth's only batch
    samples: dict[int, list[float]] = {levels: [] for levels in objs}
    for round_ in range(ROUNDS):
        for step in range(5):
            levels = (round_ + step) % 5
            obj = objs[levels]
            samples[levels].append(
                time_per_call(lambda o=obj: o.invoke("Mfoo", [1], caller=OWNER))
            )
    times = {levels: statistics.median(cells) for levels, cells in samples.items()}
    rows = []
    for levels in range(5):
        marginal = times[levels] - times[levels - 1] if levels else 0.0
        rows.append(
            (
                levels,
                times[levels] * 1e6,
                marginal * 1e6,
                times[levels] / times[0],
            )
        )
    emit(
        "fig1_invocation_levels",
        "FIG-1 / PERF-2: invocation latency vs meta-invoke tower depth",
        ["levels", "us/call", "marginal_us", "vs_level0"],
        rows,
    )
    # the shape the paper predicts: monotone growth, roughly linear
    assert times[1] > times[0]
    assert times[4] > times[2] > times[0]
    benchmark(lambda: objs[2].invoke("Mfoo", [1], caller=OWNER))


def test_primitive_bypass_is_depth_independent(benchmark):
    deep = build_tower(4)
    via_tower = time_per_call(lambda: deep.invoke("Mfoo", [1], caller=OWNER))
    primitive = time_per_call(
        lambda: deep.invoke_primitive("Mfoo", [1], caller=OWNER)
    )
    assert primitive < via_tower
    benchmark(lambda: deep.invoke_primitive("Mfoo", [1], caller=OWNER))
