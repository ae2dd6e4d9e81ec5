"""Smoke test of the end-to-end benchmark: every workload at 1% size,
untraced and traced, in this interpreter.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e/test_smoke.py``
(it sits outside the tier-1 ``testpaths``). It checks that every metric
``BENCHMARK.json`` names is emitted with its unit, that the layer self
times add up to the traced wall time, that each layer reads zero on the
workloads that bypass it and non-zero on those it is mapped to, and
that a seed fixes the op sequence.
"""

from __future__ import annotations

import json
import signal
import time

import pytest

from benchmarks.e2e.cli import BENCHMARK_JSON, run_workload
from benchmarks.e2e.clock import ReferenceClock
from benchmarks.e2e.tracer import LAYERS
from benchmarks.e2e.workloads import WORKLOADS

SPEC = json.loads(BENCHMARK_JSON.read_text())

_NETWORK = ("net.marshal", "net.site", "net.transport", "sim.kernel", "net.rmi")
_JOURNAL = ("persistence.journal", "persistence.wal")
_MOBILITY = ("mobility.package", "mobility.transfer")
_NAMING = ("naming.directory", "naming.ring")

#: the layer -> workload map of the README: layers that must do work
#: on a workload, and layers the workload must bypass entirely
MUST_WORK = {
    "invoke_local": ("core.invocation",),
    "rmi_sim": ("core.invocation",) + _NETWORK,
    "durable_sim": _NETWORK + _JOURNAL,
    "migrate_sim": ("core.invocation",) + _MOBILITY,
    "cluster_sim": _NETWORK + _NAMING,
    "gateway_tcp": ("core.invocation", "net.gateway"),
}
MUST_BYPASS = {
    "invoke_local": _NETWORK + _JOURNAL + _MOBILITY + _NAMING + ("net.gateway",),
    "rmi_sim": _JOURNAL + _MOBILITY + _NAMING + ("net.gateway",),
    "durable_sim": _NAMING + ("mobility.transfer", "net.gateway"),
    "migrate_sim": _JOURNAL + _NAMING + ("net.gateway",),
    "cluster_sim": _JOURNAL + ("net.gateway",),
    "gateway_tcp": ("net.transport", "sim.kernel", "net.rmi") + _JOURNAL + _MOBILITY + _NAMING,
}

_reports: dict[tuple[str, int, bool], dict] = {}


def report(name: str, seed: int = 1, trace: bool = False) -> dict:
    key = (name, seed, trace)
    if key not in _reports:
        _reports[key] = run_workload(name, seed, smoke=True, trace=trace)
    return _reports[key]


def test_reference_clock_probes_and_restores_the_alarm():
    before = signal.getsignal(signal.SIGALRM)
    with ReferenceClock() as clock:
        start = clock.now_ns()
        deadline = time.perf_counter() + 0.05
        while time.perf_counter() < deadline:
            pass
        assert clock.probes > 3 and clock.scale > 0
        assert clock.now_ns() > start
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert set(MUST_WORK) == set(WORKLOADS) == set(MUST_BYPASS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_end_to_end_metrics_emitted_with_units(name):
    result = report(name)
    assert result["correct"], result["gate_failures"]
    assert result["error_rate"] == 0
    for metric in SPEC["end_to_end"]:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert emitted["value"] > 0


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_layer_metrics_emitted_and_attributed(name):
    result = report(name, trace=True)
    assert result["correct"], result["gate_failures"]
    metrics = result["metrics"]
    for metric in SPEC["per_layer"]:
        assert metrics[metric["name"]]["unit"] == metric["unit"]
    # self times, the driver root included, add up to the traced wall
    assert 0.95 <= metrics["trace.attributed_ratio"]["value"] <= 1.05
    assert set(MUST_WORK[name]) | set(MUST_BYPASS[name]) <= set(LAYERS)
    for layer in MUST_WORK[name]:
        assert metrics[f"{layer}.self_share"]["value"] > 0, layer
        assert metrics[f"{layer}.calls_per_op"]["value"] > 0, layer
    for layer in MUST_BYPASS[name]:
        assert metrics[f"{layer}.self_share"]["value"] == 0, layer
        assert metrics[f"{layer}.calls_per_op"]["value"] == 0, layer


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_seed_fixes_the_op_sequence(name):
    # the traced run's plain phase issues the same ops from a fresh world
    assert report(name)["digest"] == report(name, trace=True)["digest"]
    assert report(name)["digest"] != report(name, seed=2)["digest"]
