"""Command line: ``run`` measures workloads, ``compare`` judges result sets.

``run --workload NAME`` measures one workload in this interpreter and
prints its metrics, a ``report {...}`` line, and as its last line the
JSON verdict ``{"correct", "attempted", "failed", "metrics"}``. Without
``--workload`` it runs every workload, each in a fresh interpreter, and
prints one table. ``--trace 0`` (the default) reports the end-to-end
metrics from an untraced run; ``--trace 1`` reports the per-layer
metrics of a traced run (``--layers`` runs both passes).

``compare SET [SET ...]`` reads result files written with ``--out-dir``
(a set is a directory of them, or one file) and, for each
(workload, end-to-end metric), prints every set's median and spread,
the change against the first set, and a verdict against the metric's
bound in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from repro.telemetry import Telemetry, enabled

from .clock import ReferenceClock
from .stats import summarize
from .tracer import LAYERS, Tracer
from .workloads import WORKLOADS, Budget, Phase, Workload

__all__ = ["main", "run_workload"]

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
BENCHMARK_JSON = REPO / "BENCHMARK.json"

#: end-to-end metrics: name -> (unit, better)
E2E_METRICS = {
    "setup_s": ("s", "lower"),
    "throughput_ops_s": ("ops/s", "higher"),
    "latency_p50_us": ("us", "lower"),
    "latency_p99_us": ("us", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
}

#: per-layer metrics beyond each layer's self-time share and call count.
#: Times are shares of the traced wall time: a layer a workload bypasses
#: reads exactly 0 on every run, which must not be a time value.
_COUNT_METRICS = {
    "trace.wall_us_per_op": "us",
    "net.marshal.bytes_per_op": "B",
    "net.transport.messages_per_op": "count",
    "sim.kernel.events_per_op": "count",
    "persistence.wal.bytes_per_op": "B",
    "naming.directory.cache_hit_ratio": "ratio",
    "naming.directory.stale_per_op": "count",
    "net.gateway.server_share": "ratio",
    "net.gateway.wait_share": "ratio",
    "trace.attributed_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
    "telemetry.enabled_cost_ratio": "ratio",
}

LAYER_METRICS = {
    **{f"{layer}.self_share": "ratio" for layer in LAYERS},
    **{f"{layer}.calls_per_op": "count" for layer in LAYERS},
    **_COUNT_METRICS,
}

#: set-ups per end-to-end run; the median is reported as setup_s
SETUPS = 5
#: --smoke runs this share of each workload's full op count
SMOKE_SHARE = 100


# ---------------------------------------------------------------------------
# measuring one workload in this interpreter
# ---------------------------------------------------------------------------


def _total_ops(cls: type[Workload], seconds: float | None, smoke: bool) -> int | None:
    """The op count of a run: none when time-boxed, else the full or
    the smoke size."""
    if seconds is not None:
        return None
    return max(cls.ops // SMOKE_SHARE, 20) if smoke else cls.ops


def _measure_segments(workload: Workload, total_ops: int | None, seconds: float | None) -> list[Phase]:
    """Measure in segments of ``workload.segment_ops`` until the op count
    or the time is used up; a segment cut short by the deadline comes last."""
    deadline = Budget.for_seconds(seconds).deadline_ns
    segments: list[Phase] = []
    issued = 0
    while total_ops is None or issued < total_ops:
        size = workload.segment_ops
        if total_ops is not None:
            size = min(size, total_ops - issued)
        phase = workload.run(Budget(size, deadline))
        if phase.stats.issued:
            segments.append(phase)
            issued += phase.stats.issued
        if phase.stats.issued < size:
            break
    return segments


def _e2e_metrics(segments: list[Phase], size: int, setup_s: float, rss_mb: float) -> dict[str, float]:
    """Each timing is the median over the complete segments (over all of
    them when none is complete), so a burst of interference from other
    tenants of the machine moves one segment, not the result."""
    complete = [phase for phase in segments if phase.stats.issued == size] or segments
    return {
        "setup_s": setup_s,
        "throughput_ops_s": statistics.median(
            phase.stats.ok / (phase.ref_ns / 1e9) for phase in complete),
        "latency_p50_us": statistics.median(
            phase.latency.percentile_us(0.50) for phase in complete),
        "latency_p99_us": statistics.median(
            phase.latency.percentile_us(0.99) for phase in complete),
        "peak_rss_mb": rss_mb,
    }


def _cpu_speed(phases: list[Phase]) -> float:
    """Reference time over wall time: 1.0 when the CPU ran at the
    reference speed, 0.5 when the host's other tenants halved it."""
    return sum(phase.ref_ns for phase in phases) / sum(phase.wall_ns for phase in phases)


def _measure_e2e(cls: type[Workload], seed: int, clock: ReferenceClock,
                 total_ops: int | None, seconds: float | None, setups: int) -> dict:
    setup_times = []
    workload: Workload | None = None
    try:
        for _ in range(setups):
            if workload is not None:
                workload.close()
                gc.collect()  # peak RSS must not hold two worlds at once
            workload = cls(seed, clock)
            start = clock.now_ns()
            workload.build()
            setup_times.append((clock.now_ns() - start) / 1e9)
        segments = _measure_segments(workload, total_ops, seconds)
        rss_mb = workload.peak_rss_mb()
        metrics = _e2e_metrics(
            segments, workload.segment_ops, statistics.median(setup_times), rss_mb)
        return {
            "phases": segments,
            "metrics": metrics,
            "setup_times_s": setup_times,
            "failures": workload.gate(),
            "digest": workload.digest(),
        }
    finally:
        if workload is not None:
            workload.close()


def _measure_phase(
    cls: type[Workload],
    seed: int,
    clock: ReferenceClock,
    total_ops: int | None,
    seconds: float | None,
    tracer: Tracer | None = None,
    telemetry: bool = False,
) -> dict:
    """Build a world, measure one phase (traced, or under the telemetry
    plane, or plain), gate it and tear it down."""
    workload = cls(seed, clock)
    workload.tracer = tracer
    try:
        workload.build()
        workload.phase_begin(reset_server_trace=tracer is not None, telemetry=telemetry)
        before = workload.counters()
        plane = enabled(Telemetry()) if telemetry else contextlib.nullcontext()
        traced_wall_ns = 0
        budget = Budget.for_seconds(seconds, total_ops)
        with plane:
            if tracer is None:
                phase = workload.run(budget)
            else:
                tracer.reset()
                start = time.perf_counter_ns()
                with tracer.root():
                    phase = workload.run(budget)
                traced_wall_ns = time.perf_counter_ns() - start
        after = workload.counters()
        return {
            "phase": phase,
            "counts": {key: after[key] - before[key] for key in after},
            "trace": tracer.snapshot() if tracer is not None else None,
            "traced_wall_ns": traced_wall_ns,
            "server": workload.server_report() if tracer is not None else None,
            "failures": workload.gate(),
            "digest": workload.digest(),
        }
    finally:
        workload.close()


def _per_op_ns(phase: Phase) -> float:
    return phase.ref_ns / max(phase.stats.issued, 1)


def _layer_metrics(plain: dict, telemetry: dict, traced: dict) -> dict[str, float]:
    phase = traced["phase"]
    ops = max(phase.stats.issued, 1)
    trace = traced["trace"]
    self_ns = dict(trace["self_ns"])
    calls = dict(trace["calls"])
    encoded = trace["encoded_bytes"]
    server_ns = wait_ns = 0
    server = traced["server"]
    if server is not None:
        # the server's traced time runs inside the client's blocking
        # call: split the client's gateway self time into the server's
        # layers and the wait that remains (loopback, syscalls, wakeups)
        child = server["trace"]
        server_ns = sum(child["self_ns"].values())
        wait_ns = self_ns["net.gateway"] - server_ns
        self_ns["net.gateway"] = wait_ns
        for layer in LAYERS:
            self_ns[layer] += child["self_ns"][layer]
            calls[layer] += child["calls"][layer]
        encoded += child["encoded_bytes"]
    counts = traced["counts"]
    hits, misses = counts.get("cache_hits", 0), counts.get("cache_misses", 0)
    wall_ns = traced["traced_wall_ns"]
    metrics: dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = self_ns[layer] / wall_ns
        metrics[f"{layer}.calls_per_op"] = calls[layer] / ops
    metrics.update({
        "trace.wall_us_per_op": _per_op_ns(phase) / 1e3,
        "net.marshal.bytes_per_op": encoded / ops,
        "net.transport.messages_per_op": counts.get("messages", 0) / ops,
        "sim.kernel.events_per_op": counts.get("events", 0) / ops,
        "persistence.wal.bytes_per_op": counts.get("wal_bytes", 0) / ops,
        "naming.directory.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "naming.directory.stale_per_op": counts.get("stale", 0) / ops,
        "net.gateway.server_share": server_ns / wall_ns,
        "net.gateway.wait_share": wait_ns / wall_ns,
        "trace.attributed_ratio": sum(self_ns.values()) / wall_ns,
        "trace.overhead_ratio": _per_op_ns(phase) / _per_op_ns(plain["phase"]),
        "telemetry.enabled_cost_ratio": (
            _per_op_ns(telemetry["phase"]) / _per_op_ns(plain["phase"])
        ),
    })
    return metrics


def run_workload(
    name: str,
    seed: int,
    seconds: float | None = None,
    smoke: bool = False,
    trace: bool = False,
) -> dict:
    """Measure one workload here and return its report.

    Untraced, the world is set up ``SETUPS`` times (once under
    ``smoke``) and the last one is measured. Traced, three worlds are
    measured in turn for a third of the time each: plain, under the
    telemetry plane, and with the layer tracer installed before the
    world is built. Every time is taken on a :class:`ReferenceClock`.
    """
    cls = WORKLOADS[name]
    total_ops = _total_ops(cls, seconds, smoke)
    with ReferenceClock() as clock:
        if not trace:
            result = _measure_e2e(cls, seed, clock, total_ops, seconds, 1 if smoke else SETUPS)
            phases = result["phases"]
            metrics = result["metrics"]
            units = {key: E2E_METRICS[key][0] for key in metrics}
            failures, digest = result["failures"], result["digest"]
            extra = {"setup_times_s": result["setup_times_s"], "segments": len(phases)}
        else:
            third = None if seconds is None else seconds / 3
            plain = _measure_phase(cls, seed, clock, total_ops, third)
            telemetry = _measure_phase(cls, seed, clock, total_ops, third, telemetry=True)
            with Tracer().installed() as tracer:
                traced = _measure_phase(cls, seed, clock, total_ops, third, tracer=tracer)
            runs = (plain, telemetry, traced)
            phases = [run["phase"] for run in runs]
            metrics = _layer_metrics(plain, telemetry, traced)
            units = {key: LAYER_METRICS[key] for key in metrics}
            failures = [failure for run in runs for failure in run["failures"]]
            digest = plain["digest"]
            extra = {"traced_ops": traced["phase"].stats.issued}
    attempted = sum(phase.stats.issued for phase in phases)
    failed = sum(phase.not_ok for phase in phases)
    errors: dict[str, int] = {}
    for phase in phases:
        for error, count in phase.stats.errors.items():
            errors[error] = errors.get(error, 0) + count
    return {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "smoke": smoke,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted if attempted else 0.0,
        "errors": errors,
        "samples": sum(phase.latency.count for phase in phases),
        "cpu_speed": _cpu_speed(phases),
        "correct": not failures and not failed,
        "gate_failures": failures,
        "digest": digest,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
        **extra,
    }


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------


def _print_single(report: dict) -> None:
    print(
        f"workload {report['workload']} seed {report['seed']} "
        f"({'traced layers' if report['trace'] else 'end to end'}): "
        f"{report['attempted']} ops, {report['failed']} not ok, "
        f"error_rate {report['error_rate']:.6g}, {report['samples']} latency samples, "
        f"CPU at {report['cpu_speed']:.2f} of the reference speed"
    )
    if report["gate_failures"]:
        for failure in report["gate_failures"]:
            print(f"  GATE FAILED: {failure}")
        return
    print(f"  gates ok, digest {report['digest']}")
    metrics = report["metrics"]
    if not report["trace"]:
        for key in E2E_METRICS:
            print(f"  {key:<18} {metrics[key]['value']:>14.4f} {metrics[key]['unit']}")
        return
    _print_layer_table(metrics)


def _print_layer_table(metrics: dict) -> None:
    wall_us = metrics["trace.wall_us_per_op"]["value"]
    print(f"  {'layer':<22}{'self us/op':>12}{'calls/op':>10}{'share':>8}")
    for layer in LAYERS:
        share = metrics[f"{layer}.self_share"]["value"]
        calls = metrics[f"{layer}.calls_per_op"]["value"]
        print(f"  {layer:<22}{share * wall_us:>12.3f}{calls:>10.2f}{share:>8.1%}")
    for key in _COUNT_METRICS:
        print(f"  {key:<40}{metrics[key]['value']:>12.4f} {metrics[key]['unit']}")


def _contract_line(report: dict) -> str:
    metrics = report["metrics"] if report["correct"] else {}
    return json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    })


def _print_table(reports: list[dict]) -> None:
    print(f"{'workload':<14}{'seed':>5}" + "".join(
        f"{f'{key} [{unit}]':>22}" for key, (unit, _better) in E2E_METRICS.items()
    ) + f"{'error_rate':>12}")
    for report in reports:
        cells = "".join(
            f"{report['metrics'][key]['value']:>22.4f}" for key in E2E_METRICS)
        print(f"{report['workload']:<14}{report['seed']:>5}{cells}"
              f"{report['error_rate']:>12.4g}")


# ---------------------------------------------------------------------------
# run: one workload here, or all of them in fresh interpreters
# ---------------------------------------------------------------------------


def _run_child(args: argparse.Namespace, name: str, seed: int, trace: int) -> dict | None:
    command = [sys.executable, str(HERE / "run.py"), "run", "--workload", name,
               "--seed", str(seed), "--trace", str(trace)]
    if args.seconds is not None:
        command += ["--seconds", str(args.seconds)]
    if args.smoke:
        command.append("--smoke")
    completed = subprocess.run(command, capture_output=True, text=True, cwd=REPO, timeout=900)
    for line in completed.stdout.splitlines():
        if line.startswith("report "):
            return json.loads(line[len("report "):])
    sys.stderr.write(completed.stdout + completed.stderr)
    return None


def _pin_to_one_cpu() -> None:
    """Run on one CPU; the gateway's forked server inherits it. The
    scheduler then cannot move the load between CPUs mid-run, and each
    gateway round trip costs two context switches on that CPU rather
    than cross-CPU wake-ups whose latency the host's scheduling decides."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _write(report: dict, out_dir: str) -> None:
    suffix = "-layers" if report["trace"] else ""
    path = Path(out_dir) / f"{report['workload']}-seed{report['seed']}{suffix}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")


def _cmd_run(args: argparse.Namespace) -> int:
    if args.workload:
        _pin_to_one_cpu()
        report = run_workload(args.workload, args.seed, seconds=args.seconds,
                              smoke=args.smoke, trace=bool(args.trace))
        _print_single(report)
        if args.out_dir:
            _write(report, args.out_dir)
        print("report " + json.dumps(report, sort_keys=True))
        print(_contract_line(report))
        return 0 if report["correct"] else 1

    passes = [0, 1] if args.layers else [args.trace]
    status = 0
    e2e: list[dict] = []
    for seed in range(args.seed, args.seed + args.repeat):
        for name in WORKLOADS:
            for trace in passes:
                report = _run_child(args, name, seed, trace)
                if report is None or not report["correct"]:
                    print(f"{name} seed {seed} trace {trace}: FAILED")
                    status = 1
                    continue
                if args.out_dir:
                    _write(report, args.out_dir)
                if trace:
                    print(f"{name} seed {seed}: layer table "
                          f"({report['traced_ops']} traced ops)")
                    _print_layer_table(report["metrics"])
                else:
                    e2e.append(report)
    if e2e:
        _print_table(e2e)
    return status


# ---------------------------------------------------------------------------
# compare: medians, spreads and verdicts across result sets
# ---------------------------------------------------------------------------


def _load_set(path: Path) -> list[dict]:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    reports = []
    for file in files:
        report = json.loads(file.read_text())
        if not report["trace"]:
            reports.append(report)
    return reports


def _verdict(base: list[float], other: list[float], better: str, bound: float) -> dict:
    """Judge *other* against *base* for one (workload, metric).

    ``delta`` is the change of the median as a share of the base median,
    positive when worse. Wider spread than the bound is ``unresolved``
    unless every run of *other* beats every run of *base*; a worsening
    beyond the bound is ``worse``; a gain counts as ``better`` when it
    exceeds the base's own spread and at least nine tenths of the
    (base, other) run pairs favour *other*.
    """
    sign = 1.0 if better == "lower" else -1.0
    a, b = summarize(base), summarize(other)
    delta = sign * (b["median"] - a["median"]) / a["median"]
    wins = sum(1 for x in base for y in other if sign * (y - x) < 0)
    share = wins / (len(base) * len(other))
    if max(a["spread"], b["spread"]) > bound:
        label = "better" if share == 1.0 else "unresolved"
    elif delta > bound:
        label = "worse"
    elif -delta > a["spread"] and share >= 0.9:
        label = "better"
    else:
        label = "unchanged"
    return {"base": a, "other": b, "delta": delta, "wins": share, "verdict": label}


def _cmd_compare(args: argparse.Namespace) -> int:
    spec = json.loads(BENCHMARK_JSON.read_text())
    bounds = {metric["name"]: metric for metric in spec["end_to_end"]}
    sets = [(str(path), _load_set(Path(path))) for path in args.sets]
    for label, reports in sets:
        if not reports:
            print(f"{label}: no end-to-end result files")
            return 2
    worse = False
    workloads = [name for name in WORKLOADS if any(
        report["workload"] == name for _label, reports in sets for report in reports)]
    print(f"baseline: {sets[0][0]}")
    for name in workloads:
        for metric, (unit, better) in E2E_METRICS.items():
            bound = bounds[metric]["bound"]
            values = [
                [report["metrics"][metric]["value"] for report in reports
                 if report["workload"] == name]
                for _label, reports in sets
            ]
            if not all(values):
                continue
            base = summarize(values[0])
            line = (f"{name:<14}{metric:<18}{f'[{unit}]':<9}"
                    f"{base['median']:>14.4f} ±{base['spread']:>6.1%} (n={base['n']})")
            for other in values[1:]:
                result = _verdict(values[0], other, better, bound)
                worse = worse or result["verdict"] == "worse"
                line += (f" | {result['other']['median']:>14.4f} ±{result['other']['spread']:>6.1%}"
                         f" {result['delta']:>+7.1%} of bound {bound:.0%}: {result['verdict']}")
            print(line)
    return 1 if worse else 0


# ---------------------------------------------------------------------------


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="measure workloads")
    run.add_argument("--workload", choices=sorted(WORKLOADS),
                     help="measure one workload in this interpreter")
    run.add_argument("--seed", type=int, default=1)
    size = run.add_mutually_exclusive_group()
    size.add_argument("--seconds", type=float,
                      help="measure for this long (default: each workload's fixed op count)")
    size.add_argument("--smoke", action="store_true",
                      help="1%% of each workload's op count and one set-up")
    run.add_argument("--trace", type=int, choices=(0, 1), default=0,
                     help="1: report per-layer metrics from a traced run")
    run.add_argument("--layers", action="store_true",
                     help="all workloads: run the end-to-end and the traced pass")
    run.add_argument("--repeat", type=int, default=1,
                     help="all workloads: run seeds SEED .. SEED+N-1")
    run.add_argument("--out-dir", help="write each report here as WORKLOAD-seedN.json")
    compare = commands.add_parser("compare", help="judge result sets against the first")
    compare.add_argument("sets", nargs="+", help="a directory of result files, or one file")
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] not in ("run", "compare", "-h", "--help"):
        argv.insert(0, "run")  # the bare form: run.py --workload W --seed N ...
    args = _parser().parse_args(argv)
    if args.command == "compare":
        return _cmd_compare(args)
    if args.layers and args.workload:
        args.trace = 1
    return _cmd_run(args)
