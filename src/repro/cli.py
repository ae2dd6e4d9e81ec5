"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``run SCRIPT.mpl`` — execute an MPL program and print its output;
* ``check SCRIPT.mpl`` — parse and compile without executing (the
  verification a host performs before admitting MPL-borne code);
* ``inspect PACKAGE.mrom`` — describe a packed object file without
  executing any of its code (safe interrogation of an artifact at rest);
* ``lint PATH... [--object PACKAGE.mrom] [--strict] [--json]
  [--baseline FILE.json]`` — static analysis: MPL lint over files/trees
  plus migration admission analysis over packed objects (see
  ``docs/ANALYSIS.md``);
* ``analyze PATH... [--races] [--deadlocks] [--migration] [--strict]
  [--json] [--baseline FILE.json]`` / ``analyze --sanitize-smoke
  [--seed N] [--requests N]`` — interprocedural analysis: cross-object
  call graph, race detection (``race.*``), wait-cycle and recursion
  detection (``cycle.*``) and migration-safety dataflow
  (``migration.*``) over MPL programs and host scenario scripts;
  ``--sanitize-smoke`` runs a happens-before-sanitized soak and fails
  unless every dynamically observed race/cycle matches a static
  diagnostic (see ``docs/ANALYSIS.md``);
* ``store list / show / verify`` — inspect a persistence store;
* ``chaos --seed N`` — run the deterministic fault-injection scenario
  (see ``docs/FAULTS.md``); identical seeds print identical reports.
* ``trace --seed N [--tree] [--json FILE|-] [--metrics FILE|-]
  [--smoke]`` — run the traced acceptance scenario with the telemetry
  plane on and export what it captured (see ``docs/TELEMETRY.md``);
  ``--smoke`` validates the export against the span schema and the
  cross-wire trace invariants, exiting non-zero on any violation.
* ``load [--mode closed|open] [--sites N] [--clients N] [--requests N]
  [--rate R] [--window N] [--service-delay S] [--mix SPEC] [--soak]
  [--durable] [--backend memory|file|sqlite] [--wal-root DIR]
  [--crash-cycles N] [--seed N] [--json] [--smoke]`` — drive a mixed
  workload through a multi-site world and report throughput,
  shed/failure accounting and p50/p95/p99 latencies (see
  ``docs/LOAD.md``); ``--durable`` journals every site to a
  write-ahead log and ``--crash-cycles`` kills and WAL-recovers whole
  sites mid-run; ``--smoke`` runs the acceptance pair (sustain +
  overload) and exits non-zero on any violated invariant.
* ``cluster [--sites N] [--clients N] [--requests N] [--keys N]
  [--vnodes N] [--service-delay S] [--seed N] [--soak] [--json]
  [--smoke]`` / ``cluster --procs [--sites N] [--duration S]
  [--service-sleep S] [--client-procs N] [--moves N] [--json]`` —
  drive the sharded multi-site cluster (consistent-hash ring +
  partitioned naming directory with client-cached leases, see
  ``docs/CLUSTER.md``); the default mode runs the deterministic
  simulated scenario (``--soak`` layers the fault plane), ``--procs``
  launches one real OS process per site and drives them over TCP
  gateways, and ``--smoke`` runs the acceptance pair (clean sustain +
  faulty soak) and exits non-zero on any violated invariant.
* ``recover --selftest [--seed N]`` / ``recover --root DIR
  [--backend file|sqlite] [--json]`` — durability tooling (see
  ``docs/DURABILITY.md``): ``--selftest`` runs the seeded
  crash-recovery acceptance soak (repeated site kill/restart under
  faulty load; exactly-once ownership, zero lost replies, zero lost
  updates) and exits non-zero on any violation; offline mode opens
  every write-ahead log under DIR, replays it through recovery, and
  reports what a restart would reinstate, exiting non-zero if any
  log shows unrepaired damage.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .core.errors import MROMError
from .core.introspection import describe
from .core.mobject import is_bundled_meta
from .lang import Interpreter, parse
from .lang.compiler import compile_object_methods
from .mobility.package import unpack_bytes
from .persistence import ObjectStore

__all__ = ["main"]


def _cmd_run(args: argparse.Namespace) -> int:
    source = Path(args.script).read_text(encoding="utf-8")
    result = Interpreter().run(source)
    for line in result.output:
        print(line)
    if args.show_value and result.value is not None:
        print(f"=> {result.value!r}")
    return 0


def _cmd_repl(args: argparse.Namespace) -> int:
    from .lang.interp import MplSession

    session = MplSession()
    stream = sys.stdin
    interactive = stream.isatty()
    if interactive:
        print("MPL session — a blank line at depth 0 quits; braces continue.")
    buffer: list[str] = []
    depth = 0
    while True:
        if interactive:
            print("...> " if buffer else "mpl> ", end="", flush=True)
        line = stream.readline()
        if not line:
            return 0
        if not line.strip() and not buffer:
            return 0
        buffer.append(line)
        depth += line.count("{") - line.count("}")
        if depth > 0:
            continue  # inside a declaration/block: keep reading
        depth = 0
        fragment, buffer = "".join(buffer), []
        try:
            value, output = session.feed(fragment)
        except MROMError as exc:
            print(f"error: {type(exc).__name__}: {exc}")
            continue
        for emitted in output:
            print(emitted)
        if value is not None and not output:
            print(f"=> {value!r}")


def _cmd_check(args: argparse.Namespace) -> int:
    source = Path(args.script).read_text(encoding="utf-8")
    program = parse(source)
    compiled_methods = 0
    for decl in program.objects:
        compiled_methods += len(compile_object_methods(decl))
    print(
        f"ok: {len(program.objects)} object(s), {compiled_methods} method(s), "
        f"{len(program.statements)} top-level statement(s)"
    )
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    wire = Path(args.package).read_bytes()
    obj = unpack_bytes(wire)  # verification only; no guest code runs
    description = describe(obj, viewer=obj.principal)
    print(f"guid:          {description.guid}")
    print(f"display name:  {description.display_name or '(none)'}")
    print(f"domain:        {description.domain or '(none)'}")
    print(f"owner:         {obj.owner.guid}")
    print(f"meta:          {'extensible' if description.extensible_meta else 'fixed'}")
    print(f"tower depth:   {description.tower_depth}")
    counts = description.counts
    print(
        "items:         "
        f"{counts['fixed_data']}+{counts['extensible_data']} data, "
        f"{counts['fixed_methods']}+{counts['extensible_methods']} methods "
        "(fixed+extensible)"
    )
    bundled = {
        method.name
        for method in (*obj.containers.fixed_methods, *obj.containers.ext_methods)
        if is_bundled_meta(method)
    }
    for item in description.items:
        if item.category == "method" and item.name in bundled:
            continue
        marker = "M" if item.category == "method" else "D"
        wrappers = "".join(
            flag for flag, present in (("p", item.has_pre), ("q", item.has_post)) if present
        )
        suffix = f" [{wrappers}]" if wrappers else ""
        print(f"  {marker} {item.section:<10} {item.name}{suffix}")
    return 0


def _apply_baseline(findings: list, baseline_path: str) -> tuple:
    """Shared ``--baseline`` semantics for lint and analyze.

    Returns ``(findings, notes)``: when the baseline file is missing the
    current findings are recorded as accepted debt and the run passes
    clean; when it exists, recorded findings are subtracted and only the
    new ones remain to gate on.
    """
    from .analysis.baseline import load_baseline, suppress, write_baseline

    known = load_baseline(baseline_path)
    if known is None:
        count = write_baseline(baseline_path, findings)
        return [], [f"baseline: recorded {count} finding(s) to {baseline_path}"]
    new, suppressed = suppress(findings, known)
    notes = []
    if suppressed:
        notes.append(
            f"baseline: suppressed {len(suppressed)} known finding(s)"
        )
    return new, notes


def _report_findings(findings: list, notes: list, args: argparse.Namespace) -> int:
    from .analysis import fails, render_json, render_text

    if args.json:
        print(render_json(findings))
    else:
        for line in render_text(findings):
            print(line)
        for note in notes:
            print(note)
        if not findings:
            print("clean: no findings")
    return 1 if fails(findings, strict=args.strict) else 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from .analysis import dedupe
    from .analysis.sources import lint_paths

    findings = []
    if args.object:
        from .analysis.admission import analyze_package
        from .net.marshal import unmarshal

        for package_path in args.object:
            findings.extend(
                analyze_package(unmarshal(Path(package_path).read_bytes()))
            )
    missing = [path for path in args.paths if not Path(path).exists()]
    if missing:
        for path in missing:
            print(f"error: no such path: {path}", file=sys.stderr)
        return 2
    findings.extend(lint_paths(args.paths))
    findings = dedupe(findings)
    notes: list = []
    if args.baseline:
        findings, notes = _apply_baseline(findings, args.baseline)
    return _report_findings(findings, notes, args)


def _cmd_analyze(args: argparse.Namespace) -> int:
    if args.sanitize_smoke:
        return _sanitize_smoke(args)
    from .analysis.interproc import analyze_paths

    missing = [path for path in args.paths if not Path(path).exists()]
    if missing:
        for path in missing:
            print(f"error: no such path: {path}", file=sys.stderr)
        return 2
    if not args.paths:
        print("error: no paths given (and --sanitize-smoke not set)",
              file=sys.stderr)
        return 2
    all_passes = not (args.races or args.deadlocks or args.migration)
    findings = analyze_paths(
        args.paths,
        check_races=all_passes or args.races,
        check_deadlocks=all_passes or args.deadlocks,
        check_migration=all_passes or args.migration,
    )
    notes: list = []
    if args.baseline:
        findings, notes = _apply_baseline(findings, args.baseline)
    return _report_findings(findings, notes, args)


def _sanitize_smoke(args: argparse.Namespace) -> int:
    """Run a sanitizer-instrumented soak and cross-check its verdicts.

    The acceptance bar is differential: the run must observe at least
    one dynamic race (the workload's read-modify-write counters make
    that non-vacuous), and every race/cycle the sanitizer saw must be
    matched by a static diagnostic from the same effect summaries.
    """
    from .analysis import sanitizer as hb
    from .load.scenario import LoadConfig, run_soak_scenario

    san = hb.enable()
    try:
        report = run_soak_scenario(
            LoadConfig(
                sites=3,
                clients=3,
                requests=args.requests,
                mode="closed",
                seed=args.seed,
            )
        )
    finally:
        hb.disable()
    verdict = san.crosscheck()
    print(
        f"sanitize-smoke: tasks={verdict['tasks']} "
        f"accesses={verdict['accesses']} sends={verdict['sends']} "
        f"syncs={verdict['syncs']}"
    )
    print(
        f"sanitize-smoke: observed {verdict['observed_races']} race(s), "
        f"{verdict['observed_cycles']} cycle(s); "
        f"{verdict['static_findings']} static finding(s)"
    )
    failures = []
    if report.unresolved:
        failures.append(f"{report.unresolved} unresolved request(s)")
    if not verdict["observed_races"]:
        failures.append("vacuous run: no dynamic races observed")
    for race in verdict["unmatched_races"]:
        failures.append(f"unreported race: {race}")
    for cycle in verdict["unmatched_cycles"]:
        failures.append(f"unreported wait cycle: {cycle}")
    for failure in failures:
        print(f"sanitize-smoke: FAIL: {failure}")
    if not failures:
        print(
            "sanitize-smoke: OK — every observed hazard matched a "
            "static diagnostic"
        )
    return 1 if failures else 0


def _cmd_store(args: argparse.Namespace) -> int:
    store = ObjectStore(args.root)
    if args.store_command == "list":
        guids = store.guids()
        if not guids:
            print("(empty store)")
            return 0
        for guid in guids:
            versions = store.versions(guid)
            print(f"{guid}  versions: {versions}")
        return 0
    if args.store_command == "show":
        obj = store.load(args.guid, version=args.version)
        print(f"{obj.guid} ({obj.principal.display_name or 'unnamed'})")
        for item, category, section in obj.containers.iter_with_sections():
            if category == "method" and is_bundled_meta(item):
                continue
            print(f"  {section:<10} {item.category:<6} {item.name}")
        return 0
    if args.store_command == "verify":
        clean = True
        for guid in store.guids():
            try:
                store.load(guid)
                print(f"ok      {guid}")
            except MROMError as exc:
                clean = False
                print(f"CORRUPT {guid}: {exc}")
        return 0 if clean else 1
    raise AssertionError(f"unhandled store command {args.store_command!r}")


def _cmd_chaos(args: argparse.Namespace) -> int:
    from .faults import run_chaos_scenario

    report = run_chaos_scenario(
        seed=args.seed,
        n_sites=args.sites,
        passes=args.passes,
        drop=args.drop,
        dup=args.dup,
        reorder=args.reorder,
        jitter=args.jitter,
        flap=args.flap,
        crash=args.crash,
    )
    for line in report.to_lines():
        print(line)
    return 0 if report.ok else 1


def _emit_text(destination: str, text: str) -> None:
    if destination == "-":
        print(text, end="" if text.endswith("\n") else "\n")
    else:
        Path(destination).write_text(text, encoding="utf-8")


def _trace_smoke(report, spans) -> list[str]:
    """The acceptance invariants; returns human-readable violations."""
    from .telemetry.exporters import span_lines
    from .telemetry.schema import validate_span_lines

    problems = list(validate_span_lines("\n".join(span_lines(spans))))
    trace = [s for s in spans if s.trace_id == report.trace_id]
    names = {s.name for s in trace}
    for needed in ("rmi.invoke", "serve.invoke", "transfer.handoff",
                   "transfer.install", "serve.transfer.prepare"):
        if needed not in names:
            problems.append(f"trace {report.trace_id} has no {needed!r} span")
    handoffs = [s for s in trace if s.name == "transfer.handoff"]
    phase_events = {e.name for s in handoffs for e in s.events}
    for phase in ("PREPARE", "COMMIT"):
        if phase not in phase_events:
            problems.append(f"no {phase} phase event on the handoff span")
    fault_events = [
        e for s in trace for e in s.events if e.name == "fault"
    ]
    if not fault_events:
        problems.append("no injected fault is visible as a span event")
    for event in fault_events:
        if "scenario" not in event.attrs or "seq" not in event.attrs:
            problems.append("a fault event lacks scenario/seq attribution")
    span_ids = {s.span_id for s in spans}
    orphans = [
        s.span_id for s in spans
        if s.parent_id is not None and s.parent_id not in span_ids
    ]
    if orphans:
        problems.append(f"orphaned spans (missing parents): {orphans}")
    if report.telemetry.open_spans:
        problems.append(f"{report.telemetry.open_spans} spans left open")
    counters = report.telemetry.metrics
    for name in ("rmi.retries", "rmi.dedup_hits", "faults.injected",
                 "migrations", "invocations"):
        if counters.counter_value(name) < 1:
            problems.append(f"metric {name!r} never incremented")
    if report.final_count != 41:
        problems.append(f"workload answer drifted: {report.final_count!r}")
    return problems


def _cmd_trace(args: argparse.Namespace) -> int:
    import json

    from .telemetry.exporters import (
        metrics_snapshot,
        render_tree,
        span_lines,
    )
    from .telemetry.scenario import run_traced_scenario

    report = run_traced_scenario(seed=args.seed)
    spans = list(report.telemetry.recorder)
    exported = False
    if args.json:
        _emit_text(args.json, "\n".join(span_lines(spans)) + "\n")
        exported = True
    if args.metrics:
        snapshot = metrics_snapshot(
            report.telemetry.metrics,
            name="trace-scenario",
            extra={"seed": args.seed, "trace_id": report.trace_id},
        )
        _emit_text(args.metrics, json.dumps(snapshot, indent=2, sort_keys=True) + "\n")
        exported = True
    if args.smoke:
        problems = _trace_smoke(report, spans)
        summary = report.summary()
        print(f"trace seed {args.seed}: "
              f"{'OK' if not problems else 'VIOLATED'}")
        print(f"trace id:     {summary['trace_id']}")
        print(f"spans:        {summary['spans_in_trace']} in trace, "
              f"{len(spans)} total")
        print(f"span names:   {' '.join(summary['span_names'])}")
        for label in sorted(report.faults):
            print(f"fault {label:<12} {report.faults[label]}")
        for problem in problems:
            print(f"VIOLATION: {problem}")
        return 1 if problems else 0
    if args.tree or not exported:
        for line in render_tree(spans):
            print(line)
    return 0


def _load_config(args) -> "object":
    from .load import LoadConfig, OpProfile
    from .net import RetryPolicy

    profile = OpProfile.parse(args.mix) if args.mix else None
    retry = RetryPolicy() if args.retry else None
    kwargs = dict(
        sites=args.sites, clients=args.clients, requests=args.requests,
        mode=args.mode, rate=args.rate, think_time=args.think_time,
        seed=args.seed, inflight_limit=args.window,
        service_delay=args.service_delay, retry=retry,
        durable=args.durable or bool(args.crash_cycles),
        backend=args.backend, wal_root=args.wal_root,
        crash_cycles=args.crash_cycles,
    )
    if profile is not None:
        kwargs["profile"] = profile
    return LoadConfig(**kwargs)


#: sustain-pass floors for ``load --smoke`` (simulated time, seeded)
LOAD_SMOKE_MIN_THROUGHPUT = 500.0   # ok-ops per simulated second
LOAD_SMOKE_MAX_P99 = 0.050          # seconds (LAN world, no faults)
#: ceiling on any one in-soak recovery for ``recover --selftest``
SELFTEST_MAX_RECOVERY_SECONDS = 1.0  # wall clock
#: the only terminal failure a cluster soak admits: a typed stale lease
#: whose redirect budget ran out (never an untyped error)
CLUSTER_SOAK_FAILURES = ("StaleLeaseError",)


def _problems(report, label: str, admissible=None) -> list[str]:
    """The closed-form invariants of a load or cluster report (see
    ``violations()``), plus a failure policy: when ``admissible`` is
    given, a terminal failure of any other type is a violation too."""
    problems = [f"{label}: {text}" for text in report.violations().values()]
    if admissible is not None:
        other = report.failed - sum(report.errors.get(name, 0) for name in admissible)
        if other:
            problems.append(
                f"{label}: {other} request(s) failed terminally ({report.errors})"
            )
    return problems


def _print_report(report, as_json: bool = False) -> None:
    import json

    if as_json:
        print(json.dumps(report.to_mapping(), indent=2, sort_keys=True))
    else:
        print("\n".join(report.to_lines()))


def _smoke_pass(label: str, report, admissible=()) -> list[str]:
    """Print one pass of a smoke pair; return its violations."""
    print(f"--- {label} pass ---")
    _print_report(report)
    return _problems(report, label, admissible)


def _verdict(title: str, problems: list[str]) -> int:
    print(f"{title}: {'OK' if not problems else 'VIOLATED'}")
    for problem in problems:
        print(f"VIOLATION: {problem}")
    return 1 if problems else 0


def _load_smoke(args) -> int:
    """The acceptance pair: a sustain pass (every request settles, no
    lost updates, populated percentiles, simulated throughput and p99
    within their floors) and an overload pass (the admission window
    below offered load sheds structured OverloadErrors while every
    non-shed request completes)."""
    from .load import LoadConfig, OpProfile, run_load_scenario

    config = LoadConfig(
        sites=max(4, args.sites), clients=max(4, args.clients),
        requests=max(10_000, args.requests), mode="closed", seed=args.seed,
    )
    sustain = run_load_scenario(config)
    problems = _smoke_pass("sustain", sustain)
    if sustain.shed:
        problems.append(f"sustain: unconstrained run shed {sustain.shed} request(s)")
    if sustain.latency.get("count", 0) < sustain.ok:
        problems.append("sustain: latency histogram missed samples")
    if not all(sustain.latency.get(p, 0) > 0 for p in ("p50", "p95", "p99")):
        problems.append("sustain: percentiles not populated")
    if sustain.migrations < 1:
        problems.append("sustain: no migration happened under load")
    if sustain.throughput < LOAD_SMOKE_MIN_THROUGHPUT:
        problems.append(
            f"sustain: {sustain.throughput:.1f} ok-ops/s simulated "
            f"(floor {LOAD_SMOKE_MIN_THROUGHPUT:.0f})"
        )
    if sustain.latency.get("p99", 0) > LOAD_SMOKE_MAX_P99:
        problems.append(
            f"sustain: p99 {sustain.latency['p99'] * 1e3:.2f}ms "
            f"(ceiling {LOAD_SMOKE_MAX_P99 * 1e3:.0f}ms)"
        )

    overload = run_load_scenario(replace(
        config, requests=max(2_000, args.requests // 5), mode="open",
        rate=2_000.0, inflight_limit=2, service_delay=0.002,
        profile=OpProfile(invoke=1.0, get_data=0, describe=0, migrate=0),
    ))
    problems += _smoke_pass("overload", overload)
    if not overload.shed:
        problems.append("overload: window below offered load never shed")
    return _verdict("load smoke", problems)


def _cmd_load(args: argparse.Namespace) -> int:
    from .load import run_load_scenario, run_soak_scenario

    if args.smoke:
        return _load_smoke(args)
    runner = run_soak_scenario if args.soak else run_load_scenario
    report = runner(_load_config(args))
    _print_report(report, args.json)
    return 1 if _problems(report, "load") else 0


def _cluster_smoke(args) -> int:
    """The acceptance pair: a clean sustain pass (every request settles,
    stale redirects converge, one live owner per name) and a faulty soak
    (drops/dups/jitter on every wire; the only admissible terminal
    failure is a typed stale lease whose redirect budget ran out)."""
    from .load import ClusterConfig, run_cluster_scenario, run_cluster_soak

    config = ClusterConfig(
        sites=max(4, args.sites), clients=max(8, args.clients),
        requests=max(1_200, args.requests), seed=args.seed,
        service_delay=0.002,
    )
    sustain = run_cluster_scenario(config)
    problems = _smoke_pass("sustain", sustain)
    if sustain.stale_client < 1:
        problems.append("sustain: no stale-lease redirect was exercised")
    if sustain.migrations < 1:
        problems.append("sustain: no ring-mediated migration happened")

    soak = run_cluster_soak(replace(config, requests=max(800, args.requests // 2)))
    problems += _smoke_pass("soak", soak, CLUSTER_SOAK_FAILURES)
    return _verdict("cluster smoke", problems)


def _cluster_procs(args) -> int:
    import json

    from .load import ClusterProcsConfig, run_cluster_procs

    report = run_cluster_procs(ClusterProcsConfig(
        sites=args.sites, duration=args.duration,
        keys_per_site=args.keys, vnodes=args.vnodes, seed=args.seed,
        service_sleep=args.service_sleep, client_procs=args.client_procs,
        moves=args.moves,
    ))
    clean = (
        report["consistent"] and report["single_owner"]
        and not report["failed"]
    )
    if args.json:
        # machine-readable mode stays pure JSON; the verdict is in the
        # exit code and the consistent/single_owner/failed fields
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for key in ("sites", "threads", "keys", "moves", "ok", "stale",
                    "shed", "failed", "counter_total", "stale_served",
                    "throughput", "stale_rate"):
            print(f"{key:<15} {report[key]}")
        print(f"cluster procs: {'OK' if clean else 'VIOLATED'}")
    return 0 if clean else 1


def _cmd_cluster(args: argparse.Namespace) -> int:
    from .load import ClusterConfig, run_cluster_scenario, run_cluster_soak

    if args.smoke:
        return _cluster_smoke(args)
    if args.procs:
        return _cluster_procs(args)
    config = ClusterConfig(
        sites=args.sites, clients=args.clients, requests=args.requests,
        keys_per_site=args.keys, vnodes=args.vnodes, seed=args.seed,
        service_delay=args.service_delay,
    )
    runner = run_cluster_soak if args.soak else run_cluster_scenario
    report = runner(config)
    _print_report(report, args.json)
    admissible = CLUSTER_SOAK_FAILURES if args.soak else ()
    return 1 if _problems(report, "cluster", admissible) else 0


def _recover_selftest(args) -> int:
    """The crash-recovery acceptance round: a durable soak with whole
    sites killed and WAL-recovered mid-run. Every closed-form invariant
    from the non-crashing soak must still hold, plus exactly-once
    ownership after the restarts, and no single recovery may take longer
    than ``SELFTEST_MAX_RECOVERY_SECONDS`` of wall clock."""
    from .load import LoadConfig, run_soak_scenario

    cycles = max(3, args.crash_cycles or 0)
    # disk-backed stores only when the caller gave them a directory;
    # the invariants under test are backend-independent
    backend = args.backend if args.wal_root else "memory"
    config = LoadConfig(
        sites=max(4, args.sites), clients=max(4, args.clients),
        requests=max(2_000, args.requests), mode="closed", seed=args.seed,
        durable=True, backend=backend, wal_root=args.wal_root,
        crash_cycles=cycles,
    )
    report = run_soak_scenario(config)
    _print_report(report)
    for recovery in report.durable.get("recoveries", []):
        print(
            "  recovery  site={site_id} records={records_replayed} "
            "objects={objects_restored} served={served_restored} "
            "unresolved={unresolved_restored} damage={damage}".format(
                **recovery
            )
        )
    problems = _problems(report, "selftest", admissible=())
    if report.restarts < cycles:
        problems.append(
            f"selftest: only {report.restarts}/{cycles} crash-restart "
            "cycles completed"
        )
    slowest = max(
        (recovery.replay_seconds for recovery in report.recovery_reports),
        default=0.0,
    )
    if slowest > SELFTEST_MAX_RECOVERY_SECONDS:
        problems.append(
            f"selftest: slowest recovery took {slowest:.3f}s "
            f"(ceiling {SELFTEST_MAX_RECOVERY_SECONDS:.1f}s)"
        )
    return _verdict("recover selftest", problems)


def _cmd_recover(args: argparse.Namespace) -> int:
    import json

    from .net.transport import Network
    from .persistence import WriteAheadLog, make_store, recover_site
    from .sim import Simulator

    if args.selftest:
        return _recover_selftest(args)
    if not args.root:
        print("error: recover needs --root DIR (or --selftest)",
              file=sys.stderr)
        return 2
    root = Path(args.root)
    if not root.is_dir():
        print(f"error: {root} is not a directory", file=sys.stderr)
        return 2
    if (root / "GUID").exists():
        # opening its images.wal as a site log would cut every version
        # after a damaged one
        print(f"error: {root} is an object's image archive (repro store)",
              file=sys.stderr)
        return 2
    suffix = ".db" if args.backend == "sqlite" else ".wal"
    logs = sorted(root.glob(f"*{suffix}"))
    if not logs:
        print(f"error: no *{suffix} logs under {root}", file=sys.stderr)
        return 2
    # an offline scratch world: replay answers "what would a restart
    # reinstate", it does not join the logs' original internetwork
    network = Network(Simulator())
    damaged = 0
    reports = []
    for path in logs:
        site_id = path.stem
        wal = WriteAheadLog(
            make_store(args.backend, root=str(root), name=site_id)
        )
        _site, manager, report = recover_site(
            network, site_id, wal, domain=f"recover.{site_id}"
        )
        mapping = report.to_mapping()
        mapping["pending_transfers"] = len(manager.unresolved)
        reports.append(mapping)
        if report.damage is not None:
            damaged += 1
    if args.json:
        print(json.dumps(reports, indent=2, sort_keys=True))
    else:
        for mapping in reports:
            print(
                "{site_id}: records={records_replayed} "
                "objects={objects_restored} (+{objects_failed} failed) "
                "served={served_restored} ledger={ledger_restored} "
                "pending-transfers={pending_transfers} "
                "snapshot={snapshot_used} damage={damage}".format(**mapping)
            )
        print(
            f"recover: {len(reports)} log(s) replayed, "
            f"{damaged} with damage"
        )
    return 1 if damaged else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MROM / HADAS reproduction command-line tools",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run_parser = commands.add_parser("run", help="execute an MPL script")
    run_parser.add_argument("script")
    run_parser.add_argument(
        "--show-value", action="store_true",
        help="also print the value of the last statement",
    )
    run_parser.set_defaults(handler=_cmd_run)

    repl_parser = commands.add_parser(
        "repl", help="interactive MPL session (reads statements from stdin)"
    )
    repl_parser.set_defaults(handler=_cmd_repl)

    check_parser = commands.add_parser(
        "check", help="parse and compile an MPL script without running it"
    )
    check_parser.add_argument("script")
    check_parser.set_defaults(handler=_cmd_check)

    inspect_parser = commands.add_parser(
        "inspect", help="describe a packed object file (no code executes)"
    )
    inspect_parser.add_argument("package")
    inspect_parser.set_defaults(handler=_cmd_inspect)

    lint_parser = commands.add_parser(
        "lint",
        help="static analysis: lint MPL sources and audit packed objects",
        description=(
            "Lint .mpl files (and MPL programs embedded in .py files) "
            "under the given paths, and/or run the migration admission "
            "analysis over packed .mrom objects. Exit codes: 0 clean, "
            "1 findings, 2 usage error."
        ),
    )
    lint_parser.add_argument(
        "paths", nargs="*", default=[],
        help="files or directories to lint (.mpl, or .py with embedded MPL)",
    )
    lint_parser.add_argument(
        "--object", action="append", default=[], metavar="PACKAGE.mrom",
        help="also run admission analysis over a packed object file",
    )
    lint_parser.add_argument(
        "--strict", action="store_true",
        help="treat warnings as failures (exit 1)",
    )
    lint_parser.add_argument(
        "--json", action="store_true", help="machine-readable JSON report"
    )
    lint_parser.add_argument(
        "--baseline", metavar="FILE.json", default=None,
        help="record findings on first run; later runs fail only on "
             "findings the baseline has not seen",
    )
    lint_parser.set_defaults(handler=_cmd_lint)

    analyze_parser = commands.add_parser(
        "analyze",
        help="interprocedural race/deadlock/migration-safety analysis",
        description=(
            "Build a cross-object call graph over MPL programs and host "
            "scenario scripts under the given paths and report potential "
            "races (race.*), wait/recursion cycles (cycle.*) and "
            "migration-safety hazards (migration.*). With "
            "--sanitize-smoke, instead run a sanitizer-instrumented soak "
            "and cross-check every dynamically observed hazard against "
            "the static analysis. Exit codes match lint: 0 clean, 1 "
            "findings (warnings only under --strict), 2 usage error."
        ),
    )
    analyze_parser.add_argument(
        "paths", nargs="*", default=[],
        help="files or directories to analyze (.mpl, and .py host scripts)",
    )
    analyze_parser.add_argument(
        "--races", action="store_true",
        help="run only the race-detection pass",
    )
    analyze_parser.add_argument(
        "--deadlocks", action="store_true",
        help="run only the wait-cycle/recursion pass",
    )
    analyze_parser.add_argument(
        "--migration", action="store_true",
        help="run only the migration-safety pass",
    )
    analyze_parser.add_argument(
        "--strict", action="store_true",
        help="treat warnings as failures (exit 1)",
    )
    analyze_parser.add_argument(
        "--json", action="store_true", help="machine-readable JSON report"
    )
    analyze_parser.add_argument(
        "--baseline", metavar="FILE.json", default=None,
        help="record findings on first run; later runs fail only on "
             "findings the baseline has not seen",
    )
    analyze_parser.add_argument(
        "--sanitize-smoke", action="store_true",
        help="run a happens-before-sanitized soak and require every "
             "observed race/cycle to match a static diagnostic",
    )
    analyze_parser.add_argument("--seed", type=int, default=0)
    analyze_parser.add_argument(
        "--requests", type=int, default=1500,
        help="soak request count for --sanitize-smoke",
    )
    analyze_parser.set_defaults(handler=_cmd_analyze)

    store_parser = commands.add_parser("store", help="inspect an object store")
    store_parser.add_argument("--root", required=True)
    store_commands = store_parser.add_subparsers(
        dest="store_command", required=True
    )
    store_commands.add_parser("list", help="list stored objects")
    show_parser = store_commands.add_parser("show", help="describe one object")
    show_parser.add_argument("guid")
    show_parser.add_argument("--version", type=int, default=None)
    store_commands.add_parser("verify", help="checksum-verify every image")
    store_parser.set_defaults(handler=_cmd_store)

    chaos_parser = commands.add_parser(
        "chaos",
        help="run the seeded fault-injection scenario (deterministic)",
    )
    chaos_parser.add_argument("--seed", type=int, default=0)
    chaos_parser.add_argument("--sites", type=int, default=5)
    chaos_parser.add_argument("--passes", type=int, default=2)
    chaos_parser.add_argument("--drop", type=float, default=0.10,
                              help="per-message drop probability")
    chaos_parser.add_argument("--dup", type=float, default=0.10,
                              help="per-message duplication probability")
    chaos_parser.add_argument("--reorder", type=float, default=0.05,
                              help="per-message reorder probability")
    chaos_parser.add_argument("--jitter", type=float, default=0.005,
                              help="max additive latency noise (seconds)")
    chaos_parser.add_argument("--flap", action=argparse.BooleanOptionalAction,
                              default=True, help="flap one ring link")
    chaos_parser.add_argument("--crash", action=argparse.BooleanOptionalAction,
                              default=True,
                              help="crash-restart one site from its WAL")
    chaos_parser.set_defaults(handler=_cmd_chaos)

    trace_parser = commands.add_parser(
        "trace",
        help="run the traced scenario and export telemetry (deterministic)",
        description=(
            "Run the seeded telemetry acceptance scenario — one trace "
            "spanning a remote invocation and a migration hop under "
            "injected faults — and export the capture. With no export "
            "flag the human-readable trace tree is printed."
        ),
    )
    trace_parser.add_argument("--seed", type=int, default=0)
    trace_parser.add_argument(
        "--tree", action="store_true",
        help="print the human-readable trace tree (default output)",
    )
    trace_parser.add_argument(
        "--json", metavar="FILE", default=None,
        help="write the JSON-lines span export to FILE ('-' = stdout)",
    )
    trace_parser.add_argument(
        "--metrics", metavar="FILE", default=None,
        help="write a JSON metrics snapshot ('-' = stdout)",
    )
    trace_parser.add_argument(
        "--smoke", action="store_true",
        help="validate the export against the span schema and the "
             "cross-wire trace invariants; non-zero exit on violation",
    )
    trace_parser.set_defaults(handler=_cmd_trace)

    load_parser = commands.add_parser(
        "load",
        help="drive a mixed workload through a multi-site world "
             "(deterministic)",
        description=(
            "Run an open- or closed-loop workload over the simulated "
            "internetwork and report throughput, shed/failure accounting "
            "and bucketed latency percentiles. Identical seeds produce "
            "identical reports. Exit codes: 0 clean, 1 lost requests or "
            "lost updates (or, with --smoke, any violated invariant)."
        ),
    )
    load_parser.add_argument("--mode", choices=("closed", "open"),
                             default="closed")
    load_parser.add_argument("--sites", type=int, default=4,
                             help="serving sites")
    load_parser.add_argument("--clients", type=int, default=4,
                             help="client sites (one driver each)")
    load_parser.add_argument("--requests", type=int, default=10_000,
                             help="total logical requests")
    load_parser.add_argument("--rate", type=float, default=500.0,
                             help="open loop: per-client arrivals per "
                                  "simulated second")
    load_parser.add_argument("--think-time", type=float, default=0.0,
                             help="closed loop: pause after each completion")
    load_parser.add_argument("--window", type=int, default=None,
                             metavar="N",
                             help="per-site inflight admission window "
                                  "(default: unbounded)")
    load_parser.add_argument("--service-delay", type=float, default=0.0,
                             help="per-request service time at the servers")
    load_parser.add_argument("--mix", default=None, metavar="SPEC",
                             help="op mix, e.g. invoke=70,get_data=20,"
                                  "describe=8,migrate=2")
    load_parser.add_argument("--retry", action="store_true",
                             help="arm the default retry policy on clients")
    load_parser.add_argument("--soak", action="store_true",
                             help="layer the fault plane (drops, duplicates, "
                                  "jitter) with retries armed")
    load_parser.add_argument("--durable", action="store_true",
                             help="journal every serving site to a "
                                  "write-ahead log")
    load_parser.add_argument("--backend",
                             choices=("memory", "file", "sqlite"),
                             default="memory",
                             help="WAL store backend (file/sqlite need "
                                  "--wal-root)")
    load_parser.add_argument("--wal-root", default=None, metavar="DIR",
                             help="directory for file/sqlite WAL stores")
    load_parser.add_argument("--crash-cycles", type=int, default=0,
                             metavar="N",
                             help="kill and WAL-recover whole sites N times "
                                  "mid-run (implies --durable)")
    load_parser.add_argument("--seed", type=int, default=0)
    load_parser.add_argument("--json", action="store_true",
                             help="machine-readable JSON report")
    load_parser.add_argument("--smoke", action="store_true",
                             help="run the sustain+overload acceptance pair; "
                                  "non-zero exit on violation")
    load_parser.set_defaults(handler=_cmd_load)

    cluster_parser = commands.add_parser(
        "cluster",
        help="drive the sharded multi-site cluster (ring + directory "
             "leases)",
        description=(
            "Run a workload over the consistent-hash-sharded cluster: "
            "names resolve through a partitioned directory, clients "
            "cache leases, migrations bump placement generations and "
            "stale leases fail fast with a typed redirect. The default "
            "mode is the deterministic simulated scenario; --soak "
            "layers the fault plane; --procs launches one real OS "
            "process per site and drives them over TCP gateways; "
            "--smoke runs the sustain+soak acceptance pair. Exit "
            "codes: 0 clean, 1 violated invariant, 2 usage error."
        ),
    )
    cluster_parser.add_argument("--sites", type=int, default=4,
                                help="serving sites (ring members)")
    cluster_parser.add_argument("--clients", type=int, default=8,
                                help="sim mode: client sites")
    cluster_parser.add_argument("--requests", type=int, default=1_600,
                                help="sim mode: total logical requests")
    cluster_parser.add_argument("--keys", type=int, default=4,
                                metavar="N",
                                help="published names per site (sites*N "
                                     "total)")
    cluster_parser.add_argument("--vnodes", type=int, default=64,
                                help="virtual nodes per site on the ring")
    cluster_parser.add_argument("--service-delay", type=float, default=0.002,
                                help="sim mode: per-invoke service time")
    cluster_parser.add_argument("--soak", action="store_true",
                                help="sim mode: layer the fault plane "
                                     "(drops, duplicates, jitter)")
    cluster_parser.add_argument("--procs", action="store_true",
                                help="one real OS process per site, driven "
                                     "over TCP gateways")
    cluster_parser.add_argument("--duration", type=float, default=2.0,
                                help="procs mode: seconds of driven load")
    cluster_parser.add_argument("--service-sleep", type=float, default=0.02,
                                help="procs mode: per-invoke dwell at the "
                                     "serving site")
    cluster_parser.add_argument("--client-procs", type=int, default=2,
                                help="procs mode: driver processes")
    cluster_parser.add_argument("--moves", type=int, default=None,
                                metavar="N",
                                help="procs mode: mid-run directory "
                                     "rebalances (default: one per site)")
    cluster_parser.add_argument("--seed", type=int, default=0)
    cluster_parser.add_argument("--json", action="store_true",
                                help="machine-readable JSON report")
    cluster_parser.add_argument("--smoke", action="store_true",
                                help="run the sustain+soak acceptance pair; "
                                     "non-zero exit on violation")
    cluster_parser.set_defaults(handler=_cmd_cluster)

    recover_parser = commands.add_parser(
        "recover",
        help="replay write-ahead logs, or run the crash-recovery "
             "acceptance soak",
        description=(
            "Durability tooling. With --selftest, run the seeded "
            "crash-recovery acceptance round: a durable soak in which "
            "whole sites are repeatedly killed and recovered from their "
            "write-ahead logs; every closed-form invariant (zero lost "
            "replies, zero lost updates, exactly-once ownership) must "
            "hold, else exit 1. Without it, open every WAL under --root "
            "and report what a restart would reinstate; exit 1 if any "
            "log shows damage."
        ),
    )
    recover_parser.add_argument("--selftest", action="store_true",
                                help="run the seeded crash-recovery "
                                     "acceptance soak")
    recover_parser.add_argument("--root", default=None, metavar="DIR",
                                help="directory holding the WALs to replay")
    recover_parser.add_argument("--backend",
                                choices=("memory", "file", "sqlite"),
                                default="file",
                                help="store backend (offline replay: file "
                                     "or sqlite)")
    recover_parser.add_argument("--wal-root", default=None, metavar="DIR",
                                help="selftest: directory for file/sqlite "
                                     "WAL stores")
    recover_parser.add_argument("--sites", type=int, default=4)
    recover_parser.add_argument("--clients", type=int, default=4)
    recover_parser.add_argument("--requests", type=int, default=3_000)
    recover_parser.add_argument("--crash-cycles", type=int, default=3,
                                metavar="N",
                                help="selftest: kill/restart cycles "
                                     "(minimum 3)")
    recover_parser.add_argument("--seed", type=int, default=0)
    recover_parser.add_argument("--json", action="store_true",
                                help="machine-readable JSON report")
    recover_parser.set_defaults(handler=_cmd_recover)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MROMError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
