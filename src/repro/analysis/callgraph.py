"""Cross-site call graphs over host scenarios.

:func:`scan_host` is a python-AST scan of a host scenario file: the
``Site``/``MobilityManager`` wiring, per-site admission windows
(``inflight_limit``), and every RMI edge a site issues — sync verbs
(``request``/``remote_invoke``/…), their ``*_async`` variants, batched
frames (``RequestBatch``) and migrations. Edges carry their source line
in program order, which is exactly what the incremental wait-for cycle
check in :mod:`.deadlock` needs to anchor a finding at the edge that
*closes* a cycle. (Sibling calls inside one MPL object come from the
effect extractor, :mod:`repro.lang.effects`.)

The scan is best-effort by design: it resolves destinations that are
string literals or names bound to sites in the same file, and silently
skips anything dynamic. A static deadlock pass that guessed at computed
destinations would drown its real findings in noise.
"""

from __future__ import annotations

import ast as pyast
from dataclasses import dataclass, field

__all__ = ["Edge", "CallGraph", "HostScan", "scan_host"]

#: site verbs that block the caller until the reply arrives
SYNC_VERBS = frozenset(
    {
        "request", "remote_invoke", "remote_get_data", "remote_describe",
        "remote_resolve", "ping",
    }
)
#: site verbs that return a future immediately
ASYNC_VERBS = frozenset(
    {
        "request_async", "remote_invoke_async", "remote_get_data_async",
        "remote_describe_async",
    }
)
#: manager verbs that move an object (the sender blocks on the handoff)
MIGRATE_VERBS = frozenset({"migrate", "deploy_copy"})


@dataclass(frozen=True)
class Edge:
    src: str
    dst: str
    kind: str  # "rmi" | "rmi_async" | "batch" | "migrate"
    line: int = 0
    column: int = 0


@dataclass
class CallGraph:
    nodes: set = field(default_factory=set)
    edges: list = field(default_factory=list)

    def add(self, edge: Edge) -> None:
        self.nodes.add(edge.src)
        self.nodes.add(edge.dst)
        self.edges.append(edge)


# ---------------------------------------------------------------------------
# host scenario scan
# ---------------------------------------------------------------------------


@dataclass
class HostScan:
    """What a host-file scan learned: the site topology and RMI edges."""

    label: str
    sites: dict = field(default_factory=dict)      # var name -> site id
    windows: dict = field(default_factory=dict)    # site id -> inflight limit
    managers: dict = field(default_factory=dict)   # var name -> home site id
    graph: CallGraph = field(default_factory=CallGraph)

    def site_node(self, site_id: str) -> str:
        return f"site:{site_id}"


def _const_str(node) -> str | None:
    if isinstance(node, pyast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def scan_host(source: str, label: str = "<host>") -> HostScan:
    """Scan one host python file for sites, windows and RMI edges."""
    scan = HostScan(label=label)
    try:
        tree = pyast.parse(source)
    except SyntaxError:
        return scan

    calls: list = []
    for node in pyast.walk(tree):
        if isinstance(node, pyast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            value = node.value
            if isinstance(target, pyast.Name) and isinstance(value, pyast.Call):
                func = value.func
                ctor = func.id if isinstance(func, pyast.Name) else (
                    func.attr if isinstance(func, pyast.Attribute) else ""
                )
                if ctor == "Site" and len(value.args) >= 2:
                    site_id = _const_str(value.args[1])
                    if site_id is not None:
                        scan.sites[target.id] = site_id
                elif ctor == "MobilityManager" and value.args:
                    home = value.args[0]
                    if isinstance(home, pyast.Name) and home.id in scan.sites:
                        scan.managers[target.id] = scan.sites[home.id]
            elif (
                isinstance(target, pyast.Attribute)
                and isinstance(target.value, pyast.Name)
                and target.attr == "inflight_limit"
                and target.value.id in scan.sites
                and isinstance(node.value, pyast.Constant)
                and isinstance(node.value.value, int)
            ):
                scan.windows[scan.sites[target.value.id]] = node.value.value
        elif isinstance(node, pyast.Call):
            calls.append(node)

    def resolve(dst_expr) -> str | None:
        dst = _const_str(dst_expr)
        if dst is not None:
            return dst
        if isinstance(dst_expr, pyast.Name):
            return scan.sites.get(dst_expr.id)
        return None

    # program order matters: a cycle is reported at the edge closing it
    for call in sorted(calls, key=lambda c: (c.lineno, c.col_offset)):
        func = call.func
        if not (
            isinstance(func, pyast.Attribute)
            and isinstance(func.value, pyast.Name)
        ):
            continue
        owner, verb = func.value.id, func.attr
        if owner in scan.sites and call.args:
            kind = (
                "rmi" if verb in SYNC_VERBS
                else "rmi_async" if verb in ASYNC_VERBS
                else "batch" if verb == "batch"
                else None
            )
            dst = resolve(call.args[0])
            if kind is not None and dst is not None:
                scan.graph.add(Edge(
                    scan.site_node(scan.sites[owner]),
                    scan.site_node(dst),
                    kind, call.lineno, call.col_offset + 1,
                ))
        elif owner in scan.managers and verb in MIGRATE_VERBS:
            if len(call.args) >= 2:
                dst = resolve(call.args[1])
                if dst is not None:
                    scan.graph.add(Edge(
                        scan.site_node(scan.managers[owner]),
                        scan.site_node(dst),
                        "migrate", call.lineno, call.col_offset + 1,
                    ))
    return scan
