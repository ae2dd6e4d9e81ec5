"""The happens-before sanitizer: the analyzer's differential oracle.

A static race analyzer that is never checked against reality drifts
into either noise (findings nobody can reproduce) or blindness (hazard
classes it never models). This module closes the loop: during a chaos
or soak run it reconstructs the *actual* partial order of the execution
with vector clocks, watches every extensible-item access the kernel
performs, and records each pair of accesses that were (a) conflicting
and (b) unordered — a dynamic race witness. At the end of the run,
:meth:`Sanitizer.crosscheck` demands that every witness maps back to a
static ``race.*`` finding over the same item and methods, and every
observed sync-wait cycle to a ``cycle.*`` finding. An unmatched witness
means the static analysis has a hole; that is a test failure, not a
log line.

The sanitizer is a :class:`repro.probes.Probe` on the same switch as
telemetry; :func:`enable` attaches it. Each logical activity (a driver
issuing a request, a site serving one, an ActiveObject worker) is a
*task* with a vector clock, and the probe points are its edges:

* ``sent`` snapshots the sender's clock (or the issuer's, kept at
  ``request_begin``, for a retry fired from a scheduled event) under the
  wire message id; ``serve_begin`` forks the serving task from it (the
  send→receive edge) and ``serve_end`` publishes its clock;
* ``reply_begin`` settles a call's future under a task joining the
  issuer's and the server's clocks, so callback chains inherit both;
  ``reply_absorb`` joins the server's clock into the task that waited,
  once per wait, blocking or not (the reply edge);
* a blocking request is a sync-wait edge from ``request_begin`` to
  ``request_end``, and ``handle`` expands an invoke or get_data into its
  modeled item accesses;
* ActiveObject submissions carry the submitter's snapshot into the
  worker's clock; the worker task itself persists across items, which
  encodes mailbox serialization as a happens-before edge — exactly the
  ordering guarantee the wrapper exists to provide.

With no plane on, each point is one attribute read plus an identity
test; those guards run inside the ``rmi_sim`` end-to-end workload, and
``tests/analysis/test_sanitizer.py`` checks that :func:`disable`
leaves no point live.
"""

from __future__ import annotations

import itertools
import threading
from collections import OrderedDict, deque
from dataclasses import dataclass

from .. import probes

__all__ = [
    "Sanitizer",
    "ObservedRace",
    "ObservedCycle",
    "active",
    "enable",
    "disable",
]


def active() -> "Sanitizer | None":
    """The attached sanitizer, or None."""
    for plane in probes.planes():
        if isinstance(plane, Sanitizer):
            return plane
    return None


def enable(sanitizer: "Sanitizer | None" = None) -> "Sanitizer":
    """Attach (and return) a sanitizer, replacing any attached one."""
    disable()
    sanitizer = sanitizer if sanitizer is not None else Sanitizer()
    probes.attach(sanitizer)
    return sanitizer


def disable() -> "Sanitizer | None":
    """Detach the attached sanitizer and return it for inspection."""
    sanitizer = active()
    if sanitizer is not None:
        probes.detach(sanitizer)
    return sanitizer


@dataclass(frozen=True)
class ObservedRace:
    """Two unordered conflicting accesses to one extensible item."""

    guid: str
    subject: str
    item: str
    methods: tuple  # sorted pair of method names
    writers: tuple  # the subset of `methods` that wrote

    def describe(self) -> str:
        a, b = self.methods
        return (
            f"dynamic race on {self.subject}.{self.item!r} between "
            f"'{a}' and '{b}' (writers: {', '.join(self.writers)})"
        )


@dataclass(frozen=True)
class ObservedCycle:
    """A sync-wait dependency ring observed between sites at run time."""

    sites: tuple  # canonical (sorted) site ids

    def describe(self) -> str:
        return f"dynamic sync-wait cycle through sites {list(self.sites)}"


_UNSET = object()

#: accesses remembered per (object, item) for the race check
_HISTORY = 32


class Sanitizer(probes.Probe):
    """Vector-clock happens-before tracking over kernel activities."""

    def __init__(self, stash_cap: int = 8192):
        self._lock = threading.RLock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._clocks: dict = {}          # task id -> {task id: counter}
        self._labels: dict = {}          # task id -> debug label
        self._stash_cap = stash_cap
        self._sent: OrderedDict = OrderedDict()   # msg id -> clock snapshot
        self._done: OrderedDict = OrderedDict()   # msg id -> serve clock
        self._issued: OrderedDict = OrderedDict() # request id -> issuer clock
        self._workers: dict = {}         # ActiveObject -> its worker task
        self._accesses: dict = {}        # (guid, item) -> deque of accesses
        self._effects_cache: dict = {}   # (guid, method) -> effects | None
        self._object_effects: dict = {}  # guid -> {method: effects}
        self._subjects: dict = {}        # guid -> display label
        self._waits: dict = {}           # (src, dst) -> outstanding count
        self.races: list = []
        self.cycles: list = []
        self._race_keys: set = set()
        self._cycle_keys: set = set()
        # run counters, for reports and the non-vacuity assertions
        self.tasks_created = 0
        self.access_count = 0
        self.send_count = 0
        self.sync_count = 0

    # ------------------------------------------------------------------
    # tasks and clocks
    # ------------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None

    def fork(self, label: str = "", parent=_UNSET):
        """New task; its clock inherits *parent*'s (default: current)."""
        if parent is _UNSET:
            parent = self.current()
        with self._lock:
            task = next(self._ids)
            clock = dict(self._clocks.get(parent, ())) if parent else {}
            clock[task] = 1
            self._clocks[task] = clock
            self._labels[task] = label
            self.tasks_created += 1
        return task

    def push(self, task) -> None:
        self._stack().append(task)

    def pop(self) -> None:
        stack = self._stack()
        if stack:
            stack.pop()

    def snapshot(self, task=None):
        """A copy of *task*'s clock (default: the current task's)."""
        if task is None:
            task = self.current()
        if task is None:
            return None
        with self._lock:
            return dict(self._clocks.get(task, ()))

    def merge(self, task, clock) -> None:
        """Join *clock* into *task*'s clock (a happens-before edge)."""
        if task is None or not clock:
            return
        with self._lock:
            mine = self._clocks.setdefault(task, {})
            for other, counter in clock.items():
                if counter > mine.get(other, 0):
                    mine[other] = counter
            self.sync_count += 1

    # ------------------------------------------------------------------
    # message edges
    # ------------------------------------------------------------------

    def _stash(self, table: OrderedDict, key, clock) -> None:
        with self._lock:
            table[key] = clock
            while len(table) > self._stash_cap:
                table.popitem(last=False)

    def note_sent(self, msg_id, fallback=None) -> None:
        """Record the sender's clock under the wire message id.

        *fallback* covers resends fired from scheduled events with no
        current task (async retries): the original issuer's snapshot
        still orders the serve after everything the issuer had seen.
        """
        clock = self.snapshot()
        if clock is None:
            clock = fallback
        if clock is not None:
            self.send_count += 1
            self._stash(self._sent, msg_id, dict(clock))

    def begin_serve(self, msg_id, label: str = ""):
        """Fork the serving task for one delivered request and enter it."""
        task = self.fork(label=label, parent=None)
        with self._lock:
            clock = self._sent.get(msg_id)
        if clock:
            self.merge(task, clock)
        self.push(task)
        return task

    def end_serve(self, msg_id, task) -> None:
        """Leave the serving task, publishing its clock for the reply."""
        self.pop()
        clock = self.snapshot(task)
        if clock:
            self._stash(self._done, msg_id, clock)

    def reply_clock(self, msg_id):
        with self._lock:
            return self._done.get(msg_id)

    def absorb_reply(self, msg_id) -> None:
        """Join the serve clock of *msg_id* into the current task."""
        task = self.current()
        if task is None:
            return
        clock = self.reply_clock(msg_id)
        if clock:
            self.merge(task, clock)

    # ------------------------------------------------------------------
    # probe points (see the module docstring for the edge each one makes)
    # ------------------------------------------------------------------

    def request_begin(self, call, payload):
        clock = self.snapshot()
        if clock is not None:
            self._stash(self._issued, call.request_id, clock)
        if call.blocking:
            self.wait_begin(call.site.site_id, call.dst)
        return payload

    def request_end(self, site, dst: str, error) -> None:
        self.wait_end(site.site_id, dst)

    def sent(self, call, msg_id) -> None:
        with self._lock:
            issued = self._issued.get(call.request_id)
        self.note_sent(msg_id, fallback=issued)

    def reply_begin(self, call, message) -> None:
        task = self.fork(label=f"reply.{call.kind}", parent=None)
        with self._lock:
            issued = self._issued.get(call.request_id)
        if issued:
            self.merge(task, issued)
        serve_clock = self.reply_clock(message.reply_to)
        if serve_clock:
            self.merge(task, serve_clock)
        self.push(task)

    def reply_end(self, call) -> None:
        self.pop()

    def reply_absorb(self, site, futures) -> None:
        for future in futures:
            if future.reply_id is not None:
                self.absorb_reply(future.reply_id)

    def serve_begin(self, site, message, batched: bool) -> None:
        if not batched:
            self.begin_serve(
                message.msg_id, label=f"serve.{message.kind}@{site.site_id}"
            )

    def serve_end(self, site, message, batched: bool, error) -> None:
        if not batched:
            self.end_serve(message.msg_id, self.current())

    def handle(self, site, kind: str, obj, name: str) -> None:
        if kind == "invoke":
            self.invoke(obj, name)
        else:
            self.data_read(obj, name)

    def submit(self, active, future) -> None:
        # the submitter's clock travels with its work item, however long
        # the mailbox grows
        future.sanitizer_clock = self.snapshot()

    def work_begin(self, active, method: str, future) -> None:
        clock = vars(future).pop("sanitizer_clock", None)
        # one persistent task per worker: item N's effects happen-before
        # item N+1's, the actor guarantee itself
        with self._lock:
            task = self._workers.get(active)
        if task is None:
            task = self.fork(label=f"active:{active.obj.guid}", parent=None)
            with self._lock:
                self._workers[active] = task
        self.merge(task, clock)
        self.push(task)
        self.invoke(active.obj, method)

    def work_end(self, active) -> None:
        self.pop()

    # ------------------------------------------------------------------
    # data accesses
    # ------------------------------------------------------------------

    def access(
        self, guid: str, item: str, kind: str, method: str,
        subject: str = "",
    ) -> None:
        """One read/write of an extensible item by the current task."""
        task = self.current()
        if task is None:
            return
        with self._lock:
            clock = self._clocks[task]
            clock[task] = clock.get(task, 0) + 1
            local_time = clock[task]
            self.access_count += 1
            history = self._accesses.get((guid, item))
            if history is None:
                history = deque(maxlen=_HISTORY)
                self._accesses[(guid, item)] = history
            for prior_task, prior_time, prior_kind, prior_method in history:
                if prior_task == task:
                    continue
                if kind != "write" and prior_kind != "write":
                    continue
                if clock.get(prior_task, 0) >= prior_time:
                    continue  # ordered: prior happens-before this access
                methods = tuple(sorted((method, prior_method)))
                writers = tuple(sorted(
                    m for m, k in (
                        (method, kind), (prior_method, prior_kind),
                    ) if k == "write"
                ))
                key = (guid, item, methods)
                if key not in self._race_keys:
                    self._race_keys.add(key)
                    self.races.append(ObservedRace(
                        guid=guid,
                        subject=subject or self._subjects.get(guid, guid),
                        item=item,
                        methods=methods,
                        writers=writers,
                    ))
            history.append((task, local_time, kind, method))

    def invoke(self, obj, method: str) -> None:
        """Expand one method invocation into its modeled item accesses."""
        effects = self._effects_of(obj, method)
        guid = str(obj.guid)
        subject = self._subjects.get(guid, guid)
        # every dispatch reads the structure through the Lookup/Match pins
        self.access(guid, "##structure", "read", method, subject)
        if effects is None:
            return
        for item in effects.reads:
            self.access(guid, item, "read", method, subject)
        for item in effects.writes:
            self.access(guid, item, "write", method, subject)
        if effects.structural:
            self.access(guid, "##structure", "write", method, subject)

    def data_read(self, obj, item: str) -> None:
        """A protocol-level get_data read (no method body involved)."""
        guid = str(obj.guid)
        self._remember(obj)
        self.access(
            guid, item, "read", "get_data", self._subjects.get(guid, guid)
        )

    def _remember(self, obj) -> None:
        guid = str(obj.guid)
        if guid not in self._subjects:
            with self._lock:
                display = getattr(obj.principal, "display_name", "") or guid
                self._subjects[guid] = display

    def _effects_of(self, obj, method: str):
        key = (str(obj.guid), method)
        cached = self._effects_cache.get(key, _UNSET)
        if cached is not _UNSET:
            return cached
        from .races import effects_of_live_object

        self._remember(obj)
        guid = str(obj.guid)
        with self._lock:
            if guid not in self._object_effects:
                try:
                    self._object_effects[guid] = effects_of_live_object(obj)
                except Exception:
                    self._object_effects[guid] = {}
            effects = self._object_effects[guid].get(method)
            self._effects_cache[key] = effects
        return effects

    # ------------------------------------------------------------------
    # sync-wait cycles
    # ------------------------------------------------------------------

    def wait_begin(self, src: str, dst: str) -> None:
        """The caller at *src* starts blocking on a sync reply from *dst*."""
        with self._lock:
            ring = self._find_wait_path(dst, src)
            self._waits[(src, dst)] = self._waits.get((src, dst), 0) + 1
            if ring is None and src != dst:
                return
            sites = tuple(sorted(set([src, dst] + (ring or []))))
            if sites in self._cycle_keys:
                return
            self._cycle_keys.add(sites)
            self.cycles.append(ObservedCycle(sites=sites))

    def wait_end(self, src: str, dst: str) -> None:
        with self._lock:
            count = self._waits.get((src, dst), 0) - 1
            if count > 0:
                self._waits[(src, dst)] = count
            else:
                self._waits.pop((src, dst), None)

    def _find_wait_path(self, start: str, goal: str):
        """Path start -> ... -> goal over outstanding waits, or None."""
        edges: dict = {}
        for (src, dst), count in self._waits.items():
            if count > 0:
                edges.setdefault(src, set()).add(dst)
        stack = [(start, [start])]
        visited = {start}
        while stack:
            node, path = stack.pop()
            if node == goal:
                return path
            for succ in sorted(edges.get(node, ())):
                if succ not in visited:
                    visited.add(succ)
                    stack.append((succ, path + [succ]))
        return None

    # ------------------------------------------------------------------
    # the differential oracle
    # ------------------------------------------------------------------

    def static_diagnostics(self) -> list:
        """The race findings the static pass produces for every object
        this run actually touched — the same effect sets, the same
        conflict engine, so the comparison is apples to apples."""
        from .deadlock import recursion_findings
        from .races import conflicts

        out: list = []
        with self._lock:
            snapshot = {
                guid: dict(effects)
                for guid, effects in self._object_effects.items()
            }
        for guid in sorted(snapshot):
            effects = {
                name: eff
                for name, eff in snapshot[guid].items()
                if eff is not None
            }
            subject = self._subjects.get(guid, guid)
            source = f"object:{guid}"
            out.extend(conflicts(effects, source, subject))
            out.extend(recursion_findings(effects, source, subject))
        return out

    def unmatched_races(self, diagnostics: list) -> list:
        """Observed races with no static ``race.*`` finding to blame."""
        index: dict = {}  # (guid, item) -> set of implicated methods
        for diag in diagnostics:
            if "race." not in diag.rule:
                continue
            guid = diag.source.split(":", 1)[-1]
            item = diag.extra.get("item")
            methods = index.setdefault((guid, item), set())
            methods.update(diag.extra.get("methods", ()))
        unmatched = []
        for race in self.races:
            implicated = index.get((race.guid, race.item), set())
            # protocol reads (get_data) have no method body to implicate;
            # the static side is on the hook for the writers only
            writers = set(race.writers) or set(race.methods)
            if "*" in implicated or writers <= implicated:
                continue
            unmatched.append(race)
        return unmatched

    def unmatched_cycles(self, diagnostics: list) -> list:
        """Observed cycles with no static ``cycle.*`` finding to blame."""
        static_rings = {
            frozenset(diag.extra.get("sites", ()))
            for diag in diagnostics
            if "cycle." in diag.rule
        }
        return [
            cycle
            for cycle in self.cycles
            if frozenset(cycle.sites) not in static_rings
        ]

    def crosscheck(self, diagnostics: list | None = None) -> dict:
        """The differential verdict; extra static findings are fine,
        unmatched dynamic witnesses are the analyzer's bugs."""
        if diagnostics is None:
            diagnostics = self.static_diagnostics()
        unmatched_races = self.unmatched_races(diagnostics)
        unmatched_cycles = self.unmatched_cycles(diagnostics)
        return {
            "observed_races": len(self.races),
            "observed_cycles": len(self.cycles),
            "static_findings": len(diagnostics),
            "unmatched_races": [r.describe() for r in unmatched_races],
            "unmatched_cycles": [c.describe() for c in unmatched_cycles],
            "tasks": self.tasks_created,
            "accesses": self.access_count,
            "sends": self.send_count,
            "syncs": self.sync_count,
            "ok": not unmatched_races and not unmatched_cycles,
        }
