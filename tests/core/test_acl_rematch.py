"""An in-place ACL edit costs one Match, not a recompile.

An in-place edit (``grant``/``revoke``/``remove_subject``) moves the
list's version and nothing else, so of Lookup -> Match -> Apply only
Match can change. A closure whose object clock still holds re-runs
Match itself: a self-call re-pins at once (self skips Match), any other
caller re-pins when the live list still allows it and serves the call
as a miss. A caller the list now denies gets ``COMPILED_STALE`` as
before, and the interpreted path raises and audits.

A re-match counts what the rebuild it replaces counted — one discard,
one invalidation, one compile, no hit, the same probe points in the
same order — and moves the entry to the newest end of the table, so
cap eviction order is unchanged. A full closure that a rebuild would
now make lean answers ``COMPILED_STALE`` instead of re-matching.
"""

from __future__ import annotations

import pytest

from repro import probes
from repro.core import (
    AccessControlList,
    AccessDeniedError,
    MROMObject,
    Permission,
    Principal,
    allow_all,
)
from repro.core import invocation
from repro.core.invocation import Invoker
from repro.telemetry import Telemetry, enabled

pytestmark = [pytest.mark.fastpath, pytest.mark.compile]

CALLER = Principal("mrom://rematch/caller", "rematch", "caller")
GUEST = "mrom://rematch/guest"


@pytest.fixture
def compiles(monkeypatch):
    """Count the calls of ``compile_invocation`` (the rebuild)."""
    calls = []
    real = invocation.compile_invocation

    def counting(*args):
        calls.append(args[1].name)
        return real(*args)

    monkeypatch.setattr(invocation, "compile_invocation", counting)
    return calls


def subject(acl: AccessControlList, **method) -> MROMObject:
    obj = MROMObject(display_name="subject")
    obj.define_fixed_data("base", 3)
    obj.define_fixed_method("m", "return args[0] + self.get('base')", acl=acl, **method)
    obj.seal()
    return obj


def stats(obj: MROMObject) -> tuple[int, int, int, int]:
    cache = obj.fastpath
    return (cache.compiles, cache.compiled_discards, cache.invalidations,
            cache.compiled_hits)


def edit_then_invoke(obj, acl, caller, rounds=1000):
    """*rounds* of an ACL edit that leaves *caller* allowed, then two
    calls: the first counts as a rebuild while the closure stays put,
    the second is a hit on the re-pinned closure."""
    obj.invoke("m", [1], caller=caller)
    key = (caller.guid, caller.domain, "m")
    closure = obj.fastpath.compiled[key]
    for index in range(rounds):
        if index % 2:
            acl.remove_subject(GUEST)
        else:
            acl.grant(GUEST, Permission.GET)
        before = stats(obj)
        assert obj.invoke("m", [index], caller=caller) == index + 3
        after = stats(obj)
        assert tuple(a - b for a, b in zip(after, before)) == (1, 1, 1, 0)
        assert obj.fastpath.compiled[key] is closure
        assert obj.invoke("m", [index], caller=caller) == index + 3
        assert tuple(a - b for a, b in zip(stats(obj), after)) == (0, 0, 0, 1)
    return closure


class TestNoRecompile:
    def test_lean_closure(self, compiles):
        acl = allow_all()
        obj = subject(acl)
        closure = edit_then_invoke(obj, acl, CALLER)
        assert closure.__name__ == "lean_invoke"
        assert compiles == ["m"]
        assert obj.last_record.outcome == "ok"

    def test_full_closure_traced(self, compiles):
        acl = allow_all()
        obj = subject(acl)
        obj.enable_tracing(True)
        closure = edit_then_invoke(obj, acl, CALLER)
        assert closure.__name__ == "compiled_invoke"
        assert compiles == ["m"]
        assert [event.phase.value for event in obj.last_record.events] == [
            "lookup", "match", "body",
        ]

    def test_full_closure_with_pre_and_post(self, compiles):
        acl = allow_all()
        obj = subject(acl, pre="return True", post="return True")
        closure = edit_then_invoke(obj, acl, CALLER)
        assert closure.__name__ == "compiled_invoke"
        assert compiles == ["m"]

    def test_full_closure_under_telemetry(self, compiles):
        acl = allow_all()
        obj = subject(acl)
        with enabled(Telemetry()) as tel:
            edit_then_invoke(obj, acl, CALLER, rounds=100)
            counters = tel.metrics
            assert counters.counter_value("fastpath.compiled.compiles") == 101
            assert counters.counter_value("fastpath.compiled.discards") == 100
            assert counters.counter_value("fastpath.invalidations") == 100
            assert counters.counter_value("fastpath.compiled.hits") == 100
            assert counters.counter_value("acl.checks") == 201
        assert compiles == ["m"]

    def test_self_caller_on_a_list_that_denies_everyone(self, compiles):
        acl = AccessControlList()
        obj = subject(acl)
        closure = edit_then_invoke(obj, acl, obj.principal)
        assert closure.__name__ == "lean_invoke"
        assert compiles == ["m"]


class Recorder(probes.Probe):
    """Logs the points a call fires, in order."""

    def __init__(self):
        self.points = []

    def count(self, name, value=1):
        self.points.append(("count", name, value))

    def invoke_begin(self, guid, method, caller, depth, hit):
        self.points.append(("invoke_begin", method, hit))

    def acl_check(self, principal, item, permission, allowed):
        self.points.append(("acl_check", item, allowed))

    def invoke_end(self, outcome, error=None):
        self.points.append(("invoke_end", outcome))


class TestSameProbePoints:
    def test_a_rematch_fires_what_a_rebuild_fired(self):
        acl = allow_all()
        obj = subject(acl)
        recorder = Recorder()
        probes.attach(recorder)
        try:
            obj.invoke("m", [1], caller=CALLER)
            acl.grant(GUEST, Permission.GET)
            del recorder.points[:]
            obj.invoke("m", [1], caller=CALLER)
        finally:
            probes.detach(recorder)
        # recorded with the discard-and-rebuild cold step
        assert recorder.points == [
            ("count", "fastpath.compiled.discards", 1),
            ("count", "fastpath.invalidations", 1),
            ("count", "fastpath.compiled.compiles", 1),
            ("invoke_begin", "m", False),
            ("acl_check", "m", True),
            ("invoke_end", "ok"),
        ]


class CheckCounter:
    """Wraps ``AccessControlList.check``, the Match audit point."""

    def __init__(self, monkeypatch):
        self.verdicts = []
        real = AccessControlList.check

        def counting(acl, principal, permission, item):
            try:
                real(acl, principal, permission, item)
            except AccessDeniedError:
                self.verdicts.append((item, "denied"))
                raise
            self.verdicts.append((item, "allowed"))

        monkeypatch.setattr(AccessControlList, "check", counting)


class TestRevokeIsRefused:
    """One ACL guards method ``a`` of one object and ``b`` of another."""

    def build(self):
        acl = AccessControlList().grant(CALLER.guid, Permission.INVOKE)
        objects = []
        for name in ("a", "b"):
            obj = MROMObject(display_name=name)
            obj.define_fixed_method(name, "return 1", acl=acl)
            obj.seal()
            objects.append((name, obj))
        return acl, objects

    @pytest.mark.parametrize("traced", [False, True], ids=["lean", "full"])
    def test_first_call_after_revoke_is_denied_and_audited_once(
        self, monkeypatch, compiles, traced
    ):
        acl, objects = self.build()
        for name, obj in objects:
            obj.enable_tracing(traced)
            for _ in range(2):
                assert obj.invoke(name, caller=CALLER) == 1
        acl.revoke(CALLER.guid, Permission.INVOKE)
        checks = CheckCounter(monkeypatch)
        interpreted = []
        real_primitive = Invoker.invoke_primitive

        def primitive(invoker, *args, **kwargs):
            interpreted.append(args[1])
            return real_primitive(invoker, *args, **kwargs)

        monkeypatch.setattr(Invoker, "invoke_primitive", primitive)
        for name, obj in objects:
            before = stats(obj)
            with pytest.raises(AccessDeniedError):
                obj.invoke(name, caller=CALLER)
            after = stats(obj)
            # the closure was discarded; nothing was compiled or hit
            assert tuple(a - b for a, b in zip(after, before)) == (0, 1, 1, 0)
            assert obj.fastpath.compiled_entries == 0
            assert obj.last_record.outcome == "error"
        assert interpreted == ["a", "b"]
        assert checks.verdicts == [("a", "denied"), ("b", "denied")]
        assert compiles == ["a", "b"]  # the two warm-up compiles only

    def test_denied_under_telemetry(self):
        acl, objects = self.build()
        with enabled(Telemetry()) as tel:
            for name, obj in objects:
                obj.invoke(name, caller=CALLER)
            acl.revoke(CALLER.guid, Permission.INVOKE)
            checks = tel.metrics.counter_value("acl.checks")
            for name, obj in objects:
                with pytest.raises(AccessDeniedError):
                    obj.invoke(name, caller=CALLER)
            assert tel.metrics.counter_value("acl.checks") == checks + 2
            assert tel.metrics.counter_value("acl.denials") == 2


class TestShape:
    def test_full_closure_rematched_with_planes_off_rebuilds_lean(self, compiles):
        acl = allow_all()
        obj = subject(acl)
        obj.enable_tracing(True)
        obj.invoke("m", [1], caller=CALLER)
        key = (CALLER.guid, CALLER.domain, "m")
        assert obj.fastpath.compiled[key].__name__ == "compiled_invoke"
        obj.enable_tracing(False)
        assert obj.invoke("m", [1], caller=CALLER) == 4  # still a full hit
        acl.grant(GUEST, Permission.GET)
        before = stats(obj)
        assert obj.invoke("m", [1], caller=CALLER) == 4
        assert obj.fastpath.compiled[key].__name__ == "lean_invoke"
        assert tuple(a - b for a, b in zip(stats(obj), before)) == (1, 1, 1, 0)
        assert compiles == ["m", "m"]

    def test_full_closure_that_must_stay_full_rematches(self, compiles):
        acl = allow_all()
        obj = subject(acl, pre="return True")
        obj.invoke("m", [1], caller=CALLER)
        acl.grant(GUEST, Permission.GET)
        obj.invoke("m", [1], caller=CALLER)
        assert compiles == ["m"]


class TestEvictionOrder:
    def test_rematch_at_the_cap_moves_the_entry_to_the_newest_end(self):
        acl = allow_all()
        obj = subject(acl)
        cap = obj.fastpath.COMPILED_CAP
        callers = [
            Principal(f"mrom://rematch/c{index}", "rematch", f"c{index}")
            for index in range(cap + 2)
        ]
        for caller in callers[:cap]:
            obj.invoke("m", [0], caller=caller)
        acl.grant(GUEST, Permission.GET)
        obj.invoke("m", [0], caller=callers[0])  # re-matched at the cap
        assert obj.fastpath.compiled_entries == cap
        assert obj.fastpath.compiled_discards == 1
        for caller in callers[cap:]:
            obj.invoke("m", [0], caller=caller)
        # recorded with the discard-and-rebuild cold step: the re-matched
        # entry is the newest of the first cap, so c1 and c2 go first
        keys = [key[0].rsplit("/", 1)[1] for key in obj.fastpath.compiled]
        assert keys == (
            [f"c{index}" for index in range(3, cap)] + ["c0", f"c{cap}", f"c{cap + 1}"]
        )
        assert obj.fastpath.compiled_discards == 3
