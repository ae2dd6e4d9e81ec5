"""The warm level-0 path, held to what it replaced.

* **Frame budget.** A warm compiled call enters ``MROMObject.invoke``,
  the closure and the body; each ``self.get``/``self.set`` enters the
  view, the one data lookup (``ContainerSet.find_data``) and the item.
  The counts are exact Python call events under ``sys.setprofile``, so a
  wrapper added back on the hot path fails here first.
* **SelfView differential.** ``self.get``/``self.set`` reach the item
  without ``get_data``/``set_data``; they must stay what those do for
  the object's own principal, through structural edits made after a
  closure was compiled, deferred binary values, kind coercion, tracing
  and the telemetry plane.
* **Cache accounting.** One fixed op sequence with ACL edits, a tower
  push and pop, reflective invokes and a reset; the counters after each
  step are the ones the two-step dispatch (``Invoker.invoke`` looking
  up its own closure) produced.
* **The trace-event table.** Compiles share their level-0 events; the
  table stays bounded and every shared event equals a fresh one.
"""

from __future__ import annotations

import sys

import pytest

from repro.core import (
    AccessControlList,
    Kind,
    MROMObject,
    Permission,
    Principal,
    allow_all,
)
from repro.core import invocation
from repro.core.errors import DataItemNotFoundError, MROMError
from repro.core.invocation import Phase, TraceEvent
from repro.net.marshal import BinaryCell
from repro.telemetry import Telemetry, enabled

pytestmark = [pytest.mark.fastpath, pytest.mark.compile]

CALLER = Principal("mrom://hot/caller", "hot", "caller")

#: the invoke_local body and the counter increment of the e2e workloads
LOCAL_BODY = "return args[0] * 1 + self.get('base')"
INCREMENT = (
    "self.set('count', self.get('count') + (args[0] if args else 1))\n"
    "return self.get('count')"
)


def frames_of_warm_call(obj: MROMObject, method: str, args: list) -> list[str]:
    """The Python functions one warm compiled call enters, in order."""
    for _ in range(2):  # compile, then build the portable body
        obj.invoke(method, args, caller=CALLER)
    entered: list[str] = []

    def profile(frame, event, _arg):
        if event == "call":
            entered.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        obj.invoke(method, args, caller=CALLER)
    finally:
        sys.setprofile(None)
    return entered


class TestFrameBudget:
    def test_invoke_local_body(self):
        obj = MROMObject(display_name="local")
        obj.define_fixed_data("base", 3)
        obj.define_fixed_method("m0", LOCAL_BODY, acl=allow_all())
        obj.seal()
        assert frames_of_warm_call(obj, "m0", [5]) == [
            "invoke", "lean_invoke", "portable", "get", "find_data", "peek",
        ]

    def test_increment_body(self):
        obj = MROMObject(display_name="counter")
        obj.define_fixed_data("count", 0)
        obj.define_fixed_method("increment", INCREMENT, acl=allow_all())
        obj.seal()
        assert frames_of_warm_call(obj, "increment", [1]) == [
            "invoke", "lean_invoke", "portable",
            "get", "find_data", "peek",
            "set", "find_data", "poke",
            "get", "find_data", "peek",
        ]

    def test_traced_body_skips_the_build_check(self):
        # the full closure calls the built body as the lean one does
        obj = MROMObject(display_name="traced")
        obj.define_fixed_data("base", 3)
        obj.define_fixed_method("m0", LOCAL_BODY, acl=allow_all())
        obj.seal()
        obj.enable_tracing()
        assert frames_of_warm_call(obj, "m0", [5]) == [
            "invoke", "compiled_invoke", "__init__", "portable",
            "get", "find_data", "peek", "note_invocation",
        ]


# ---------------------------------------------------------------------------
# SelfView.get/set against get_data/set_data with the object's principal
# ---------------------------------------------------------------------------


class CountingCell(BinaryCell):
    """A deferred binary leaf that counts its copies out of the message."""

    __slots__ = ()
    copies = 0

    def materialize(self) -> bytes:
        if self._data is not None:
            CountingCell.copies += 1
        return super().materialize()


def twin(**values) -> MROMObject:
    """An object with fixed 'f', typed 'n', extensible 'e' and body
    methods that read and write any item through ``self``."""
    obj = MROMObject(display_name="twin", extensible_meta=True)
    obj.define_fixed_data("f", values.get("f", 1))
    obj.define_fixed_data("n", 0, kind=Kind.INTEGER)
    obj.define_fixed_method("rd", "return self.get(args[0])", acl=allow_all())
    obj.define_fixed_method("wr", "self.set(args[0], args[1])", acl=allow_all())
    obj.seal()
    obj.invoke("addDataItem", ["e", values.get("e", "x")], caller=obj.principal)
    return obj


def outcome(thunk):
    try:
        return "ok", thunk()
    except MROMError as exc:
        return type(exc).__name__, str(exc)


class Pair:
    """Two equal objects: *viewed* is read and written by its bodies
    (``self.get``/``self.set`` inside compiled closures), *direct* by
    ``get_data``/``set_data`` with its own principal."""

    def __init__(self, **values):
        self.viewed = twin(**values)
        self.direct = twin(**values)

    def read(self, name: str):
        got = outcome(lambda: self.viewed.invoke("rd", [name], caller=CALLER))
        want = outcome(
            lambda: self.direct.get_data(name, caller=self.direct.principal)
        )
        assert got == want, name
        return got

    def write(self, name: str, value):
        got = outcome(lambda: self.viewed.invoke("wr", [name, value], caller=CALLER))
        want = outcome(
            lambda: self.direct.set_data(name, value, caller=self.direct.principal)
        )
        assert got == want, (name, value)
        self.read(name)
        return got

    def both(self, edit):
        for obj in (self.viewed, self.direct):
            edit(obj)


def run_script(pair: Pair) -> None:
    assert pair.read("f") == ("ok", 1)
    assert pair.read("e") == ("ok", "x")
    pair.write("f", 7)
    pair.write("e", [1, 2])
    # a missing name: same type and message as get_data/set_data
    assert pair.read("missing")[0] == "DataItemNotFoundError"
    assert pair.write("missing", 1)[0] == "DataItemNotFoundError"
    # kind coercion on set, and the refusal of a value that cannot coerce
    assert pair.write("n", "42") == ("ok", None)
    assert pair.read("n") == ("ok", 42)
    assert pair.write("n", "not a number")[0] != "ok"
    # structural edits after the closures were compiled: remove ...
    pair.both(lambda obj: obj.invoke("deleteDataItem", ["e"], caller=obj.principal))
    assert pair.read("e")[0] == "DataItemNotFoundError"
    assert pair.write("e", 3)[0] == "DataItemNotFoundError"
    # ... replace under the same name ...
    pair.both(lambda obj: obj.invoke("addDataItem", ["e", "new"], caller=obj.principal))
    assert pair.read("e") == ("ok", "new")
    # ... and rename
    def rename(obj):
        _description, handle = obj.invoke("getDataItem", ["e"], caller=obj.principal)
        obj.invoke("setDataItem", [handle, {"name": "e2"}], caller=obj.principal)

    pair.both(rename)
    assert pair.read("e")[0] == "DataItemNotFoundError"
    assert pair.read("e2") == ("ok", "new")
    pair.write("e2", 9)


class TestSelfViewDifferential:
    def test_script_untraced(self):
        run_script(Pair())

    def test_script_traced_with_telemetry(self):
        pair = Pair()
        pair.both(lambda obj: obj.enable_tracing(True))
        with enabled(Telemetry()):
            run_script(pair)
        assert pair.viewed.last_record.outcome == "ok"

    def test_views_outside_a_body_agree(self):
        obj = twin()
        view = obj.self_view()
        view.set("n", "5")
        assert view.get("n") == obj.get_data("n", caller=obj.principal) == 5
        with pytest.raises(MROMError) as by_view:
            view.get("missing")
        with pytest.raises(MROMError) as by_get_data:
            obj.get_data("missing", caller=obj.principal)
        assert type(by_view.value) is type(by_get_data.value)
        assert str(by_view.value) == str(by_get_data.value) == str(
            DataItemNotFoundError("missing", "fixed+extensible")
        )

    def test_binary_cell_materializes_once(self):
        message = b"head" + bytes(range(200)) + b"tail"
        CountingCell.copies = 0
        cells = [CountingCell(message, 4, 204) for _ in range(2)]
        pair = Pair()
        pair.viewed, pair.direct = twin(f=cells[0]), twin(f=cells[1])
        first = pair.read("f")
        assert first == ("ok", bytes(range(200)))
        assert pair.read("f") == first
        assert CountingCell.copies == 2  # once per object, not per read
        read_twice = [pair.viewed.invoke("rd", ["f"], caller=CALLER) for _ in range(2)]
        assert read_twice[0] is read_twice[1]

    def test_non_self_caller_keeps_its_acl_check(self):
        obj = twin()
        _description, handle = obj.invoke("getDataItem", ["e"], caller=obj.principal)
        obj.invoke("setDataItem", [handle, {"acl": AccessControlList()}],
                   caller=obj.principal)
        with pytest.raises(MROMError) as denied:
            obj.get_data("e", caller=CALLER)
        assert type(denied.value).__name__ == "AccessDeniedError"
        # the object's own bodies still read it: self bypasses the ACL
        assert obj.invoke("rd", ["e"], caller=CALLER) == "x"


# ---------------------------------------------------------------------------
# cache accounting
# ---------------------------------------------------------------------------

ALICE = Principal("mrom://acct/alice", "acct", "alice")
BOB = Principal("mrom://acct/bob", "acct", "bob")

#: (compiles, compiled_discards, invalidations, compiled_hits) after each
#: step of accounting_steps, as recorded with the two-step dispatch
ACCOUNTING = [
    (1, 0, 0, 2), (1, 0, 0, 2), (2, 0, 0, 2), (3, 0, 0, 2), (3, 0, 0, 2),
    (4, 0, 0, 3), (4, 0, 0, 3), (4, 1, 1, 3), (4, 1, 1, 4), (4, 1, 1, 4),
    (5, 2, 2, 5), (5, 2, 2, 5), (5, 2, 2, 5), (5, 2, 2, 5), (5, 2, 2, 7),
    (5, 2, 2, 9), (6, 3, 3, 10), (6, 3, 3, 10), (6, 3, 3, 10), (7, 4, 4, 11),
    (7, 7, 5, 11), (8, 7, 5, 12),
]


def accounting_steps():
    obj = MROMObject(display_name="acct", extensible_meta=True, meta_acl=allow_all())
    obj.define_fixed_data("base", 1)
    acl = AccessControlList().grant(ALICE.guid, Permission.INVOKE)
    obj.define_fixed_method("m0", "return args[0] + self.get('base')", acl=acl)
    obj.define_fixed_method(
        "m1", "self.set('base', self.get('base') + 1)\nreturn self.get('base')",
        acl=allow_all(),
    )
    obj.seal()
    me = obj.principal

    def call(method, args, caller, times=1):
        for _ in range(times):
            try:
                obj.invoke(method, args, caller=caller)
            except MROMError:
                pass

    steps = [
        lambda: call("m0", [1], ALICE, 3),
        lambda: call("m0", [1], BOB, 2),  # denied: never compiled
        lambda: call("m1", [], ALICE),
        lambda: call("m0", [2], me),
        lambda: acl.grant(BOB.guid, Permission.INVOKE),
        lambda: call("m0", [1], BOB, 2),
        lambda: acl.revoke(ALICE.guid, Permission.INVOKE),
        lambda: call("m0", [1], ALICE),  # stale, then denied
        lambda: call("m1", [], ALICE),
        lambda: call("addDataItem", ["extra", 5], me),
        lambda: call("m1", [], ALICE, 2),
        lambda: call("addMethod", ["invoke", "return ctx.proceed()"], me),
        lambda: call("m1", [], ALICE),  # the tower: no compiled dispatch
        lambda: call("deleteMethod", ["invoke"], me),
        lambda: call("m1", [], ALICE, 2),
        lambda: call("invoke", ["m1", []], ALICE, 2),
        lambda: call("invoke", ["m0", [3]], BOB, 2),
        lambda: call("nope", [], ALICE),
        lambda: obj.enable_tracing(True),
        lambda: call("m1", [], ALICE, 2),
        lambda: obj.fastpath_reset(),
        lambda: call("m0", [1], BOB, 2),
    ]
    for step in steps:
        step()
        stats = obj.fastpath.stats()
        yield (stats["compiles"], stats["compiled_discards"],
               stats["invalidations"], stats["compiled_hits"])


class TestCacheAccounting:
    def test_counters_match_the_two_step_dispatch(self):
        assert list(accounting_steps()) == ACCOUNTING


# ---------------------------------------------------------------------------
# the shared trace-event table
# ---------------------------------------------------------------------------


class TestEventTable:
    def test_bounded_under_ten_thousand_method_names(self):
        obj = MROMObject(display_name="churn", extensible_meta=True)
        obj.seal()
        for index in range(10_000):
            name = f"m{index}"
            obj.invoke("addMethod", [name, lambda view, args, ctx: 1,
                                     {"acl": allow_all()}], caller=obj.principal)
            assert obj.invoke(name, caller=CALLER) == 1
            obj.invoke("deleteMethod", [name], caller=obj.principal)
            info = invocation._event.cache_info()
            assert info.currsize <= info.maxsize == 4096

    def test_shared_events_equal_fresh_ones(self):
        obj = MROMObject(display_name="events")
        obj.define_fixed_method(
            "guarded", "return args[0]", pre="return True", post="return True",
            acl=allow_all(),
        )
        obj.seal()
        obj.enable_tracing(True)
        for caller, match in ((CALLER, "checked"), (obj.principal, "self")):
            obj.invoke("guarded", [1], caller=caller)
            events = obj.last_record.events
            assert events == [
                TraceEvent(0, Phase.LOOKUP, "guarded", "fixed"),
                TraceEvent(0, Phase.MATCH, "guarded", match),
                TraceEvent(0, Phase.PRE, "guarded", "ok"),
                TraceEvent(0, Phase.BODY, "guarded"),
                TraceEvent(0, Phase.POST, "guarded", "ok"),
            ]
            for event in events:
                assert event is invocation._event(
                    0, event.phase, event.method, event.note
                )

    def test_recompiles_reuse_the_events(self):
        obj = MROMObject(display_name="recompile")
        acl = allow_all()
        obj.define_fixed_method("m", "return 1", acl=acl)
        obj.seal()
        obj.invoke("m", caller=CALLER)
        first = obj.last_record.events
        obj.fastpath_reset()  # cold: the next call recompiles (an ACL edit re-matches)
        obj.invoke("m", caller=CALLER)
        assert obj.fastpath.compiles == 2
        assert all(a is b for a, b in zip(first, obj.last_record.events))
