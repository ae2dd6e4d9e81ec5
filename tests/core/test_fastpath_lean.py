"""The lean compiled closure, held to the interpreted reference.

A method without pre/post procedures whose body cannot see its context,
compiled while the telemetry plane is off and the object is not
tracing, compiles to the lean closure: it runs the body alone, and a
successful call leaves only a pinned trace that ``last_record`` builds
when read. Either switch turning on makes it stale, and the next compile
is full. The differential
harness traces both subjects, so it never takes the lean path; this
file drives the same op vocabulary untraced and compares
``last_record`` after every op, then switches tracing and telemetry on
mid-run.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import MROMObject, allow_all
from repro.core.errors import PreProcedureVeto
from repro.telemetry import Telemetry, enabled

from .test_fastpath_differential import (
    FRIEND,
    OWNER,
    STRANGER,
    Pair,
    apply_op,
    canon,
    ops,
    small_ints,
)

pytestmark = [pytest.mark.fastpath, pytest.mark.compile]


def last(obj: MROMObject):
    record = obj.last_record
    if record is None:
        return None
    events = [(e.level, e.phase.value, e.method, e.note) for e in record.events]
    return (record.method, record.caller, record.outcome, events)


class UntracedPair(Pair):
    """The differential pair with tracing off, compared by last_record."""

    def __init__(self):
        super().__init__()
        self.untrace()

    def untrace(self):
        for obj in self.subjects:
            obj.enable_tracing(False)

    def migrate(self):
        super().migrate()
        self.untrace()

    def specialize(self):
        super().specialize()
        self.untrace()

    def step(self, op):
        outcomes = []
        for obj in self.subjects:
            try:
                outcomes.append(("ok", canon(op(obj))))
            except Exception as exc:  # body errors surface raw, as they do uncached
                outcomes.append(("err", type(exc).__name__, str(exc)))
        assert outcomes[0] == outcomes[1]
        assert last(self.interpreted) == last(self.compiled)


def failing_op(arg):
    # "double" without its argument: the body raises IndexError
    return ("invoke_fail", arg)


def apply_lean_op(pair: UntracedPair, op) -> None:
    if op[0] == "invoke_fail":
        pair.step(lambda obj: obj.invoke("double", [], caller=OWNER))
    else:
        apply_op(pair, op)


def build_nested(fastpath: bool) -> MROMObject:
    obj = MROMObject(guid="mrom:obj:nested", owner=OWNER, fastpath=fastpath)
    obj.define_fixed_method("vetoed", "return 1", pre="return False", acl=allow_all())
    obj.define_fixed_method("outer", "return self.call('vetoed')", acl=allow_all())
    obj.define_fixed_method("inner_ok", "return 7", acl=allow_all())
    obj.define_fixed_method("wraps", "return self.call('inner_ok') + 1", acl=allow_all())
    obj.seal()
    return obj


def closure_names(obj: MROMObject) -> dict[str, str]:
    return {key[2]: fn.__name__ for key, fn in obj.fastpath.compiled.items()}


class TestLeanClosure:
    @given(st.lists(st.one_of(ops(), small_ints.map(failing_op)), min_size=1, max_size=25))
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    def test_untraced_sequences_keep_last_record_identical(self, sequence):
        pair = UntracedPair()
        for op in sequence:
            apply_lean_op(pair, op)

    def test_a_warm_success_leaves_only_the_pinned_trace(self):
        pair = UntracedPair()
        for obj in pair.subjects:
            obj.invoke("ping", [], caller=FRIEND)
            obj.invoke("ping", [], caller=FRIEND)
        assert pair.compiled.fastpath.compiled_hits == 1
        assert isinstance(pair.compiled._last_record, tuple)
        # read twice: built once, the same record both times
        assert pair.compiled.last_record is pair.compiled.last_record
        assert last(pair.compiled) == last(pair.interpreted)

    def test_the_shape_is_chosen_when_compiled(self):
        obj = build_nested(True)
        obj.invoke("inner_ok")
        with pytest.raises(PreProcedureVeto):
            obj.invoke("vetoed")
        assert closure_names(obj) == {
            "inner_ok": "lean_invoke",
            "vetoed": "compiled_invoke",
        }

    @pytest.mark.parametrize("switch", ["tracing", "telemetry"])
    def test_a_switch_turning_on_recompiles_the_full_closure(self, switch):
        obj = build_nested(True)
        obj.invoke("inner_ok")  # compiles lean
        if switch == "tracing":
            obj.enable_tracing(True)
            obj.invoke("inner_ok"), obj.invoke("inner_ok")
            assert [r.outcome for r in obj.invocation_records()] == ["ok", "ok"]
        else:
            with enabled(Telemetry()) as tel:
                obj.invoke("inner_ok"), obj.invoke("inner_ok")
                assert tel.metrics.counter_value("invocations") == 2
        cache = obj.fastpath
        assert (cache.compiles, cache.compiled_discards, cache.compiled_hits) == (2, 1, 1)
        assert closure_names(obj) == {"inner_ok": "compiled_invoke"}

    def test_records_are_fresh_per_call(self):
        obj = build_nested(True)
        obj.invoke("inner_ok"), obj.invoke("inner_ok")
        first = obj.last_record
        first.events.append("scribbled")
        obj.invoke("inner_ok")
        assert obj.last_record is not first
        assert len(obj.last_record.events) == 3

    @pytest.mark.parametrize("method", ["outer", "wraps"])
    def test_nested_calls_match_the_reference(self, method):
        subjects = [build_nested(False), build_nested(True)]
        for _ in range(3):
            outcomes = []
            for obj in subjects:
                try:
                    outcomes.append(obj.invoke(method, [], caller=STRANGER))
                except PreProcedureVeto as exc:
                    outcomes.append(("veto", str(exc)))
            assert outcomes[0] == outcomes[1]
            assert last(subjects[0]) == last(subjects[1])
        if method == "outer":
            assert subjects[1].last_record.outcome == "veto"

    def test_tracing_and_telemetry_switched_on_mid_run(self):
        pair = UntracedPair()
        call = lambda obj: obj.invoke("double", [3], caller=FRIEND)  # noqa: E731
        pair.step(call)
        pair.step(call)
        for obj in pair.subjects:
            obj.enable_tracing(True)
        pair.step(call)
        traced = [
            [(e.phase.value, e.note) for r in obj.invocation_records() for e in r.events]
            for obj in pair.subjects
        ]
        assert traced[0] == traced[1] != []
        pair.untrace()
        audits = []
        for obj in pair.subjects:
            with enabled(Telemetry()) as tel:
                obj.invoke("double", [4], caller=FRIEND)
                audits.append(
                    (
                        tel.metrics.counter_value("acl.checks"),
                        tel.metrics.counter_value("invocations"),
                    )
                )
        assert audits[0] == audits[1] == (1, 1)
        assert last(pair.interpreted) == last(pair.compiled)
