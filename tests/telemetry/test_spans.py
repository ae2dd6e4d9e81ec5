"""The span runtime: lifecycle, nesting, recorder, exporters, schema."""

from __future__ import annotations

import threading
from types import SimpleNamespace

import pytest

from repro.telemetry import (
    Telemetry,
    TraceContext,
    active,
    disable,
    enable,
    enabled,
    render_tree,
    span_lines,
    validate_span_lines,
    validate_span_mapping,
    write_spans_jsonl,
)
from repro import probes
from repro.core import MROMObject, Principal, allow_all

pytestmark = pytest.mark.telemetry

OWNER = Principal("mrom://tower/1.1", "tower", "owner")


def fake_clock():
    """A deterministic nanosecond clock (one tick per reading)."""
    ticks = iter(range(1, 10_000))
    return lambda: next(ticks)


class TestLifecycle:
    def test_root_span_mints_a_new_trace(self):
        tel = Telemetry(clock=fake_clock())
        span = tel.begin_span("root")
        assert span.parent_id is None
        assert span.trace_id == "t00000001"
        tel.end_span(span)
        assert span.ended
        assert tel.open_spans == 0
        assert tel.recorder.trace_ids() == ["t00000001"]

    def test_nesting_parents_under_the_current_span(self):
        tel = Telemetry(clock=fake_clock())
        outer = tel.begin_span("outer")
        inner = tel.begin_span("inner")
        assert inner.trace_id == outer.trace_id
        assert inner.parent_id == outer.span_id
        tel.end_span(inner)
        tel.end_span(outer)

    def test_remote_context_becomes_the_parent(self):
        tel = Telemetry(clock=fake_clock())
        wire = TraceContext("tremote", "sremote")
        span = tel.begin_span("serve", parent=wire)
        assert span.trace_id == "tremote"
        assert span.parent_id == "sremote"
        tel.end_span(span)

    def test_activate_deactivate_remote_context(self):
        tel = Telemetry(clock=fake_clock())
        ctx = TraceContext("tr", "sr")
        tel.activate(ctx)
        child = tel.begin_span("child")
        assert child.trace_id == "tr" and child.parent_id == "sr"
        tel.end_span(child)
        tel.deactivate(ctx)
        assert tel.current_context() is None

    def test_end_is_idempotent_first_close_wins(self):
        tel = Telemetry(clock=fake_clock())
        span = tel.begin_span("once")
        span.end("error")
        span.end("ok")
        assert span.status == "error"

    def test_context_manager_marks_errors(self):
        tel = Telemetry(clock=fake_clock())
        with pytest.raises(RuntimeError):
            with tel.span("boom"):
                raise RuntimeError("x")
        assert tel.recorder.spans[-1].status == "error"
        assert tel.open_spans == 0

    def test_deterministic_ids(self):
        first = Telemetry(clock=fake_clock())
        second = Telemetry(clock=fake_clock())
        for tel in (first, second):
            tel.end_span(tel.begin_span("a"))
            tel.end_span(tel.begin_span("b"))
        assert [s.span_id for s in first.recorder] == [
            s.span_id for s in second.recorder
        ]

    def test_recorder_evicts_oldest_beyond_cap(self):
        tel = Telemetry(clock=fake_clock(), span_cap=3)
        for index in range(5):
            tel.end_span(tel.begin_span(f"s{index}"))
        assert len(tel.recorder) == 3
        assert tel.recorder.dropped == 2
        assert [s.name for s in tel.recorder] == ["s2", "s3", "s4"]


class TestThreads:
    def test_each_thread_closes_its_own_spans(self):
        """An active object's worker invokes on its own thread while the
        main thread invokes too: every invoke span must end with its own
        call's outcome, never with the other thread's."""
        from repro.concurrency import ActiveObject

        def counter(name):
            obj = MROMObject(display_name=name)
            obj.define_fixed_data("n", 0)
            obj.define_fixed_method("bump", "self.set('n', self.get('n') + 1)")
            obj.define_fixed_method("fail", "raise ValueError('no')")
            obj.seal()
            return obj

        worker_side, main_side = counter("worker"), counter("main")
        with enabled() as tel:
            with ActiveObject(worker_side) as active:
                futures = []
                for _ in range(1000):
                    futures.append(active.invoke_async("bump"))
                    with pytest.raises(Exception):
                        main_side.invoke("fail")
                for future in futures:
                    future.result(timeout=10)
        statuses = {
            (span.attrs["object"], span.status) for span in tel.recorder
        }
        assert statuses == {(worker_side.guid, "ok"), (main_side.guid, "error")}
        assert tel.open_spans == 0

    def test_open_spans_counts_a_span_left_open_on_another_thread(self):
        tel = Telemetry(clock=fake_clock())
        worker = threading.Thread(target=tel.begin_span, args=("leaked",))
        worker.start()
        worker.join()
        assert tel.open_spans == 1

    def test_a_leaked_begin_leaves_only_its_own_span_open(self):
        """A closing point ends the span its own begin point opened, even
        with an inner span begun and never ended."""
        tel = Telemetry(clock=fake_clock())
        site = SimpleNamespace(site_id="s", network=SimpleNamespace(now=0.0))
        tel.snapshot_begin(site, objects=0, compact=True)
        tel.begin_span("leaked")
        tel.snapshot_end(RuntimeError("disk"))
        [closed] = tel.recorder
        assert (closed.name, closed.status) == ("wal.checkpoint", "error")
        assert tel.open_spans == 1


class TestGlobalSwitch:
    def test_enable_disable_round_trip(self):
        assert active() is None
        tel = enable()
        assert probes.ACTIVE is tel
        assert enable() is tel  # idempotent
        assert disable() is tel
        assert probes.ACTIVE is None
        assert disable() is None

    def test_enabled_restores_previous_state(self):
        with enabled() as tel:
            assert probes.ACTIVE is tel
        assert probes.ACTIVE is None

    def test_capture_stays_readable_after_disable(self):
        with enabled() as tel:
            tel.end_span(tel.begin_span("kept"))
        assert [s.name for s in tel.recorder] == ["kept"]

    def test_released_plane_records_nothing_more(self):
        """Once its block exits, a plane is unhooked for real: the fig-1
        tower workload (two pass-through meta-invoke levels) adds no
        span and moves no counter, gauge or histogram of it."""
        obj = MROMObject(display_name="tower", owner=OWNER, extensible_meta=True)
        obj.define_fixed_method("Mfoo", "return args[0] + 1")
        obj.seal()
        for _ in range(2):
            obj.invoke(
                "addMethod",
                ["invoke", "return ctx.proceed()",
                 {"acl": allow_all().describe()}],
                caller=OWNER,
            )
        workload = lambda: obj.invoke("Mfoo", [1], caller=OWNER)  # noqa: E731
        with enabled(Telemetry()) as tel:
            for _ in range(10):
                workload()
        assert tel.metrics.counter_value("invocations") > 0
        spans = [span.span_id for span in tel.recorder]
        assert spans, "the enabled block must have recorded the workload"
        metrics = tel.metrics.snapshot()
        for _ in range(10):
            assert workload() == 2
        assert [span.span_id for span in tel.recorder] == spans
        assert tel.metrics.snapshot() == metrics
        assert tel.open_spans == 0


class TestExporters:
    def _capture(self):
        tel = Telemetry(clock=fake_clock())
        with tel.span("parent", {"k": "v"}) as parent:
            parent.event("phase", step=1)
            with tel.span("child"):
                pass
        return tel

    def test_span_lines_validate_against_the_schema(self):
        tel = self._capture()
        errors = validate_span_lines("\n".join(span_lines(tel.recorder)))
        assert errors == []

    def test_schema_rejects_corruption(self):
        tel = self._capture()
        mapping = tel.recorder.spans[0].to_mapping()
        mapping["trace_id"] = ""
        mapping["start_ns"] = "soon"
        del mapping["status"]
        errors = validate_span_mapping(mapping)
        assert len(errors) == 3

    def test_jsonl_file_export(self, tmp_path):
        tel = self._capture()
        out = tmp_path / "spans.jsonl"
        count = write_spans_jsonl(out, tel.recorder)
        assert count == 2
        assert validate_span_lines(out.read_text(encoding="utf-8")) == []

    def test_tree_nests_children_and_shows_events(self):
        tel = self._capture()
        lines = render_tree(tel.recorder)
        text = "\n".join(lines)
        assert lines[0].startswith("trace ")
        assert "parent" in text and "child" in text and "* phase" in text
        parent_line = next(l for l in lines if "parent" in l)
        child_line = next(l for l in lines if "child" in l)
        assert len(child_line) - len(child_line.lstrip()) > len(
            parent_line
        ) - len(parent_line.lstrip())

    def test_tree_flags_orphans_instead_of_hiding_them(self):
        tel = Telemetry(clock=fake_clock())
        span = tel.begin_span("stray", parent=TraceContext("tx", "missing"))
        tel.end_span(span)
        text = "\n".join(render_tree(tel.recorder))
        assert "stray" in text and "[orphan]" in text
