"""The command-line interface."""

import pytest

from repro.cli import main
from repro.core import MROMObject, Principal
from repro.mobility import pack_bytes
from repro.persistence import ObjectStore, persist
from tests.persistence.test_store import frame_of


@pytest.fixture
def mpl_script(tmp_path):
    script = tmp_path / "demo.mpl"
    script.write_text(
        """
        object greeter {
          fixed data greeting = "shalom"
          fixed method greet(name) { return greeting + ", " + name }
        }
        let g = new greeter
        print g.greet("olam")
        """,
        encoding="utf-8",
    )
    return script


@pytest.fixture
def packed_file(tmp_path):
    obj = MROMObject(display_name="artifact", guid="mrom://cli/1.1")
    obj.define_fixed_data("x", 1)
    obj.define_fixed_method("get_x", "return self.get('x')", pre="return True")
    obj.seal()
    target = tmp_path / "artifact.mrom"
    target.write_bytes(pack_bytes(obj))
    return target


class TestRun:
    def test_run_prints_output(self, mpl_script, capsys):
        assert main(["run", str(mpl_script)]) == 0
        assert capsys.readouterr().out.strip() == "shalom, olam"

    def test_show_value(self, tmp_path, capsys):
        script = tmp_path / "v.mpl"
        script.write_text("1 + 41", encoding="utf-8")
        assert main(["run", "--show-value", str(script)]) == 0
        assert "=> 42" in capsys.readouterr().out

    def test_missing_file(self, capsys):
        assert main(["run", "/nonexistent/x.mpl"]) == 2
        assert "error" in capsys.readouterr().err

    def test_syntax_error_reported(self, tmp_path, capsys):
        script = tmp_path / "bad.mpl"
        script.write_text("let = nonsense", encoding="utf-8")
        assert main(["run", str(script)]) == 1
        assert "MPLSyntaxError" in capsys.readouterr().err


class TestCheck:
    def test_check_reports_counts(self, mpl_script, capsys):
        assert main(["check", str(mpl_script)]) == 0
        out = capsys.readouterr().out
        assert "1 object(s)" in out and "1 method(s)" in out

    def test_check_catches_compile_errors(self, tmp_path, capsys):
        script = tmp_path / "bad.mpl"
        script.write_text(
            "object o { fixed method f() { return unknown_name } }",
            encoding="utf-8",
        )
        assert main(["check", str(script)]) == 1


class TestInspect:
    def test_inspect_describes_package(self, packed_file, capsys):
        assert main(["inspect", str(packed_file)]) == 0
        out = capsys.readouterr().out
        assert "mrom://cli/1.1" in out
        assert "artifact" in out
        assert "get_x [p]" in out  # the pre-procedure marker

    def test_inspect_garbage_fails_cleanly(self, tmp_path, capsys):
        garbage = tmp_path / "garbage.mrom"
        garbage.write_bytes(b"not a package")
        assert main(["inspect", str(garbage)]) == 1
        assert "error" in capsys.readouterr().err


class TestStore:
    @pytest.fixture
    def store_root(self, tmp_path):
        store = ObjectStore(tmp_path / "store")
        owner = Principal("mrom://cli/9.9", "dom", "owner")
        obj = MROMObject(guid="mrom://cli/2.2", display_name="kept", owner=owner)
        obj.define_fixed_data("x", 5)
        obj.seal()
        persist(obj, store)
        return tmp_path / "store", obj.guid

    def test_list(self, store_root, capsys):
        root, guid = store_root
        assert main(["store", "--root", str(root), "list"]) == 0
        assert guid in capsys.readouterr().out

    def test_list_empty(self, tmp_path, capsys):
        assert main(["store", "--root", str(tmp_path / "empty"), "list"]) == 0
        assert "(empty store)" in capsys.readouterr().out

    def test_show(self, store_root, capsys):
        root, guid = store_root
        assert main(["store", "--root", str(root), "show", guid]) == 0
        out = capsys.readouterr().out
        assert "kept" in out and "x" in out

    def test_verify_clean(self, store_root, capsys):
        root, guid = store_root
        assert main(["store", "--root", str(root), "verify"]) == 0
        assert f"ok      {guid}" in capsys.readouterr().out

    def test_verify_detects_corruption(self, store_root, capsys):
        root, guid = store_root
        store = ObjectStore(root)
        version = store.versions(guid)[-1]
        path, span = frame_of(store, guid, version)
        raw = bytearray(path.read_bytes())
        raw[span.start:span.start + 4] = b"junk"
        path.write_bytes(bytes(raw))
        assert main(["store", "--root", str(root), "verify"]) == 1
        assert "CORRUPT" in capsys.readouterr().out


@pytest.mark.load
class TestLoad:
    def test_load_reports_percentiles(self, capsys):
        assert main(["load", "--requests", "300", "--clients", "2"]) == 0
        out = capsys.readouterr().out
        assert "p50=" in out and "p99=" in out
        assert "unresolved=0" in out
        assert "no lost updates" in out

    def test_load_json_report(self, capsys):
        import json

        assert main(["load", "--requests", "200", "--clients", "2",
                     "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["unresolved"] == 0
        assert report["consistent"] is True
        assert {"p50", "p95", "p99"} <= set(report["latency"])

    def test_load_window_sheds(self, capsys):
        assert main([
            "load", "--requests", "400", "--mode", "open", "--rate", "2000",
            "--window", "1", "--service-delay", "0.002",
            "--mix", "invoke=1",
        ]) == 0
        assert "sheds" in capsys.readouterr().out

    def test_load_bad_mix_is_a_usage_error(self, capsys):
        with pytest.raises(ValueError, match="unknown op"):
            main(["load", "--requests", "10", "--mix", "teleport=1"])


@pytest.mark.recovery
class TestRecover:
    """Offline replay of a directory of logs; exit 1 iff any is damaged."""

    def _log(self, root, delta_guid: str | None = None):
        from repro.mobility import pack
        from repro.persistence import WriteAheadLog, make_store

        obj = MROMObject(display_name="counter", guid="mrom://cli/2.1")
        obj.define_fixed_data("count", 0)
        obj.seal()
        wal = WriteAheadLog(make_store("file", root=root, name="s1"))
        wal.append("object.image", {"guid": obj.guid, "package": pack(obj)})
        wal.append("served.reply", {
            "kind": "invoke", "request_id": "c#1:1",
            "reply": {"ok": True, "result": 1},
            "guid": delta_guid or obj.guid, "delta": {"count": 1},
        })
        wal.store.close()

    def test_clean_log_replays(self, tmp_path, capsys):
        self._log(tmp_path)
        assert main(["recover", "--root", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "s1: records=2 objects=1" in out and "damage=None" in out

    def test_orphan_delta_is_reported_as_damage(self, tmp_path, capsys):
        self._log(tmp_path, delta_guid="mrom://cli/ghost")
        assert main(["recover", "--root", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "s1: records=2 objects=1" in out and "damage=torn" in out
        assert "1 with damage" in out

    def test_an_image_archive_is_refused_untouched(self, tmp_path, capsys):
        store = ObjectStore(tmp_path)
        obj = MROMObject(display_name="kept", guid="mrom://cli/2.2")
        obj.seal()
        for _ in range(3):
            persist(obj, store)
        path, span = frame_of(store, obj.guid, 2)
        raw = bytearray(path.read_bytes())
        raw[span.stop - 1] ^= 0xFF
        path.write_bytes(bytes(raw))
        assert main(["recover", "--root", str(path.parent)]) == 2
        assert "image archive" in capsys.readouterr().err
        assert path.read_bytes() == raw
        assert store.versions(obj.guid) == [1, 3]


@pytest.mark.analysis
class TestAnalyze:
    HAZARD = (
        "object o {\n"
        "  data n = 0\n"
        "  method bump() {\n"
        "    n = n + 1\n"
        "  }\n"
        "}\n"
    )

    def test_findings_reported_with_lint_exit_codes(self, tmp_path, capsys):
        script = tmp_path / "h.mpl"
        script.write_text(self.HAZARD)
        assert main(["analyze", str(script)]) == 0  # warnings pass by default
        assert "race.lost-update" in capsys.readouterr().out
        assert main(["analyze", str(script), "--strict"]) == 1

    def test_clean_tree_is_clean(self, tmp_path, capsys):
        script = tmp_path / "ok.mpl"
        script.write_text(
            "object o {\n  data n = 0\n  method reset() {\n    n = 0\n  }\n}\n"
        )
        assert main(["analyze", str(script), "--strict"]) == 0
        assert "clean: no findings" in capsys.readouterr().out

    def test_pass_selection(self, tmp_path, capsys):
        script = tmp_path / "h.mpl"
        script.write_text(self.HAZARD)
        assert main(["analyze", str(script), "--deadlocks", "--strict"]) == 0
        capsys.readouterr()
        assert main(["analyze", str(script), "--races", "--strict"]) == 1

    def test_json_report(self, tmp_path, capsys):
        import json

        script = tmp_path / "h.mpl"
        script.write_text(self.HAZARD)
        main(["analyze", str(script), "--json"])
        report = json.loads(capsys.readouterr().out)
        rules = [d["rule"] for d in report["diagnostics"]]
        assert rules == ["race.lost-update"]
        assert report["summary"]["warnings"] == 1

    def test_missing_path_is_a_usage_error(self, capsys):
        assert main(["analyze", "/nonexistent/tree"]) == 2
        assert "error" in capsys.readouterr().err

    def test_no_paths_is_a_usage_error(self, capsys):
        assert main(["analyze"]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.load
    def test_sanitize_smoke_matches_every_witness(self, capsys):
        assert main([
            "analyze", "--sanitize-smoke", "--requests", "600",
        ]) == 0
        out = capsys.readouterr().out
        assert "OK" in out
        assert "observed 0 race(s)" not in out  # non-vacuous
