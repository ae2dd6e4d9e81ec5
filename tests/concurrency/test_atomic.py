"""Atomic mutation blocks: rollback of structure, values, tower, env."""

import pytest

from repro.core import MethodNotFoundError, MROMObject, Principal, allow_all
from repro.concurrency import atomic

from ..conftest import build_counter


@pytest.fixture
def owner():
    return Principal("mrom://h/1.1", "dom", "owner")


@pytest.fixture
def obj(owner):
    return build_counter(owner=owner, extensible_meta=True, meta_acl=allow_all())


class Boom(RuntimeError):
    pass


class TestCommit:
    def test_success_keeps_changes(self, obj, owner):
        with atomic(obj):
            obj.invoke("addDataItem", ["x", 1], caller=owner)
            obj.invoke("increment", [5], caller=owner)
        assert obj.get_data("x") == 1
        assert obj.get_data("count") == 5

    def test_returns_the_object(self, obj):
        with atomic(obj) as inner:
            assert inner is obj


class TestRollback:
    def test_data_values_restored(self, obj, owner):
        obj.invoke("increment", [3], caller=owner)
        with pytest.raises(Boom):
            with atomic(obj):
                obj.invoke("increment", [100], caller=owner)
                raise Boom()
        assert obj.get_data("count") == 3

    def test_added_items_removed(self, obj, owner):
        with pytest.raises(Boom):
            with atomic(obj):
                obj.invoke("addDataItem", ["temp", 1], caller=owner)
                obj.invoke("addMethod", ["helper", "return 1"], caller=owner)
                raise Boom()
        assert not obj.containers.has_data("temp")
        assert not obj.containers.has_method("helper")

    def test_deleted_items_resurrected(self, obj, owner):
        obj.invoke("addDataItem", ["keep", 9], caller=owner)
        with pytest.raises(Boom):
            with atomic(obj):
                obj.invoke("deleteDataItem", ["keep"], caller=owner)
                raise Boom()
        assert obj.get_data("keep") == 9

    def test_tower_restored(self, obj, owner):
        with pytest.raises(Boom):
            with atomic(obj):
                obj.invoke(
                    "addMethod",
                    ["invoke", "return 'hijacked'", {"acl": allow_all().describe()}],
                    caller=owner,
                )
                assert obj.invoke("peek") == "hijacked"
                raise Boom()
        assert obj.invoke("peek") == 0

    def test_a_rolled_back_method_is_not_served_by_a_compiled_closure(
        self, obj, owner
    ):
        # the swap of the extensible containers must stale the closure
        # compiled for the method inside the block
        with pytest.raises(Boom):
            with atomic(obj):
                obj.invoke("addMethod", ["hello", "return 42"], caller=owner)
                assert obj.invoke("hello", caller=owner) == 42
                assert obj.invoke("hello", caller=owner) == 42
                raise Boom()
        assert not obj.containers.has_method("hello")
        with pytest.raises(MethodNotFoundError):
            obj.invoke("hello", caller=owner)

    def test_environment_restored(self, obj):
        obj.environment["mode"] = "normal"
        with pytest.raises(Boom):
            with atomic(obj):
                obj.environment["mode"] = "weird"
                obj.environment["junk"] = True
                raise Boom()
        assert obj.environment["mode"] == "normal"
        assert "junk" not in obj.environment

    def test_mutable_value_mutation_rolled_back(self, owner):
        obj = MROMObject(owner=owner)
        obj.define_fixed_data("log", ["start"])
        obj.seal()
        with pytest.raises(Boom):
            with atomic(obj):
                obj.get_data("log", caller=owner).append("during")
                raise Boom()
        assert obj.get_data("log") == ["start"]

    def test_nested_atomic_blocks(self, obj, owner):
        with atomic(obj):
            obj.invoke("increment", [1], caller=owner)
            with pytest.raises(Boom):
                with atomic(obj):
                    obj.invoke("increment", [100], caller=owner)
                    raise Boom()
            obj.invoke("increment", [1], caller=owner)
        assert obj.get_data("count") == 2

    def test_exception_propagates(self, obj):
        with pytest.raises(Boom):
            with atomic(obj):
                raise Boom()

    def test_fixed_section_untouched_by_snapshot(self, obj, owner):
        # adjacent sanity: the fixed structure cannot change inside the
        # block either, so rollback never needs to consider it
        from repro.core import FixedSectionError

        with pytest.raises(FixedSectionError):
            with atomic(obj):
                obj.invoke("deleteDataItem", ["count"], caller=owner)
        assert obj.containers.has_data("count")

    def test_a_live_object_value_keeps_its_identity(self, owner):
        # regression: the snapshot deep-copied every value, so a rollback
        # swapped a held object for a same-guid clone registered nowhere
        peer = MROMObject()
        obj = MROMObject(owner=owner)
        obj.define_fixed_data("peer", peer)
        obj.define_fixed_data("peers", [peer, {"again": peer}])
        obj.seal()
        with pytest.raises(Boom):
            with atomic(obj):
                obj.set_data("peer", None, caller=owner)
                raise Boom()
        assert obj.get_data("peer") is peer
        peers = obj.get_data("peers")
        assert peers[0] is peer and peers[1]["again"] is peer
