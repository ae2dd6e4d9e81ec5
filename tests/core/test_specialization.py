"""Static (template) and dynamic (clone) specialization."""

import pytest

from repro.core import (
    DuplicateItemError,
    MROMObject,
    ObjectTemplate,
    allow_all,
    clone,
)


@pytest.fixture
def counter_template():
    template = ObjectTemplate("counter")
    template.fixed_data("count", 0)
    template.fixed_method(
        "increment",
        "step = args[0] if args else 1\n"
        "self.set('count', self.get('count') + step)\n"
        "return self.get('count')",
    )
    return template


class TestTemplates:
    def test_instantiate(self, counter_template):
        obj = counter_template.instantiate()
        assert obj.invoke("increment", [2]) == 2
        assert obj.sealed

    def test_instances_are_independent(self, counter_template):
        first = counter_template.instantiate()
        second = counter_template.instantiate()
        first.invoke("increment", [10])
        assert second.invoke("increment") == 1

    def test_instances_get_distinct_guids(self, counter_template):
        assert (
            counter_template.instantiate().guid
            != counter_template.instantiate().guid
        )

    def test_mutable_default_values_not_shared(self):
        template = ObjectTemplate("listy")
        template.fixed_data("items", [])
        template.fixed_method(
            "push", "self.get('items').append(args[0])\nreturn len(self.get('items'))"
        )
        first = template.instantiate()
        second = template.instantiate()
        first.invoke("push", ["a"])
        assert second.invoke("push", ["b"]) == 1

    def test_extensible_initial_state(self):
        template = ObjectTemplate("svc")
        template.extensible_data("interface_version", 1)
        obj = template.instantiate()
        _item, section = obj.containers.lookup_data("interface_version")
        assert section == "extensible"

    def test_lineage_recorded_in_environment(self, counter_template):
        child = counter_template.derive("fancy-counter")
        obj = child.instantiate()
        assert obj.environment["lineage"] == ["counter", "fancy-counter"]


class TestDerivation:
    def test_child_inherits_fixed_items(self, counter_template):
        child = counter_template.derive("resettable")
        child.fixed_method("reset", "self.set('count', 0)\nreturn True")
        obj = child.instantiate()
        obj.invoke("increment", [5])
        assert obj.invoke("reset") is True
        assert obj.invoke("increment") == 1

    def test_child_cannot_redefine_ancestor_fixed_item(self, counter_template):
        child = counter_template.derive("bad")
        with pytest.raises(DuplicateItemError):
            child.fixed_method("increment", "return 'hijacked'")
        with pytest.raises(DuplicateItemError):
            child.fixed_data("count", 99)

    def test_child_may_override_extensible_spec(self):
        base = ObjectTemplate("svc")
        base.extensible_data("version", 1)
        child = base.derive("svc2")
        child.extensible_data("version", 2)
        assert child.instantiate().get_data("version") == 2
        assert base.instantiate().get_data("version") == 1

    def test_grandchild_chain(self, counter_template):
        child = counter_template.derive("c2")
        child.fixed_data("step", 2)
        grandchild = child.derive("c3")
        grandchild.fixed_method(
            "bump", "return self.call('increment', self.get('step'))"
        )
        obj = grandchild.instantiate()
        assert obj.invoke("bump") == 2
        assert obj.environment["lineage"] == ["counter", "c2", "c3"]

    def test_extensible_meta_inherited(self):
        base = ObjectTemplate("meta-open", extensible_meta=True)
        child = base.derive("child")
        assert child.instantiate().extensible_meta


class TestClone:
    def make_prototype(self, alice):
        obj = MROMObject(
            display_name="proto", owner=alice, extensible_meta=True,
            meta_acl=allow_all(),
        )
        obj.define_fixed_data("base", 10)
        obj.define_fixed_method("get_base", "return self.get('base')")
        obj.seal()
        obj.invoke("addDataItem", ["extra", [1, 2]], caller=alice)
        obj.invoke("addMethod", ["sum_extra", "return sum(self.get('extra'))"], caller=alice)
        return obj

    def test_clone_copies_structure(self, alice):
        proto = self.make_prototype(alice)
        copy_obj = clone(proto)
        assert copy_obj.invoke("get_base") == 10
        assert copy_obj.invoke("sum_extra") == 3
        assert copy_obj.guid != proto.guid

    def test_clone_state_is_independent(self, alice):
        proto = self.make_prototype(alice)
        copy_obj = clone(proto)
        copy_obj.get_data("extra", caller=alice).append(3)
        assert proto.get_data("extra", caller=alice) == [1, 2]

    def test_clone_holds_a_live_object_by_identity(self, alice):
        # a data value that is an object is held, not cloned into a
        # second object with the same guid that is registered nowhere
        peer = MROMObject(display_name="peer")
        proto = self.make_prototype(alice)
        proto.invoke("addDataItem", ["peer", {"refs": [peer], "n": [1]}], caller=alice)
        copy_obj = clone(proto)
        held = copy_obj.get_data("peer", caller=alice)
        assert held["refs"][0] is peer
        assert held["n"] is not proto.get_data("peer", caller=alice)["n"]

    def test_template_holds_a_live_object_by_identity(self):
        peer = MROMObject(display_name="peer")
        template = ObjectTemplate("holder")
        template.fixed_data("peer", [peer])
        first, second = template.instantiate(), template.instantiate()
        assert first.get_data("peer")[0] is peer
        assert first.get_data("peer") is not second.get_data("peer")

    def test_clone_diverges_via_meta_methods(self, alice):
        proto = self.make_prototype(alice)
        copy_obj = clone(proto)
        copy_obj.invoke("addMethod", ["only_here", "return 'yes'"], caller=alice)
        assert copy_obj.invoke("only_here") == "yes"
        assert not proto.containers.has_method("only_here")

    def test_clone_copies_tower(self, alice):
        proto = self.make_prototype(alice)
        proto.invoke(
            "addMethod",
            ["invoke", "return ['via-tower', ctx.proceed()]",
             {"acl": allow_all().describe()}],
            caller=alice,
        )
        copy_obj = clone(proto)
        assert copy_obj.invoke("get_base") == ["via-tower", 10]
        # and the copies are independent towers
        copy_obj.invoke("deleteMethod", ["invoke"], caller=alice)
        assert copy_obj.invoke("get_base") == 10
        assert proto.invoke("get_base") == ["via-tower", 10]

    def test_clone_gets_fresh_meta_methods(self, alice):
        proto = self.make_prototype(alice)
        copy_obj = clone(proto)
        # the clone's meta-methods operate on the clone, not the prototype
        copy_obj.invoke("addDataItem", ["clone-only", 1], caller=alice)
        assert not proto.containers.has_data("clone-only")
