"""Item containers: sealing, the four-way split, lookup precedence."""

import pytest

from repro.core import (
    ContainerSet,
    DataItem,
    DuplicateItemError,
    ItemContainer,
    ItemNotFoundError,
    MROMMethod,
    SealedContainerError,
)
from repro.core.containers import MutationClock


def data(name, value=0):
    return DataItem(name, value)


def method(name):
    return MROMMethod(name, "return None")


class TestItemContainer:
    def test_add_and_get(self):
        container = ItemContainer("test")
        container.add(data("x", 1))
        assert container.get("x").peek() == 1

    def test_add_duplicate_rejected(self):
        container = ItemContainer("test")
        container.add(data("x"))
        with pytest.raises(DuplicateItemError):
            container.add(data("x"))

    def test_remove_returns_item(self):
        container = ItemContainer("test")
        item = data("x", 7)
        container.add(item)
        assert container.remove("x") is item
        assert "x" not in container

    def test_remove_missing_raises(self):
        with pytest.raises(ItemNotFoundError):
            ItemContainer("test").remove("ghost")

    def test_replace_swaps_item(self):
        clock = MutationClock()
        container = ItemContainer("test", clock)
        container.add(data("x", 1))
        swapped_in, before = data("x", 2), clock.value
        old = container.replace("x", swapped_in)
        assert old.peek() == 1
        assert container.get("x").peek() == 2
        # the swap moves the clock, and so does the new item's own edit
        assert clock.value == before + 1
        swapped_in.touch()
        assert clock.value == before + 2

    def test_replace_with_renamed_item(self):
        container = ItemContainer("test")
        container.add(data("x", 1))
        container.replace("x", data("y", 2))
        assert "x" not in container
        assert container.get("y").peek() == 2

    def test_replace_rename_collision_restores_state(self):
        container = ItemContainer("test")
        container.add(data("x", 1))
        container.add(data("y", 2))
        with pytest.raises(DuplicateItemError):
            container.replace("x", data("y", 3))
        assert container.get("x").peek() == 1
        assert container.get("y").peek() == 2

    def test_rename(self):
        container = ItemContainer("test")
        container.add(data("x", 1))
        container.rename("x", "z")
        assert container.get("z").peek() == 1
        assert container.get("z").name == "z"

    @pytest.mark.parametrize("bad", [5, ""])
    def test_rename_to_a_bad_name_keeps_the_item(self, bad):
        container = ItemContainer("test")
        container.add(data("x", 1))
        with pytest.raises(ValueError):
            container.rename("x", bad)
        assert container.get("x").peek() == 1

    def test_sealed_rejects_all_mutation(self):
        container = ItemContainer("test")
        container.add(data("x"))
        container.seal()
        with pytest.raises(SealedContainerError):
            container.add(data("y"))
        with pytest.raises(SealedContainerError):
            container.remove("x")
        with pytest.raises(SealedContainerError):
            container.replace("x", data("x", 9))
        with pytest.raises(SealedContainerError):
            container.rename("x", "y")

    def test_sealed_still_readable(self):
        container = ItemContainer("test")
        container.add(data("x", 5))
        container.seal()
        assert container.get("x").peek() == 5
        assert len(container) == 1

    def test_insertion_order_preserved(self):
        container = ItemContainer("test")
        for name in ["c", "a", "b"]:
            container.add(data(name))
        assert container.names() == ("c", "a", "b")

    def test_holds_is_identity_not_name(self):
        container = ItemContainer("test")
        first = data("x", 1)
        container.add(first)
        container.replace("x", data("x", 2))
        assert not container.holds(first)


class TestContainerSet:
    def test_data_and_methods_are_disjoint_namespaces(self):
        containers = ContainerSet()
        containers.add_fixed(data("thing"))
        containers.add_fixed(method("thing"))  # no clash across categories
        containers.seal_fixed()
        assert containers.has_data("thing")
        assert containers.has_method("thing")

    def test_lookup_reports_section(self):
        containers = ContainerSet()
        containers.add_fixed(data("f", 1))
        containers.seal_fixed()
        containers.add_extensible(data("e", 2))
        assert containers.lookup_data("f")[1] == "fixed"
        assert containers.lookup_data("e")[1] == "extensible"

    def test_extensible_cannot_shadow_fixed(self):
        containers = ContainerSet()
        containers.add_fixed(data("x", 1))
        containers.seal_fixed()
        with pytest.raises(DuplicateItemError):
            containers.add_extensible(data("x", 99))

    def test_fixed_cannot_shadow_extensible(self):
        containers = ContainerSet()
        containers.add_extensible(data("x"))
        with pytest.raises(DuplicateItemError):
            containers.add_fixed(data("x"))

    def test_remove_extensible_rejects_fixed_items(self):
        containers = ContainerSet()
        containers.add_fixed(data("x"))
        containers.seal_fixed()
        with pytest.raises(SealedContainerError):
            containers.remove_extensible("data", "x")

    def test_lookup_missing_raises_typed_error(self):
        containers = ContainerSet()
        containers.seal_fixed()
        with pytest.raises(ItemNotFoundError):
            containers.lookup_data("ghost")
        with pytest.raises(ItemNotFoundError):
            containers.lookup_method("ghost")

    def test_counts(self):
        containers = ContainerSet()
        containers.add_fixed(data("a"))
        containers.add_fixed(method("m"))
        containers.seal_fixed()
        containers.add_extensible(data("b"))
        assert containers.counts() == {
            "fixed_data": 1,
            "fixed_methods": 1,
            "extensible_data": 1,
            "extensible_methods": 0,
        }

    def test_iter_with_sections_covers_all_four(self):
        containers = ContainerSet()
        containers.add_fixed(data("fd"))
        containers.add_fixed(method("fm"))
        containers.seal_fixed()
        containers.add_extensible(data("ed"))
        containers.add_extensible(method("em"))
        entries = {
            (item.name, category, section)
            for item, category, section in containers.iter_with_sections()
        }
        assert entries == {
            ("fd", "data", "fixed"),
            ("ed", "data", "extensible"),
            ("fm", "method", "fixed"),
            ("em", "method", "extensible"),
        }

    def test_describe_all_sections(self):
        containers = ContainerSet()
        containers.add_fixed(data("fd"))
        containers.seal_fixed()
        containers.add_extensible(method("em"))
        descriptions = {d.name: d.section for d in containers.describe_all()}
        assert descriptions == {"fd": "fixed", "em": "extensible"}

    def test_unknown_category_rejected(self):
        with pytest.raises(ValueError):
            ContainerSet().lookup("widget", "x")
