"""Item containers: the four-way structure of every MROM object.

"The fixed and extensible portions of MROM objects are implemented using
four Java objects called *item containers*. An item container is a set of
name-and-value pairs ... The extensible portion consists of two
extensible containers, whose pairs can be added, removed and their value
can be replaced in runtime. The fixed portion consists of two containers
on which none of the previous manipulations are available." (Section 4.)

:class:`ItemContainer` is one such set; it is *sealable* — fixed
containers are populated during object construction and then sealed, after
which every structural manipulation raises
:class:`~repro.core.errors.SealedContainerError`.

:class:`ContainerSet` aggregates the four containers and implements the
lookup rules:

* data items and methods live in disjoint namespaces ("the sole reason is
  to avoid name conflicts between data items and methods");
* within a namespace, an extensible item may **not** shadow a fixed one —
  the fixed section is the portion "always guaranteed to exist", and
  shadowing would silently change guaranteed semantics
  (:class:`~repro.core.errors.DuplicateItemError` instead);
* lookup order is fixed first, then extensible (which, given the no-shadow
  rule, is equivalent to a search over disjoint name sets).
"""

from __future__ import annotations

from typing import Callable, Iterator

from .epoch import EPOCH
from .errors import (
    DataItemNotFoundError,
    DuplicateItemError,
    ItemNotFoundError,
    MethodNotFoundError,
    SealedContainerError,
)
from .items import DataItem, ItemDescription, MROMMethod, _Item

__all__ = ["Section", "ItemContainer", "ContainerSet", "MutationClock"]

#: Section labels used throughout descriptions and errors.
FIXED = "fixed"
EXTENSIBLE = "extensible"
Section = str


class MutationClock:
    """A shared monotonic counter of structural mutations.

    The four containers of one :class:`ContainerSet` bump the same clock
    on every add/remove/replace/rename, so the set's *generation* moves
    whenever any structure an invocation-cache entry could depend on
    moves — regardless of whether the mutation arrived through a
    meta-method or a direct container call. Each bump also bumps the
    process-wide structural :data:`~repro.core.epoch.EPOCH`.
    """

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def bump(self) -> int:
        self.value += 1
        EPOCH.bump()
        return self.value

    def __repr__(self) -> str:
        return f"MutationClock({self.value})"


class ItemContainer:
    """An ordered set of name-and-item pairs, optionally sealable.

    Insertion order is preserved — descriptions enumerate items in the
    order the object acquired them, which keeps interrogation output
    stable and makes packing deterministic.
    """

    __slots__ = ("label", "_items", "_sealed", "_clock")

    def __init__(self, label: str, clock: MutationClock | None = None):
        self.label = label
        self._items: dict[str, _Item] = {}
        self._sealed = False
        self._clock = clock if clock is not None else MutationClock()

    # -- sealing -------------------------------------------------------------

    @property
    def sealed(self) -> bool:
        return self._sealed

    def seal(self) -> None:
        """Freeze the container's structure permanently."""
        self._sealed = True

    def _ensure_open(self, operation: str) -> None:
        if self._sealed:
            raise SealedContainerError(
                f"container {self.label!r} is sealed; cannot {operation}"
            )

    # -- structural manipulation ----------------------------------------------

    def add(self, item: _Item) -> None:
        self._ensure_open(f"add {item.name!r}")
        if item.name in self._items:
            raise DuplicateItemError(item.name, self.label)
        self._items[item.name] = item
        self._clock.bump()

    def fill(self, items: dict[str, _Item]) -> None:
        """Populate a new, empty container at once (one clock bump)."""
        assert not self._items and not self._sealed
        self._items = items
        self._clock.bump()

    def remove(self, name: str) -> _Item:
        self._ensure_open(f"remove {name!r}")
        try:
            item = self._items.pop(name)
        except KeyError:
            raise ItemNotFoundError(name, self.label) from None
        self._clock.bump()
        return item

    def replace(self, name: str, item: _Item) -> _Item:
        """Swap the item stored under *name*; returns the old item."""
        self._ensure_open(f"replace {name!r}")
        if name not in self._items:
            raise ItemNotFoundError(name, self.label)
        old = self._items[name]
        # keep mapping-key and item-name consistent
        if item.name != name:
            del self._items[name]
            if item.name in self._items:
                self._items[name] = old  # restore before failing
                raise DuplicateItemError(item.name, self.label)
            self._items[item.name] = item
        else:
            self._items[name] = item
        self._clock.bump()
        return old

    def rename(self, old_name: str, new_name: str) -> None:
        """Rename an item in place (a ``set*`` property change)."""
        self._ensure_open(f"rename {old_name!r}")
        if old_name not in self._items:
            raise ItemNotFoundError(old_name, self.label)
        if new_name in self._items:
            raise DuplicateItemError(new_name, self.label)
        item = self._items.pop(old_name)
        item.rename(new_name)
        self._items[new_name] = item
        self._clock.bump()

    # -- lookup ----------------------------------------------------------------

    def get(self, name: str) -> _Item:
        try:
            return self._items[name]
        except KeyError:
            raise ItemNotFoundError(name, self.label) from None

    def find(self, name: str) -> _Item | None:
        return self._items.get(name)

    def holds(self, item: _Item) -> bool:
        """Identity check used by :class:`~repro.core.items.ItemHandle`."""
        return self._items.get(item.name) is item

    def __contains__(self, name: str) -> bool:
        return name in self._items

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[_Item]:
        return iter(self._items.values())

    def names(self) -> tuple[str, ...]:
        return tuple(self._items)

    def __repr__(self) -> str:
        state = "sealed" if self._sealed else "open"
        return f"ItemContainer({self.label!r}, {len(self._items)} items, {state})"


class ContainerSet:
    """The four containers of an MROM object, with MROM lookup semantics."""

    __slots__ = ("fixed_data", "fixed_methods", "ext_data", "ext_methods", "_clock")

    def __init__(self) -> None:
        self._clock = MutationClock()
        self.fixed_data = ItemContainer("fixed-data", self._clock)
        self.fixed_methods = ItemContainer("fixed-methods", self._clock)
        self.ext_data = ItemContainer("extensible-data", self._clock)
        self.ext_methods = ItemContainer("extensible-methods", self._clock)

    @property
    def generation(self) -> int:
        """Monotonic structural-mutation generation across all four
        containers — the invalidation signal of the invocation cache."""
        return self._clock.value

    @property
    def clock(self) -> MutationClock:
        """The shared mutation clock itself. Compiled invocation
        closures pin this object and read ``.value`` directly, so their
        generation guard costs one attribute load instead of a property
        chain through the container set."""
        return self._clock

    # -- sealing ------------------------------------------------------------

    def seal_fixed(self) -> None:
        """End of construction: the fixed section becomes immutable."""
        self.fixed_data.seal()
        self.fixed_methods.seal()

    @property
    def construction_finished(self) -> bool:
        return self.fixed_data.sealed and self.fixed_methods.sealed

    # -- generic two-container namespaces -------------------------------------

    def _pair(self, category: str) -> tuple[ItemContainer, ItemContainer]:
        if category == "data":
            return self.fixed_data, self.ext_data
        if category == "method":
            return self.fixed_methods, self.ext_methods
        raise ValueError(f"unknown item category {category!r}")

    def _not_found(self, category: str) -> Callable[[str, str], ItemNotFoundError]:
        return DataItemNotFoundError if category == "data" else MethodNotFoundError

    def lookup(self, category: str, name: str) -> tuple[_Item, Section]:
        """Phase 1 of level-0 invocation: locate and fetch an item.

        Returns the item and the section it was found in.
        """
        fixed, ext = self._pair(category)
        item = fixed.find(name)
        if item is not None:
            return item, FIXED
        item = ext.find(name)
        if item is not None:
            return item, EXTENSIBLE
        raise self._not_found(category)(name, "fixed+extensible")

    def section_of(self, category: str, name: str) -> Section:
        return self.lookup(category, name)[1]

    def add_fixed(self, item: _Item) -> None:
        """Construction-time insertion into the fixed section."""
        fixed, ext = self._pair(item.category)
        if item.name in ext:
            raise DuplicateItemError(item.name, ext.label)
        fixed.add(item)

    def add_extensible(self, item: _Item) -> None:
        """Run-time insertion (the ``add*`` meta-methods)."""
        fixed, ext = self._pair(item.category)
        if item.name in fixed:
            # no shadowing of guaranteed structure
            raise DuplicateItemError(item.name, fixed.label)
        ext.add(item)

    def remove_extensible(self, category: str, name: str) -> _Item:
        """Run-time removal (the ``delete*`` meta-methods)."""
        fixed, ext = self._pair(category)
        if name in fixed:
            raise SealedContainerError(
                f"item {name!r} is in the fixed section and cannot be deleted"
            )
        return ext.remove(name)

    def container_of(self, category: str, name: str) -> ItemContainer:
        fixed, ext = self._pair(category)
        if name in fixed:
            return fixed
        if name in ext:
            return ext
        raise self._not_found(category)(name, "fixed+extensible")

    # -- typed conveniences ------------------------------------------------------

    def lookup_data(self, name: str) -> tuple[DataItem, Section]:
        item, section = self.lookup("data", name)
        assert isinstance(item, DataItem)
        return item, section

    def find_data(self, name: str) -> DataItem:
        """The data item named *name*, fixed section first: the lookup
        behind ``get_data``/``set_data`` and ``self.get``/``self.set``."""
        item = self.fixed_data._items.get(name) or self.ext_data._items.get(name)
        if item is None:
            raise DataItemNotFoundError(name, "fixed+extensible")
        return item  # type: ignore[return-value]

    def lookup_method(self, name: str) -> tuple[MROMMethod, Section]:
        item, section = self.lookup("method", name)
        assert isinstance(item, MROMMethod)
        return item, section

    def has_data(self, name: str) -> bool:
        return name in self.fixed_data or name in self.ext_data

    def has_method(self, name: str) -> bool:
        return name in self.fixed_methods or name in self.ext_methods

    # -- enumeration ---------------------------------------------------------------

    def iter_with_sections(self) -> Iterator[tuple[_Item, str, Section]]:
        """Yield (item, category, section) over all four containers."""
        for item in self.fixed_data:
            yield item, "data", FIXED
        for item in self.ext_data:
            yield item, "data", EXTENSIBLE
        for item in self.fixed_methods:
            yield item, "method", FIXED
        for item in self.ext_methods:
            yield item, "method", EXTENSIBLE

    def describe_all(self) -> list[ItemDescription]:
        return [
            item.describe(section)  # type: ignore[attr-defined]
            for item, _category, section in self.iter_with_sections()
        ]

    def counts(self) -> dict[str, int]:
        return {
            "fixed_data": len(self.fixed_data),
            "fixed_methods": len(self.fixed_methods),
            "extensible_data": len(self.ext_data),
            "extensible_methods": len(self.ext_methods),
        }

    def __repr__(self) -> str:
        c = self.counts()
        return (
            "ContainerSet(fixed: {fixed_data}d/{fixed_methods}m, "
            "extensible: {extensible_data}d/{extensible_methods}m)".format(**c)
        )
