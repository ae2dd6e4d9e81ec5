"""The structural epoch: one process-wide count of structural edits.

An object's image is its structure (items, their properties and ACLs,
the meta-invoke tower) plus its data values. Every edit of the first
kind, on any object, bumps :data:`EPOCH`: a container add, remove,
replace, rename or fill (through the containers' mutation clock), an
item property change (``_Item.touch``), an ACL edit, a tower push or
pop, and an atomic rollback. A reader that finds ``EPOCH.value`` where
it left it knows no structure moved in between; an edit of an
unrelated object only makes it look again, never miss an edit.
"""

from __future__ import annotations

__all__ = ["EPOCH", "Epoch"]


class Epoch:
    """A monotonic counter read as one attribute load."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def bump(self) -> None:
        self.value += 1


EPOCH = Epoch()
