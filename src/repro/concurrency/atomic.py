"""Atomic mutation: all-or-nothing changes to an object's mutable state.

The paper's "advanced features" call for "atomicity to facilitate
consistent computations". A mobile object adjusting itself to a new host
typically performs *several* meta-operations (add a method, re-point a
data item, swap an ACL); a failure halfway would leave the object in a
state neither the origin nor the host intended. :func:`atomic` wraps such
a sequence: on any exception the extensible containers, data values,
meta-invoke tower and environment are restored to their entry snapshot.

Only the object's *mutable* surface participates — the fixed section
cannot change, so it needs no snapshot (the fixed/extensible split pays
off again: recovery cost is proportional to the mutable part only).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from ..core.errors import TransactionError
from ..core.items import DataItem
from ..core.mobject import MROMObject
from ..core.values import snapshot_value

__all__ = ["atomic", "snapshot_mutable_state", "restore_mutable_state"]


def snapshot_mutable_state(obj: MROMObject) -> dict:
    """Capture everything :func:`atomic` may need to roll back.

    Values are snapshotted as a package snapshots them
    (:func:`~repro.core.values.snapshot_value`): a live object an item
    holds is kept by identity, so a rollback restores that object, not
    a clone of it registered nowhere.
    """
    return {
        "ext_data": dict(obj.containers.ext_data._items),
        "ext_methods": dict(obj.containers.ext_methods._items),
        "data_values": {
            item.name: snapshot_value(item.peek())
            for item in list(obj.containers.fixed_data)
            + list(obj.containers.ext_data)
            if isinstance(item, DataItem)
        },
        "tower": list(obj.meta_invoke_chain()),
        "environment": snapshot_value(obj.environment),
    }


def restore_mutable_state(obj: MROMObject, snapshot: dict) -> None:
    """Wind the object back to a snapshot taken on it earlier."""
    obj.containers.ext_data._items.clear()
    obj.containers.ext_data._items.update(snapshot["ext_data"])
    obj.containers.ext_methods._items.clear()
    obj.containers.ext_methods._items.update(snapshot["ext_methods"])
    for name, value in snapshot["data_values"].items():
        if obj.containers.has_data(name):
            item, _section = obj.containers.lookup_data(name)
            item.poke(value)
    obj._meta_invokes[:] = snapshot["tower"]
    obj.environment.clear()
    obj.environment.update(snapshot["environment"])
    # the swap bypassed the containers: stale every compiled closure
    # and every journal base that pinned the rolled-back structure
    obj.containers.clock.bump()


@contextmanager
def atomic(obj: MROMObject) -> Iterator[MROMObject]:
    """All-or-nothing mutation block.

    >>> from repro.core import MROMObject
    >>> obj = MROMObject(); obj.define_fixed_data("x", 1); obj.seal()
    >>> try:
    ...     with atomic(obj):
    ...         obj.set_data("x", 99, caller=obj.principal)
    ...         raise RuntimeError("halfway failure")
    ... except RuntimeError:
    ...     pass
    >>> obj.get_data("x")
    1

    The rollback restores structure (extensible items, tower), data
    values, and the environment. It does **not** undo external effects
    (messages already sent, remote invocations already performed) — like
    any local transaction, the atomicity boundary is the object.
    """
    before = snapshot_mutable_state(obj)
    try:
        yield obj
    except Exception as exc:
        try:
            restore_mutable_state(obj, before)
        except Exception as rollback_error:  # pragma: no cover - defensive
            raise TransactionError(
                f"rollback itself failed: {rollback_error}"
            ) from exc
        raise
