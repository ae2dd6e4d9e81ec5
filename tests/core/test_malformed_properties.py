"""Malformed item properties are refused typed, naming the item.

``addDataItem``, ``addMethod``, ``setDataItem`` and ``setMethod`` take an
``acl`` property as a live ACL or as its description, which a remote
caller sends as plain data; the data-item ones also take a ``kind`` by
name. A description that does not describe an ACL, or a name that is no
kind, is a :class:`StructureError` naming the item, locally and over the
wire, never the bare Python error of the parser underneath, and the
item is left as it was.
"""

from __future__ import annotations

import pytest

from repro.core import Principal, owner_only
from repro.core.errors import RemoteInvocationError, StructureError
from repro.net import WAN, Network, Site
from repro.sim import Simulator

OWNER = Principal("mrom://boston/owner", "mit.lcs", "owner")


def _entry(**fields):
    entry = {"subject": "*", "permissions": ["GET"], "decision": "allow"}
    entry.update(fields)
    return {"acl": {"entries": [entry]}}


#: one malformed property per case: the untyped error each raised before
BAD = {
    "unknown-permission": _entry(permissions=["FLY"]),  # KeyError
    "subject-not-text": _entry(subject=5),  # TypeError
    "unknown-decision": _entry(decision="maybe"),  # ValueError
    "acl-not-a-mapping": {"acl": 7},  # AttributeError
    "entries-not-a-list": {"acl": {"entries": 3}},  # TypeError
    "unknown-kind": {"kind": "bogus"},  # ValueError
    # no ACL to set (an add takes None for the default ACL); it was
    # installed, and the reply's describe raised AttributeError
    "acl-null": {"acl": None},
}

OPERATIONS = ("addDataItem", "setDataItem", "addMethod", "setMethod")
CASES = [
    (operation, case)
    for operation in OPERATIONS
    for case in BAD
    if (case != "unknown-kind" or operation.endswith("DataItem"))
    and (case != "acl-null" or operation.startswith("set"))
]


@pytest.fixture
def world():
    network = Network(Simulator())
    haifa = Site(network, "haifa", "technion.ee")
    boston = Site(network, "boston", "mit.lcs")
    network.topology.connect("haifa", "boston", *WAN)
    obj = haifa.create_object(
        display_name="target", owner=OWNER, extensible_meta=True,
        meta_acl=owner_only(OWNER),
    )
    obj.seal()
    obj.self_view().add_data("x", 1)
    obj.self_view().add_method("op", "return 'v1'")
    haifa.register_object(obj, name="target")
    return obj, boston.remote_resolve("haifa", "target")


def meta_args(target, operation: str, properties: dict) -> tuple[list, str]:
    """The meta-method's arguments and the item it names."""
    if operation == "addDataItem":
        return ["y", 1, properties], "y"
    if operation == "addMethod":
        return ["y", "return 1", properties], "y"
    getter, name = ("getDataItem", "x") if operation == "setDataItem" else ("getMethod", "op")
    _description, handle = target.invoke(getter, [name], caller=OWNER)
    return [handle, properties], name


def structure(obj) -> list:
    """Every item's description: name, kind, version, ACL, metadata."""
    return obj.describe_items()


@pytest.mark.parametrize("operation,case", CASES, ids=[f"{o}-{c}" for o, c in CASES])
class TestMalformedProperties:
    def test_local(self, world, operation, case):
        obj, _ref = world
        args, name = meta_args(obj, operation, BAD[case])
        before = structure(obj)
        with pytest.raises(StructureError) as refused:
            obj.invoke(operation, args, caller=OWNER)
        assert type(refused.value) is StructureError
        assert repr(name) in str(refused.value)
        assert structure(obj) == before

    def test_over_rmi(self, world, operation, case):
        obj, ref = world
        args, name = meta_args(ref, operation, BAD[case])
        before = structure(obj)
        with pytest.raises(RemoteInvocationError) as refused:
            ref.invoke(operation, args, caller=OWNER)
        assert refused.value.remote_type == "StructureError"
        assert isinstance(refused.value, StructureError)
        assert repr(name) in str(refused.value)
        assert structure(obj) == before
