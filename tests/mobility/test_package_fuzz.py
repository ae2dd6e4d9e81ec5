"""Seeded fuzz of package unpacking: a tampered package is refused.

A host receiving a mobile object unpacks bytes a peer chose. Whatever
those bytes are — a valid package with bytes flipped, cut short, or
with one field of its structure replaced or removed — ``unpack_bytes``
must either rebuild an object or fail with an ``MROMError``, and
touching every data value of the rebuilt object must do the same. Any
other exception is a crash a hostile peer could cause.

Hypothesis runs derandomized, so every run draws the same examples.
"""

from __future__ import annotations

import copy

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import HtmlText, Kind, Principal, allow_all, owner_only
from repro.core.errors import MROMError
from repro.core.items import DataItem
from repro.core.mobject import MROMObject
from repro.mobility.package import pack, unpack_bytes
from repro.net.marshal import DEFER_BINARY_MIN, Reference, marshal

pytestmark = pytest.mark.fuzz

FUZZ = settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=100,
    suppress_health_check=[HealthCheck.too_slow],
)


def _traveller() -> dict:
    owner = Principal("mrom://home/7.1", "dom.home", "owner")
    obj = MROMObject(
        guid="mrom://home/3.1", domain="dom.home", display_name="traveller",
        owner=owner, extensible_meta=True, meta_acl=owner_only(owner),
    )
    obj.define_fixed_data("hops", 0, kind=Kind.INTEGER, acl=allow_all())
    obj.define_fixed_data("log", ["home"], metadata={"unit": "site"})
    obj.define_fixed_method("bump", "self.set('hops', self.get('hops') + 1)")
    obj.seal()
    view = obj.self_view()
    view.add_data("note", HtmlText("<i>hi</i>"))
    view.add_data("friend", Reference("mrom://away/1.1", "away"))
    view.add_method("hops_of", "return self.get('hops')")
    return pack(obj)


PACKAGE = _traveller()
WIRE = marshal(PACKAGE)


def _paths(value, path=()):
    """Every position in the package tree, as a key/index path."""
    yield path
    if isinstance(value, dict):
        for key, child in value.items():
            yield from _paths(child, path + (key,))
    elif isinstance(value, list):
        for index, child in enumerate(value):
            yield from _paths(child, path + (index,))


PATHS = [path for path in _paths(PACKAGE) if path]

replacements = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-3, max_value=300),
    st.sampled_from(["", "bogus", "any", "allow", "deny", "GET", "python"]),
    st.binary(max_size=4),
    st.just(b"\x00" * DEFER_BINARY_MIN),  # unpacks as a cell
    st.builds(Reference, st.sampled_from(["mrom://x/1.1"]), st.just("x")),
    st.lists(st.sampled_from([0, "x", None]), max_size=3),
    st.dictionaries(st.sampled_from(["name", "kind", "x"]),
                    st.sampled_from([0, "x", None]), max_size=2),
)


def _mutate(path, replacement, delete):
    """A deep copy of the package with the node at *path* replaced (or
    removed from its parent)."""
    package = copy.deepcopy(PACKAGE)
    parent = package
    for step in path[:-1]:
        parent = parent[step]
    if delete:
        del parent[path[-1]]
    else:
        parent[path[-1]] = replacement
    return package


def _unpack_and_touch(wire: bytes) -> None:
    try:
        obj = unpack_bytes(wire)
        for item, _category, _section in obj.containers.iter_with_sections():
            if isinstance(item, DataItem):
                item.peek()  # a deferred binary value is sliced here
    except MROMError:
        pass


def test_the_untampered_package_unpacks():
    obj = unpack_bytes(WIRE)
    assert obj.guid == PACKAGE["guid"]


@FUZZ
@given(
    path=st.sampled_from(PATHS),
    replacement=replacements,
    delete=st.booleans(),
)
def test_a_tampered_field_fails_typed(path, replacement, delete):
    _unpack_and_touch(marshal(_mutate(path, replacement, delete)))


@FUZZ
@given(
    edits=st.lists(
        st.tuples(st.integers(min_value=0, max_value=len(WIRE) - 1),
                  st.integers(min_value=0, max_value=255)),
        min_size=1, max_size=4,
    ),
    cut=st.none() | st.integers(min_value=0, max_value=len(WIRE) - 1),
)
def test_flipped_or_cut_bytes_fail_typed(edits, cut):
    wire = bytearray(WIRE)
    for position, byte in edits:
        wire[position] = byte
    _unpack_and_touch(bytes(wire[:cut]))
