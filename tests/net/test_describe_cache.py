"""Differential check of the served ``describe`` view.

A site keeps one encoded describe reply per object, keyed by the
object's structure stamp and the viewer's visibility mask. Random
structural edits interleave with remote describes from viewers of every
kind, and each reply must equal a fresh ``describe_object(obj, viewer)``
mapping. A viewer repeats across each edit, so an edit path that the
stamp does not see is served the stale view and fails here. One ACL is
shared by items of the subject and of a second object, the twin, whose
views are checked the same way.
"""

import random

import pytest

from repro.concurrency import atomic
from repro.core import (
    SYSTEM,
    AccessControlList,
    Permission,
    Principal,
    allow_all,
    owner_only,
)
from repro.core.errors import AccessDeniedError
from repro.core.introspection import describe as describe_object
from repro.core.items import DataItem
from repro.core.mobject import META_METHOD_NAMES
from repro.mobility.package import pack, unpack
from repro.net import RemoteRef
from repro.net.marshal import Reference, marshal, unmarshal

from ..conftest import make_site_world

OWNER = Principal("mrom://h/owner", "corp.hq", "owner")
STAR = Principal("mrom://far/1", "", "stranger")
DOMAIN = Principal("mrom://corp/7", "corp.dept", "colleague")
DENIED = Principal("mrom://corp/666", "corp.dept", "mallory")

PASS_THROUGH = "return ctx.proceed()"


class Rollback(Exception):
    pass


def as_seen(value):
    """A decoded reply with every proxy as the reference it stands for."""
    if isinstance(value, RemoteRef):
        return Reference(value.guid, value.site)
    if isinstance(value, dict):
        return {key: as_seen(inner) for key, inner in value.items()}
    if isinstance(value, list):
        return [as_seen(inner) for inner in value]
    return value


def random_acl(rng):
    acl = allow_all() if rng.random() < 0.5 else owner_only(OWNER)
    if rng.random() < 0.5:
        acl.grant("domain:corp", _perm(rng))
    if rng.random() < 0.4:
        acl.revoke(DENIED.guid, _perm(rng))
    return acl.describe()


def _perm(rng):
    return rng.choice((Permission.GET, Permission.INVOKE, Permission.META, Permission.SET))


class DescribeWorld:
    def __init__(self, seed):
        self.rng = random.Random(seed)
        _network, sites = make_site_world(seed=seed)
        self.server, self.client = sites["a"], sites["b"]
        self.peer = self.client.create_object(display_name="peer")
        obj = self.server.create_object(
            display_name="subject", owner=OWNER, extensible_meta=True
        )
        obj.define_fixed_data(
            "count", 0, metadata={"doc": "a counter", "peer": Reference("mrom://b/9", "b")}
        )
        obj.define_fixed_method("peek", "return self.get('count')")
        obj.seal()
        self.server.register_object(obj)
        self.obj = obj
        self.twin = self.server.create_object(display_name="twin", owner=OWNER)
        self.twin.define_fixed_data("count", 0)
        self.twin.define_fixed_method("peek", "return self.get('count')")
        self.twin.seal()
        self.server.register_object(self.twin)
        self.shared = AccessControlList.from_description(random_acl(self.rng))
        self.serial = 0
        self.viewers = [obj.principal, OWNER, STAR, DOMAIN, DENIED]
        self.last_viewer = obj.principal

    # -- the edits ---------------------------------------------------------

    def _ext_items(self, category):
        container = (
            self.obj.containers.ext_data if category == "data"
            else self.obj.containers.ext_methods
        )
        return [
            item for item in container
            if not item.metadata.get("meta") and item.name != "holder"
        ]

    def _pick(self, category):
        items = self._ext_items(category)
        return self.rng.choice(items) if items else None

    def _fresh_name(self):
        self.serial += 1
        return f"x{self.serial}"

    def meta(self, name, args):
        # the object edits itself, which no item ACL can refuse
        return self.obj.invoke(name, args, caller=self.obj.principal)

    def handle(self, item):
        kind = "getDataItem" if item.category == "data" else "getMethod"
        return self.meta(kind, [item.name])[1]

    def edit(self):
        rng, obj = self.rng, self.obj
        choice = rng.randrange(18)
        if choice == 0:
            self.meta("addDataItem", [self._fresh_name(), rng.randrange(9),
                                      {"acl": random_acl(rng),
                                       "metadata": {"ref": Reference("mrom://b/1", "b")}}])
        elif choice == 1:
            self.meta("addMethod", [self._fresh_name(), "return 1",
                                    {"acl": random_acl(rng), "metadata": {"doc": "m"}}])
        elif choice == 2:
            item = self._pick("data")
            if item is not None:
                self.meta("deleteDataItem", [item.name])
        elif choice == 3:
            item = self._pick(rng.choice(("data", "method")))
            if item is not None:
                kind = "setDataItem" if item.category == "data" else "setMethod"
                self.meta(kind, [self.handle(item), {"name": self._fresh_name()}])
        elif choice == 4:
            item = self._pick("data")
            if item is not None:
                self.meta("setDataItem", [self.handle(item), {
                    "kind": rng.choice(("any", "integer", "text")),
                    "metadata": {"tags": [self._fresh_name()]},
                }])
        elif choice == 5:
            item = self._pick("method")
            if item is not None:
                self.meta("setMethod", [self.handle(item), {"acl": random_acl(rng)}])
        elif choice == 6:
            item = self._pick(rng.choice(("data", "method")))
            if item is not None:
                item.update_metadata({"doc": self._fresh_name()})
        elif choice == 7:
            item = rng.choice(self._plain_items())
            item.acl.grant(rng.choice(("*", "domain:corp", DENIED.guid)), _perm(rng))
        elif choice == 8:
            item = rng.choice(self._plain_items())
            item.acl.revoke(rng.choice(("*", "domain:corp", DENIED.guid)), _perm(rng))
        elif choice == 9:
            present = [
                (item, entry.subject)
                for item in self._plain_items() for entry in item.acl
            ]
            if present:
                item, subject = rng.choice(present)
                item.acl.remove_subject(subject)
        elif choice == 10:
            self.meta("addMethod", ["invoke", PASS_THROUGH,
                                    {"acl": owner_only(OWNER).describe()}])
        elif choice == 11:
            if obj.meta_invoke_chain():
                self.meta("deleteMethod", ["invoke"])
        elif choice == 12:
            self.rolled_back_swap()
        elif choice == 13:
            self.toggle_live_peer()
        elif choice == 14:
            # the shared list goes to two items of the subject and one of
            # the twin (one item may be picked twice)
            for item in rng.choices(self._plain_items(), k=2) + [
                rng.choice(self._plain_items(self.twin))
            ]:
                item.set_acl(self.shared)
        elif choice == 15:
            subject = rng.choice(("*", "domain:corp", DENIED.guid))
            if rng.random() < 0.5:
                self.shared.grant(subject, _perm(rng))
            else:
                self.shared.revoke(subject, _perm(rng))
        elif choice == 16:
            # a bundled meta-method's properties count as much as any item's
            item = obj.containers.ext_methods.get(rng.choice(META_METHOD_NAMES))
            item.update_metadata({"doc": self._fresh_name()})
        elif obj.meta_invoke_chain():
            # the top level's own properties (getMethod finds the top)
            handle = self.meta("getMethod", ["invoke"])[1]
            self.meta("setMethod", [handle, {"metadata": {"doc": self._fresh_name()}}])

    def _plain_items(self, obj=None):
        # the meta-methods and the tower keep their owner-only ACLs, so
        # the owner can go on editing
        return [
            item for item, _category, _section in
            (obj or self.obj).containers.iter_with_sections()
            if not item.metadata.get("meta")
        ]

    def rolled_back_swap(self):
        # one extensible item replaced by another inside the block, the
        # view served there, then the rollback: the count of items (and
        # so every mask) is what it was inside the block
        item = self._pick("data")
        if item is None:
            return
        with pytest.raises(Rollback):
            with atomic(self.obj):
                self.meta("deleteDataItem", [item.name])
                self.meta("addDataItem", [self._fresh_name(), 1,
                                          {"acl": item.acl.describe()}])
                self.check(self.last_viewer)
                raise Rollback()

    def toggle_live_peer(self):
        # metadata holding a live object: its reference names this site
        # only while the object is registered here. No view holding it
        # is kept, so the holder comes and goes: absent, held while the
        # peer is registered nowhere, held while it is registered here
        if not self.obj.containers.has_data("holder"):
            self.obj.containers.add_extensible(
                DataItem("holder", 0, metadata={"live": self.peer})
            )
        elif not self.server.has_object(self.peer.guid):
            self.server.register_object(self.peer)
        else:
            self.server.unregister_object(self.peer.guid)
            self.obj.containers.remove_extensible("data", "holder")

    # -- the check ---------------------------------------------------------

    def fresh(self, viewer, obj=None):
        """What the client decodes from a view built now for *viewer*."""
        mapping = describe_object(obj or self.obj, viewer).to_mapping()
        wire = marshal(mapping, self.server.export_value)
        return as_seen(unmarshal(wire, self.client.resolve_reference))

    def check(self, viewer, obj=None):
        obj = obj or self.obj
        reply = self.client.remote_describe("a", obj.guid, caller=viewer)
        assert as_seen(reply) == self.fresh(viewer, obj), viewer
        if obj is self.obj:
            self.last_viewer = viewer

    def round(self):
        # the viewer the last view was built for goes first: a missed
        # epoch bump shows as that viewer's stale hit. The object itself
        # sees every item, so its mask survives any edit that keeps the
        # item count; another viewer's survives a tower push or pop.
        order = [self.last_viewer] + self.rng.sample(self.viewers, len(self.viewers))
        order.append(self.rng.choice(self.viewers[:1] * 3 + self.viewers[1:]))
        for viewer in order:
            self.check(viewer)
        # the twin's cached view is always the last viewer's, asked first
        for viewer in self.viewers[-1:] + self.viewers:
            self.check(viewer, self.twin)


@pytest.mark.parametrize("seed", range(6))
def test_remote_describe_matches_a_fresh_description(seed):
    world = DescribeWorld(seed)
    world.round()
    for _ in range(60):
        world.edit()
        world.round()


def test_system_is_refused_remotely_and_sees_what_the_object_sees():
    world = DescribeWorld(0)
    with pytest.raises(AccessDeniedError):
        world.client.remote_describe("a", world.obj.guid, caller=SYSTEM)
    own = world.client.remote_describe("a", world.obj.guid, caller=world.obj.principal)
    assert as_seen(own) == world.fresh(SYSTEM)


def test_a_hit_is_the_cached_encoding_and_an_arrival_starts_empty():
    world = DescribeWorld(1)
    world.check(STAR)
    cached = world.obj._described
    world.check(STAR)
    assert world.obj._described is cached
    assert unpack(pack(world.obj))._described is None
