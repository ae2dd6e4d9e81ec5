"""References in an arriving package resolve in the walk that rebuilds it.

``unpack(package, resolve)`` turns each wire reference into what the
receiving site's resolver says, in the one walk that rebuilds the
object. An item value that references an object arrives as:

* the live object, when it is registered at the destination;
* a :class:`~repro.net.rmi.RemoteRef`, when it lives on a third site;
* a homeless ``RemoteRef`` (pointing at the destination) when it is
  registered nowhere.

Each path that installs a package — ``migrate``, ``recover_site`` and a
HADAS import — must give what ``Site.import_value`` over a plain decode
of the same wire form gives.
"""

from __future__ import annotations

import pytest

from repro.core import MROMObject, allow_all
from repro.core.errors import MobilityError
from repro.hadas import IOO
from repro.mobility import MobilityManager, pack, unpack, unpack_bytes
from repro.net import RemoteRef
from repro.net.marshal import Reference, marshal, unmarshal
from repro.persistence import MemoryStore, WriteAheadLog, attach_journal, recover_site
from repro.persistence.recovery import replay_records

from ..conftest import make_site_world

SHAPES = ("here", "there", "nowhere", "nested")


def plant(src, dst_id: str, peer_here: MROMObject, peer_there: MROMObject) -> dict:
    """Item values held at *src*: a reference to an object registered at
    the destination, one on a third site, one registered nowhere, and
    all three again nested inside a mapping and a list."""
    here = src.ref_to(peer_here.guid, site=dst_id)
    there = src.ref_to(peer_there.guid, site="c")
    nowhere = RemoteRef(src, "", "mrom:obj:nowhere")
    return {
        "here": here,
        "there": there,
        "nowhere": nowhere,
        "nested": {"refs": [here, there, nowhere], "n": 1},
    }


def expected(src, dst, values: dict) -> dict:
    """``import_value`` over a plain decode of each value's wire form."""
    return {
        name: dst.import_value(unmarshal(marshal(value, src.export_value)))
        for name, value in values.items()
    }


def assert_arrived(obj: MROMObject, oracle: dict, dst, peer_here) -> None:
    got = {name: obj.get_data(name, caller=obj.principal) for name in SHAPES}
    assert got["here"] is peer_here  # the live object
    assert isinstance(got["there"], RemoteRef) and got["there"].site == "c"
    assert isinstance(got["nowhere"], RemoteRef)
    assert got["nowhere"].site == dst.site_id  # homeless: points here
    for name in SHAPES:
        assert got[name] == oracle[name], name
    inner = got["nested"]["refs"]
    assert inner[0] is peer_here
    for ref in (got["there"], got["nowhere"], *inner[1:]):
        assert ref.holder is dst


@pytest.fixture
def world():
    network, sites = make_site_world(names=("a", "b", "c"))
    managers = {name: MobilityManager(site) for name, site in sites.items()}
    peer_here = sites["b"].create_object(display_name="peer-b")
    peer_here.seal()
    sites["b"].register_object(peer_here)
    peer_there = sites["c"].create_object(display_name="peer-c")
    peer_there.seal()
    sites["c"].register_object(peer_there)
    return network, sites, managers, peer_here, peer_there


def carrier(site, values: dict) -> MROMObject:
    obj = site.create_object(display_name="carrier")
    for name, value in values.items():
        obj.define_fixed_data(name, value)
    obj.seal()
    site.register_object(obj)
    return obj


def test_migrate(world):
    _network, sites, managers, peer_here, peer_there = world
    values = plant(sites["a"], "b", peer_here, peer_there)
    obj = carrier(sites["a"], values)
    managers["a"].migrate(obj, "b")
    landed = sites["b"].local_object(obj.guid)
    oracle = expected(sites["a"], sites["b"], values)
    assert_arrived(landed, oracle, sites["b"], peer_here)


def test_recover_site(world):
    # the carrier arrives at b, where its "here" items are the live peer;
    # b's journal images it, and the replay must restore the live peer
    network, sites, managers, peer_here, peer_there = world
    wal = WriteAheadLog(MemoryStore())
    journal = attach_journal(sites["b"], wal)  # journals peer-b first
    obj = carrier(sites["a"], plant(sites["a"], "b", peer_here, peer_there))
    managers["a"].migrate(obj, "b")
    assert sites["b"].local_object(obj.guid).get_data("here") is peer_here
    journal.close()
    network.unregister("b")
    site, _manager, report = recover_site(network, "b", wal, domain="dom.b")
    assert report.objects_restored == 2
    image = replay_records(wal.replay()[0]).images[obj.guid]
    oracle = {raw["name"]: site.import_value(raw["value"]) for raw in image["fixed_data"]}
    recovered_peer = site.local_object(peer_here.guid)
    assert_arrived(site.local_object(obj.guid), oracle, site, recovered_peer)


def test_hadas_import(world):
    _network, sites, managers, peer_here, peer_there = world
    ioos = {name: IOO(site, mobility=managers[name]) for name, site in sites.items()}
    apo = ioos["a"].integrate("echo", object(), operations={"echo": lambda x: x})
    values = plant(sites["a"], "b", peer_here, peer_there)
    make = apo.make_ambassador

    def make_with_references(*args, **kwargs):
        ambassador = make(*args, **kwargs)
        for name, value in values.items():
            ambassador.self_view().add_data(name, value)
        return ambassador

    apo.make_ambassador = make_with_references
    ioos["b"].link("a")
    ambassador = ioos["b"].import_apo("a", "echo")
    oracle = expected(sites["a"], sites["b"], values)
    assert_arrived(ambassador, oracle, sites["b"], peer_here)


def test_unpack_without_a_resolver_leaves_references_inert(world):
    _network, sites, _managers, peer_here, peer_there = world
    values = plant(sites["a"], "b", peer_here, peer_there)
    wire = marshal(pack(carrier(sites["a"], values)), sites["a"].export_value)
    plain = unpack(unmarshal(wire))
    resolved = unpack(unmarshal(wire), sites["b"].resolve_reference)
    eager = unpack(sites["b"].import_value(unmarshal(wire)))
    for name in SHAPES:
        assert resolved.get_data(name) == eager.get_data(name)
    assert isinstance(plain.get_data("here"), Reference)


def _set_field(package: dict, field: str, value) -> None:
    body = package["fixed_methods"][0]["components"]["body"]
    entry = package["fixed_data"][0]["acl"]["entries"][0]
    if field == "item name":
        package["fixed_data"][0]["name"] = value
    elif field == "method name":
        package["fixed_methods"][0]["name"] = value
    elif field.startswith("owner."):
        package["owner"][field.split(".")[1]] = value
    elif field.startswith("code "):
        body[field.split()[1]] = value
    elif field == "acl permission":
        entry["permissions"][0] = value
    elif field.startswith("acl "):
        entry[field.split()[1]] = value
    else:
        package[field] = value


@pytest.mark.parametrize("field", ["guid", "domain", "display_name", "owner.guid",
                                   "owner.name", "item name", "method name"])
@pytest.mark.parametrize("value", [["evil", {"a": 1}], {"a": 1}, 7, None, b"raw"])
def test_a_text_field_that_is_not_text_is_refused(field, value):
    obj = MROMObject(guid="mrom:obj:text", display_name="t")
    obj.define_fixed_data("x", 1, acl=allow_all())
    obj.define_fixed_method("m", "return 1")
    obj.seal()
    package = pack(obj)
    _set_field(package, field, value)
    with pytest.raises(MobilityError, match="not str"):
        unpack(unmarshal(marshal(package)))


#: a binary leaf large enough that ``unpack_bytes`` defers it to a cell
#: pinning the whole message
BIG_BINARY = b"x" * 5000


@pytest.mark.parametrize("decode", ["eager", "deferred"])
@pytest.mark.parametrize("field", ["code label", "code source", "code role",
                                   "code flavour", "acl subject", "acl permission",
                                   "acl decision"])
@pytest.mark.parametrize("value", [["evil", {"a": 1}], {"a": 1}, 7, None, b"raw",
                                   BIG_BINARY], ids=["list", "mapping", "int", "null",
                                                     "binary", "big-binary"])
def test_an_in_place_field_that_is_not_text_is_refused(field, value, decode):
    # ACL and code descriptions are read in place, never copied: a field
    # that is not text is refused, not kept inside the object (as bytes,
    # or as a deferred cell pinning the whole message)
    obj = MROMObject(guid="mrom:obj:text", display_name="t")
    obj.define_fixed_data("x", 1, acl=allow_all())
    obj.define_fixed_method("m", "return 1")
    obj.seal()
    package = pack(obj)
    _set_field(package, field, value)
    wire = marshal(package)
    with pytest.raises(MobilityError, match="not str"):
        unpack_bytes(wire) if decode == "deferred" else unpack(unmarshal(wire))
