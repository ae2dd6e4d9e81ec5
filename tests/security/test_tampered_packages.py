"""A tampered package is refused, not a crash of the receiving site.

The "tampered packages" threat of *Mobile Agent Systems, Recent
Security Threats and Counter Measures*: a peer sends ``transfer`` or
``transfer.prepare`` with a package whose fields do not parse (an
unknown data kind, an unknown ACL decision, a missing field, a mapping
that is not one). ``unpack`` must fail with a typed ``MobilityError``,
so the receiving handler answers with a failure reply: the sender gets
a typed refusal, and the simulator keeps running.
"""

from __future__ import annotations

import pytest

from repro.core.errors import MobilityError, RemoteInvocationError
from repro.mobility import MobilityManager
from repro.mobility.package import FORMAT, pack

from tests.conftest import make_site_world

GUID = "mrom://x/1.1"

TAMPERED = {
    "unknown-data-kind": {
        "format": FORMAT, "guid": GUID,
        "fixed_data": [{"name": "n", "kind": "bogus"}],
    },
    "unknown-acl-decision": {
        "format": FORMAT, "guid": GUID,
        "fixed_data": [{"name": "n", "acl": {"entries": [
            {"subject": "*", "permissions": [], "decision": "maybe"},
        ]}}],
    },
    "unknown-permission-name": {
        "format": FORMAT, "guid": GUID,
        "meta_acl": {"entries": [
            {"subject": "*", "permissions": ["FLY"], "decision": "allow"},
        ]},
    },
    "missing-guid": {"format": FORMAT},
    "missing-item-name": {"format": FORMAT, "guid": GUID, "fixed_data": [{}]},
    "metadata-not-a-mapping": {
        "format": FORMAT, "guid": GUID,
        "fixed_data": [{"name": "n", "metadata": 7}],
    },
    "items-not-a-list": {"format": FORMAT, "guid": GUID, "fixed_data": 7},
}


@pytest.fixture
def world():
    network, sites = make_site_world(names=("a", "b"))
    for site in sites.values():
        MobilityManager(site)
    return network, sites


def payload(kind: str, package: dict) -> dict:
    body = {"package": package, "install_args": []}
    if kind == "transfer.prepare":
        body["transfer_id"] = "a/t1"
    return body


@pytest.mark.parametrize("kind", ["transfer", "transfer.prepare"])
@pytest.mark.parametrize("case", sorted(TAMPERED))
class TestTamperedTransfer:
    def test_blocking_sender_gets_a_typed_refusal(self, world, kind, case):
        network, sites = world
        with pytest.raises(RemoteInvocationError) as caught:
            sites["a"].request("b", kind, payload(kind, TAMPERED[case]))
        assert caught.value.remote_type == "MobilityError"
        network.run()  # nothing left to unwind into the simulator
        assert not sites["b"].has_object(GUID)

    def test_async_sender_gets_a_typed_failure(self, world, kind, case):
        network, sites = world
        future = sites["a"].request_async("b", kind, payload(kind, TAMPERED[case]))
        network.run()
        assert isinstance(future.error(), MobilityError)


def test_an_untampered_package_still_installs(world):
    network, sites = world
    obj = sites["a"].create_object(display_name="honest")
    obj.define_fixed_data("n", 1)
    obj.seal()
    report = sites["a"].request("b", "transfer", payload("transfer", pack(obj)))
    network.run()
    assert report["guid"] == obj.guid
    assert sites["b"].has_object(obj.guid)
