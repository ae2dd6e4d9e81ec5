"""A remote peer cannot claim to be SYSTEM.

:data:`~repro.core.acl.SYSTEM` is the local runtime: it passes every
ACL, deny entries included, and sees every item in ``describe``. Every
handler that builds a caller from the wire (the invoke, get_data and
describe handlers, ``cluster.invoke``, ``forward``, the
trader and the TCP gateway) refuses the reserved guid with a typed
``AccessDeniedError`` before it touches an object.
"""

from __future__ import annotations

import pytest

from repro.core import SYSTEM, AccessControlList, AclEntry, Decision, Permission
from repro.core.acl import remote_principal
from repro.core.errors import AccessDeniedError, RemoteInvocationError
from repro.net import WAN, Network, Site
from repro.net.gateway import TcpGateway, TcpGatewayClient
from repro.sim import Simulator

from tests.conftest import make_site_world

SYSTEM_CLAIM = {"guid": SYSTEM.guid, "domain": "", "name": "system"}


def deny_everyone() -> AccessControlList:
    return AccessControlList([AclEntry("*", Permission.ALL, Decision.DENY)])


def vault(site: Site):
    """An object no remote caller may read, invoke or even see."""
    obj = site.create_object(display_name="vault")
    obj.define_fixed_data("count", 0, acl=deny_everyone())
    obj.define_fixed_method(
        "bump",
        "self.set('count', self.get('count') + 1)\nreturn self.get('count')",
        acl=deny_everyone(),
    )
    obj.seal()
    site.register_object(obj, name="apps/vault")
    return obj


@pytest.fixture
def pair():
    network = Network(Simulator())
    haifa = Site(network, "haifa", "technion.ee")
    boston = Site(network, "boston", "mit.lcs")
    network.topology.connect("haifa", "boston", *WAN)
    return network, haifa, boston


def assert_denied(excinfo) -> None:
    assert excinfo.value.remote_type == "AccessDeniedError"
    assert SYSTEM.guid in str(excinfo.value)


class TestRemotePrincipal:
    def test_the_reserved_guid_is_refused(self):
        with pytest.raises(AccessDeniedError) as excinfo:
            remote_principal(SYSTEM.guid)
        assert excinfo.value.caller == SYSTEM.guid

    def test_any_other_claim_is_taken_as_given(self):
        claimed = remote_principal("mrom://boston/1.1", "mit.lcs", "alice")
        assert (claimed.guid, claimed.domain, claimed.display_name) == (
            "mrom://boston/1.1", "mit.lcs", "alice",
        )


class TestSimulatedRmi:
    def test_invoke_claiming_system_is_refused_untouched(self, pair):
        _network, haifa, boston = pair
        obj = vault(haifa)
        with pytest.raises(RemoteInvocationError) as excinfo:
            boston.remote_invoke("haifa", obj.guid, "bump", caller=SYSTEM)
        assert_denied(excinfo)
        assert obj.get_data("count", caller=SYSTEM) == 0

    def test_get_data_claiming_system_is_refused(self, pair):
        _network, haifa, boston = pair
        obj = vault(haifa)
        with pytest.raises(RemoteInvocationError) as excinfo:
            boston.remote_get_data("haifa", obj.guid, "count", caller=SYSTEM)
        assert_denied(excinfo)

    def test_describe_claiming_system_is_refused(self, pair):
        _network, haifa, boston = pair
        obj = vault(haifa)
        with pytest.raises(RemoteInvocationError) as excinfo:
            boston.remote_describe("haifa", obj.guid, caller=SYSTEM)
        assert_denied(excinfo)

    def test_async_invoke_keeps_the_type(self, pair):
        network, haifa, boston = pair
        obj = vault(haifa)
        future = boston.remote_invoke_async("haifa", obj.guid, "bump", caller=SYSTEM)
        network.run()
        with pytest.raises(AccessDeniedError):
            future.result()
        assert obj.get_data("count", caller=SYSTEM) == 0

    def test_refused_before_the_target_is_looked_up(self, pair):
        _network, _haifa, boston = pair
        with pytest.raises(RemoteInvocationError) as excinfo:
            boston.remote_invoke("haifa", "mrom://haifa/no-such", "bump", caller=SYSTEM)
        assert_denied(excinfo)

    def test_forward_claiming_system_is_refused(self, pair):
        _network, haifa, boston = pair
        from repro.mobility import MobilityManager

        MobilityManager(haifa)
        mobility = MobilityManager(boston)
        obj = vault(haifa)
        with pytest.raises(RemoteInvocationError) as excinfo:
            mobility.forward("haifa", obj.guid, "boston", caller=SYSTEM)
        assert_denied(excinfo)
        assert haifa.has_object(obj.guid)


class TestClusterInvoke:
    def test_cluster_invoke_claiming_system_is_refused(self):
        from repro.naming import ClusterManager, DirectoryClient, HashRing

        _network, sites = make_site_world(
            seed=0, names=("s0", "s1", "c0"), domain="cluster.{name}"
        )
        ring = HashRing(["s0", "s1"], vnodes=64, seed=0)
        managers = {sid: ClusterManager(sites[sid], ring) for sid in ("s0", "s1")}
        client = DirectoryClient(sites["c0"], ring)
        name = "apps/vault"
        site = sites[ring.owner(name)]
        obj = site.create_object(display_name="vault")
        obj.define_fixed_data("count", 0)
        obj.define_fixed_method(
            "bump",
            "self.set('count', self.get('count') + 1)\nreturn self.get('count')",
            acl=deny_everyone(),
        )
        obj.seal()
        managers[site.site_id].publish(obj, name)
        with pytest.raises(RemoteInvocationError) as excinfo:
            client.invoke(name, "bump", caller=SYSTEM)
        assert_denied(excinfo)
        assert obj.get_data("count", caller=SYSTEM) == 0


class TestTrader:
    def test_trade_claiming_system_is_refused(self, pair):
        _network, haifa, boston = pair
        from repro.hadas import IOO
        from repro.hadas.trader import KIND_TRADE, Trader

        Trader(IOO(haifa))
        with pytest.raises(RemoteInvocationError) as excinfo:
            boston.request(
                "haifa", KIND_TRADE,
                {"tags": [], "from_site": "boston", "guid": SYSTEM.guid},
            )
        assert_denied(excinfo)


class TestTcpGateway:
    @pytest.fixture
    def gated(self, pair):
        _network, haifa, _boston = pair
        obj = vault(haifa)
        gateway = TcpGateway(haifa)
        yield gateway, obj
        gateway.close()

    def test_invoke_claiming_system_is_refused_untouched(self, gated):
        gateway, obj = gated
        with TcpGatewayClient(gateway.host, gateway.port) as client:
            with pytest.raises(AccessDeniedError, match="mrom:system"):
                client.invoke(obj.guid, "bump", caller=SYSTEM_CLAIM)
        assert obj.get_data("count", caller=SYSTEM) == 0

    def test_get_data_and_describe_claiming_system_are_refused(self, gated):
        gateway, obj = gated
        with TcpGatewayClient(gateway.host, gateway.port) as client:
            with pytest.raises(AccessDeniedError):
                client.get_data(obj.guid, "count", caller=SYSTEM_CLAIM)
            with pytest.raises(AccessDeniedError):
                client.describe(obj.guid, caller=SYSTEM_CLAIM)
            # an honest stranger still sees the object, minus the vault
            names = [item["name"] for item in client.describe(obj.guid)["items"]]
            assert "bump" not in names and "count" not in names
