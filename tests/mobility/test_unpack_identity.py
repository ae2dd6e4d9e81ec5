"""Identity travels with the object: ``unpack`` never mints a guid.

A package whose ``guid`` is empty or missing is refused with a typed
:class:`MobilityError`, by ``unpack`` itself and so on every arrival
path, gated or not.
"""

import pytest

from repro.core import MROMObject, allow_all
from repro.core.errors import MobilityError
from repro.mobility import MobilityManager, pack, unpack
from repro.net import Network, Site
from repro.sim import Simulator


def package_with(guid_case: str) -> dict:
    obj = MROMObject(display_name="nameless", domain="test")
    obj.define_fixed_data("count", 0, acl=allow_all())
    obj.seal()
    package = pack(obj)
    if guid_case == "missing":
        del package["guid"]
    else:
        package["guid"] = ""
    return package


@pytest.mark.parametrize("guid_case", ["empty", "missing"])
def test_unpack_refuses_a_package_without_a_guid(guid_case):
    with pytest.raises(MobilityError, match="guid"):
        unpack(package_with(guid_case))


@pytest.mark.parametrize("guid_case", ["empty", "missing"])
def test_ungated_install_refuses_a_package_without_a_guid(guid_case):
    site = Site(Network(Simulator()), "home", "dom.home")
    manager = MobilityManager(site)
    with pytest.raises(MobilityError, match="guid"):
        manager.install_package(package_with(guid_case), src="away")
    assert manager.arrivals == 0
    assert site.objects() == ()
