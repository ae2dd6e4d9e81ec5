"""One trust-domain subtree rule, four allow-lists.

``HostPolicy`` (origin allow-list), ``GuestPolicy`` (trusted hosts),
``IOO`` (Link acceptance) and ``APO`` (Import allow-list) each decide
whether a domain lies in an allow-listed subtree. They share
:func:`repro.core.acl.within_domain`; this table holds all four to the
same answers: segment-wise (``techniom.fake`` is not under
``technion``), an empty domain is under no named root, and an empty
allow-list entry admits no named domain.
"""

from __future__ import annotations

import pytest

from repro.core import MROMObject
from repro.core.errors import PolicyViolationError, RemoteInvocationError
from repro.hadas.apo import APO
from repro.hadas.ioo import IOO
from repro.mobility import pack
from repro.security import GuestPolicy, HostPolicy

from tests.conftest import make_site_world

#: (domain, allow-list entry, admitted)
ROWS = [
    ("technion", "technion", True),
    ("technion.ee", "technion", True),
    ("techniom.fake", "technion", False),
    ("", "technion", False),
    ("technion.ee", "", False),
]


def host_admits(domain: str, root: str) -> bool:
    obj = MROMObject(guid="mrom://origin/1.1", domain=domain)
    obj.seal()
    try:
        HostPolicy(allowed_domains=(root,)).admit(pack(obj), "x")
    except PolicyViolationError:
        return False
    return True


def guest_trusts(domain: str, root: str) -> bool:
    try:
        GuestPolicy(trusted_domains=(root,)).check_host(domain)
    except PolicyViolationError:
        return False
    return True


def ioo_links(domain: str, root: str) -> bool:
    _network, sites = make_site_world(names=("a", "b"))
    IOO(sites["b"], accept_links_from=(root,))
    try:
        sites["a"].request(
            "b", "hadas.link", {"from_site": "elsewhere", "from_domain": domain}
        )
    except RemoteInvocationError as refused:
        assert refused.remote_type == "PolicyViolationError"
        return False
    return True


def apo_exports(domain: str, root: str) -> bool:
    _network, sites = make_site_world(names=("a",))
    apo = APO(sites["a"], "db", object(), allowed_importers=(root,))
    return apo.exportable_to("elsewhere", domain)


@pytest.mark.parametrize(
    "check", [host_admits, guest_trusts, ioo_links, apo_exports],
    ids=["HostPolicy", "GuestPolicy", "IOO", "APO"],
)
@pytest.mark.parametrize("domain,root,admitted", ROWS)
def test_every_allow_list_draws_the_same_subtree(check, domain, root, admitted):
    assert check(domain, root) is admitted
