"""Code the verifier passes but ``compile`` refuses is a typed refusal.

``break`` and ``continue`` outside a loop, and a ``nonlocal`` with no
binding, parse, and every AST node in them is whitelisted, so only the
compiler rejects them. The sandbox reports that as a ``sandbox.syntax``
:class:`SandboxViolation` wherever the body is first compiled: by a
:class:`HostPolicy` at admission, by the static admission analysis, and
at the first invocation of an object that no policy checked.
"""

from __future__ import annotations

import pytest

from repro.analysis.admission import AdmissionRefusal, admission_policy
from repro.core.errors import RemoteInvocationError, SandboxViolation
from repro.mobility import MobilityManager, pack, sandbox
from repro.security import HostPolicy

from tests.conftest import make_site_world

BODIES = {
    "break": "break",
    "continue": "continue",
    "unbound-nonlocal": "def inner():\n    nonlocal q\n    return q\nreturn inner()",
}


def package_with(body: str, site) -> dict:
    obj = site.create_object(display_name="uncompilable", owner=site.principal)
    obj.define_fixed_method("op", "return 1")
    obj.seal()
    package = pack(obj)
    package["fixed_methods"][0]["components"]["body"]["source"] = body
    return package


@pytest.fixture
def world():
    sandbox._VERIFIED.clear()
    yield make_site_world(names=("a", "b"))
    sandbox._VERIFIED.clear()


@pytest.mark.parametrize("case", sorted(BODIES))
class TestUncompilableBody:
    def test_compile_refusal_is_a_sandbox_violation_and_is_not_kept(self, world, case):
        before = sandbox._VERIFIED.snapshot()
        for _ in range(2):
            with pytest.raises(SandboxViolation) as refused:
                sandbox.build_function(BODIES[case], ("self", "args", "ctx"))
            assert refused.value.diagnostic.rule == "sandbox.syntax"
        assert sandbox._VERIFIED.snapshot() == before

    def test_host_policy_refuses_at_admission(self, world, case):
        _network, sites = world
        package = package_with(BODIES[case], sites["a"])
        with pytest.raises(SandboxViolation):
            HostPolicy().admit(package, "a")
        MobilityManager(sites["a"])
        receiver = MobilityManager(sites["b"], policy=HostPolicy())
        with pytest.raises(RemoteInvocationError) as refused:
            sites["a"].request(
                "b", "transfer.prepare",
                {"transfer_id": "a/t1", "package": package, "install_args": []},
            )
        assert refused.value.remote_type == "SandboxViolation"
        assert receiver.rejections == 1
        assert receiver.arrivals == 0

    def test_admission_analysis_refuses_as_malformed_code(self, world, case):
        _network, sites = world
        with pytest.raises(AdmissionRefusal) as refused:
            admission_policy()(package_with(BODIES[case], sites["a"]), "a")
        header, finding = refused.value.diagnostics
        assert header.rule == "adm.malformed-code"
        assert "failed the sandbox audit (1 violation(s))" in header.message
        # the audit compiles what it verified, so the finding the
        # destination's compiler would raise sits under the header
        assert finding.rule == "sandbox.syntax"
        assert finding.message.startswith("does not compile")

    def test_unchecked_object_refuses_at_first_invocation(self, world, case):
        _network, sites = world
        package = package_with(BODIES[case], sites["a"])
        MobilityManager(sites["a"])
        MobilityManager(sites["b"])
        sites["a"].request(
            "b", "transfer.prepare",
            {"transfer_id": "a/t1", "package": package, "install_args": []},
        )
        arrived = sites["b"].local_object(package["guid"])
        with pytest.raises(SandboxViolation) as refused:
            arrived.invoke("op", caller=sites["b"].principal)
        assert refused.value.diagnostic.rule == "sandbox.syntax"
