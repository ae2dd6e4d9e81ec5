"""Host/guest policies: admission control and its bypass-resistance."""

import pytest

from repro.core import MROMObject, Principal
from repro.core.errors import MobilityError, PolicyViolationError
from repro.core.items import MROMMethod
from repro.core.mobject import is_bundled_meta
from repro.mobility import pack
from repro.mobility.package import FORMAT
from repro.security import GuestPolicy, HostPolicy, policy as policy_module

from tests.conftest import best_time_per_call


@pytest.fixture
def owner():
    return Principal("mrom://origin/1.1", "technion.ee", "origin")


def packaged(owner, domain="technion.ee", methods=1, tower=0, source="return 1"):
    obj = MROMObject(
        guid="mrom://origin/5.5",
        domain=domain,
        owner=owner,
        extensible_meta=bool(tower),
    )
    for index in range(methods):
        obj.define_fixed_method(f"op{index}", source)
    obj.seal()
    for _ in range(tower):
        obj.invoke("addMethod", ["invoke", "return ctx.proceed()"], caller=owner)
    return pack(obj)


class TestHostPolicy:
    def test_default_admits_wellformed_object(self, owner):
        HostPolicy().admit(packaged(owner), "somewhere")

    def test_domain_allow_list(self, owner):
        policy = HostPolicy(allowed_domains=("technion",))
        policy.admit(packaged(owner, domain="technion.ee"), "x")
        with pytest.raises(PolicyViolationError):
            policy.admit(packaged(owner, domain="evil.example"), "x")

    def test_domain_matching_is_segment_wise(self, owner):
        policy = HostPolicy(allowed_domains=("technion",))
        with pytest.raises(PolicyViolationError):
            policy.admit(packaged(owner, domain="techniom.fake"), "x")

    def test_item_count_bound(self, owner):
        policy = HostPolicy(max_items=3)
        policy.admit(packaged(owner, methods=3), "x")
        with pytest.raises(PolicyViolationError):
            policy.admit(packaged(owner, methods=4), "x")

    def test_tower_depth_bound(self, owner):
        policy = HostPolicy(max_tower_depth=1)
        policy.admit(packaged(owner, tower=1), "x")
        with pytest.raises(PolicyViolationError):
            policy.admit(packaged(owner, tower=2), "x")

    def test_banned_names(self, owner):
        policy = HostPolicy(banned_method_names=frozenset({"op0"}))
        with pytest.raises(PolicyViolationError):
            policy.admit(packaged(owner), "x")

    def test_hostile_code_rejected_at_admission(self, owner):
        from repro.core import SandboxViolation

        package = packaged(owner)
        package["fixed_methods"][0]["components"]["body"]["source"] = "import os"
        with pytest.raises(SandboxViolation):
            HostPolicy().admit(package, "x")

    def test_code_size_bound(self, owner):
        policy = HostPolicy(max_code_bytes=10)
        package = packaged(owner, source="x = 'aaaaaaaaaaaaaaaaaaaa'\nreturn x")
        with pytest.raises(PolicyViolationError):
            policy.admit(package, "x")

    def test_lazy_verification_mode_skips_code_check(self, owner):
        package = packaged(owner)
        package["fixed_methods"][0]["components"]["body"]["source"] = "import os"
        HostPolicy(verify_code_eagerly=False).admit(package, "x")

    def test_policy_is_callable(self, owner):
        HostPolicy()(packaged(owner), "x")


class TestGuestPolicy:
    def test_trusted_domains(self):
        guest = GuestPolicy(trusted_domains=("technion",))
        guest.check_host("technion.ee")
        with pytest.raises(PolicyViolationError):
            guest.check_host("evil.example")

    def test_empty_trust_list_trusts_everyone(self):
        GuestPolicy().check_host("anywhere.at.all")

    def test_binding_filter(self):
        guest = GuestPolicy(accepted_bindings=("clock", "logger"))
        offered = {"clock": 1, "logger": 2, "filesystem": 3}
        assert guest.filter_bindings(offered) == {"clock": 1, "logger": 2}

    def test_no_accepted_bindings_means_none(self):
        assert GuestPolicy().filter_bindings({"anything": 1}) == {}


def full_package(owner):
    """A package with an entry in every item list and a 2-level tower."""
    obj = MROMObject(
        guid="mrom://origin/6.6", domain="technion.ee", owner=owner,
        extensible_meta=True,
    )
    obj.define_fixed_data("a", 1)
    obj.define_fixed_method("f", "return 1")
    obj.seal()
    obj.invoke("addDataItem", ["b", 2], caller=owner)
    obj.invoke("addMethod", ["g", "return 2"], caller=owner)
    for _ in range(2):
        obj.invoke("addMethod", ["invoke", "return ctx.proceed()"], caller=owner)
    return pack(obj)


@pytest.fixture
def unpacks(monkeypatch):
    """The number of ``unpack`` calls HostPolicy makes."""
    calls = []
    real = policy_module.unpack

    def counting(package, resolve=None):
        calls.append(package)
        return real(package, resolve)

    monkeypatch.setattr(policy_module, "unpack", counting)
    return calls


def refusal_time(policy, package) -> float:
    def refuse():
        with pytest.raises(PolicyViolationError):
            policy.admit(package, "x")

    return best_time_per_call(refuse, min_time=0.05)


class TestBoundsBeforeUnpack:
    """The item and tower bounds are read off the package's list
    lengths, so an oversized package is refused without being built."""

    def test_the_length_count_is_the_built_count(self, owner, unpacks):
        package = full_package(owner)
        obj = HostPolicy(max_items=4, max_tower_depth=2).admit(package, "x")
        built = [
            item for item, _category, _section in obj.containers.iter_with_sections()
            if not (isinstance(item, MROMMethod) and is_bundled_meta(item))
        ]
        assert len(built) == 4 and len(obj.meta_invoke_chain()) == 2
        assert len(unpacks) == 1

    @pytest.mark.parametrize("bounds", [{"max_items": 3}, {"max_tower_depth": 1}])
    def test_a_refusal_calls_unpack_zero_times(self, owner, unpacks, bounds):
        with pytest.raises(PolicyViolationError):
            HostPolicy(**bounds).admit(full_package(owner), "x")
        assert unpacks == []

    @pytest.mark.parametrize(
        "key", ["fixed_data", "fixed_methods", "ext_data", "ext_methods", "tower"]
    )
    def test_a_field_that_is_not_a_list_is_a_typed_refusal(self, owner, unpacks, key):
        package = {**full_package(owner), key: {"name": "x"}}
        with pytest.raises(MobilityError, match=key):
            HostPolicy().admit(package, "x")
        assert unpacks == []

    def test_a_package_that_is_not_a_mapping_is_a_typed_refusal(self):
        with pytest.raises(MobilityError):
            HostPolicy().admit([1, 2, 3], "x")

    @pytest.mark.parametrize(
        "key, sizes, bounds",
        [
            ("fixed_data", (10**3, 10**4, 10**5), {"max_items": 10}),
            ("tower", (10, 10**2, 10**3), {"max_tower_depth": 2}),
        ],
    )
    def test_refusal_time_does_not_grow_with_the_package(self, key, sizes, bounds):
        entry = {"name": "n", "value": 0}
        policy = HostPolicy(**bounds)
        times = [
            refusal_time(policy, {
                "format": FORMAT, "guid": "mrom://origin/7.7",
                "extensible_meta": True, key: [entry] * size,
            })
            for size in sizes
        ]
        assert max(times) <= 2 * min(times), times

    def test_a_20000_item_refusal_takes_under_2_ms(self):
        package = {
            "format": FORMAT, "guid": "mrom://origin/8.8",
            "fixed_data": [{"name": "n", "value": 0}] * 20_000,
        }
        assert refusal_time(HostPolicy(max_items=10), package) < 2e-3
