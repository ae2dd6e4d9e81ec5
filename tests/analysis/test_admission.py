"""Migration admission analysis, and the PREPARE-time admission gate."""

import pytest

from repro.analysis import Severity, fails
from repro.analysis.admission import (
    ADMISSION_RULES,
    AdmissionRefusal,
    admission_policy,
    analyze_object,
    analyze_package,
)
from repro.core import MROMObject, Principal
from repro.core.acl import allow_all, deny_all
from repro.core.errors import RemoteInvocationError
from repro.mobility import MobilityManager
from repro.mobility.package import pack
from repro.net import LAN, Network, Site
from repro.net.marshal import Reference
from repro.sim import Simulator


pytestmark = pytest.mark.analysis


def make_clean(site_or_none=None, name="probe"):
    if site_or_none is None:
        obj = MROMObject(display_name=name, domain="test")
    else:
        obj = site_or_none.create_object(display_name=name)
    obj.define_fixed_data("count", 0, acl=allow_all())
    obj.define_fixed_method(
        "bump",
        "n = self.get('count')\nself.set('count', n + 1)\nreturn n + 1",
        acl=allow_all(),
    )
    obj.seal()
    return obj


def make_hostile(site_or_none=None, name="mole"):
    """Packs fine (portable *source*), but the source imports os — only
    an eager sandbox audit catches it before first invocation."""
    if site_or_none is None:
        obj = MROMObject(display_name=name, domain="test")
    else:
        obj = site_or_none.create_object(display_name=name)
    obj.define_fixed_data("loot", [], acl=allow_all())
    obj.define_fixed_method(
        "leak", "import os\nreturn os.getcwd()", acl=allow_all()
    )
    obj.seal()
    return obj


def rules_of(findings):
    return {d.rule for d in findings}


class TestAnalyzeObject:
    def test_clean_object_is_clean(self):
        assert analyze_object(make_clean()) == []

    def test_native_code_is_an_error(self):
        obj = MROMObject(display_name="pinned")
        obj.define_fixed_method("local", lambda self, args, ctx: 42)
        obj.seal()
        findings = analyze_object(obj)
        assert rules_of(findings) == {"adm.native-code"}
        assert fails(findings)

    def test_hostile_portable_source_is_caught_eagerly(self):
        findings = analyze_object(make_hostile())
        assert "adm.malformed-code" in rules_of(findings)
        assert "sandbox.node-type" in rules_of(findings)

    def test_unmarshalable_value_is_an_error(self):
        obj = MROMObject(display_name="anchored")
        obj.define_fixed_data("pin", object(), acl=allow_all())
        obj.seal()
        assert "adm.unmarshalable-value" in rules_of(analyze_object(obj))

    def test_reference_value_warns_about_self_containment(self):
        obj = MROMObject(display_name="tethered")
        obj.define_fixed_data(
            "friend", {"ref": Reference("mrom:obj:x", "elsewhere")},
            acl=allow_all(),
        )
        obj.seal()
        findings = analyze_object(obj)
        refs = [d for d in findings if d.rule == "adm.external-reference"]
        assert refs and refs[0].severity is Severity.WARNING
        assert not fails(findings)
        assert fails(findings, strict=True)

    def test_unreachable_item_warns(self):
        obj = MROMObject(display_name="walled")
        obj.define_fixed_data("secret", 1, acl=deny_all())
        obj.seal()
        assert "adm.unreachable-item" in rules_of(analyze_object(obj))

    def test_open_meta_acl_warns(self):
        obj = MROMObject(display_name="open", meta_acl=allow_all())
        obj.seal()
        assert "adm.open-meta" in rules_of(analyze_object(obj))

    def test_default_owner_only_meta_is_quiet(self):
        obj = MROMObject(display_name="closed")
        obj.seal()
        assert analyze_object(obj) == []


class TestAnalyzePackage:
    def test_clean_package_is_clean(self):
        assert analyze_package(pack(make_clean())) == []

    def test_rejects_wrong_format(self):
        package = pack(make_clean())
        package["format"] = "mrom-object/99"
        assert "adm.bad-package" in rules_of(analyze_package(package))

    def test_rejects_missing_guid(self):
        package = pack(make_clean())
        package["guid"] = ""
        assert "adm.bad-package" in rules_of(analyze_package(package))

    def test_not_a_mapping(self):
        assert rules_of(analyze_package([1, 2])) == {"adm.bad-package"}

    def test_native_stub_in_package(self):
        package = pack(make_clean())
        package["ext_methods"] = [
            {
                "name": "ghost",
                "components": {
                    "body": {"flavour": "native", "role": "body", "label": "f"}
                },
                "acl": allow_all().describe(),
                "metadata": {},
            }
        ]
        assert "adm.native-code" in rules_of(analyze_package(package))

    def test_hostile_source_in_package(self):
        package = pack(make_hostile())
        findings = analyze_package(package)
        assert "adm.malformed-code" in rules_of(findings)

    def test_tower_without_extensible_meta_is_a_breach(self):
        package = pack(make_clean())
        package["extensible_meta"] = False
        package["tower"] = [
            {
                "name": "invoke@level1",
                "components": {
                    "body": {
                        "flavour": "portable",
                        "role": "meta",
                        "label": "lvl1",
                        "source": "return ctx.proceed()",
                    }
                },
                "acl": allow_all().describe(),
                "metadata": {},
            }
        ]
        assert "adm.tower-breach" in rules_of(analyze_package(package))

    def test_method_without_body_component(self):
        package = pack(make_clean())
        package["ext_methods"] = [
            {"name": "empty", "components": {}, "acl": {}, "metadata": {}}
        ]
        assert "adm.bad-package" in rules_of(analyze_package(package))


class TestAdmissionPolicy:
    def test_refusal_carries_structured_diagnostics(self):
        policy = admission_policy()
        with pytest.raises(AdmissionRefusal) as excinfo:
            policy(pack(make_hostile()), "site-a")
        refusal = excinfo.value
        assert refusal.diagnostics
        assert all(d.rule in set(ADMISSION_RULES) | {"sandbox.node-type"}
                   for d in refusal.diagnostics)
        report = refusal.report()
        assert report[0]["severity"] == "error"
        assert "adm.malformed-code" in str(refusal)

    def test_clean_package_passes(self):
        admission_policy()(pack(make_clean()), "site-a")  # no raise

    def test_strict_mode_refuses_warnings(self):
        obj = MROMObject(display_name="walled")
        obj.define_fixed_data("secret", 1, acl=deny_all())
        obj.seal()
        package = pack(obj)
        admission_policy()(package, "site-a")  # warnings pass by default
        with pytest.raises(AdmissionRefusal):
            admission_policy(strict=True)(package, "site-a")


@pytest.fixture
def wired_world():
    network = Network(Simulator())
    home = Site(network, "home", "dom.home")
    away = Site(network, "away", "dom.away")
    network.topology.connect("home", "away", *LAN)
    sender = MobilityManager(home)
    receiver = MobilityManager(away, policy=admission_policy())
    return home, away, sender, receiver


class TestAdmissionGate:
    """The acceptance scenario: the gate vetoes at PREPARE; clean
    objects migrate unchanged."""

    def test_clean_object_migrates_unchanged(self, wired_world):
        home, away, sender, receiver = wired_world
        obj = make_clean(home)
        home.register_object(obj)
        ref = sender.migrate(obj, "away")
        assert away.has_object(obj.guid)
        assert not home.has_object(obj.guid)
        assert receiver.rejections == 0
        settled = away.local_object(obj.guid)
        assert settled.get_data("count", caller=Principal("mrom:obj:x")) == 0
        assert ref.invoke("bump", caller=home.principal) == 1

    def test_hostile_object_vetoed_at_prepare(self, wired_world):
        home, away, sender, receiver = wired_world
        mole = make_hostile(home)
        home.register_object(mole)
        with pytest.raises(RemoteInvocationError) as excinfo:
            sender.migrate(mole, "away")
        # the refusal is structured: type and rule ids survive the wire
        assert excinfo.value.remote_type == "AdmissionRefusal"
        assert "adm.malformed-code" in str(excinfo.value)
        # vetoed before anything settled: the original stays put, the
        # destination holds nothing, and the rejection was counted
        assert home.has_object(mole.guid)
        assert not away.has_object(mole.guid)
        assert receiver.rejections == 1
        assert receiver.arrivals == 0

    def test_gate_composes_with_caller_policy(self, wired_world):
        home, away, sender, _receiver = wired_world
        seen = []

        def caller_policy(package, src):
            seen.append(str(package.get("guid")))

        gate = admission_policy()

        def composed(package, src, resolve=None):
            obj = gate(package, src, resolve=resolve)
            caller_policy(package, src)
            return obj

        gated = MobilityManager(
            Site(home.network, "gated", "dom.gated"), policy=composed
        )
        home.network.topology.connect("home", "gated", *LAN)
        obj = make_clean(home, name="welcome")
        home.register_object(obj)
        sender.migrate(obj, "gated")
        assert seen == [obj.guid]
        mole = make_hostile(home)
        home.register_object(mole)
        with pytest.raises(RemoteInvocationError):
            sender.migrate(mole, "gated")
        # the gate runs first: the caller's policy never saw the mole
        assert seen == [obj.guid]
        assert gated.rejections == 1

    def test_sender_side_preflight_predicts_the_veto(self, wired_world):
        home, _away, sender, _receiver = wired_world
        mole = make_hostile(home)
        home.register_object(mole)
        findings = sender.preflight(mole)
        assert fails(findings)
        clean = make_clean(home, name="fine")
        home.register_object(clean)
        assert sender.preflight(clean) == []
