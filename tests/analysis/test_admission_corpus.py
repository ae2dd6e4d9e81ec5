"""One package case per admission rule, through both doors.

Every :data:`ADMISSION_RULES` id fires on at least one case below, both
through :func:`analyze_package` and through a manager with a strict
``admission_policy`` that receives the package as a real
``transfer.prepare`` over the simulated network. Each case starts from a
package that audits clean (no race either), so the rule a case names is
what the refusal reports.

The ``unmarshalable`` case cannot cross the wire (the sender's encoder
refuses it), so its arrival is handed to the gated manager's
``install_package``, the step the PREPARE handler runs.
"""

from __future__ import annotations

import copy

import pytest

from repro.analysis.admission import (
    ADMISSION_RULES,
    AdmissionRefusal,
    admission_policy,
    analyze_package,
)
from repro.core import MROMObject
from repro.core.acl import allow_all, deny_all
from repro.core.errors import RemoteInvocationError
from repro.mobility import MobilityManager, pack
from repro.net import LAN, Network, Site
from repro.net.marshal import Reference
from repro.sim import Simulator

pytestmark = pytest.mark.analysis


def base_package() -> dict:
    obj = MROMObject(display_name="corpus", domain="test")
    obj.define_fixed_data("count", 0, acl=allow_all())
    obj.define_fixed_method("peek", "return self.get('count')", acl=allow_all())
    obj.seal()
    return pack(obj)


def code(source: str, role: str = "body", flavour: str = "portable") -> dict:
    description = {"flavour": flavour, "role": role, "label": f"corpus.{role}"}
    if flavour == "portable":
        description["source"] = source
    return description


def method(name: str, source: str = "return 1", **fields) -> dict:
    entry = {
        "name": name,
        "components": {"body": code(source)},
        "acl": allow_all().describe(),
        "metadata": {},
    }
    entry.update(fields)
    return entry


def data(name: str, value, acl=None) -> dict:
    return {
        "name": name,
        "value": value,
        "kind": "any",
        "acl": (allow_all() if acl is None else acl).describe(),
        "metadata": {},
    }


HOSTILE = "import os\nreturn os.getcwd()"


def extra_methods(*entries):
    return lambda package: package["ext_methods"].extend(entries)


def extra_data(*entries):
    return lambda package: package["ext_data"].extend(entries)


def fields(**changes):
    return lambda package: package.update(changes)


#: (case, rule it fires, edit of the clean base package)
CORPUS = [
    ("wrong-format", "adm.bad-package", fields(format="mrom-object/99")),
    ("empty-guid", "adm.bad-package", fields(guid="")),
    (
        "unknown-component-role",
        "adm.bad-package",
        extra_methods(
            method("odd", components={"body": code("return 1"), "around": code("return 1")})
        ),
    ),
    (
        "tower-level-not-a-mapping",
        "adm.bad-package",
        fields(extensible_meta=True, tower=[7]),
    ),
    ("meta-acl-not-a-mapping", "adm.bad-package", fields(meta_acl=7)),
    (
        "native-stub",
        "adm.native-code",
        extra_methods(method("ghost", components={"body": code("", flavour="native")})),
    ),
    ("hostile-source", "adm.malformed-code", extra_methods(method("leak", HOSTILE))),
    (
        # the metadata flag must not hide a method from the audit
        "meta-flagged-hostile",
        "adm.malformed-code",
        extra_methods(method("sneak", HOSTILE, metadata={"meta": True})),
    ),
    ("unmarshalable", "adm.unmarshalable-value", extra_data(data("pin", object()))),
    (
        "reference",
        "adm.external-reference",
        extra_data(data("friend", {"ref": Reference("mrom:obj:x", "elsewhere")})),
    ),
    ("unreachable", "adm.unreachable-item", extra_data(data("secret", 1, deny_all()))),
    ("open-meta", "adm.open-meta", fields(meta_acl=allow_all().describe())),
    (
        "tower-on-fixed-meta",
        "adm.tower-breach",
        fields(extensible_meta=False, tower=[method("invoke@level1", "return ctx.proceed()")]),
    ),
    (
        "lost-update",
        "adm.race.lost-update",
        extra_methods(method("bump", "self.set('count', self.get('count') + 1)")),
    ),
    (
        "write-write",
        "adm.race.write-write",
        extra_methods(
            method("zero", "self.set('tally', 0)"),
            method("one", "self.set('tally', 1)"),
        ),
    ),
    (
        "read-write",
        "adm.race.read-write",
        extra_methods(method("put", "self.set('count', args[0])")),
    ),
    (
        "structural",
        "adm.race.unsynced-structural",
        extra_methods(method("grow", "self.add_data('extra', 1)")),
    ),
    (
        "recursion",
        "adm.cycle.recursion",
        extra_methods(method("loop", "return self.call('loop')")),
    ),
]

#: cases whose package the sender's encoder refuses to send
LOCAL_ONLY = {"unmarshalable"}

IDS = [case for case, _rule, _edit in CORPUS]


def package_for(edit) -> dict:
    package = copy.deepcopy(base_package())
    edit(package)
    return package


def test_the_base_package_is_clean():
    assert analyze_package(base_package(), concurrency=True) == []


def test_every_rule_has_a_case():
    assert {rule for _case, rule, _edit in CORPUS} == set(ADMISSION_RULES)


@pytest.mark.parametrize("case,rule,edit", CORPUS, ids=IDS)
def test_analyze_package(case, rule, edit):
    findings = analyze_package(package_for(edit), concurrency=True)
    assert rule in {finding.rule for finding in findings}


@pytest.fixture
def gated():
    network = Network(Simulator())
    home = Site(network, "home", "dom.home")
    away = Site(network, "away", "dom.away")
    network.topology.connect("home", "away", *LAN)
    MobilityManager(home)
    return home, away, MobilityManager(away, policy=admission_policy(strict=True))


@pytest.mark.parametrize("case,rule,edit", CORPUS, ids=IDS)
def test_gated_arrival(gated, case, rule, edit):
    home, away, receiver = gated
    package = package_for(edit)
    if case in LOCAL_ONLY:
        with pytest.raises(AdmissionRefusal) as refused:
            receiver.install_package(package, src="home")
        assert rule in {finding.rule for finding in refused.value.diagnostics}
    else:
        with pytest.raises(RemoteInvocationError) as refused:
            home.request(
                "away",
                "transfer.prepare",
                {"transfer_id": f"corpus-{case}", "package": package, "install_args": []},
            )
        assert refused.value.remote_type == "AdmissionRefusal"
        assert rule in str(refused.value)
    assert receiver.rejections == 1
    assert receiver.arrivals == 0
    assert away.objects() == ()


def test_preflight_sees_a_remote_reference(gated):
    """What ``marshal`` sends by identity is a reference to the sender
    too, so preflight predicts the strict gate's refusal."""
    home, _away, _receiver = gated
    tethered = home.create_object(display_name="tethered")
    tethered.define_fixed_data("friend", home.ref_to("mrom:obj:x", site="b"), acl=allow_all())
    tethered.seal()
    home.register_object(tethered)
    for findings in (home.mobility.preflight(tethered), analyze_package(pack(tethered))):
        assert "adm.external-reference" in {finding.rule for finding in findings}
    with pytest.raises(RemoteInvocationError, match="adm.external-reference"):
        home.mobility.migrate(tethered, "away")
    assert home.has_object(tethered.guid)


def test_a_gated_arrival_unpacks_once(gated, monkeypatch):
    """The gate audits the object ``unpack`` built, and that object is the
    one installed: one unpack per arrival."""
    import repro.mobility.package as package_module

    home, away, receiver = gated
    built = []
    real = package_module._unpack

    def counting(package, resolve):
        built.append(real(package, resolve))
        return built[-1]

    monkeypatch.setattr(package_module, "_unpack", counting)
    obj = home.create_object(display_name="visitor")
    obj.define_fixed_data("count", 0, acl=allow_all())
    obj.seal()
    home.register_object(obj)
    home.mobility.migrate(obj, "away")
    assert len(built) == 1
    assert away.local_object(obj.guid) is built[0]
    assert receiver.arrivals == 1
