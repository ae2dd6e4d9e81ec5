"""Identity and construction guards for cheap object construction.

The bundled meta-methods are built from one class-level table with
shared native bodies, and an item's nonce is a per-process prefix plus a
serial. These tests pin what that must not change, by counts and by
pinned output, never by time:

* nonces stay unique, and a handle token stales exactly as before;
* ``unpack`` and ``MROMObject(guid=...)`` mint no ``uuid4``;
* ``describe`` of a fresh, an unpacked and a meta-tower object, and each
  meta-method's body label and doc, equal the output pinned in
  ``tests/golden/describe.json`` (recorded before the table existed;
  re-record with ``python -m tests.core.test_construction_guards``).
"""

from __future__ import annotations

import json
import pathlib
import uuid

import pytest

from repro.core import META_METHOD_NAMES, MROMObject, Principal, StaleHandleError, allow_all
from repro.core.acl import SYSTEM
from repro.core.introspection import describe
from repro.mobility import MobilityManager, pack, unpack

from ..conftest import make_site_world

GOLDEN = pathlib.Path(__file__).resolve().parents[1] / "golden" / "describe.json"
OWNER = Principal("mrom:obj:owner", "technion.ee", "owner")


def _fresh() -> MROMObject:
    obj = MROMObject(guid="mrom:obj:fresh", domain="technion.ee",
                     display_name="fresh", owner=OWNER)
    obj.define_fixed_data("count", 0)
    obj.define_fixed_method("peek", "return self.get('count')")
    obj.seal()
    obj.invoke("addDataItem", ["label", "hot", {"metadata": {"doc": "a tag"}}],
               caller=OWNER)
    obj.invoke("addMethod", ["twice", "return 2 * self.get('count')",
                             {"acl": allow_all().describe()}], caller=OWNER)
    return obj


def _tower() -> MROMObject:
    obj = MROMObject(guid="mrom:obj:tower", display_name="tower", owner=OWNER,
                     extensible_meta=True)
    obj.define_fixed_method("work", "return 'done'")
    obj.seal()
    obj.invoke("addMethod", ["invoke", "return ctx.proceed()",
                             {"acl": allow_all().describe()}], caller=OWNER)
    _description, handle = obj.invoke("getMethod", ["setDataItem"], caller=OWNER)
    obj.invoke("setMethod", [handle, {"metadata": {"note": "edited"}}], caller=OWNER)
    return obj


def snapshot() -> dict:
    """What the golden pins: each object's privileged ``describe`` plus
    every meta-method's body label, role and doc."""
    objects = {"fresh": _fresh(), "unpacked": unpack(pack(_fresh())), "tower": _tower()}
    out = {}
    for key, obj in objects.items():
        meta = {}
        for name in META_METHOD_NAMES:
            method, section = obj.containers.lookup_method(name)
            meta[name] = {
                "section": section,
                "label": method.body.label,
                "role": method.body.role.value,
                "doc": method.metadata["doc"],
            }
        out[key] = {"describe": describe(obj, SYSTEM).to_mapping(), "meta": meta}
    return out


def test_describe_equals_the_pinned_output():
    assert json.loads(json.dumps(snapshot())) == json.loads(GOLDEN.read_text())


class TestNonces:
    def test_unique_across_10k_items(self):
        nonces = set()
        for _ in range(1000):
            obj = MROMObject()
            obj.define_fixed_data("x", 0)
            nonces.update(item.nonce for item, _c, _s in obj.containers.iter_with_sections())
        assert len(nonces) == 10_000

    def test_unpack_and_a_given_guid_mint_no_uuid4(self, monkeypatch):
        package = pack(_fresh())
        calls = []
        real = uuid.uuid4

        def counting():
            calls.append(1)
            return real()

        monkeypatch.setattr(uuid, "uuid4", counting)
        unpack(package)
        MROMObject(guid="mrom:obj:given")
        assert calls == []


class TestTokensStale:
    @pytest.mark.parametrize("extensible_meta", [False, True])
    def test_delete_and_re_add_stales_a_token(self, extensible_meta):
        obj = MROMObject(owner=OWNER, extensible_meta=extensible_meta)
        obj.seal()
        obj.invoke("addMethod", ["m", "return 1"], caller=OWNER)
        _d, handle = obj.invoke("getMethod", ["m"], caller=OWNER)
        token = handle.token()
        obj.invoke("deleteMethod", ["m"], caller=OWNER)
        obj.invoke("addMethod", ["m", "return 2"], caller=OWNER)
        with pytest.raises(StaleHandleError):
            obj.invoke("setMethod", [token, {"metadata": {}}], caller=OWNER)

    @pytest.mark.parametrize("name", ["m", "getDataItem"])
    def test_a_rename_by_set_method_stales_a_token(self, name):
        obj = MROMObject(owner=OWNER, extensible_meta=True)
        obj.seal()
        obj.invoke("addMethod", ["m", "return 1"], caller=OWNER)
        _d, handle = obj.invoke("getMethod", [name], caller=OWNER)
        token = handle.token()
        obj.invoke("setMethod", [token, {"name": name + "2"}], caller=OWNER)
        with pytest.raises(StaleHandleError):
            obj.invoke("setMethod", [token, {"metadata": {}}], caller=OWNER)

    def test_a_replaced_meta_method_stales_its_token(self):
        obj = MROMObject(owner=OWNER, extensible_meta=True)
        obj.seal()
        _d, handle = obj.invoke("getMethod", ["getDataItem"], caller=OWNER)
        token = handle.token()
        obj.invoke("setMethod", [token, {"metadata": {"n": 1}}], caller=OWNER)
        obj.invoke("deleteMethod", ["getDataItem"], caller=OWNER)
        with pytest.raises(StaleHandleError):
            obj.invoke("setMethod", [token, {"metadata": {"n": 2}}], caller=OWNER)

    def test_a_tower_token_stales_when_its_level_is_replaced(self):
        obj = MROMObject(owner=OWNER, extensible_meta=True)
        obj.seal()
        obj.invoke("addMethod", ["invoke", "return ctx.proceed()"], caller=OWNER)
        _d, handle = obj.invoke("getMethod", ["invoke"], caller=OWNER)
        token = handle.token()
        obj.invoke("deleteMethod", ["invoke"], caller=OWNER)
        obj.invoke("addMethod", ["invoke", "return ctx.proceed()"], caller=OWNER)
        with pytest.raises(StaleHandleError):
            obj.invoke("setMethod", [token, {"metadata": {}}], caller=OWNER)

    def test_a_sender_token_does_not_validate_after_migrate(self):
        _network, sites = make_site_world()
        managers = {name: MobilityManager(site) for name, site in sites.items()}
        obj = sites["a"].create_object(display_name="nomad", owner=OWNER,
                                       extensible_meta=True)
        obj.seal()
        obj.invoke("addDataItem", ["x", 1], caller=OWNER)
        sites["a"].register_object(obj)
        tokens = [obj.invoke(verb, [name], caller=OWNER)[1].token()
                  for verb, name in (("getDataItem", "x"), ("getMethod", "getMethod"))]
        managers["a"].migrate(obj, "b")
        landed = sites["b"].local_object(obj.guid)
        for token, verb in zip(tokens, ("setDataItem", "setMethod")):
            with pytest.raises(StaleHandleError):
                landed.invoke(verb, [token, {"metadata": {}}], caller=OWNER)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(snapshot(), indent=1, sort_keys=True) + "\n")
