"""Effect extraction: the read/write sets every analyzer runs on."""

import ast

import pytest

from repro.analysis.admission import admission_policy
from repro.lang import effects as effects_module, parse
from repro.lang.effects import (
    STRUCTURE_ITEM,
    effects_of_object,
    effects_of_portable,
)
from repro.mobility import MobilityManager

from tests.conftest import make_site_world

pytestmark = pytest.mark.analysis


def object_effects(source: str):
    program = parse(source)
    assert program.objects, "test source declares no object"
    return effects_of_object(program.objects[0])


class TestMPLSurface:
    def test_bare_name_read_and_assignment_write(self):
        effects = object_effects(
            """
            object o {
              data total = 0
              method bump() {
                total = total + 1
              }
            }
            """
        )
        eff = effects["bump"]
        assert set(eff.reads) == {"total"}
        assert set(eff.writes) == {"total"}
        assert not eff.dynamic

    def test_selfview_get_set_and_structural(self):
        effects = object_effects(
            """
            object o {
              data x = 0
              method m() {
                self.set("x", self.get("x"))
                self.add_data("fresh", 1)
              }
            }
            """
        )
        eff = effects["m"]
        assert set(eff.reads) == {"x"}
        assert set(eff.writes) == {"x"}
        assert set(eff.structural) == {"add_data"}

    def test_locals_and_params_shadow_nothing_but_are_not_data(self):
        effects = object_effects(
            """
            object o {
              data x = 0
              method m(y) {
                let z = y + 1
                return z
              }
            }
            """
        )
        eff = effects["m"]
        assert eff.reads == {}
        assert eff.writes == {}

    def test_self_call_sugar_and_explicit_call(self):
        effects = object_effects(
            """
            object o {
              data x = 0
              method a() {
                self.b()
              }
              method b() {
                self.call("a")
              }
            }
            """
        )
        assert set(effects["a"].self_calls) == {"b"}
        assert set(effects["b"].self_calls) == {"a"}

    def test_computed_item_name_marks_method_dynamic(self):
        effects = object_effects(
            """
            object o {
              data x = 0
              method m(which) {
                return self.get(which)
              }
            }
            """
        )
        assert effects["m"].dynamic

    def test_contract_clauses_count_as_reads(self):
        effects = object_effects(
            """
            object o {
              data balance = 0
              method spend(n) requires balance > 0 {
                return n
              }
            }
            """
        )
        assert "balance" in effects["spend"].reads


class TestPortableDialect:
    def test_read_modify_write(self):
        eff = effects_of_portable(
            "self.set('count', self.get('count') + 1)\n"
            "return self.get('count')"
        )
        assert set(eff.reads) == {"count"}
        assert set(eff.writes) == {"count"}

    def test_bare_return_body_parses(self):
        eff = effects_of_portable("return self.get('x')")
        assert set(eff.reads) == {"x"}

    def test_structural_and_call(self):
        eff = effects_of_portable(
            "self.delete_data('old')\nself.call('rebuild')"
        )
        assert set(eff.structural) == {"delete_data"}
        assert set(eff.self_calls) == {"rebuild"}

    def test_unparsable_body_is_opaque_not_an_error(self):
        eff = effects_of_portable("def broken(:")
        assert eff.dynamic

    def test_structure_item_is_reserved(self):
        # the pseudo-item can never collide with a declared data name
        assert STRUCTURE_ITEM.startswith("##")


class TestParsedOnce:
    """Effect sets are kept by source text, so a body that arrives again
    is a lookup, and what a lookup returns is the caller's own copy."""

    def test_a_second_gated_arrival_parses_nothing(self, monkeypatch):
        network, sites = make_site_world(names=("a", "b", "c"))
        managers = {
            name: MobilityManager(site, policy=admission_policy())
            for name, site in sites.items()
        }
        traveller = sites["a"].create_object(display_name="traveller")
        traveller.define_fixed_data("hops", 0)
        traveller.define_fixed_method(
            "install", "self.set('hops', self.get('hops') + 1)\nreturn 1"
        )
        traveller.define_fixed_method("peek", "return self.get('hops')")
        traveller.seal()
        sites["a"].register_object(traveller)
        managers["a"].migrate(traveller, "b")  # the first arrival parses
        parses = []
        real_parse = ast.parse

        def counting(source, *args, **kwargs):
            parses.append(source)
            return real_parse(source, *args, **kwargs)

        monkeypatch.setattr(ast, "parse", counting)
        ref = managers["b"].migrate(sites["b"].local_object(traveller.guid), "c")
        assert parses == []
        assert ref.invoke("peek", caller=traveller.owner) == 2

    def test_a_kept_effect_set_cannot_be_edited_through_a_lookup(self):
        source = "self.set('count', self.get('count') + 1)"
        first = effects_of_portable(source, "m")
        first.reads["forged"] = (9, 9)
        first.dynamic = True
        second = effects_of_portable(source, "n")
        assert second.name == "n"
        assert set(second.reads) == {"count"} and not second.dynamic

    def test_the_table_stays_within_its_entry_bound(self):
        table = effects_module._PARSED
        for index in range(table.cap + 10):
            effects_of_portable(f"return self.get('x{index}')")
        assert 0 < table.snapshot()[0] <= table.cap

    def test_an_oversized_body_is_parsed_but_not_kept(self):
        table = effects_module._PARSED
        source = "x = 1\n" * (table.body_max_chars // 6 + 1)
        assert not effects_of_portable(source).dynamic
        assert table.get(source) is None
