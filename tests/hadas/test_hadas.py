"""HADAS: IOOs, APOs, Link, Import/Export, Ambassadors, programs."""

import pytest

from repro.apps import Calculator, sample_database
from repro.core.errors import (
    AccessDeniedError,
    PolicyViolationError,
    RemoteInvocationError,
)
from repro.hadas import APO, IOO, LinkError
from repro.net import Network, Site, WAN
from repro.sim import Simulator


@pytest.fixture
def world():
    network = Network(Simulator())
    haifa = Site(network, "haifa", "technion.ee")
    boston = Site(network, "boston", "mit.lcs")
    paris = Site(network, "paris", "inria.fr")
    network.topology.connect("haifa", "boston", *WAN)
    network.topology.connect("haifa", "paris", *WAN)
    network.topology.connect("boston", "paris", *WAN)
    ioos = {
        "haifa": IOO(haifa),
        "boston": IOO(boston),
        "paris": IOO(paris),
    }
    return network, ioos


@pytest.fixture
def db_world(world):
    network, ioos = world
    db = sample_database()
    apo = ioos["haifa"].integrate(
        "employees",
        db,
        operations={
            "salary_of": db.salary_of,
            "headcount": db.headcount,
            "payroll_total": db.payroll_total,
            "departments": db.departments,
        },
    )
    return network, ioos, db, apo


class TestIntegration:
    def test_apo_in_home(self, db_world):
        _network, ioos, _db, apo = db_world
        assert ioos["haifa"].apo("employees") is apo
        assert sorted(apo.operations()) == [
            "departments", "headcount", "payroll_total", "salary_of",
        ]

    def test_operations_list_a_method_whose_metadata_says_meta(self, db_world):
        """Only the bundled meta-methods are left out: an operation the
        owner added with ``meta`` in its metadata is still listed."""
        _network, _ioos, _db, apo = db_world
        apo.facade.invoke(
            "addMethod",
            ["hello", "return 'hi'", {"metadata": {"meta": True}}],
            caller=apo.facade.owner,
        )
        assert "hello" in apo.operations()
        assert "getMethod" not in apo.operations()

    def test_local_invocation(self, db_world):
        _network, _ioos, _db, apo = db_world
        assert apo.invoke("salary_of", ["dana"]) == 7200

    def test_duplicate_integration_rejected(self, db_world):
        _network, ioos, db, _apo = db_world
        with pytest.raises(Exception):
            ioos["haifa"].integrate("employees", db)

    def test_interrogation_of_apo_facade(self, db_world):
        _network, ioos, _db, apo = db_world
        from repro.core.introspection import interrogate

        protocol = interrogate(apo.facade)
        assert "salary_of" in protocol
        assert protocol["salary_of"]["tags"] == ["service"]


class TestLink:
    def test_link_installs_peer_ambassador(self, world):
        _network, ioos = world
        entry = ioos["boston"].link("haifa")
        assert entry.site == "haifa"
        assert entry.ambassador.invoke("info") == {
            "site": "haifa", "domain": "technion.ee",
        }
        assert ioos["boston"].linked_sites() == ("haifa",)

    def test_link_is_idempotent(self, world):
        _network, ioos = world
        first = ioos["boston"].link("haifa")
        second = ioos["boston"].link("haifa")
        assert first is second

    def test_link_is_directional(self, world):
        _network, ioos = world
        ioos["boston"].link("haifa")
        assert ioos["haifa"].linked_sites() == ()

    def test_link_policy(self, world):
        network, _ioos = world
        closed_site = Site(network, "closed", "private.corp")
        network.topology.connect("closed", "boston", *WAN)
        IOO(closed_site, accept_links_from=("friendly",))
        with pytest.raises(RemoteInvocationError) as excinfo:
            _ioos["boston"].site.request(
                "closed", "hadas.link",
                {"from_site": "boston", "from_domain": "mit.lcs"},
            )
        assert excinfo.value.remote_type == "PolicyViolationError"

    def test_ambassador_in_vicinity_reaches_origin_ioo(self, world):
        _network, ioos = world
        entry = ioos["boston"].link("haifa")
        origin = entry.ambassador.get_data(
            "origin", caller=ioos["boston"].site.principal
        )
        assert origin.guid == ioos["haifa"].obj.guid


class TestImportExport:
    def test_import_requires_link(self, db_world):
        _network, ioos, _db, _apo = db_world
        with pytest.raises(LinkError):
            ioos["boston"].import_apo("haifa", "employees")

    def test_import_installs_ambassador(self, db_world):
        _network, ioos, _db, _apo = db_world
        ioos["boston"].link("haifa")
        amb = ioos["boston"].import_apo("haifa", "employees")
        assert amb.invoke("whoami")["hosted_by"] == "boston"
        assert ioos["boston"].imported("employees") is amb

    def test_forwarding_reaches_the_real_application(self, db_world):
        _network, ioos, db, _apo = db_world
        ioos["boston"].link("haifa")
        amb = ioos["boston"].import_apo("haifa", "employees")
        before = db.queries_served
        assert amb.invoke("salary_of", ["noa"]) == 5600
        assert db.queries_served == before + 1

    def test_unknown_apo(self, db_world):
        _network, ioos, _db, _apo = db_world
        ioos["boston"].link("haifa")
        with pytest.raises(RemoteInvocationError) as excinfo:
            ioos["boston"].import_apo("haifa", "nothing")
        assert excinfo.value.remote_type == "ExportError"

    def test_export_access_control(self, world):
        _network, ioos = world
        db = sample_database()
        ioos["haifa"].integrate(
            "secret-db", db,
            operations={"headcount": db.headcount},
            allowed_importers=("paris",),
        )
        ioos["paris"].link("haifa")
        ioos["boston"].link("haifa")
        ioos["paris"].import_apo("haifa", "secret-db")
        with pytest.raises(RemoteInvocationError) as excinfo:
            ioos["boston"].import_apo("haifa", "secret-db")
        assert excinfo.value.remote_type == "PolicyViolationError"

    def test_partial_interface_import(self, db_world):
        _network, ioos, _db, _apo = db_world
        ioos["boston"].link("haifa")
        amb = ioos["boston"].import_apo(
            "haifa", "employees", forward=["headcount"]
        )
        assert amb.invoke("headcount") == 8
        assert not amb.containers.has_method("salary_of")

    def test_origin_remembers_deployments(self, db_world):
        _network, ioos, _db, apo = db_world
        ioos["boston"].link("haifa")
        ioos["paris"].link("haifa")
        ioos["boston"].import_apo("haifa", "employees")
        ioos["paris"].import_apo("haifa", "employees")
        assert len(apo.deployed) == 2

    def test_import_name_collision(self, db_world):
        _network, ioos, _db, _apo = db_world
        ioos["boston"].link("haifa")
        ioos["boston"].import_apo("haifa", "employees")
        with pytest.raises(Exception):
            ioos["boston"].import_apo("haifa", "employees")


class TestAmbassadorDuality:
    """The security/encapsulation duality between host IOO and guest."""

    def test_host_cannot_touch_guest_meta_methods(self, db_world):
        _network, ioos, _db, _apo = db_world
        ioos["boston"].link("haifa")
        amb = ioos["boston"].import_apo("haifa", "employees")
        host = ioos["boston"].site.principal
        with pytest.raises(AccessDeniedError):
            amb.invoke("addMethod", ["evil", "return 1"], caller=host)
        with pytest.raises(AccessDeniedError):
            amb.invoke("deleteMethod", ["salary_of"], caller=host)

    def test_guest_meta_methods_invisible_to_host(self, db_world):
        from repro.core.introspection import describe

        _network, ioos, _db, _apo = db_world
        ioos["boston"].link("haifa")
        amb = ioos["boston"].import_apo("haifa", "employees")
        names = describe(amb, viewer=ioos["boston"].site.principal).names()
        assert "salary_of" in names
        assert "addMethod" not in names

    def test_origin_can_update_deployed_ambassador(self, db_world):
        _network, ioos, _db, apo = db_world
        ioos["boston"].link("haifa")
        amb = ioos["boston"].import_apo("haifa", "employees")
        apo.broadcast_add_method(
            "greeting", "return 'shalom from ' + self.get('origin_apo')"
        )
        assert amb.invoke("greeting") == "shalom from employees"


class TestMaintenanceScenario:
    """Section 5's database shutdown example, end to end."""

    def test_queries_get_notice_then_recover(self, db_world):
        _network, ioos, _db, apo = db_world
        for city in ("boston", "paris"):
            ioos[city].link("haifa")
            ioos[city].import_apo("haifa", "employees")
        notice = "database is down for maintenance"
        assert apo.broadcast_maintenance(notice) == 2
        for city in ("boston", "paris"):
            amb = ioos[city].imported("employees")
            assert amb.invoke("salary_of", ["moshe"]) == notice
            assert amb.invoke("headcount") == notice
        apo.broadcast_lift_maintenance()
        for city in ("boston", "paris"):
            amb = ioos[city].imported("employees")
            assert amb.invoke("salary_of", ["moshe"]) == 4500

    def test_origin_passes_through_during_maintenance(self, db_world):
        _network, ioos, _db, apo = db_world
        ioos["boston"].link("haifa")
        amb = ioos["boston"].import_apo("haifa", "employees")
        apo.broadcast_maintenance("down")
        # the owner (origin APO) still reaches the real methods
        assert amb.invoke("headcount", caller=apo.principal) == 8


class TestInteropPrograms:
    def test_program_coordinates_imports(self, db_world):
        _network, ioos, _db, _apo = db_world
        ioos["boston"].link("haifa")
        ioos["boston"].import_apo("haifa", "employees")
        ioos["boston"].add_program(
            "avg_salary",
            "db = self.get('imports')['employees']\n"
            "return db.invoke('payroll_total', []) / db.invoke('headcount', [])",
        )
        assert ioos["boston"].run_program("avg_salary") == pytest.approx(5150.0)
        assert ioos["boston"].programs() == ["avg_salary"]

    def test_program_spanning_two_imports(self, world):
        network, ioos = world
        db = sample_database()
        calc = Calculator()
        ioos["haifa"].integrate(
            "employees", db, operations={"payroll_total": db.payroll_total}
        )
        ioos["paris"].integrate(
            "calc", calc, operations={"evaluate": calc.evaluate}
        )
        ioos["boston"].link("haifa")
        ioos["boston"].link("paris")
        ioos["boston"].import_apo("haifa", "employees")
        ioos["boston"].import_apo("paris", "calc")
        ioos["boston"].add_program(
            "taxed_payroll",
            "db = self.get('imports')['employees']\n"
            "calc = self.get('imports')['calc']\n"
            "total = db.invoke('payroll_total', [])\n"
            "return calc.invoke('evaluate', [str(total) + ' * 2'])",
        )
        assert ioos["boston"].run_program("taxed_payroll") == 41200 * 2

    def test_programs_invocable_remotely(self, db_world):
        # multi-site InterOperability Programs: another IOO can run them
        _network, ioos, _db, _apo = db_world
        ioos["boston"].link("haifa")
        ioos["boston"].import_apo("haifa", "employees")
        ioos["boston"].add_program(
            "headcount_program",
            "return self.get('imports')['employees'].invoke('headcount', [])",
        )
        ref = ioos["paris"].site.ref_to(
            ioos["boston"].obj.guid, site="boston"
        )
        assert ref.invoke("headcount_program") == 8
