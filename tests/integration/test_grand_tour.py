"""The grand tour: every subsystem in one evolving five-site world.

A long-running scenario asserting global invariants after each act:
integration, discovery, import, negotiation, mediation, interop
programs (MPL), maintenance, rolling updates, partition, heal,
crash, restart from the write-ahead log — one continuous history.
"""

import pytest

from repro.apps import Calculator, sample_database
from repro.core import HtmlText, Kind
from repro.core.errors import PartitionError
from repro.hadas import (
    FleetUpdater,
    InterfaceRequirement,
    InterfaceRevision,
    IOO,
    attach_argument_mediator,
    negotiate,
)
from repro.hadas.trader import Trader
from repro.net import LAN, Network, Site, WAN
from repro.persistence import MemoryStore, WriteAheadLog, attach_journal, recover_site
from repro.sim import Simulator

SITES = ("hub", "db-east", "db-west", "calc-farm", "edge")


@pytest.fixture
def world():
    network = Network(Simulator(seed=7))
    sites = {name: Site(network, name, f"net.{name}") for name in SITES}
    # the hub journals its whole history, so act 9 can restart it
    hub_wal = WriteAheadLog(MemoryStore())
    attach_journal(sites["hub"], hub_wal)
    for name in SITES[1:]:
        network.topology.connect("hub", name, *WAN)
    network.topology.connect("db-east", "db-west", *LAN)
    ioos = {name: IOO(site) for name, site in sites.items()}
    traders = {name: Trader(ioo) for name, ioo in ioos.items()}
    return network, sites, ioos, traders, hub_wal


def test_grand_tour(world):
    network, sites, ioos, traders, hub_wal = world

    # -- act 1: integration -------------------------------------------------
    east_db = sample_database()
    east = ioos["db-east"].integrate("employees", east_db)
    east.expose(
        "salary_of", east_db.salary_of, tags=["hr", "salary"],
        params=[{"name": "name", "kind": "text"}],
    )
    east.expose("headcount", east_db.headcount, tags=["hr", "stats"])
    calc = Calculator()
    farm = ioos["calc-farm"].integrate("calc", calc)
    farm.expose("evaluate", calc.evaluate, tags=["compute"])
    assert sorted(ioos["db-east"].home) == ["employees"]

    # -- act 2: discovery across the vicinity --------------------------------
    for target in ("db-east", "db-west", "calc-farm"):
        ioos["hub"].link(target)
    offers = traders["hub"].discover(tags=["hr"])
    assert {offer.operation for offer in offers} == {"salary_of", "headcount"}

    # -- act 3: import + mediation -------------------------------------------
    amb = ioos["hub"].import_apo("db-east", "employees")
    attach_argument_mediator(
        amb, "salary_of", [Kind.TEXT], updater=amb.owner
    )
    # scraped HTML flows straight in
    assert amb.invoke("salary_of", [HtmlText("<td>moshe</td>")]) == 4500

    # -- act 4: negotiation for the hub's expected verb -----------------------
    report = negotiate(
        amb,
        [InterfaceRequirement("lookup_salary", arity=1, tags=("salary",))],
        host=sites["hub"].principal,
        updater=amb.owner,
    )
    assert report.adapted == {"lookup_salary": "salary_of"}

    # -- act 5: an MPL interop program over two imports ------------------------
    ioos["hub"].import_apo("calc-farm", "calc")
    ioos["hub"].add_program_mpl(
        """
        method pay_plus_bonus(name, bonus_percent) {
          let hr = imports["employees"]
          let calc = imports["calc"]
          let base = hr.lookup_salary(name)
          return calc.evaluate(str(base) + " * (100 + "
                               + str(bonus_percent) + ") / 100")
        }
        """
    )
    assert ioos["hub"].run_program("pay_plus_bonus", ["dana", 10]) == 7920

    # -- act 6: maintenance notice, then lift ----------------------------------
    east.broadcast_maintenance("db-east offline tonight")
    assert amb.invoke("headcount") == "db-east offline tonight"
    east.broadcast_lift_maintenance()
    assert amb.invoke("headcount") == 8

    # -- act 7: rolling update -------------------------------------------------
    updater = FleetUpdater(east)
    rollout = updater.rollout(
        InterfaceRevision(1, add_methods={"version": "return 'r1'"}))
    assert rollout.clean
    assert amb.invoke("version") == "r1"

    # -- act 8: partition and partial degradation --------------------------------
    network.topology.partition({"db-east", "db-west"}, {"hub", "calc-farm", "edge"})
    with pytest.raises(PartitionError):
        amb.invoke("headcount")  # forwarded: needs the origin
    assert amb.invoke("version") == "r1"  # pushed earlier: answers locally
    # updates cannot reach the fleet...
    degraded = updater.rollout(
        InterfaceRevision(2, add_methods={"version2": "return 'r2'"}))
    assert not degraded.clean
    network.topology.heal()
    recovered = updater.rollout(
        InterfaceRevision(2, add_methods={"version2": "return 'r2'"}))
    assert recovered.clean
    assert amb.invoke("version2") == "r2"

    # -- act 9: crash, restart from the write-ahead log -------------------------
    sites["hub"].journal.close()  # the fail-stop instant
    network.unregister("hub")
    reborn, _manager, recovery = recover_site(
        network, "hub", hub_wal, domain="net.hub"
    )
    assert recovery.objects_failed == 0
    assert reborn.has_object(amb.guid)

    revived = reborn.local_object(amb.guid)
    # everything the ambassador accumulated survived: the negotiation
    # adapter, both pushed revisions, and the origin link
    assert revived.invoke("version") == "r1"
    assert revived.invoke("version2") == "r2"
    assert revived.invoke("lookup_salary", ["moshe"]) == 4500  # via origin
    assert revived.invoke("headcount") == 8
    # (the native mediator did not survive — host-side code is
    # reconstructed by the host, not persisted)
    from repro.mobility import portability_report

    assert portability_report(revived) == []

    # -- epilogue: the books balance ----------------------------------------------
    assert network.messages_sent > 40
    assert network.bytes_sent > 10_000
    assert east_db.queries_served >= 4
