"""Failure injection: partitions mid-protocol, site crash and restart."""

import pytest

from repro.apps import sample_database
from repro.core.errors import PartitionError
from repro.hadas import IOO
from repro.mobility import MobilityManager
from repro.net import Network, Site, WAN
from repro.persistence import MemoryStore, WriteAheadLog, attach_journal, recover_site
from repro.sim import Simulator


@pytest.fixture
def world():
    network = Network(Simulator())
    haifa = Site(network, "haifa", "technion.ee")
    boston = Site(network, "boston", "mit.lcs")
    network.topology.connect("haifa", "boston", *WAN)
    return network, haifa, boston


class TestPartitions:
    def test_import_fails_cleanly_during_partition(self, world):
        network, haifa, boston = world
        ioo_h, ioo_b = IOO(haifa), IOO(boston)
        db = sample_database()
        ioo_h.integrate("employees", db, operations={"headcount": db.headcount})
        ioo_b.link("haifa")
        network.topology.partition({"haifa"}, {"boston"})
        with pytest.raises(PartitionError):
            ioo_b.import_apo("haifa", "employees")
        # no half-installed ambassador
        assert ioo_b.imports == {}
        network.topology.heal()
        amb = ioo_b.import_apo("haifa", "employees")
        assert amb.invoke("headcount") == 8

    def test_split_ambassador_survives_partition(self, world):
        """The autonomy argument: after a functionality split, the
        Ambassador keeps answering even with the origin unreachable."""
        network, haifa, boston = world
        ioo_h, ioo_b = IOO(haifa), IOO(boston)
        db = sample_database()
        apo = ioo_h.integrate(
            "employees", db,
            operations={"headcount": db.headcount, "departments": db.departments},
        )
        ioo_b.link("haifa")
        amb = ioo_b.import_apo("haifa", "employees")
        apo.broadcast_add_data("cached_headcount", db.headcount())
        apo.broadcast_add_method(
            "headcount_local", "return self.get('cached_headcount')"
        )
        network.topology.partition({"haifa"}, {"boston"})
        # forwarded queries fail...
        with pytest.raises(PartitionError):
            amb.invoke("headcount")
        # ...but the migrated functionality keeps working
        assert amb.invoke("headcount_local") == 8

    def test_migration_fails_atomically_into_partition(self, world):
        network, haifa, boston = world
        manager = MobilityManager(haifa)
        MobilityManager(boston)
        traveller = haifa.create_object(display_name="traveller")
        traveller.define_fixed_method("ping", "return 'pong'")
        traveller.seal()
        haifa.register_object(traveller)
        network.topology.partition({"haifa"}, {"boston"})
        with pytest.raises(PartitionError):
            manager.migrate(traveller, "boston")
        # the object is still exactly where it was
        assert haifa.has_object(traveller.guid)
        assert not boston.has_object(traveller.guid)


class TestSiteRestart:
    def make_guests(self, haifa, boston, manager_h):
        guests = []
        for index in range(3):
            guest = haifa.create_object(
                display_name=f"guest{index}", owner=haifa.principal
            )
            guest.define_fixed_data("serial", index)
            guest.define_fixed_data("visits", 0)
            guest.define_fixed_method(
                "install",
                "self.set('visits', self.get('visits') + 1)\n"
                "return self.get('visits')",
            )
            guest.define_fixed_method("serial_of", "return self.get('serial')")
            guest.seal()
            haifa.register_object(guest)
            manager_h.migrate(guest, "boston")
            guests.append(guest.guid)
        return guests

    def test_restart_recovers_from_the_wal(self, world):
        network, haifa, boston = world
        manager_h = MobilityManager(haifa)
        MobilityManager(boston)
        wal = WriteAheadLog(MemoryStore())
        attach_journal(boston, wal)  # the host journals from the start
        guests = self.make_guests(haifa, boston, manager_h)

        # the host crashes; its journal goes silent at the same instant
        boston.journal.close()
        network.unregister("boston")

        # messages to the crashed site fail at the transport
        with pytest.raises(Exception):
            haifa.request("boston", "ping", {})

        # a replacement boots on the same node and replays its log
        reborn, _manager, report = recover_site(
            network, "boston", wal, domain="mit.lcs"
        )
        assert report.objects_restored == len(guests)
        assert report.objects_failed == 0

        # identity, state and behaviour survived; install did not run
        # again (the logged images are post-install)
        for index, guid in enumerate(guests):
            obj = reborn.local_object(guid)
            assert obj.invoke("serial_of", caller=haifa.principal) == index
            assert obj.get_data("visits", caller=haifa.principal) == 1
            assert obj.environment["install_context"]["recovered"] is True

        # and it is reachable remotely again
        ref = haifa.ref_to(guests[0], site="boston")
        assert ref.invoke("serial_of", caller=haifa.principal) == 0

    def test_native_infrastructure_skipped_not_failed(self, world):
        network, haifa, _boston = world
        wal = WriteAheadLog(MemoryStore())
        journal = attach_journal(haifa, wal)
        infra = haifa.create_object(display_name="infra")
        infra.define_fixed_method("native_op", lambda self, args, ctx: 1)
        infra.seal()
        haifa.register_object(infra)
        portable = haifa.create_object(display_name="portable")
        portable.define_fixed_method("op", "return 1")
        portable.seal()
        haifa.register_object(portable)
        assert journal.skipped_unportable == 1
        assert not journal.failed

        journal.close()
        network.unregister("haifa")
        reborn, _manager, report = recover_site(
            network, "haifa", wal, domain="technion.ee"
        )
        # infrastructure is the host program's to rebuild, not the log's
        assert [obj.guid for obj in reborn.objects()] == [portable.guid]
        assert report.objects_failed == 0

    def test_corrupt_image_reported_not_fatal(self, world):
        network, haifa, _boston = world
        wal = WriteAheadLog(MemoryStore())
        journal = attach_journal(haifa, wal)
        good = haifa.create_object(display_name="good")
        good.define_fixed_data("x", 1)
        good.seal()
        haifa.register_object(good)
        # an intact frame whose image does not unpack
        wal.append("object.image", {"guid": "mrom://haifa/9.9",
                                    "package": {"format": "garbage"}})

        journal.close()
        network.unregister("haifa")
        reborn, _manager, report = recover_site(
            network, "haifa", wal, domain="technion.ee"
        )
        assert reborn.has_object(good.guid)
        assert report.objects_restored == 1
        assert report.objects_failed == 1


@pytest.mark.chaos
class TestChaosItinerary:
    """The headline chaos scenario: an agent completes a multi-site tour
    under flapping links, message faults, and one site crash-restarting
    from its write-ahead log — and ends up exactly where and what a fault-free
    run ends up."""

    def test_faulted_tour_equals_fault_free_tour(self):
        from repro.faults import run_chaos_scenario

        faulted = run_chaos_scenario(seed=5)
        clean = run_chaos_scenario(
            seed=5, drop=0, dup=0, reorder=0, jitter=0, flap=False, crash=False
        )
        # the weather actually happened...
        assert faulted.faults.get("crash", 0) >= 1
        assert faulted.faults.get("flap", 0) >= 1
        # ...and yet: same itinerary, same observations, one live copy home
        assert faulted.completed and clean.completed
        assert faulted.itinerary == clean.itinerary
        assert faulted.observations == clean.observations
        assert faulted.live_copies == clean.live_copies == 1
        assert faulted.agent_at == clean.agent_at == ("site0",)
        assert faulted.unresolved == 0 and faulted.stray_objects == 0

    def test_crashed_site_rejoins_and_keeps_serving(self):
        from repro.faults import run_chaos_scenario

        report = run_chaos_scenario(seed=5)
        assert report.ok
        # the crash fired and the restarted incarnation re-entered the
        # protocol: visits at the crash site appear in the observations
        # on both tour passes, before and after the fail-stop
        assert report.faults["crash"] == 1
        crash_site = report.sites[len(report.sites) // 2]
        visits = [stop for stop, _ in report.observations if stop == crash_site]
        assert len(visits) == 2
