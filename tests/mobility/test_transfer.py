"""Migration over the simulated network, admission policies, tours."""

import pytest

from repro.core import Principal
from repro.core.errors import (
    NotPortableError,
    PolicyViolationError,
    RemoteInvocationError,
    SandboxViolation,
)
from repro.mobility import (
    AgentTour,
    Itinerary,
    MobilityManager,
    make_collector_agent,
)
from repro.net import LAN, Network, Site, WAN
from repro.security import HostPolicy
from repro.sim import Simulator


@pytest.fixture
def world():
    network = Network(Simulator())
    sites = {name: Site(network, name, f"dom.{name}") for name in
             ("home", "alpha", "beta")}
    network.topology.connect("home", "alpha", *WAN)
    network.topology.connect("alpha", "beta", *LAN)
    network.topology.connect("home", "beta", *WAN)
    managers = {name: MobilityManager(site) for name, site in sites.items()}
    return network, sites, managers


def make_traveller(site):
    obj = site.create_object(display_name="traveller", owner=site.principal)
    obj.define_fixed_data("log", [])
    obj.define_fixed_method(
        "install",
        "context = self.env.get('install_context', {})\n"
        "log = self.get('log')\n"
        "log.append(context.get('site'))\n"
        "self.set('log', log)\n"
        "return context.get('site')",
    )
    obj.define_fixed_method("log_of", "return self.get('log')")
    obj.seal()
    site.register_object(obj)
    return obj


class TestMigrate:
    def test_migrate_moves_the_object(self, world):
        _net, sites, managers = world
        traveller = make_traveller(sites["home"])
        ref = managers["home"].migrate(traveller, "alpha")
        assert not sites["home"].has_object(traveller.guid)
        assert sites["alpha"].has_object(traveller.guid)
        assert ref.invoke("log_of", caller=traveller.owner) == ["alpha"]

    def test_install_invoked_with_context(self, world):
        _net, sites, managers = world
        traveller = make_traveller(sites["home"])
        managers["home"].migrate(traveller, "alpha")
        settled = sites["alpha"].local_object(traveller.guid)
        context = settled.environment["install_context"]
        assert context["site"] == "alpha"
        assert context["arrived_at"] >= WAN[0]
        # the install-time fastpath_reset() hit a cold cache: dropping
        # nothing is not an invalidation, and the one closure the object
        # holds is the one its install call compiled here
        cache = settled.fastpath
        assert cache is not None
        assert cache.invalidations == 0
        assert cache.compiled_discards == 0
        assert cache.compiles == cache.compiled_entries == 1

    def test_deploy_copy_keeps_original(self, world):
        _net, sites, managers = world
        traveller = make_traveller(sites["home"])
        managers["home"].deploy_copy(traveller, "alpha")
        managers["home"].deploy_copy(traveller, "beta")
        assert sites["home"].has_object(traveller.guid)
        assert sites["alpha"].has_object(traveller.guid)
        assert sites["beta"].has_object(traveller.guid)

    def test_non_portable_object_stays(self, world):
        _net, sites, managers = world
        pinned = sites["home"].create_object(display_name="pinned")
        pinned.define_fixed_method("native", lambda self, args, ctx: 1)
        pinned.seal()
        sites["home"].register_object(pinned)
        with pytest.raises(NotPortableError):
            managers["home"].migrate(pinned, "alpha")
        assert sites["home"].has_object(pinned.guid)

    def test_statistics(self, world):
        _net, sites, managers = world
        traveller = make_traveller(sites["home"])
        managers["home"].migrate(traveller, "alpha")
        assert managers["home"].departures == 1
        assert managers["alpha"].arrivals == 1


@pytest.mark.parametrize(
    "install, remote_type",
    [
        ("return self.call('missing')", "MethodNotFoundError"),
        ("return 1 / 0", "ZeroDivisionError"),
    ],
)
def test_a_guest_whose_install_raises_leaves_one_live_copy(world, install, remote_type):
    """Whatever the install body raised, the destination drops its copy:
    the sender keeps the original on a refused transfer."""
    _net, sites, managers = world
    guest = sites["home"].create_object(display_name="guest")
    guest.define_fixed_method("install", install)
    guest.seal()
    sites["home"].register_object(guest)
    with pytest.raises(RemoteInvocationError) as refused:
        managers["home"].migrate(guest, "alpha")
    assert refused.value.remote_type == remote_type
    assert sites["home"].has_object(guest.guid)
    assert not sites["alpha"].has_object(guest.guid)
    assert managers["alpha"].arrivals == 0


class TestAdmissionPolicy:
    def make_picky_world(self, policy):
        network = Network(Simulator())
        home = Site(network, "home", "dom.home")
        picky = Site(network, "picky", "dom.picky")
        network.topology.connect("home", "picky", *LAN)
        return (
            network,
            home,
            picky,
            MobilityManager(home),
            MobilityManager(picky, policy=policy),
        )

    def test_rejection_keeps_object_at_origin(self, world):
        policy = HostPolicy(allowed_domains=("trusted",))
        _net, home, _picky, home_manager, picky_manager = self.make_picky_world(policy)
        traveller = make_traveller(home)
        with pytest.raises(RemoteInvocationError) as excinfo:
            home_manager.migrate(traveller, "picky")
        assert excinfo.value.remote_type == "PolicyViolationError"
        assert home.has_object(traveller.guid)
        assert picky_manager.rejections == 1

    def test_structure_bound(self, world):
        policy = HostPolicy(max_items=2)
        _net, home, _picky, home_manager, _pm = self.make_picky_world(policy)
        traveller = make_traveller(home)  # 3 items: log + install + log_of
        with pytest.raises(RemoteInvocationError):
            home_manager.migrate(traveller, "picky")

    def test_admission_when_policy_satisfied(self, world):
        policy = HostPolicy(allowed_domains=("dom",), max_items=10)
        _net, home, picky, home_manager, _pm = self.make_picky_world(policy)
        traveller = make_traveller(home)
        home_manager.migrate(traveller, "picky")
        assert picky.has_object(traveller.guid)


class TestForward:
    def test_forward_moves_between_remote_sites(self, world):
        _net, sites, managers = world
        traveller = make_traveller(sites["home"])
        ref = managers["home"].migrate(traveller, "alpha")
        ref2 = managers["home"].forward("alpha", ref.guid, "beta")
        assert not sites["alpha"].has_object(traveller.guid)
        assert sites["beta"].has_object(traveller.guid)
        assert ref2.invoke("log_of", caller=traveller.owner) == ["alpha", "beta"]

    def test_only_owner_may_forward(self, world):
        _net, sites, managers = world
        traveller = make_traveller(sites["home"])
        managers["home"].migrate(traveller, "alpha")
        stranger = Principal("mrom://stranger/1.1", "evil", "stranger")
        with pytest.raises(RemoteInvocationError) as excinfo:
            managers["beta"].forward(
                "alpha", traveller.guid, "beta", caller=stranger
            )
        assert excinfo.value.remote_type == "PolicyViolationError"


class TestAgentTour:
    def test_tour_visits_all_stops_in_order(self, world):
        _net, sites, managers = world
        agent = make_collector_agent(sites["home"])
        records = AgentTour(managers["home"]).run(
            agent, Itinerary.through("alpha", "beta")
        )
        assert [r.site for r in records] == ["alpha", "beta"]
        home_copy = sites["home"].local_object(agent.guid)
        assert home_copy.invoke("report", caller=agent.owner) == [
            ["alpha", "alpha"],
            ["beta", "beta"],
        ]

    def test_custom_probe(self, world):
        _net, sites, managers = world
        agent = make_collector_agent(
            sites["home"], probe_source="return len(site)"
        )
        records = AgentTour(managers["home"]).run(
            agent, Itinerary.through("alpha"), return_home=False
        )
        assert records[0].visit_result == 5
        assert sites["alpha"].has_object(agent.guid)

    def test_time_advances_with_each_hop(self, world):
        _net, sites, managers = world
        agent = make_collector_agent(sites["home"])
        records = AgentTour(managers["home"]).run(
            agent, Itinerary.through("alpha", "beta")
        )
        assert records[0].arrived_at < records[1].arrived_at

    def test_empty_itinerary_rejected(self):
        from repro.core.errors import MobilityError

        with pytest.raises(MobilityError):
            Itinerary(())


class TestAutonomousTour:
    """The agent decides its own route; the origin executes the hops."""

    def make_goal_agent(self, site, plan):
        """An agent with an internal plan it consumes one hop at a time."""
        agent = site.create_object(
            display_name="goal-agent", owner=site.principal
        )
        agent.define_fixed_data("plan", list(plan))
        agent.define_fixed_data("trail", [])
        agent.define_fixed_method(
            "visit",
            "trail = self.get('trail')\ntrail.append(args[0])\n"
            "self.set('trail', trail)\nreturn args[0]",
        )
        agent.define_fixed_method(
            "next_stop",
            "plan = self.get('plan')\n"
            "if len(plan) == 0:\n"
            "    return None\n"
            "head = plan[0]\n"
            "self.set('plan', plan[1:])\n"
            "return head",
        )
        agent.define_fixed_method("trail_of", "return self.get('trail')")
        agent.seal()
        site.register_object(agent)
        return agent

    def test_agent_follows_its_own_plan(self, world):
        from repro.mobility import AutonomousTour

        _net, sites, managers = world
        agent = self.make_goal_agent(sites["home"], plan=["beta"])
        records = AutonomousTour(managers["home"]).run(agent, "alpha")
        assert [r.site for r in records] == ["alpha", "beta"]
        back = sites["home"].local_object(agent.guid)
        assert back.invoke("trail_of", caller=agent.owner) == ["alpha", "beta"]

    def test_leash_bounds_a_runaway_agent(self, world):
        from repro.mobility import AutonomousTour

        _net, sites, managers = world
        runaway = sites["home"].create_object(
            display_name="runaway", owner=sites["home"].principal
        )
        runaway.define_fixed_data("at", "")
        runaway.define_fixed_method(
            "visit", "self.set('at', args[0])\nreturn args[0]"
        )
        runaway.define_fixed_method(
            # forever bounce between alpha and beta
            "next_stop",
            "return 'beta' if self.get('at') == 'alpha' else 'alpha'",
        )
        runaway.seal()
        sites["home"].register_object(runaway)
        tour = AutonomousTour(managers["home"], max_hops=5)
        records = tour.run(runaway, "alpha")
        assert len(records) == 5
        # dragged home despite never deciding to stop
        assert sites["home"].has_object(runaway.guid)

    def test_staying_put_ends_the_tour(self, world):
        from repro.mobility import AutonomousTour

        _net, sites, managers = world
        homebody = self.make_goal_agent(sites["home"], plan=["alpha"])
        records = AutonomousTour(managers["home"]).run(homebody, "alpha")
        # first decision says "alpha" (already there): tour ends
        assert [r.site for r in records] == ["alpha"]
        assert sites["home"].has_object(homebody.guid)


class TestVerifyOncePerBody:
    """Arrivals pay for sandbox verification once per distinct body."""

    INSTALL = "self.set('hops', self.get('hops') + 1)\nreturn self.get('hops')"

    def ring(self, policy=None):
        """Eight hops around four sites, each with *policy*; returns the
        traveller where it ends and its owner."""
        network = Network(Simulator(7))
        sites = [Site(network, f"s{i}", f"ring.s{i}") for i in range(4)]
        for i, left in enumerate(sites):
            for right in sites[i + 1:]:
                network.topology.connect(left.site_id, right.site_id, *LAN)
        managers = [MobilityManager(site, policy=policy) for site in sites]
        owner = sites[0].principal
        traveller = sites[0].create_object(display_name="ring", owner=owner)
        traveller.define_fixed_data("hops", 0)
        traveller.define_fixed_method("install", self.INSTALL)
        traveller.self_view().add_method("greet", "return 'hello'")
        traveller.seal()
        sites[0].register_object(traveller)

        home = 0
        for hop in range(8):
            dst = (home + 1) % len(sites)
            ref = managers[home].migrate(traveller, sites[dst].site_id)
            traveller = sites[dst].local_object(ref.guid)
            home = dst
            assert traveller.get_data("hops", caller=owner) == hop + 1
        return traveller, owner

    def test_eight_hops_verify_install_body_once(self, verified):
        traveller, owner = self.ring()
        assert sum(self.INSTALL.splitlines()[0] in s for s in verified) == 1

        # a body installed by setMethod is verified before it is installed
        _description, handle = traveller.invoke("getMethod", ["greet"], caller=owner)
        before = len(verified)
        traveller.invoke("setMethod", [handle, {"body": "return 'bonjour'"}], caller=owner)
        assert ["return 'bonjour'" in s for s in verified[before:]] == [True]
        assert traveller.invoke("greet", caller=owner) == "bonjour"
        assert len(verified) == before + 1
        for _ in range(2):
            with pytest.raises(SandboxViolation):
                traveller.invoke(
                    "setMethod", [handle, {"body": "import os"}], caller=owner
                )
        assert traveller.invoke("greet", caller=owner) == "bonjour"

    @pytest.mark.parametrize("policy", [None, HostPolicy()], ids=["none", "host"])
    def test_a_host_policy_verifies_each_body_once(self, verified, monkeypatch, policy):
        from repro.mobility import sandbox

        walks = []
        real = sandbox._Verifier.__init__

        def counting(verifier, *args, **kwargs):
            walks.append(args)
            real(verifier, *args, **kwargs)

        monkeypatch.setattr(sandbox._Verifier, "__init__", counting)
        self.ring(policy)
        # the install body, and the body greet was added with before sealing
        assert len(walks) == 2
