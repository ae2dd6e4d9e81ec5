"""The happens-before sanitizer: clocks, witnesses, and the oracle."""

import threading

import pytest

from repro.analysis import sanitizer as hb
from repro.analysis.sanitizer import ObservedCycle, Sanitizer
from repro.concurrency import ActiveObject
from repro.core import MROMObject

pytestmark = pytest.mark.analysis

RMW_BODY = (
    "self.set('n', self.get('n') + 1)\n"
    "return self.get('n')"
)


def make_counter(name: str = "acct") -> MROMObject:
    obj = MROMObject(display_name=name)
    obj.define_fixed_data("n", 0)
    obj.define_fixed_method("bump", RMW_BODY)
    obj.seal()
    return obj


@pytest.fixture(autouse=True)
def no_global_sanitizer():
    yield
    hb.disable()


class TestClocks:
    def test_concurrent_writes_are_a_race(self):
        san = Sanitizer()
        a = san.fork("a", parent=None)
        b = san.fork("b", parent=None)
        san.push(a)
        san.access("g", "x", "write", "left")
        san.pop()
        san.push(b)
        san.access("g", "x", "write", "right")
        san.pop()
        assert len(san.races) == 1
        race = san.races[0]
        assert race.methods == ("left", "right")
        assert race.writers == ("left", "right")

    def test_reads_never_race_reads(self):
        san = Sanitizer()
        for label in ("a", "b"):
            task = san.fork(label, parent=None)
            san.push(task)
            san.access("g", "x", "read", label)
            san.pop()
        assert san.races == []

    def test_send_serve_reply_edges_order_accesses(self):
        san = Sanitizer()
        issuer = san.fork("issuer", parent=None)
        san.push(issuer)
        san.note_sent("m1")
        san.pop()
        serve1 = san.begin_serve("m1", "serve1")
        san.access("g", "x", "write", "first")
        san.end_serve("m1", serve1)
        # the issuer joins the reply before issuing the next request
        san.push(issuer)
        san.absorb_reply("m1")
        san.note_sent("m2")
        san.pop()
        serve2 = san.begin_serve("m2", "serve2")
        san.access("g", "x", "write", "second")
        san.end_serve("m2", serve2)
        assert san.races == []

    def test_unjoined_serves_race(self):
        san = Sanitizer()
        issuer = san.fork("issuer", parent=None)
        san.push(issuer)
        san.note_sent("m1")
        san.note_sent("m2")
        san.pop()
        for msg, method in (("m1", "first"), ("m2", "second")):
            task = san.begin_serve(msg)
            san.access("g", "x", "write", method)
            san.end_serve(msg, task)
        assert len(san.races) == 1

    def test_same_race_is_witnessed_once(self):
        san = Sanitizer()
        for label in ("a", "b", "c"):
            task = san.fork(label, parent=None)
            san.push(task)
            san.access("g", "x", "write", "bump")
            san.pop()
        assert len(san.races) == 1


class TestWaitCycles:
    def test_mutual_waits_close_a_ring(self):
        san = Sanitizer()
        san.wait_begin("alpha", "beta")
        san.wait_begin("beta", "alpha")
        assert san.cycles == [ObservedCycle(sites=("alpha", "beta"))]

    def test_sequential_waits_do_not(self):
        san = Sanitizer()
        san.wait_begin("alpha", "beta")
        san.wait_end("alpha", "beta")
        san.wait_begin("beta", "alpha")
        san.wait_end("beta", "alpha")
        assert san.cycles == []

    def test_ring_of_three(self):
        san = Sanitizer()
        san.wait_begin("a", "b")
        san.wait_begin("b", "c")
        san.wait_begin("c", "a")
        assert san.cycles == [ObservedCycle(sites=("a", "b", "c"))]


class TestDifferentialOracle:
    def test_observed_race_matches_static_finding(self):
        obj = make_counter()
        san = Sanitizer()
        for label in ("a", "b"):
            task = san.fork(label, parent=None)
            san.push(task)
            san.invoke(obj, "bump")
            san.pop()
        assert len(san.races) == 1
        verdict = san.crosscheck()
        assert verdict["ok"]
        assert verdict["observed_races"] == 1
        assert verdict["unmatched_races"] == []

    def test_unmodeled_race_fails_the_crosscheck(self):
        san = Sanitizer()
        for label in ("a", "b"):
            task = san.fork(label, parent=None)
            san.push(task)
            san.access("ghost", "x", "write", label)
            san.pop()
        verdict = san.crosscheck()
        assert not verdict["ok"]
        assert len(verdict["unmatched_races"]) == 1

    def test_unmatched_cycle_fails_the_crosscheck(self):
        san = Sanitizer()
        san.wait_begin("alpha", "beta")
        san.wait_begin("beta", "alpha")
        verdict = san.crosscheck()
        assert not verdict["ok"]
        assert len(verdict["unmatched_cycles"]) == 1

    def test_protocol_reads_match_via_the_writer(self):
        obj = make_counter()
        san = Sanitizer()
        writer = san.fork("writer", parent=None)
        san.push(writer)
        san.invoke(obj, "bump")
        san.pop()
        reader = san.fork("reader", parent=None)
        san.push(reader)
        san.data_read(obj, "n")
        san.pop()
        assert any(r.methods == ("bump", "get_data") for r in san.races)
        assert san.crosscheck()["ok"]


class TestActiveObjectIntegration:
    def test_mailbox_serialization_is_a_happens_before_edge(self):
        hb.enable()
        try:
            obj = make_counter("serialized")
            with ActiveObject(obj) as active:
                for _ in range(5):
                    active.invoke("bump")
        finally:
            san = hb.disable()
        assert san.races == []
        assert san.access_count > 0

    def test_a_backlog_past_the_stash_cap_keeps_every_submit_edge(self):
        """The submitter's clock travels with each work item: a mailbox
        backlog longer than ``stash_cap`` (queued while the worker is
        held at its first item) still orders every item after what the
        submitter did before submitting it."""
        gate = threading.Event()

        class HeldWorker(Sanitizer):
            def work_begin(self, active, method, future):
                gate.wait(timeout=10)
                super().work_begin(active, method, future)

        san = hb.enable(HeldWorker(stash_cap=4))
        obj = make_counter("backlog")
        with ActiveObject(obj) as active:
            san.push(san.fork("submitter", parent=None))
            san.invoke(obj, "bump")  # the submitter's own write first
            futures = [active.invoke_async("bump") for _ in range(12)]
            gate.set()
            for future in futures:
                future.result(timeout=10)
            san.pop()
        hb.disable()
        assert san.races == []
        assert san.access_count > 12

    def test_enable_installs_and_disable_returns(self):
        san = hb.enable()
        assert hb.active() is san
        assert hb.disable() is san
        assert hb.active() is None

    def test_released_sanitizer_observes_nothing_more(self):
        """After ``hb.disable()`` every RMI hook (wait edges, send/serve
        clocks, the invoke access expansion) is unhooked for real: a
        sync remote invoke leaves the released sanitizer's counts as
        they were."""
        from repro.core import allow_all
        from repro.net import LAN, Network, Site
        from repro.sim import Simulator

        network = Network(Simulator())
        client = Site(network, "client", "hb.client")
        server = Site(network, "server", "hb.server")
        network.topology.connect("client", "server", *LAN)
        obj = server.create_object(display_name="hb-counter")
        obj.define_fixed_data("n", 0)
        obj.define_fixed_method("bump", RMW_BODY, acl=allow_all())
        obj.seal()
        server.register_object(obj)
        san = hb.enable()
        # the caller stays a current task across the disable, so a send
        # hook left live would find a clock to stamp
        san.push(san.fork("caller", parent=None))
        try:
            assert client.remote_invoke("server", obj.guid, "bump", []) == 1
        finally:
            assert hb.disable() is san

        def counts():
            return san.tasks_created, san.access_count, san.send_count

        before = counts()
        assert all(before), f"the enabled call must be observed: {before}"
        assert client.remote_invoke("server", obj.guid, "bump", []) == 2
        san.pop()
        assert counts() == before


def rmi_world():
    """A client and a server site over a LAN; the server holds a counter
    whose ``bump`` is a read-modify-write of ``n``."""
    from repro.core import allow_all
    from repro.net import LAN, Network, Site
    from repro.sim import Simulator

    network = Network(Simulator())
    client = Site(network, "client", "hb.client")
    server = Site(network, "server", "hb.server")
    network.topology.connect("client", "server", *LAN)
    obj = server.create_object(display_name="hb-counter")
    obj.define_fixed_data("n", 0)
    obj.define_fixed_method("bump", RMW_BODY, acl=allow_all())
    obj.seal()
    server.register_object(obj)
    return client, obj


def bump(client, guid: str, style: str) -> None:
    """One remote bump, waited for the way *style* names."""
    if style == "blocking":
        client.remote_invoke("server", guid, "bump", [])
    elif style == "async-wait":
        client.wait(client.remote_invoke_async("server", guid, "bump", []))
    elif style == "wait-all":
        client.wait_all([client.remote_invoke_async("server", guid, "bump", [])])
    else:
        with client.batch("server") as batch:
            batch.invoke(guid, "bump")


class TestReplyEdge:
    """Through real sites, however a caller waits for a reply, what the
    server did happens-before the caller's next step."""

    @pytest.mark.parametrize("style", ["blocking", "async-wait", "wait-all", "batch"])
    def test_one_issuer_in_sequence_is_ordered(self, style):
        client, obj = rmi_world()
        san = hb.enable()
        san.push(san.fork("issuer", parent=None))
        try:
            bump(client, obj.guid, style)
            bump(client, obj.guid, style)
        finally:
            san.pop()
        assert san.races == []
        # one attempt per request, each sent from the issuer's clock
        assert san.send_count == 2

    def test_two_issuers_race(self):
        client, obj = rmi_world()
        san = hb.enable()
        for label in ("first", "second"):
            san.push(san.fork(label, parent=None))
            try:
                bump(client, obj.guid, "async-wait")
            finally:
                san.pop()
        assert len(san.races) == 1
        assert san.send_count == 2
