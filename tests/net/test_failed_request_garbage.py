"""A failed blocking request leaves nothing for the cyclic collector.

``Site.wait`` and ``Site.wait_all`` raise the failure a settled future
stores. The raised error's traceback keeps every frame it passes
through, so a frame that still held the error, its future or the call
owning the future would close a cycle (error -> traceback -> frame ->
future -> error) that reference counting cannot free. The raised
error's type, message and cause are those the future stores.
"""

from __future__ import annotations

import pytest

from repro.core.errors import (
    MROMError,
    NetworkError,
    PolicyViolationError,
    RemoteInvocationError,
)
from repro.mobility import MobilityManager
from repro.security import HostPolicy

from tests.conftest import cyclic_garbage, make_site_world


def refusal(thunk) -> MROMError:
    """The error *thunk* raises."""
    with pytest.raises(MROMError) as raised:
        thunk()
    return raised.value


def raises_without_garbage(thunk) -> list:
    def call():
        try:
            thunk()
        except MROMError:
            pass
        else:
            raise AssertionError("expected a refusal")

    call()  # warm: first-use caches are not garbage
    return cyclic_garbage(call)


class TestFailedRequestLeavesNoCycle:
    def test_unknown_kind(self):
        _network, sites = make_site_world()

        def thunk():
            sites["a"].request("b", "no.such.kind", {})

        error = refusal(thunk)
        assert isinstance(error, NetworkError)
        assert isinstance(error, RemoteInvocationError)
        assert error.remote_type == NetworkError.__name__
        assert str(error) == "unknown kind 'no.such.kind'"
        assert error.__cause__ is None
        assert raises_without_garbage(thunk) == []

    def test_refused_migrate(self):
        _network, sites = make_site_world()
        MobilityManager(
            sites["b"], policy=HostPolicy(banned_method_names=frozenset({"increment"}))
        )
        manager = MobilityManager(sites["a"])
        obj = sites["a"].create_object(display_name="counter")
        obj.define_fixed_data("count", 0)
        obj.define_fixed_method("increment", "return 1")
        obj.seal()
        sites["a"].register_object(obj)

        def thunk():
            manager.migrate(obj, "b")

        error = refusal(thunk)
        assert isinstance(error, PolicyViolationError)
        assert error.remote_type == PolicyViolationError.__name__
        assert raises_without_garbage(thunk) == []
        assert sites["a"].has_object(obj.guid)

    def test_wait_all_with_one_failure(self):
        _network, sites = make_site_world()
        site = sites["a"]

        def thunk():
            # a caller frame holding the futures would close its own cycle
            site.wait_all([
                site.request_async("b", "ping", {}),
                site.request_async("b", "no.such.kind", {}),
            ])

        error = refusal(thunk)
        assert str(error) == "unknown kind 'no.such.kind'"
        assert raises_without_garbage(thunk) == []
