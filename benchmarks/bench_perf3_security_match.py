"""PERF-3: the cost of the Match phase (security coupled with
encapsulation, checked at every invocation).

A warm call runs a compiled closure whose ALLOW verdict is pinned, so it
never evaluates the ACL; Match runs cold — on the first call of a
(caller, method) pair and again after every ACL edit. The series times
that cold Match two ways: ``acl.permits`` alone, and an invoke right
after an edit (the closure re-runs Match and re-pins itself; nothing is
recompiled, which the series asserts by count). Variants:
self-invocation (Match bypassed), allow-all, ACLs of growing length
(the caller matching the last entry — worst case for the ordered scan)
and a domain-pattern ACL.
"""

import pytest

from repro.core import (
    AccessControlList,
    AclEntry,
    MROMObject,
    Permission,
    Principal,
    allow_all,
    domain_acl,
)

from repro.core import invocation

from .series import emit, time_per_call

OWNER = Principal("mrom://bench/1.1", "bench.dom", "owner")
CALLER = Principal("mrom://bench/2.2", "bench.dom.sub", "caller")
#: removing a subject no entry names leaves the entries as they are but
#: moves the ACL's version, which makes compiled closures re-run Match
ABSENT = "mrom://bench/absent"


def build_service(acl: AccessControlList) -> MROMObject:
    obj = MROMObject(display_name="svc", owner=OWNER)
    obj.define_fixed_method("op", "return 1", acl=acl)
    obj.seal()
    return obj


def acl_with_entries(count: int) -> AccessControlList:
    entries = [
        AclEntry(f"mrom://other/{index}.0", Permission.INVOKE)
        for index in range(count - 1)
    ]
    entries.append(AclEntry(CALLER.guid, Permission.INVOKE))
    return AccessControlList(entries)


def cold_invoke(obj: MROMObject, caller: Principal):
    """An invoke right after an ACL edit (the edit is timed too)."""
    acl = obj.containers.lookup_method("op")[0].acl

    def call():
        acl.remove_subject(ABSENT)
        return obj.invoke("op", caller=caller)

    return call


@pytest.mark.parametrize("entries", [1, 8, 64])
def test_permits_with_acl_entries(benchmark, entries):
    acl = acl_with_entries(entries)
    benchmark(lambda: acl.permits(CALLER, Permission.INVOKE))


@pytest.mark.parametrize("entries", [1, 8, 64])
def test_invoke_after_acl_edit(benchmark, entries):
    benchmark(cold_invoke(build_service(acl_with_entries(entries)), CALLER))


def test_perf3_series(benchmark, monkeypatch):
    compiled = []
    real_compile = invocation.compile_invocation

    def counting_compile(*args):
        compiled.append(args[1].name)
        return real_compile(*args)

    monkeypatch.setattr(invocation, "compile_invocation", counting_compile)
    variants = [
        ("self (match bypassed)", allow_all(), None),
        ("allow-all", allow_all(), CALLER),
        ("acl-1-entry", acl_with_entries(1), CALLER),
        ("acl-8-entries", acl_with_entries(8), CALLER),
        ("acl-64-entries", acl_with_entries(64), CALLER),
        ("domain-pattern", domain_acl("bench.dom"), CALLER),
    ]
    rows = []
    for label, acl, caller in variants:
        obj = build_service(acl)
        principal = caller if caller is not None else obj.principal
        obj.invoke("op", caller=principal)  # the one compile
        compiles = len(compiled)
        edit = time_per_call(lambda a=acl: a.remove_subject(ABSENT))
        cold = time_per_call(cold_invoke(obj, principal)) - edit
        # an edit the caller survives re-matches in place: no recompile
        assert len(compiled) == compiles, label
        warm = time_per_call(lambda o=obj, p=principal: o.invoke("op", caller=p))
        permits = (
            time_per_call(lambda a=acl, p=principal: a.permits(p, Permission.INVOKE)) * 1e6
            if caller is not None
            else "-"
        )
        rows.append((label, permits, cold * 1e6, warm * 1e6))
    emit(
        "perf3_security_match",
        "PERF-3: cold Match-phase cost (us; cold invoke = invoke after an "
        "ACL edit, the edit's own cost subtracted)",
        ["variant", "permits", "cold_invoke", "warm_invoke"],
        rows,
    )
    benchmark(lambda: variants[4][1].permits(CALLER, Permission.INVOKE))
