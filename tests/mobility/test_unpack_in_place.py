"""Arrival reads the decoded package in place, and keeps nothing of it.

``unpack(decoded, resolve)`` resolves references only where one may sit
(item values, metadata, the environment) and reads ACL and code
descriptions where they lie. The reference is
``unpack(materialize_deep(decoded, resolve))``, which copies and
resolves the whole package first: for seeded random objects both must
give the same ``describe`` view, the same re-packed package and the
same ``mask_for`` verdicts. Then every container of the decoded package
is mutated, and the unpacked object must not change.
"""

from __future__ import annotations

import random

import pytest

from repro.core import MROMObject, Principal
from repro.core.acl import (
    ANONYMOUS,
    SYSTEM,
    AccessControlList,
    AclEntry,
    Decision,
    Permission,
)
from repro.core.introspection import describe
from repro.core.items import DataItem, MROMMethod
from repro.mobility import pack, unpack
from repro.net.marshal import Reference, marshal, materialize_deep, unmarshal

PEERS = {f"mrom:obj:peer{n}": MROMObject(guid=f"mrom:obj:peer{n}") for n in range(3)}
DOMAINS = ("", "technion", "technion.ee", "technion.ee.dsl", "mit")
PERMISSIONS = (Permission.GET, Permission.SET, Permission.INVOKE, Permission.META,
               Permission.DATA, Permission.ALL)


def resolve(guid: str, site: str):
    """Registered peers resolve to the live object, the rest stay references."""
    return PEERS.get(guid, Reference(guid, site))


def principal(rng: random.Random) -> Principal:
    return Principal(f"mrom:obj:p{rng.randrange(4)}", rng.choice(DOMAINS))


def random_acl(rng: random.Random) -> AccessControlList:
    entries = []
    for _ in range(rng.randrange(4)):
        shape = rng.randrange(3)
        if shape == 0:
            subject = "*"
        elif shape == 1:
            subject = "domain:" + rng.choice(DOMAINS)
        else:
            subject = principal(rng).guid
        decision = Decision.DENY if rng.random() < 0.3 else Decision.ALLOW
        entries.append(AclEntry(subject, rng.choice(PERMISSIONS), decision))
    return AccessControlList(entries, default_allow=rng.random() < 0.2)


def random_value(rng: random.Random, depth: int = 0):
    """Plain data with live peers and unresolvable references inside."""
    shape = rng.randrange(8 if depth < 3 else 5)
    if shape == 0:
        return rng.randrange(-5, 1000)
    if shape == 1:
        return rng.choice(["", "text", "ünïcode", "x" * 80])
    if shape == 2:
        return rng.choice(list(PEERS.values()))
    if shape == 3:
        return Reference(f"mrom:obj:far{rng.randrange(3)}", "elsewhere")
    if shape == 4:
        return rng.choice([None, True, 2.5, b"\x00raw"])
    if shape == 5:
        return [random_value(rng, depth + 1) for _ in range(rng.randrange(4))]
    return {f"k{n}": random_value(rng, depth + 1) for n in range(rng.randrange(4))}


def random_metadata(rng: random.Random) -> dict:
    if rng.random() < 0.5:
        return {}
    return {"note": random_value(rng), "peer": rng.choice(list(PEERS.values()))}


def random_method(rng: random.Random, name: str) -> MROMMethod:
    return MROMMethod(
        name,
        f"return {rng.randrange(100)}",
        pre="return True" if rng.random() < 0.5 else None,
        post="return result is not None" if rng.random() < 0.5 else None,
        acl=random_acl(rng),
        metadata=random_metadata(rng),
    )


def random_object(seed: int) -> MROMObject:
    rng = random.Random(seed)
    obj = MROMObject(
        guid=f"mrom:obj:traveller{seed}",
        domain=rng.choice(DOMAINS),
        display_name=f"traveller {seed}",
        owner=principal(rng),
        extensible_meta=True,
        meta_acl=random_acl(rng),
        environment={"home": random_value(rng), "peer": rng.choice(list(PEERS.values()))},
    )
    for n in range(rng.randrange(1, 5)):
        obj.define_fixed_data(f"d{n}", random_value(rng), acl=random_acl(rng),
                              metadata=random_metadata(rng))
    for n in range(rng.randrange(1, 3)):
        obj.containers.add_fixed(random_method(rng, f"m{n}"))
    obj.seal()
    for n in range(rng.randrange(3)):
        obj.containers.add_extensible(DataItem(
            f"e{n}", random_value(rng), acl=random_acl(rng), metadata=random_metadata(rng)
        ))
    for n in range(rng.randrange(3)):
        obj.containers.add_extensible(random_method(rng, f"x{n}"))
    for _ in range(rng.randrange(3)):
        obj._push_meta_invoke(MROMMethod(
            "invoke", "return ctx.proceed()", acl=random_acl(rng),
            metadata=random_metadata(rng),
        ))
    return obj


def viewers(obj: MROMObject) -> list[Principal]:
    rng = random.Random(obj.guid)
    return [ANONYMOUS, SYSTEM, obj.owner, obj.principal,
            *(principal(rng) for _ in range(6))]


def verdicts(obj: MROMObject) -> list:
    acls = [obj._meta_acl]
    acls += [item.acl for item, _category, _section in obj.containers.iter_with_sections()]
    acls += [level.acl for level in obj.meta_invoke_chain()]
    return [[acl.mask_for(viewer) for viewer in viewers(obj)] for acl in acls]


def containers(value):
    """Every list and mapping nested in *value*, innermost first."""
    if isinstance(value, dict):
        for inner in value.values():
            yield from containers(inner)
        yield value
    elif isinstance(value, list):
        for inner in value:
            yield from containers(inner)
        yield value


def vandalize(package: dict) -> int:
    """Mutate every container of a decoded package in place."""
    count = 0
    for container in list(containers(package)):
        if isinstance(container, dict):
            for key in list(container):
                container[key] = "vandalized"
            container["extra"] = ["vandalized"]
        else:
            container[:] = ["vandalized"]
        count += 1
    return count


@pytest.mark.parametrize("seed", range(40))
def test_in_place_arrival_matches_a_materialized_copy(seed):
    original = random_object(seed)
    decoded = unmarshal(marshal(pack(original)))
    reference = unpack(materialize_deep(decoded, resolve))
    arrived = unpack(decoded, resolve)
    for viewer in viewers(original):
        assert describe(arrived, viewer) == describe(reference, viewer)
    # live peers compare by identity: both arrive holding the very objects
    assert pack(arrived) == pack(reference) == pack(original)
    assert verdicts(arrived) == verdicts(reference) == verdicts(original)

    before = (pack(arrived), [describe(arrived, viewer) for viewer in viewers(arrived)])
    assert vandalize(decoded) > 10
    after = (pack(arrived), [describe(arrived, viewer) for viewer in viewers(arrived)])
    assert after == before
    assert verdicts(arrived) == verdicts(reference)

