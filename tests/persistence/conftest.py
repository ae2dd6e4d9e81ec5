"""Shared scaffolding for the durability suite: a durable world whose
sites can be crashed (journal closed, endpoint unregistered) and
recovered from their write-ahead logs."""

from __future__ import annotations

from repro.core import MROMObject, allow_all
from repro.mobility import MobilityManager
from repro.net import RetryPolicy
from repro.persistence import (
    MemoryStore,
    WriteAheadLog,
    attach_journal,
    recover_site,
)

from tests.conftest import make_site_world

FAST = RetryPolicy(attempts=4, timeout=0.5, backoff=0.05, multiplier=2.0)


def build_cell() -> MROMObject:
    """A counter any site may write, append to in place and restructure:
    fixed ``count`` and 1 KiB of ``notes``, an open meta ACL."""
    obj = MROMObject(display_name="cell", meta_acl=allow_all())
    obj.define_fixed_data("count", 0)
    obj.define_fixed_data("notes", "n" * 1024)
    obj.define_fixed_method(
        "increment",
        "step = args[0] if args else 1\n"
        "self.set('count', self.get('count') + step)\n"
        "return self.get('count')",
    )
    obj.define_fixed_method("peek", "return self.get('count')")
    obj.define_fixed_method("put", "self.set(args[0], args[1])\nreturn args[1]")
    obj.define_fixed_method(
        "push",
        "self.get(args[0]).append(args[1])\nreturn len(self.get(args[0]))",
    )
    obj.seal()
    return obj


class DurableWorld:
    """A full mesh of journaled sites plus crash/recover verbs."""

    def __init__(self, seed: int = 0, names: tuple[str, ...] = ("a", "b")):
        self.network, self.sites = make_site_world(seed=seed, names=names)
        self.names = names
        self.managers: dict[str, MobilityManager] = {}
        self.wals: dict[str, WriteAheadLog] = {}
        self.journals: dict = {}
        for name, site in self.sites.items():
            self.managers[name] = MobilityManager(site, retry_policy=FAST)
            wal = WriteAheadLog(MemoryStore())
            self.wals[name] = wal
            self.journals[name] = attach_journal(site, wal)

    def crash(self, name: str) -> None:
        """Fail-stop *name*: the journal goes silent, the endpoint dies."""
        journal = self.journals[name]
        if not journal.closed:
            journal.close()
        self.network.unregister(name)

    def recover(self, name: str):
        """Bring up a fresh incarnation of *name* from its WAL."""
        site, manager, report = recover_site(
            self.network, name, self.wals[name],
            domain=f"dom.{name}", retry_policy=FAST,
        )
        self.sites[name] = site
        self.managers[name] = manager
        self.journals[name] = attach_journal(site, self.wals[name])
        return report

    def crash_restart(self, name: str):
        self.crash(name)
        return self.recover(name)

    def owners_of(self, guid: str) -> list[str]:
        return [
            name for name, site in self.sites.items()
            if site.has_object(guid)
        ]
