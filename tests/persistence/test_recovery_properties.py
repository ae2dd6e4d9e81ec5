"""Property battery: randomized op sequences against a never-crashed
oracle.

Each case derives a pure op script from its seed — invokes, nomad
migrations, checkpoints (compacting and not), and whole-site
crash-restarts, plus the edits a journal delta cannot carry and must
fall back to a whole image for (remote ``addDataItem`` and
``setDataItem`` kind changes, ACL grants, in-place appends to a list
value) and the ones it must carry exactly (type-changing writes such as
``1 -> 1.0`` or ``1 -> True``, and a local write made between a
checkpoint and the next served invoke) — and runs it through two worlds
built identically:

* the **durable** world actually executes the crash-restarts (journal
  closed, endpoint unregistered, incarnation rebuilt from the WAL);
* the **oracle** world treats them as no-ops (the site simply never
  crashed).

After every crash-restart, and again at the end, the observable
application state of the two worlds — which site owns each object, and
every data item's value, type, declared kind and ACL — must be
identical. Divergence anywhere is
a durability bug: a lost update, a lost object, a double-applied
install, or a resurrected zombie.
"""

from __future__ import annotations

import random

import pytest

from repro.core import MROMObject, Permission

from .conftest import FAST, DurableWorld, build_cell

pytestmark = pytest.mark.recovery

NAMES = ("a", "b", "c")
SEQUENCES = 200
OPS_PER_SEQUENCE = 12
#: scalar writes, chosen so each write may change the value's type
WRITES = (1, 1.0, True, 0, 0.0, -0.0, 2.5, False)
#: declared kinds every value in WRITES coerces to
KINDS = ("real", "boolean", "any")


def make_script(seed: int) -> list[tuple]:
    """A pure list of ops — both worlds consume the same script, so the
    randomness is spent before either world exists."""
    rng = random.Random(seed)
    script: list[tuple] = []
    lists: dict[str, list[str]] = {name: [] for name in NAMES}
    for index in range(OPS_PER_SEQUENCE):
        roll = rng.random()
        target = rng.choice(NAMES)
        caller = rng.choice([n for n in NAMES if n != target])
        if lists[target] and rng.random() < 0.3:
            name = rng.choice(lists[target])
            script.append(("push", caller, target, name, rng.randint(1, 9)))
        elif roll < 0.30:
            script.append(("invoke", caller, target, rng.randint(1, 5)))
        elif roll < 0.40:
            script.append(("put", caller, target,
                           rng.choice(("count", "tag")), rng.choice(WRITES)))
        elif roll < 0.46:
            if rng.random() < 0.4:
                value = []
                lists[target].append(f"x{index}")
            else:
                value = rng.choice(WRITES)
            script.append(("add", caller, target, f"x{index}", value))
        elif roll < 0.50:
            script.append(("set_kind", caller, target, rng.choice(KINDS)))
        elif roll < 0.55:
            script.append(("grant", caller, target, f"mrom:obj:g{index}"))
        elif roll < 0.68:
            script.append(("migrate", rng.random()))
        elif roll < 0.76:
            script.append(("checkpoint", target, rng.random() < 0.5))
        elif roll < 0.82:
            script.append(("local_write", caller, target,
                           rng.random() < 0.5, f"notes-{index}"))
        else:
            script.append(("crash", target))
    if not any(op[0] == "crash" for op in script):
        script.append(("crash", rng.choice(NAMES)))  # always crash once
    return script


class Harness:
    """One world (durable or oracle) executing the shared script."""

    def __init__(self, seed: int, crashes_real: bool):
        self.world = DurableWorld(seed=seed, names=NAMES)
        self.crashes_real = crashes_real
        self.counters: dict[str, str] = {}
        for name in NAMES:
            counter = build_cell()
            counter.invoke("addDataItem", ["tag", 1], caller=counter.owner)
            self.world.sites[name].register_object(counter)
            self.counters[name] = counter.guid
        nomad = self.world.sites[NAMES[0]].create_object(display_name="nomad")
        nomad.define_fixed_data("hops", 0)
        nomad.define_fixed_method(
            "install", "self.set('hops', self.get('hops') + 1)"
        )
        nomad.seal()
        self.world.sites[NAMES[0]].register_object(nomad)
        self.nomad_guid = nomad.guid
        self.nomad_home = NAMES[0]

    def call(self, caller: str, target: str, method: str, *args):
        return self.world.sites[caller].remote_invoke(
            target, self.counters[target], method, list(args), policy=FAST,
        )

    def counter_at(self, target: str) -> MROMObject:
        return self.world.sites[target].local_object(self.counters[target])

    def apply(self, op: tuple) -> None:
        kind = op[0]
        if kind == "invoke":
            _kind, caller, target, step = op
            self.call(caller, target, "increment", step)
        elif kind == "put":
            _kind, caller, target, name, value = op
            self.call(caller, target, "put", name, value)
        elif kind == "push":
            _kind, caller, target, name, value = op
            self.call(caller, target, "push", name, value)
        elif kind == "add":
            _kind, caller, target, name, value = op
            self.call(caller, target, "addDataItem", name, value)
        elif kind == "set_kind":
            _kind, caller, target, declared = op
            _description, handle = self.call(caller, target, "getDataItem", "tag")
            self.call(caller, target, "setDataItem", handle, {"kind": declared})
        elif kind == "grant":
            # a local ACL edit, made durable by the served invoke after it
            _kind, caller, target, subject = op
            item, _section = self.counter_at(target).containers.lookup_data("count")
            item.acl.grant(subject, Permission.GET)
            self.call(caller, target, "increment", 1)
        elif kind == "local_write":
            # checkpoint, write locally (unjournaled), then serve an invoke:
            # the delta must carry the local write against the snapshot
            _kind, caller, target, compact, notes = op
            self.world.journals[target].checkpoint(compact=compact)
            counter = self.counter_at(target)
            counter.set_data("notes", notes, caller=counter.owner)
            self.call(caller, target, "increment", 1)
        elif kind == "migrate":
            choices = [n for n in NAMES if n != self.nomad_home]
            dst = choices[int(op[1] * len(choices)) % len(choices)]
            home = self.world.sites[self.nomad_home]
            self.world.managers[self.nomad_home].migrate(
                home.local_object(self.nomad_guid), dst
            )
            self.nomad_home = dst
        elif kind == "checkpoint":
            _kind, name, compact = op
            self.world.journals[name].checkpoint(compact=compact)
        elif kind == "crash":
            if self.crashes_real:
                report = self.world.crash_restart(op[1])
                assert report.objects_failed == 0, (
                    f"recovery dropped objects at {op[1]}"
                )
        else:  # pragma: no cover - script generator bug
            raise AssertionError(f"unknown op {op!r}")

    def observe(self) -> dict:
        """Everything an application can see: placement, and each data
        item's value (by type and repr, so ``1``, ``1.0``, ``True`` and
        ``-0.0`` all differ), declared kind and ACL."""
        state: dict = {}
        objects = {f"counter.{name}": guid for name, guid in self.counters.items()}
        objects["nomad"] = self.nomad_guid
        for label, guid in objects.items():
            owners = tuple(sorted(self.world.owners_of(guid)))
            assert len(owners) == 1, f"{label} owned by {owners}"
            obj = self.world.sites[owners[0]].local_object(guid)
            containers = obj.containers
            state[label] = (owners, [
                (item.name, type(item.peek()), repr(item.peek()),
                 item.kind.value, item.acl.describe())
                for item in (*containers.fixed_data, *containers.ext_data)
            ])
        return state


def run_sequence(seed: int) -> None:
    script = make_script(seed)
    durable = Harness(seed, crashes_real=True)
    oracle = Harness(seed, crashes_real=False)
    for index, op in enumerate(script):
        durable.apply(op)
        oracle.apply(op)
        if op[0] == "crash":
            assert durable.observe() == oracle.observe(), (
                f"seed {seed}: diverged after step {index} {op!r}"
            )
    assert durable.observe() == oracle.observe(), (
        f"seed {seed}: diverged at end of script {script!r}"
    )


@pytest.mark.parametrize("block", range(10))
def test_recovered_state_matches_never_crashed_oracle(block):
    # 10 blocks x 20 seeds = 200 randomized sequences, split into blocks
    # so a failure names a narrow range and pytest -x stays informative
    for seed in range(block * 20, block * 20 + 20):
        run_sequence(seed)
