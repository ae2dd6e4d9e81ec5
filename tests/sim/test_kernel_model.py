"""Model-based check of the kernel against a sorted-list reference.

Random programs interleave scheduling (some events schedule children
when they fire), cancellation before and after firing and twice, and
every way of running the loop. After each operation the kernel and the
reference must agree on the firing order, ``now``, ``pending``,
``events_processed`` and the operation's result.
"""

import random

import pytest

from repro.sim import Simulator


class ReferenceKernel:
    """The kernel's contract, written as plainly as possible."""

    def __init__(self):
        self.now = 0.0
        self.events_processed = 0
        self.queued = []  # [time, seq, action], kept sorted
        self.seq = 0

    @property
    def pending(self):
        return len(self.queued)

    def schedule(self, delay, action):
        if delay < 0:
            raise ValueError(delay)
        entry = [self.now + delay, self.seq, action]
        self.seq += 1
        self.queued.append(entry)
        self.queued.sort(key=lambda e: (e[0], e[1]))
        return entry

    def schedule_at(self, time, action):
        return self.schedule(time - self.now, action)

    def cancel(self, entry):
        if entry in self.queued:
            self.queued.remove(entry)

    def step(self):
        if not self.queued:
            return False
        time, _seq, action = self.queued.pop(0)
        self.now = time
        self.events_processed += 1
        action()
        return True

    def run(self, max_events=None):
        fired = 0
        while (max_events is None or fired < max_events) and self.step():
            fired += 1
        return fired

    def run_until(self, time):
        fired = 0
        while self.queued and self.queued[0][0] <= time:
            self.step()
            fired += 1
        self.now = max(self.now, time)
        return fired

    def run_while(self, condition, max_events=1_000_000):
        fired = 0
        while condition() and self.step():
            fired += 1
            if fired >= max_events:
                raise RuntimeError("did not converge")
        return fired


DELAYS = (0.0, 0.25, 0.5, 1.0, 1.0, 2.5)


class World:
    """One kernel, the events it was handed and what fired, in order."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.handles = []
        self.fired = []

    def action(self, name, child_delay):
        def fire():
            self.fired.append(name)
            if child_delay is not None:
                self.handles.append(
                    self.kernel.schedule(child_delay, self.action(name + "'", None))
                )
        return fire

    def state(self):
        k = self.kernel
        return (list(self.fired), k.now, k.pending, k.events_processed)


def apply(world, op):
    kernel = world.kernel
    kind, *args = op
    try:
        if kind == "schedule":
            delay, name, child = args
            world.handles.append(kernel.schedule(delay, world.action(name, child)))
            return None
        if kind == "schedule_at":
            offset, name = args
            world.handles.append(
                kernel.schedule_at(kernel.now + offset, world.action(name, None))
            )
            return None
        if kind == "cancel":
            if world.handles:
                kernel.cancel(world.handles[args[0] % len(world.handles)])
            return None
        if kind == "step":
            return kernel.step()
        if kind == "run":
            return kernel.run(args[0])
        if kind == "run_until":
            return kernel.run_until(kernel.now + args[0])
        target = len(world.fired) + args[0]
        return kernel.run_while(lambda: len(world.fired) < target)
    except ValueError:
        return "ValueError"


def random_op(rng, serial):
    roll = rng.random()
    name = f"e{serial}"
    if roll < 0.35:
        child = rng.choice(DELAYS) if rng.random() < 0.3 else None
        return ("schedule", rng.choice(DELAYS), name, child)
    if roll < 0.45:
        return ("schedule_at", rng.choice(DELAYS + (-0.5,)), name)
    if roll < 0.65:
        # any handle: queued, already fired or already cancelled
        return ("cancel", rng.randrange(1 << 16))
    if roll < 0.75:
        return ("step",)
    if roll < 0.82:
        return ("run", rng.choice((None, 0, 1, 3)))
    if roll < 0.92:
        return ("run_until", rng.choice((0.0, 0.5, 1.0, 3.0)))
    return ("run_while", rng.randrange(4))


@pytest.mark.parametrize("seed", range(60))
def test_kernel_matches_the_reference(seed):
    rng = random.Random(seed)
    real, model = World(Simulator(seed)), World(ReferenceKernel())
    for serial in range(80):
        op = random_op(rng, serial)
        assert apply(real, op) == apply(model, op), (serial, op)
        assert real.state() == model.state(), (serial, op)


def test_cancel_twice_and_after_fire_leave_pending_exact():
    sim = Simulator()
    first = sim.schedule(1.0, lambda: None)
    second = sim.schedule(2.0, lambda: None)
    sim.cancel(second)
    sim.cancel(second)
    assert sim.pending == 1
    assert sim.step() is True
    sim.cancel(first)
    assert sim.pending == 0
    assert sim.step() is False
    assert sim.events_processed == 1
