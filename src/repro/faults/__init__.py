"""Deterministic fault injection for the simulated internetwork.

Everything here is seed-driven: a :class:`FaultPlane` binds each injector
to a random stream derived from the run seed, faults execute as ordinary
simulator events, and the plane's trace digest fingerprints the whole
schedule — so any chaos run can be replayed bit-for-bit from its seed.
See ``docs/FAULTS.md`` for the model and the exactly-once argument.
"""

from .injectors import (
    DropInjector,
    DurableCrashInjector,
    DuplicateInjector,
    JitterInjector,
    LinkFlapInjector,
    MessageInjector,
    ReorderInjector,
    ScheduledInjector,
)
from .plane import FaultPlane, FaultRecord, MessageInfo
from .scenario import CHAOS_POLICY, ChaosReport, run_chaos_scenario

__all__ = [
    "FaultPlane",
    "FaultRecord",
    "MessageInfo",
    "MessageInjector",
    "DropInjector",
    "DuplicateInjector",
    "ReorderInjector",
    "JitterInjector",
    "ScheduledInjector",
    "LinkFlapInjector",
    "DurableCrashInjector",
    "ChaosReport",
    "run_chaos_scenario",
    "CHAOS_POLICY",
]
