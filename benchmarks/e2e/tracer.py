"""The layer tracer: self time per module, measured from outside.

Every layer is timed by wrapping calls into it at the place the caller
looks them up — a module global such as ``repro.net.transport.marshal``
(the transport's own binding, not ``repro.net.marshal.marshal``) or a
class attribute such as ``Site.receive``. :data:`PATCHES` is the one
table of every patched call site; nothing under ``src/`` changes.

A frame stack lives in memory. A layer's *self time* is its frame's
duration minus the time of the frames opened inside it, so the self
times of all layers, the driver root included, add up to the root's
duration. A call into the layer already on top of the stack opens no
frame: recursive functions (``Site.export_value``) and a layer's calls
into itself count once, at the outermost entry.

The wrappers must be installed before the world is built: a handler
table or a bound method captured at construction would otherwise keep
the unwrapped function.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator

__all__ = ["LAYERS", "PATCHES", "ROOT", "Tracer"]

ROOT = "load.drivers"

#: The layers: the modules a workload crosses, and the driver root.
LAYERS = (
    "core.invocation",
    "core.introspection",
    "net.marshal",
    "net.transport",
    "sim.kernel",
    "net.site",
    "net.rmi",
    "persistence.journal",
    "persistence.wal",
    "mobility.package",
    "mobility.transfer",
    "naming.directory",
    "naming.ring",
    "net.gateway",
    ROOT,
)

#: Messages a site dispatches to a handler another module registered:
#: the ``Site.receive`` frame belongs to that module's layer.
_KIND_LAYERS = (
    ("dir.", "naming.directory"),
    ("cluster.", "naming.directory"),
    ("transfer", "mobility.transfer"),
    ("forward", "mobility.transfer"),
)


def _receive_layer(message: Any) -> str:
    kind = message.kind
    for prefix, layer in _KIND_LAYERS:
        if kind.startswith(prefix):
            return layer
    return "net.site"


# Every call site the workloads cross while measured:
# (layer, "module" or "module:Class", attribute, counts encoded bytes)
# A layer of None classifies the call by its message (Site.receive only).
# Private names are patched only where the public entry point runs the
# work inside another layer's frame: the driver's settle callback fires
# inside the reply path, the lease protocol's continuations inside
# AsyncCall.on_reply, and the gateway server's dispatch on its own thread.
PATCHES: tuple[tuple[str | None, str, str, bool], ...] = (
    ("core.invocation", "repro.core.mobject:MROMObject", "invoke", False),
    ("core.invocation", "repro.core.mobject:MROMObject", "get_data", False),
    ("core.introspection", "repro.net.site", "describe_object", False),
    ("net.marshal", "repro.net.transport", "marshal", True),
    ("net.marshal", "repro.net.transport", "unmarshal", False),
    ("net.marshal", "repro.persistence.wal", "marshal", True),
    ("net.marshal", "repro.net.gateway", "marshal_frame", True),
    ("net.marshal", "repro.net.gateway", "unmarshal", False),
    ("net.transport", "repro.net.transport:Network", "send", False),
    ("sim.kernel", "repro.sim.kernel:Simulator", "step", False),
    ("sim.kernel", "repro.sim.kernel:Simulator", "schedule", False),
    (None, "repro.net.site:Site", "receive", False),
    ("net.site", "repro.net.site:Site", "request", False),
    ("net.site", "repro.net.site:Site", "request_async", False),
    ("net.site", "repro.net.site:Site", "remote_invoke_async", False),
    ("net.site", "repro.net.site:Site", "remote_get_data_async", False),
    ("net.site", "repro.net.site:Site", "remote_describe_async", False),
    ("net.site", "repro.net.site:Site", "export_value", False),
    ("net.site", "repro.net.site:Site", "import_value", False),
    ("net.rmi", "repro.net.rmi:AsyncCall", "start", False),
    ("net.rmi", "repro.net.rmi:AsyncCall", "on_reply", False),
    ("persistence.journal", "repro.persistence.journal:SiteJournal", "note_served", False),
    ("persistence.wal", "repro.persistence.wal:WriteAheadLog", "append", False),
    ("mobility.package", "repro.mobility.transfer", "pack", False),
    ("mobility.package", "repro.mobility.transfer", "unpack", False),
    ("mobility.package", "repro.persistence.journal", "pack", False),
    ("mobility.transfer", "repro.mobility.transfer:MobilityManager", "migrate", False),
    ("naming.directory", "repro.naming.directory:DirectoryClient", "invoke_async", False),
    ("naming.directory", "repro.naming.directory:DirectoryClient", "refresh_async", False),
    ("naming.directory", "repro.naming.directory:DirectoryClient", "_admit", False),
    ("naming.directory", "repro.naming.directory:DirectoryClient", "_dispatch", False),
    ("naming.directory", "repro.naming.directory:DirectoryClient", "_settle", False),
    ("naming.directory", "repro.naming.directory:DirectoryClient", "_resolve_then", False),
    ("naming.directory", "repro.naming.directory:ClusterManager", "migrate", False),
    ("naming.directory", "repro.naming.directory:ClusterManager", "settle", False),
    ("naming.ring", "repro.naming.ring:HashRing", "owner", False),
    ("net.gateway", "repro.net.gateway:TcpGatewayClient", "invoke", False),
    ("net.gateway", "repro.net.gateway:TcpGatewayClient", "get_data", False),
    ("net.gateway", "repro.net.gateway:TcpGateway", "_respond", False),
    (ROOT, "repro.load.drivers:ClosedLoopDriver", "_next", False),
    (ROOT, "repro.load.drivers:_Driver", "_settled", False),
)


def _resolve(owner: str) -> Any:
    module_name, _, class_name = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


class Tracer:
    """Per-layer self time and entry counts over a stack of frames.

    Single-threaded by design: the load generator is one thread, and
    the gateway server serves its one connection on one thread.
    """

    def __init__(self) -> None:
        self.self_ns: dict[str, int] = dict.fromkeys(LAYERS, 0)
        self.calls: dict[str, int] = dict.fromkeys(LAYERS, 0)
        self.encoded_bytes = 0
        self._stack: list[list] = []
        self._originals: list[tuple[Any, str, Any]] = []

    def reset(self) -> None:
        for layer in LAYERS:
            self.self_ns[layer] = 0
            self.calls[layer] = 0
        self.encoded_bytes = 0

    # -- timing ------------------------------------------------------------

    def _timed(self, layer: str, fn: Callable, args: tuple, kwargs: dict):
        stack = self._stack
        frame = [layer, 0]
        stack.append(frame)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter_ns() - start
            stack.pop()
            self.self_ns[layer] += elapsed - frame[1]
            self.calls[layer] += 1
            if stack:
                stack[-1][1] += elapsed

    def wrap(self, layer: str | None, fn: Callable, counts_bytes: bool = False) -> Callable:
        stack = self._stack
        timed = self._timed

        if layer is None:
            @functools.wraps(fn)
            def traced(site, message, *args, **kwargs):
                kind_layer = _receive_layer(message)
                if stack and stack[-1][0] == kind_layer:
                    return fn(site, message, *args, **kwargs)
                return timed(kind_layer, fn, (site, message) + args, kwargs)
        elif counts_bytes:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                result = timed(layer, fn, args, kwargs)
                self.encoded_bytes += len(result)
                return result
        else:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                if stack and stack[-1][0] == layer:
                    return fn(*args, **kwargs)
                return timed(layer, fn, args, kwargs)
        return traced

    @contextmanager
    def root(self) -> Iterator[None]:
        """The driver root frame around one measured phase."""
        if self._stack:
            raise RuntimeError("the root frame must be the outermost frame")
        frame = [ROOT, 0]
        self._stack.append(frame)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            elapsed = time.perf_counter_ns() - start
            self._stack.pop()
            self.self_ns[ROOT] += elapsed - frame[1]
            self.calls[ROOT] += 1

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for layer, owner_path, attribute, counts_bytes in PATCHES:
            owner = _resolve(owner_path)
            original = (
                owner.__dict__[attribute] if isinstance(owner, type)
                else getattr(owner, attribute)
            )
            self._originals.append((owner, attribute, original))
            setattr(owner, attribute, self.wrap(layer, original, counts_bytes))

    def uninstall(self) -> None:
        while self._originals:
            owner, attribute, original = self._originals.pop()
            setattr(owner, attribute, original)

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def snapshot(self) -> dict:
        return {
            "self_ns": dict(self.self_ns),
            "calls": dict(self.calls),
            "encoded_bytes": self.encoded_bytes,
        }
