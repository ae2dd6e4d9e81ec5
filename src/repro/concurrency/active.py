"""Active objects: a concurrent programming model built on MROM.

The paper's advanced-features list asks for "synchronization mechanisms
to allow implementation of concurrent programming models" — mechanisms
to *build models with*, not one blessed model. :class:`ActiveObject` is
the classic example built from those mechanisms: an object served by its
own worker thread, invoked asynchronously through a mailbox, with results
delivered as futures. Invocations execute strictly one at a time in
mailbox order, so the object itself never needs locks — the actor
discipline.

The mailbox accepts work from any thread; the worker is the only thread
that ever touches the object. ``stop()`` drains cleanly; submitting to a
stopped object fails fast.

When the happens-before sanitizer is active, each submission carries the
submitter's vector clock into the worker, and the worker runs as one
persistent task — mailbox serialization *is* a happens-before edge, which
is exactly the guarantee the wrapper sells.
"""

from __future__ import annotations

import queue
import threading
from concurrent.futures import Future
from typing import Any, Sequence

from .. import probes as _probes
from ..core.acl import Principal
from ..core.errors import ConcurrencyError
from ..core.mobject import MROMObject

__all__ = ["ActiveObject"]

_STOP = object()


class ActiveObject:
    """An MROM object served by its own worker thread.

    >>> from repro.core import MROMObject
    >>> obj = MROMObject()
    >>> obj.define_fixed_data("n", 0)
    >>> obj.define_fixed_method(
    ...     "bump", "self.set('n', self.get('n') + 1)\\nreturn self.get('n')")
    >>> obj.seal()
    >>> with ActiveObject(obj) as active:
    ...     futures = [active.invoke_async("bump") for _ in range(3)]
    ...     results = [f.result(timeout=5) for f in futures]
    >>> results
    [1, 2, 3]
    """

    def __init__(self, obj: MROMObject):
        self.obj = obj
        self._mailbox: "queue.Queue" = queue.Queue()
        self._stopped = threading.Event()
        self._drain_lock = threading.Lock()
        self.processed = 0
        self.rejected = 0
        self._worker = threading.Thread(
            target=self._serve,
            name=f"active-{obj.principal.display_name or obj.guid}",
            daemon=True,
        )
        self._worker.start()

    # -- submitting work ----------------------------------------------------

    def invoke_async(
        self,
        method: str,
        args: Sequence[Any] = (),
        caller: Principal | None = None,
    ) -> "Future[Any]":
        """Queue an invocation; returns a future for its result."""
        if self._stopped.is_set():
            raise ConcurrencyError(
                f"active object {self.obj.guid} is stopped"
            )
        future: "Future[Any]" = Future()
        probe = _probes.ACTIVE
        if probe is not None:
            probe.submit(self, future)
        self._mailbox.put((method, list(args), caller, future))
        if self._stopped.is_set() and not self._worker.is_alive():
            # stop() raced this submit: the item may have landed after
            # the _STOP sentinel, with nobody left to serve it. Either
            # stop()'s post-join drain sees it, or this drain does —
            # both fail the stranded future instead of leaving it
            # unresolved forever.
            self._fail_leftovers()
        return future

    def invoke(
        self,
        method: str,
        args: Sequence[Any] = (),
        caller: Principal | None = None,
        timeout: float | None = 10.0,
    ) -> Any:
        """Synchronous convenience: queue and wait."""
        return self.invoke_async(method, args, caller).result(timeout=timeout)

    # -- the worker ----------------------------------------------------------

    def _serve(self) -> None:
        while True:
            work = self._mailbox.get()
            if work is _STOP:
                return
            method, args, caller, future = work
            if not future.set_running_or_notify_cancel():
                continue
            probe = _probes.ACTIVE
            if probe is not None:
                probe.work_begin(self, method, future)
            try:
                result = self.obj.invoke(method, args, caller=caller)
            except BaseException as exc:  # noqa: BLE001 - delivered via future
                future.set_exception(exc)
            else:
                future.set_result(result)
            finally:
                if probe is not None:
                    probe.work_end(self)
                self.processed += 1

    # -- lifecycle -------------------------------------------------------------

    def stop(self, timeout: float | None = 10.0) -> None:
        """Drain the mailbox and stop the worker (idempotent).

        A submit racing this call can enqueue *after* the ``_STOP``
        sentinel; the worker exits at the sentinel and would strand that
        future. After the join, any leftovers are drained and their
        futures failed with :class:`ConcurrencyError` — no caller is
        ever left waiting on a future nobody will resolve.
        """
        if self._stopped.is_set():
            # A concurrent stop() may still be between set() and its
            # join: draining now could steal queued work — or the _STOP
            # sentinel itself — out from under the live worker, which
            # would fail accepted invocations spuriously and leave the
            # worker parked on an empty mailbox forever while the first
            # stop() times out. Wait for the worker first; the drain is
            # only safe against a dead worker.
            self._worker.join(timeout=timeout)
            if self._worker.is_alive():
                raise ConcurrencyError(
                    f"active object {self.obj.guid} did not drain in time"
                )
            self._fail_leftovers()
            return
        self._stopped.set()
        self._mailbox.put(_STOP)
        self._worker.join(timeout=timeout)
        if self._worker.is_alive():  # pragma: no cover - pathological
            raise ConcurrencyError(
                f"active object {self.obj.guid} did not drain in time"
            )
        self._fail_leftovers()

    def _fail_leftovers(self) -> None:
        """Fail every work item still in the mailbox (post-stop only)."""
        with self._drain_lock:
            while True:
                try:
                    work = self._mailbox.get_nowait()
                except queue.Empty:
                    return
                if work is _STOP:  # a duplicate sentinel; nothing to fail
                    continue
                _method, _args, _caller, future = work
                self.rejected += 1
                if future.set_running_or_notify_cancel():
                    future.set_exception(
                        ConcurrencyError(
                            f"active object {self.obj.guid} stopped before "
                            "serving this invocation"
                        )
                    )

    @property
    def pending(self) -> int:
        return self._mailbox.qsize()

    def __enter__(self) -> "ActiveObject":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def __repr__(self) -> str:
        state = "stopped" if self._stopped.is_set() else "serving"
        return f"ActiveObject({self.obj.guid}, {state}, processed={self.processed})"
