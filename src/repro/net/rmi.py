"""Remote references: the RMI analog over the simulated transport.

A :class:`RemoteRef` is a local proxy for an object registered at another
site. Invoking through it sends an ``invoke`` request, pumps the
simulator until the matching reply lands (synchronous semantics, like
RMI), and returns the decoded result — or re-raises the remote failure
as :class:`~repro.core.errors.RemoteInvocationError`.

Every request, blocking or not, is one :class:`AsyncCall`: the blocking
:meth:`Site.request <repro.net.site.Site.request>` only waits on it. Each
call mints one ``request_id`` that all its attempts share, so the
receiving site executes it at most once and replays the recorded reply
to retries and duplicates, which is what makes retrying non-idempotent
operations safe (see ``docs/FAULTS.md``). Under a :class:`RetryPolicy`
each attempt gets a timeout (a scheduled simulator event, so timeouts
are as deterministic as everything else), and failed or shed attempts
back off exponentially.

Remote references are themselves weakly-typed *reference* values: they
expose a ``guid``, so they classify as :data:`repro.core.values.Kind.REFERENCE`
and can be stored in data items, passed as arguments (travelling as wire
references), and returned from methods.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Sequence, TYPE_CHECKING

from ..core.acl import Principal
from ..core.errors import (
    MROMError,
    NetworkError,
    OverloadError,
    RemoteInvocationError,
    RequestTimeoutError,
    error_for_name,
)
from .. import probes as _probes
from .marshal import encode

if TYPE_CHECKING:  # pragma: no cover
    from .site import Site
    from .transport import Message

__all__ = [
    "RemoteRef",
    "RetryPolicy",
    "BatchFuture",
    "AsyncCall",
    "RequestBatch",
    "BatchedRef",
    "SendQueue",
]


@dataclass(frozen=True)
class RetryPolicy:
    """Timeout + exponential-backoff schedule for one logical request.

    ``attempts`` bounds total tries; each waits ``timeout`` simulated
    seconds for the reply; between tries the caller sleeps ``backoff``
    seconds, multiplied by ``multiplier`` per retry and capped at
    ``max_backoff``. All values are in simulated time and contain no
    randomness, so a retried run is exactly as reproducible as a clean
    one.
    """

    attempts: int = 4
    timeout: float = 2.0
    backoff: float = 0.25
    multiplier: float = 2.0
    max_backoff: float = 4.0

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise NetworkError("a retry policy needs at least one attempt")
        if self.timeout <= 0 or self.backoff < 0 or self.multiplier < 1:
            raise NetworkError(
                "timeout must be > 0, backoff >= 0, multiplier >= 1"
            )
        if self.max_backoff < self.backoff:
            # a cap below the base would silently shrink every sleep to
            # the cap, defeating the configured schedule
            raise NetworkError(
                f"max_backoff ({self.max_backoff}) must be >= backoff "
                f"({self.backoff})"
            )

    def backoff_for(self, attempt: int) -> float:
        """Backoff before attempt ``attempt + 1`` (0-based)."""
        return min(self.backoff * self.multiplier**attempt, self.max_backoff)


class RemoteRef:
    """A proxy for object *guid* living at *site* (held by *holder*)."""

    __slots__ = ("holder", "site", "guid", "display_name")

    def __init__(self, holder: "Site", site: str, guid: str, display_name: str = ""):
        self.holder = holder
        self.site = site
        self.guid = guid
        self.display_name = display_name

    def invoke(
        self,
        method: str,
        args: Sequence[Any] = (),
        caller: Principal | None = None,
        policy: "RetryPolicy | None" = None,
    ) -> Any:
        """Synchronously invoke *method* on the remote object.

        *policy* overrides the holder site's default retry policy for
        this one call (None = use the site's default).
        """
        probe = _probes.ACTIVE
        if probe is not None:
            probe.count("rmi.proxy_calls")
        return self.holder.remote_invoke(
            self.site, self.guid, method, list(args), caller=caller, policy=policy
        )

    def get_data(
        self,
        name: str,
        caller: Principal | None = None,
        policy: "RetryPolicy | None" = None,
    ) -> Any:
        """Read a remote data item (the remote site applies the ACL)."""
        return self.holder.remote_get_data(
            self.site, self.guid, name, caller=caller, policy=policy
        )

    def describe(
        self,
        caller: Principal | None = None,
        policy: "RetryPolicy | None" = None,
    ) -> dict:
        """Interrogate the remote object (visibility-filtered remotely)."""
        return self.holder.remote_describe(
            self.site, self.guid, caller=caller, policy=policy
        )

    # -- non-blocking verbs (futures resolved by the event loop) ---------

    def invoke_async(
        self,
        method: str,
        args: Sequence[Any] = (),
        caller: Principal | None = None,
        policy: "RetryPolicy | None" = None,
    ) -> BatchFuture:
        """Invoke without pumping; the future settles when the reply
        lands during any simulator pump (see :class:`AsyncCall`)."""
        return self.holder.remote_invoke_async(
            self.site, self.guid, method, list(args), caller=caller,
            policy=policy,
        )

    def get_data_async(
        self,
        name: str,
        caller: Principal | None = None,
        policy: "RetryPolicy | None" = None,
    ) -> BatchFuture:
        return self.holder.remote_get_data_async(
            self.site, self.guid, name, caller=caller, policy=policy
        )

    def describe_async(
        self,
        caller: Principal | None = None,
        policy: "RetryPolicy | None" = None,
    ) -> BatchFuture:
        return self.holder.remote_describe_async(
            self.site, self.guid, caller=caller, policy=policy
        )

    def is_local(self) -> bool:
        return self.site == self.holder.site_id

    def __deepcopy__(self, memo) -> "RemoteRef":
        # a proxy is a *pointer*: copying it must never clone the holder
        # site (let alone the network behind it)
        return RemoteRef(self.holder, self.site, self.guid, self.display_name)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, RemoteRef)
            and other.site == self.site
            and other.guid == self.guid
        )

    def __hash__(self) -> int:
        return hash((self.site, self.guid))

    def __repr__(self) -> str:
        label = f" ({self.display_name})" if self.display_name else ""
        return f"RemoteRef({self.guid} @ {self.site}{label})"


#: refusals a server issues before executing anything; every client path
#: keeps their type so the caller can back off or re-resolve and retry
_REFUSALS = frozenset(("OverloadError", "StaleLeaseError"))


def reply_error(body: Mapping, blocking: bool) -> MROMError:
    """The failure an ``{ok: False, error, message}`` reply envelope carries.

    A *blocking* caller gets :class:`~repro.core.errors.RemoteInvocationError`
    with ``remote_type`` set, except for the two refusals in
    :data:`_REFUSALS`; any other caller gets every known name rebuilt as
    its own class (:func:`~repro.core.errors.error_for_name`).
    """
    name = str(body.get("error", ""))
    message = str(body.get("message", "remote failure"))
    if blocking and name not in _REFUSALS:
        return RemoteInvocationError(message, remote_type=name)
    return error_for_name(name, message)


# ---------------------------------------------------------------------------
# the client half of every request: futures resolved by the event loop
# ---------------------------------------------------------------------------


class AsyncCall:
    """The client half of one logical request.

    The request is sent and :attr:`future` returned at once; the reply,
    whenever a pump delivers it, settles the future. Timeouts and retries
    are ordinary scheduled simulator events sharing one ``request_id``
    (the receiver executes the logical request at most once), so a site
    can keep any number of requests in flight across the simulated WAN,
    and a reply that lands while a retry is backing off settles the call
    at once. A blocking :meth:`Site.request` is a wait on one of these.

    *blocking* selects the error contract (see :func:`reply_error`): the
    blocking contract keeps ``RemoteInvocationError`` for remote failures,
    the async one rebuilds every known name typed — the structured
    contract the load drivers and admission tests rely on. The payload
    is encoded once, with the site's export hook, after the
    ``request_begin`` probe point has seen it; every attempt resends
    those bytes, even if an object in it has moved.
    """

    __slots__ = (
        "site", "dst", "kind", "wire_payload", "policy", "future",
        "request_id", "issued_at", "attempt", "attempt_ids", "sent_any",
        "_timer", "blocking",
    )

    def __init__(
        self,
        site: "Site",
        dst: str,
        kind: str,
        payload: Any,
        policy: "RetryPolicy | None",
        blocking: bool = False,
    ):
        self.site = site
        self.dst = dst
        self.kind = kind
        self.policy = policy
        self.future = BatchFuture()
        self.request_id = site.mint_request_id()
        self.blocking = blocking
        probe = _probes.ACTIVE
        if probe is not None:
            payload = probe.request_begin(self, payload)
        self.wire_payload = encode(payload, site.export_value)
        self.issued_at = site.network.now
        self.attempt = 0
        self.attempt_ids: list[int] = []
        self.sent_any = False
        self._timer = None

    # -- sending ---------------------------------------------------------

    def start(self) -> None:
        self._send_attempt()

    def _send_attempt(self) -> None:
        try:
            msg_id = self.site.network.send(
                self.site.site_id, self.dst, self.kind, self.wire_payload,
                lamport=self.site.guids.tick(), request_id=self.request_id,
            )
        except NetworkError as exc:
            self._attempt_failed(exc)
            return
        self.sent_any = True
        probe = _probes.ACTIVE
        if probe is not None:
            probe.sent(self, msg_id)
        self.attempt_ids.append(msg_id)
        self.site._async_calls[msg_id] = self
        if self.policy is not None:
            self._timer = self.site.network.simulator.schedule(
                self.policy.timeout,
                self._on_timeout,
                label=f"async timeout {self.kind} {self.request_id}",
            )

    # -- outcomes --------------------------------------------------------

    def on_reply(self, message: "Message") -> None:
        """A reply to any attempt of this logical request landed (its
        references resolved by the transport at delivery)."""
        self._cancel_timer()
        self._unregister()
        if self.future.done:  # pragma: no cover - defensive
            return
        self.future.reply_id = message.reply_to
        probe = _probes.ACTIVE
        if probe is not None:
            probe.reply_begin(self, message)
        try:
            body = message.payload
            if isinstance(body, dict) and body.get("ok") is False:
                error = reply_error(body, self.blocking)
                if isinstance(error, OverloadError) and self.policy is not None:
                    # a shed is retryable: the refusal bypassed the served
                    # ledger, so a backed-off retry of the same request_id
                    # gets a fresh admission decision
                    self._attempt_failed(error)
                    return
                self.future._fail(error)
                return
            if isinstance(body, dict) and "result" in body:
                body = body["result"]
            self.future._resolve(body)
        finally:
            if probe is not None:
                probe.reply_end(self)

    def _on_timeout(self) -> None:
        self._timer = None
        probe = _probes.ACTIVE
        if probe is not None:
            probe.timeout(self)
        assert self.policy is not None
        self._attempt_failed(
            RequestTimeoutError(
                f"no reply for {self.kind!r} from {self.dst!r} within "
                f"{self.policy.timeout}s "
                f"(attempt {self.attempt + 1}/{self.policy.attempts})"
            )
        )

    def _attempt_failed(self, error: NetworkError) -> None:
        self.attempt += 1
        policy = self.policy
        if policy is not None and self.attempt < policy.attempts:
            # earlier attempts stay registered: a late reply landing
            # during the backoff still settles the future (and the
            # scheduled retry then finds it done and stands down)
            self.site.network.simulator.schedule(
                policy.backoff_for(self.attempt - 1),
                self._retry,
                label=f"async backoff {self.kind} {self.request_id}",
            )
            return
        self._unregister()
        if self.future.done:  # pragma: no cover - defensive
            return
        if self.sent_any and not isinstance(
            error, (RequestTimeoutError, OverloadError)
        ):
            # at least one attempt reached the wire: ambiguous outcome.
            # (An OverloadError is exempt: the server explicitly refused
            # before executing, so the outcome is known, not ambiguous.)
            error = RequestTimeoutError(
                f"request {self.kind!r} to {self.dst!r} unresolved after "
                f"{self.attempt} attempt(s): {error}"
            )
        self.future._fail(error)

    def _retry(self) -> None:
        if self.future.done:
            return
        probe = _probes.ACTIVE
        if probe is not None:
            probe.retry(self)
        self._send_attempt()

    def abandon(self) -> None:
        """The blocking caller stopped waiting (the simulation drained or
        the pump raised): later replies count as stale, and a scheduled
        retry finds the future failed and stands down."""
        if self.future.done:
            return
        self._cancel_timer()
        self._unregister()
        self.future._fail(
            NetworkError(f"request {self.kind!r} to {self.dst!r} abandoned")
        )

    def _cancel_timer(self) -> None:
        if self._timer is not None:
            self.site.network.simulator.cancel(self._timer)
            self._timer = None

    def _unregister(self) -> None:
        for msg_id in self.attempt_ids:
            self.site._async_calls.pop(msg_id, None)

    def __repr__(self) -> str:
        state = "done" if self.future.done else f"attempt {self.attempt + 1}"
        return f"AsyncCall({self.kind} -> {self.dst}, {state})"


# ---------------------------------------------------------------------------
# batched RMI: many logical requests, one transport frame per destination
# ---------------------------------------------------------------------------


class BatchFuture:
    """The eventual outcome of one logical request issued without waiting.

    Used both by the batched-RMI path (resolved when the owning batch is
    flushed) and by the async serving path (resolved when the reply
    message is delivered during any simulator pump); :meth:`result` then
    returns the decoded value or re-raises the remote failure exactly as
    the synchronous call would have. :meth:`when_done` registers
    completion callbacks — the hook the load drivers chain requests and
    record latencies with.
    """

    __slots__ = ("_done", "_value", "_error", "_callbacks", "reply_id")

    def __init__(self) -> None:
        self._done = False
        self._value: Any = None
        self._error: Exception | None = None
        self._callbacks: list[Any] = []
        #: msg id of the attempt whose reply settled this future, if one did
        self.reply_id: int | None = None

    @property
    def done(self) -> bool:
        return self._done

    def result(self) -> Any:
        if not self._done:
            raise NetworkError("request not resolved yet (still in flight)")
        if self._error is not None:
            raise self._error
        return self._value

    def error(self) -> Exception | None:
        """The stored failure without raising (None while pending/ok)."""
        return self._error

    def when_done(self, callback) -> None:
        """Run ``callback(future)`` at settlement (now, if already done)."""
        if self._done:
            callback(self)
        else:
            self._callbacks.append(callback)

    def _settle(self) -> None:
        self._done = True
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)

    def _resolve(self, value: Any) -> None:
        self._value = value
        self._settle()

    def _fail(self, error: Exception) -> None:
        self._error = error
        self._settle()

    def __repr__(self) -> str:
        if not self._done:
            return "BatchFuture(pending)"
        if self._error is not None:
            return f"BatchFuture(error={type(self._error).__name__})"
        return f"BatchFuture({self._value!r})"


class RequestBatch:
    """Coalesces logical requests to one destination into one frame.

    Each :meth:`add` mints the same per-request ``request_id`` an
    individual call would carry, so the receiving site executes every
    logical request **at most once** and replays recorded replies to
    retried or duplicated frames — the frame itself additionally has its
    own ``request_id`` (minted by the :class:`AsyncCall` that
    :meth:`Site.request` waits on) for whole-frame dedup. Retry/timeout
    semantics and ``~trace`` propagation are the frame's: one
    ``rmi.batch`` client span covers the flush and the serving site nests
    one ``serve.<kind>`` span per inner request under its ``serve.batch``.

    Usable as a context manager: a clean exit flushes.
    """

    def __init__(self, site: "Site", dst: str, policy: "RetryPolicy | None" = None):
        self.site = site
        self.dst = dst
        self.policy = policy
        self._entries: list[dict] = []
        self._futures: list[BatchFuture] = []

    def __len__(self) -> int:
        return len(self._entries)

    def add(self, kind: str, payload: Any) -> BatchFuture:
        """Queue one logical request; returns its future."""
        future = BatchFuture()
        self._entries.append(
            {
                "kind": kind,
                "request_id": self.site.mint_request_id(),
                "payload": payload,
            }
        )
        self._futures.append(future)
        probe = _probes.ACTIVE
        if probe is not None:
            probe.count("rmi.batch.calls")
        return future

    # -- the protocol verbs, batched ------------------------------------

    def invoke(
        self,
        guid: str,
        method: str,
        args: Sequence[Any] = (),
        caller: Principal | None = None,
    ) -> BatchFuture:
        return self.add(
            "invoke", self.site._invoke_payload(guid, method, args, caller)
        )

    def get_data(
        self, guid: str, name: str, caller: Principal | None = None
    ) -> BatchFuture:
        return self.add("get_data", self.site._get_data_payload(guid, name, caller))

    def describe(self, guid: str, caller: Principal | None = None) -> BatchFuture:
        return self.add("describe", self.site._describe_payload(guid, caller))

    # -- flushing --------------------------------------------------------

    def flush(self) -> list[BatchFuture]:
        """Send the queued requests as one frame and resolve the futures.

        A frame-level failure (timeout with all retries exhausted,
        partition) fails every pending future with it and re-raises;
        per-request failures stay inside their futures, rebuilt under the
        blocking error contract (:func:`reply_error`).
        """
        entries, futures = self._entries, self._futures
        if not entries:
            return []
        self._entries, self._futures = [], []
        probe = _probes.ACTIVE
        if probe is not None:
            probe.count("rmi.batch.flushes")
        try:
            reply = self.site.request(
                self.dst, "batch", {"requests": entries}, policy=self.policy
            )
        except Exception as exc:
            for future in futures:
                future._fail(exc)
            raise
        envelopes = reply.get("replies") if isinstance(reply, dict) else None
        if not isinstance(envelopes, list) or len(envelopes) != len(futures):
            error = NetworkError(
                f"malformed batch reply from {self.dst!r}: expected "
                f"{len(futures)} replies"
            )
            for future in futures:
                future._fail(error)
            raise error
        for future, envelope in zip(futures, envelopes):
            if isinstance(envelope, dict) and envelope.get("ok") is False:
                future._fail(reply_error(envelope, blocking=True))
            elif isinstance(envelope, dict) and "result" in envelope:
                future._resolve(envelope["result"])
            else:
                future._fail(
                    NetworkError(f"malformed batch envelope {envelope!r}")
                )
        return futures

    def __enter__(self) -> "RequestBatch":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.flush()


class BatchedRef:
    """A :class:`RemoteRef` whose calls queue into a batch.

    Mirrors the proxy verbs but returns :class:`BatchFuture`s; results
    land when the batch flushes.
    """

    __slots__ = ("ref", "batch")

    def __init__(self, ref: RemoteRef, batch: RequestBatch):
        if ref.site != batch.dst:
            raise NetworkError(
                f"reference lives at {ref.site!r} but the batch targets "
                f"{batch.dst!r}"
            )
        self.ref = ref
        self.batch = batch

    def invoke(
        self,
        method: str,
        args: Sequence[Any] = (),
        caller: Principal | None = None,
    ) -> BatchFuture:
        return self.batch.invoke(self.ref.guid, method, args, caller=caller)

    def get_data(self, name: str, caller: Principal | None = None) -> BatchFuture:
        return self.batch.get_data(self.ref.guid, name, caller=caller)

    def describe(self, caller: Principal | None = None) -> BatchFuture:
        return self.batch.describe(self.ref.guid, caller=caller)

    def __repr__(self) -> str:
        return f"BatchedRef({self.ref.guid} @ {self.ref.site}, {len(self.batch)} queued)"


class SendQueue:
    """Site-level coalescing: one frame per destination per flush.

    Where :class:`RequestBatch` targets one destination, the queue fans
    logical requests out to any number of sites and flushes each
    destination's backlog as a single frame.
    """

    def __init__(self, site: "Site", policy: "RetryPolicy | None" = None):
        self.site = site
        self.policy = policy
        self._batches: "dict[str, RequestBatch]" = {}

    def _batch_for(self, dst: str) -> RequestBatch:
        batch = self._batches.get(dst)
        if batch is None:
            batch = RequestBatch(self.site, dst, policy=self.policy)
            self._batches[dst] = batch
        return batch

    def enqueue(self, dst: str, kind: str, payload: Any) -> BatchFuture:
        return self._batch_for(dst).add(kind, payload)

    def invoke(
        self,
        ref: RemoteRef,
        method: str,
        args: Sequence[Any] = (),
        caller: Principal | None = None,
    ) -> BatchFuture:
        return self._batch_for(ref.site).invoke(
            ref.guid, method, args, caller=caller
        )

    def pending(self) -> int:
        return sum(len(batch) for batch in self._batches.values())

    def flush(self) -> int:
        """Flush every destination; returns the number of frames sent.

        Destinations are flushed in name order for determinism. A
        frame-level failure fails that destination's futures (as
        :meth:`RequestBatch.flush` does) but the queue keeps flushing the
        remaining destinations; the first failure is re-raised at the
        end.
        """
        frames = 0
        first_error: Exception | None = None
        for dst in sorted(self._batches):
            batch = self._batches[dst]
            if not len(batch):
                continue
            try:
                batch.flush()
            except Exception as exc:
                if first_error is None:
                    first_error = exc
            frames += 1
        self._batches = {}
        if first_error is not None:
            raise first_error
        return frames
