"""A site: one logical host on the simulated internetwork.

A :class:`Site` owns a guid mint, a name service, and a registry of the
MROM objects living there, and speaks the request/response protocol over
:class:`~repro.net.transport.Network`:

* ``invoke`` — run a method on a registered object on behalf of a remote
  caller (the caller's principal travels with the request and is what the
  Match phase sees);
* ``get_data`` — ordinary remote value access;
* ``describe`` — visibility-filtered interrogation of a registered object;
* ``resolve`` — remote name lookup (federated naming);
* ``ping`` — liveness and clock exchange.

Higher layers (mobility, HADAS) register additional message kinds with
:meth:`Site.add_handler`; the site is deliberately a small kernel.

Identity is *claimed*, not authenticated: the companion papers [16, 17]
carry the paper's authentication story, and this reproduction models
authorization (ACLs, policies) on top of claimed principals.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from typing import Any, Callable, Mapping, Sequence

from ..core.acl import Principal, remote_principal
from ..core.errors import MROMError, NamingError, NetworkError, OverloadError
from ..core.introspection import describe as describe_object
from ..core.items import ItemHandle
from ..core.mobject import MROMObject
from .. import probes as _probes
from ..naming import GuidFactory, NameService
from .marshal import Encoded, Reference, encode
from .rmi import (
    AsyncCall,
    BatchFuture,
    BatchedRef,
    RemoteRef,
    RequestBatch,
    RetryPolicy,
    SendQueue,
)
from .transport import Message, Network

__all__ = ["Site"]

Handler = Callable[[Message], Any]

#: exact types that cross the site boundary unchanged
_PLAIN = frozenset((str, int, float, bool, type(None), bytes))


def _failure(error: Exception) -> dict:
    """The reply envelope of a request that failed with *error*."""
    return {"ok": False, "error": type(error).__name__, "message": str(error)}


def _missing_request_id(kind: str) -> NetworkError:
    return NetworkError(f"{kind!r} request carries no request_id")


class Site:
    """One host: registry, naming, and the wire protocol."""

    def __init__(self, network: Network, site_id: str, domain: str = ""):
        self.network = network
        self.site_id = site_id
        self.domain = domain or site_id
        self.guids = GuidFactory(site_id)
        self.names = NameService(site_id)
        self.principal = Principal(
            guid=f"mrom://{site_id}/0.0", domain=self.domain, display_name=site_id
        )
        self._objects: dict[str, MROMObject] = {}
        self._handlers: dict[str, Handler] = {
            "invoke": self._handle_invoke,
            "get_data": self._handle_get_data,
            "describe": self._handle_describe,
            "resolve": self._handle_resolve,
            "ping": self._handle_ping,
            "batch": self._handle_batch,
        }
        #: in-flight calls (blocking or not) keyed by attempt msg_id; a
        #: reply settles its call's future, any other reply is stale
        self._async_calls: dict[int, AsyncCall] = {}
        self._served: OrderedDict[str, Any] = OrderedDict()
        self._served_cap = 1024
        #: request ids admitted but not yet replied to — the in-flight
        #: half of at-most-once. The served ledger only covers completed
        #: requests; with ``service_delay`` > 0 a duplicate can arrive
        #: inside the service window and would re-execute the handler
        #: (a double-applied increment). Such duplicates are swallowed:
        #: the original's reply is still on its way, and a retry landing
        #: after completion hits the ledger as usual.
        self._in_progress: set[str] = set()
        self.inflight_duplicates = 0
        self._request_seq = itertools.count(1)
        #: admission window: max requests admitted and not yet replied
        #: to (None = unbounded); beyond it, requests are shed with a
        #: structured OverloadError instead of queueing without bound
        self.inflight_limit: int | None = None
        #: simulated seconds between admission and execution of a
        #: request; 0.0 serves at delivery time (legacy semantics), >0
        #: models service latency so the inflight window can fill
        self.service_delay = 0.0
        #: requests admitted and not yet replied to
        self.inflight = 0
        self.shed_requests = 0
        #: default timeout/retry schedule for outgoing requests; None
        #: sends once and waits until the reply lands or the simulation
        #: drains (a partition still fails at send time)
        self.retry_policy: RetryPolicy | None = None
        self.stale_replies = 0
        self.replayed_requests = 0
        self.replies_unsendable = 0
        #: >0 while a handler is executing (possibly pumping nested
        #: requests); the crash injector uses it to fail-stop the site
        #: only at a quiescent instant
        self.handling_depth = 0
        #: the durability plane, when one is attached
        #: (:class:`repro.persistence.journal.SiteJournal`); None keeps
        #: every hook a single attribute test
        self.journal = None
        #: back-pointer set by :class:`repro.mobility.transfer.
        #: MobilityManager` so the journal can snapshot transfer state
        self.mobility = None
        self.incarnation = network.register(self)

    # ------------------------------------------------------------------
    # object registry
    # ------------------------------------------------------------------

    def mint_guid(self) -> str:
        return self.guids.fresh_text()

    def create_object(self, display_name: str = "", **options: Any) -> MROMObject:
        """Create an object with a site-minted identity and this site's
        trust domain."""
        return MROMObject(
            guid=self.mint_guid(),
            domain=self.domain,
            display_name=display_name,
            **options,
        )

    def register_object(self, obj: MROMObject, name: str | None = None) -> MROMObject:
        """Make *obj* reachable from other sites (optionally bound to a
        name in this site's name service)."""
        if obj.guid in self._objects:
            raise NetworkError(f"object {obj.guid} already registered at {self.site_id}")
        self._objects[obj.guid] = obj
        obj.environment["site"] = self.site_id
        obj.environment.setdefault("domain", self.domain)
        if name is not None:
            self.names.bind(name, obj.guid)
        if self.journal is not None:
            self.journal.note_register(obj)
        return obj

    def unregister_object(self, guid: str) -> MROMObject:
        try:
            obj = self._objects.pop(guid)
        except KeyError:
            raise NetworkError(f"object {guid} is not registered at {self.site_id}") from None
        obj.environment.pop("site", None)
        if self.journal is not None:
            self.journal.note_unregister(guid)
        return obj

    def local_object(self, guid: str) -> MROMObject:
        try:
            return self._objects[guid]
        except KeyError:
            raise NetworkError(f"object {guid} is not at {self.site_id}") from None

    def has_object(self, guid: str) -> bool:
        return guid in self._objects

    def objects(self) -> tuple[MROMObject, ...]:
        return tuple(self._objects.values())

    def ref_to(self, obj_or_guid: "MROMObject | str", site: str | None = None) -> RemoteRef:
        """A reference usable locally and passable over the wire."""
        if isinstance(obj_or_guid, MROMObject):
            return RemoteRef(self, self.site_id, obj_or_guid.guid,
                             obj_or_guid.principal.display_name)
        return RemoteRef(self, site or self.site_id, obj_or_guid)

    # ------------------------------------------------------------------
    # protocol plumbing
    # ------------------------------------------------------------------

    def mint_request_id(self) -> str:
        """A fresh logical-request identifier, unique across this site's
        lifetime *and* its previous incarnations (crash-restart safe)."""
        return f"{self.site_id}#{self.incarnation}:{next(self._request_seq)}"

    def add_handler(self, kind: str, handler: Handler) -> None:
        if kind in self._handlers:
            raise NetworkError(f"handler for {kind!r} already installed")
        self._handlers[kind] = handler

    def witness_lamport(self, remote: int) -> None:
        self.guids.witness(remote)

    def receive(self, message: Message) -> None:
        """Transport delivery entry point.

        Replies settle the call still awaiting them; a reply to a request
        this site has abandoned (timed out, or a previous incarnation's)
        is counted stale and discarded. Every request must carry a
        ``request_id`` (one without is refused with a typed
        :class:`~repro.core.errors.NetworkError`, before any handler,
        admission slot or ledger entry) and is executed **at most
        once**: the reply is recorded and replayed to any retry or
        duplicate delivery of the same logical request.

        Fresh requests pass admission first: with ``inflight_limit``
        set and the window full, the request is shed with a structured
        :class:`~repro.core.errors.OverloadError` (never recorded in the
        served ledger — a retry gets a fresh admission decision). With
        ``service_delay`` > 0, admitted requests execute that many
        simulated seconds after delivery, which is what lets the window
        actually fill under concurrent load.
        """
        if message.kind == "reply":
            call = self._async_calls.get(message.reply_to)
            if call is None:
                self.stale_replies += 1
            else:
                call.on_reply(message)
            return
        if not message.request_id:
            # every request path mints an id; an id-less request can only
            # be hand-built, and without one no retry could be recognised
            self._send_reply(message, _failure(_missing_request_id(message.kind)))
            return
        replayed = self._replay(message.kind, message.request_id)
        if replayed is not None:
            self._send_reply(message, replayed)
            return
        if message.request_id in self._in_progress:
            # a duplicate of a request still in its service window: the
            # handler ran (or will run) exactly once for the original,
            # whose reply is already on its way — answer with silence
            self.inflight_duplicates += 1
            probe = _probes.ACTIVE
            if probe is not None:
                probe.inflight_duplicate(self, message)
            return
        handler = self._handlers.get(message.kind)
        if handler is None:
            envelope = _failure(NetworkError(f"unknown kind {message.kind!r}"))
            self._record(message.kind, message.request_id, envelope, message.payload)
            self._send_reply(message, envelope)
            return
        if not self.try_admit(message.kind, src=message.src):
            # shed outside the served ledger: nothing executed, so a retry
            # of the same request deserves a fresh admission decision
            self._send_reply(message, _failure(self.overloaded_error()))
            return
        self._in_progress.add(message.request_id)
        if self.service_delay > 0:
            self.network.simulator.schedule(
                self.service_delay,
                lambda: self._serve(message, handler),
                label=f"serve {message.kind} @ {self.site_id}",
            )
        else:
            self._serve(message, handler)

    # -- admission control ----------------------------------------------

    def try_admit(self, kind: str = "", src: str = "") -> bool:
        """Claim one slot of the inflight window (True = admitted).

        Every admission must be balanced by one :meth:`release`; the
        request paths do this when the reply goes out. The gateway
        claims a slot per external request through the same window, so
        TCP-borne and simulation-borne load share one budget.
        """
        if self.inflight_limit is not None and self.inflight >= self.inflight_limit:
            self.shed_requests += 1
            probe = _probes.ACTIVE
            if probe is not None:
                probe.shed(self, kind, src)
            return False
        self.inflight += 1
        return True

    def release(self) -> None:
        """Return one admission slot (the request has been replied to)."""
        self.inflight -= 1

    def overloaded_error(self) -> OverloadError:
        return OverloadError(
            f"site {self.site_id} admission window full "
            f"({self.inflight}/{self.inflight_limit})"
        )

    # -- serving: replay, execute, record ---------------------------------

    def _replay(self, kind: str, request_id: str) -> Encoded | dict | None:
        """The recorded reply to an already-served request, or None.

        It is the first reply's bytes (a plain envelope if restored from a
        journal), and a replay refreshes its place in the ledger, so a
        request that keeps being retried is the last to be evicted.
        """
        if request_id not in self._served:
            return None
        self.replayed_requests += 1
        probe = _probes.ACTIVE
        if probe is not None:
            probe.replay(self, kind, request_id)
        self._served.move_to_end(request_id)
        return self._served[request_id]

    def _execute(
        self, message: Message, handler: Handler, batched: bool = False
    ) -> Encoded:
        """Run *handler* between the serve probe points; return the reply
        envelope encoded with this site's export hook (a failure envelope
        for an :class:`MROMError`, a result with no wire form included)."""
        probe = _probes.ACTIVE
        if probe is not None:
            probe.serve_begin(self, message, batched)
        self.handling_depth += 1
        error: BaseException | None = None
        try:
            return encode({"ok": True, "result": handler(message)}, self.export_value)
        except MROMError as exc:
            error = exc
            return encode(_failure(exc))
        except BaseException as exc:
            error = exc
            raise
        finally:
            self.handling_depth -= 1
            if probe is not None:
                probe.serve_end(self, message, batched, error)

    def _record(
        self, kind: str, request_id: str, envelope: Encoded | dict, payload: Any
    ) -> None:
        """Make a reply replayable before it can reach the wire.

        Even if the reply is lost, a retry replays the same outcome
        instead of re-executing the handler: from the served ledger, or,
        on the next incarnation, from the journal, which also makes the
        post-execution state durable.
        """
        self._served[request_id] = envelope
        self._served.move_to_end(request_id)
        while len(self._served) > self._served_cap:
            self._served.popitem(last=False)
        if self.journal is not None:
            self.journal.note_served(kind, request_id, envelope, payload)

    def _serve(self, message: Message, handler: Handler) -> None:
        """Execute one admitted request, record its reply and send it."""
        try:
            envelope = self._execute(message, handler)
            self._record(message.kind, message.request_id, envelope, message.payload)
            self._send_reply(message, envelope)
        finally:
            self._in_progress.discard(message.request_id)
            self.release()

    def _send_reply(self, request: Message, payload: Any) -> None:
        try:
            self.network.send(
                self.site_id,
                request.src,
                "reply",
                payload,
                reply_to=request.msg_id,
                lamport=self.guids.tick(),
            )
        except NetworkError:
            # the requester's link died between request and reply; it
            # will time out and retry — never let a reply-path partition
            # unwind an unrelated caller's simulation pump
            self.replies_unsendable += 1

    # -- the client half ----------------------------------------------------

    def request(
        self,
        dst: str,
        kind: str,
        payload: Any,
        policy: RetryPolicy | None = None,
    ) -> Any:
        """Send a request and pump the simulator until its reply arrives.

        A wait on one :class:`AsyncCall`, so a blocking request has the
        same ``request_id`` (at-most-once execution), retry/timeout
        schedule and shed retries as an async one: with a
        :class:`RetryPolicy` (per-call, or the site's default
        ``retry_policy``) each attempt waits ``policy.timeout`` simulated
        seconds and failed attempts back off exponentially; without one
        the request is sent once and waited for until the reply lands or
        the simulation drains. Remote failures raise
        :class:`~repro.core.errors.RemoteInvocationError` with
        ``remote_type`` set, except the pre-execution refusals
        :class:`~repro.core.errors.OverloadError` and
        :class:`~repro.core.errors.StaleLeaseError`, which keep their type.

        The call's ``request_begin`` probe point opens the request; the
        ``request_end`` point here closes it, with the error it raised.
        """
        probe = _probes.ACTIVE
        error = None
        try:
            call = self._call(dst, kind, payload, policy, blocking=True)
            try:
                return self.wait(call.future)
            finally:
                call.abandon()  # no-op once settled
        except BaseException as exc:
            error = exc
            raise
        finally:
            if probe is not None:
                probe.request_end(self, dst, error)

    def request_async(
        self,
        dst: str,
        kind: str,
        payload: Any,
        policy: RetryPolicy | None = None,
    ) -> BatchFuture:
        """Send a request without pumping; returns a future.

        The future settles when the reply is delivered during *any*
        simulator pump — :meth:`wait`, a concurrent synchronous call, or
        an explicit ``network.run()``. Retries, timeouts and the
        ``request_id`` are those of :meth:`request` (both are one
        :class:`AsyncCall`). Remote failures settle the future with the
        typed rebuilt error (:func:`~repro.core.errors.error_for_name`).
        """
        return self._call(dst, kind, payload, policy).future

    def _call(
        self,
        dst: str,
        kind: str,
        payload: Any,
        policy: RetryPolicy | None,
        blocking: bool = False,
    ) -> AsyncCall:
        call = AsyncCall(
            self, dst, kind, payload,
            policy if policy is not None else self.retry_policy, blocking,
        )
        call.start()
        return call

    def wait(self, future: BatchFuture) -> Any:
        """Pump the simulator until *future* settles; return its result.

        Raises :class:`~repro.core.errors.NetworkError` if the
        simulation drains without the reply.
        """
        self.network.run_while(lambda: not future.done)
        probe = _probes.ACTIVE
        if probe is not None:
            probe.reply_absorb(self, (future,))
        if not future.done:
            raise NetworkError(
                "simulation drained before the request resolved"
            )
        return future.result()

    def wait_all(self, futures: Sequence[BatchFuture]) -> list:
        """Pump until every future settles; returns their results
        (raising the first stored failure encountered)."""
        self.network.run_while(
            lambda: any(not future.done for future in futures)
        )
        probe = _probes.ACTIVE
        if probe is not None:
            probe.reply_absorb(self, futures)
        unresolved = sum(1 for future in futures if not future.done)
        if unresolved:
            raise NetworkError(
                f"simulation drained with {unresolved} request(s) unresolved"
            )
        return [future.result() for future in futures]

    # ------------------------------------------------------------------
    # value conversion at the boundary
    # ------------------------------------------------------------------

    def export_value(self, value: Any) -> Any:
        """The encoder's export hook: the wire form of a value the codec
        has no encoding of its own for. A local object becomes a
        reference (homed here if registered here), a proxy the reference
        it stands for, an item handle (a process-local capability) the
        token its owner re-validates on use; anything else is unchanged.
        """
        if isinstance(value, MROMObject):
            site = self.site_id if value.guid in self._objects else ""
            return Reference(value.guid, site)
        if isinstance(value, RemoteRef):
            return Reference(value.guid, value.site)
        if isinstance(value, ItemHandle):
            return value.token()
        return value

    def resolve_reference(self, guid: str, site: str) -> Any:
        """The decoder's resolver: the object a wire reference names if
        it is registered here, otherwise a proxy for it."""
        if site == self.site_id:
            obj = self._objects.get(guid)
            if obj is not None:
                return obj
        return RemoteRef(self, site or self.site_id, guid)

    def import_value(self, value: Any) -> Any:
        """Resolve the wire references in a decoded request field: a
        request decodes to inert references, and its handler resolves
        the fields it uses when it runs (a reply is resolved by the
        decoder at delivery). Mapping keys stay as they are."""
        if type(value) in _PLAIN:
            return value
        if isinstance(value, dict):
            return {
                key: val if type(val) in _PLAIN else self.import_value(val)
                for key, val in value.items()
            }
        if isinstance(value, list):
            return [
                element if type(element) in _PLAIN else self.import_value(element)
                for element in value
            ]
        if isinstance(value, Reference):
            return self.resolve_reference(value.guid, value.site)
        return value

    # ------------------------------------------------------------------
    # caller principals on the wire
    # ------------------------------------------------------------------

    def _caller_payload(self, caller: Principal | None) -> dict:
        principal = caller if caller is not None else self.principal
        return {
            "guid": principal.guid,
            "domain": principal.domain,
            "name": principal.display_name,
        }

    def _invoke_payload(
        self, guid: str, method: str, args: Sequence[Any], caller: Principal | None
    ) -> dict:
        return {
            "target": guid,
            "method": method,
            "args": list(args),
            "caller": self._caller_payload(caller),
        }

    def _get_data_payload(self, guid: str, name: str, caller: Principal | None) -> dict:
        return {"target": guid, "name": name, "caller": self._caller_payload(caller)}

    def _describe_payload(self, guid: str, caller: Principal | None) -> dict:
        return {"target": guid, "caller": self._caller_payload(caller)}

    @staticmethod
    def _caller_from(payload: Any) -> Principal:
        if not isinstance(payload, Mapping):
            return Principal(guid="mrom:anonymous")
        return remote_principal(
            str(payload.get("guid", "mrom:anonymous")),
            str(payload.get("domain", "")),
            str(payload.get("name", "")),
        )

    # ------------------------------------------------------------------
    # client side
    # ------------------------------------------------------------------

    def remote_invoke(
        self,
        dst: str,
        guid: str,
        method: str,
        args: Sequence[Any] = (),
        caller: Principal | None = None,
        policy: RetryPolicy | None = None,
    ) -> Any:
        return self.request(
            dst, "invoke", self._invoke_payload(guid, method, args, caller), policy
        )

    def remote_get_data(
        self,
        dst: str,
        guid: str,
        name: str,
        caller: Principal | None = None,
        policy: RetryPolicy | None = None,
    ) -> Any:
        return self.request(
            dst, "get_data", self._get_data_payload(guid, name, caller), policy
        )

    def remote_describe(
        self,
        dst: str,
        guid: str,
        caller: Principal | None = None,
        policy: RetryPolicy | None = None,
    ) -> dict:
        return self.request(
            dst, "describe", self._describe_payload(guid, caller), policy
        )

    def remote_invoke_async(
        self,
        dst: str,
        guid: str,
        method: str,
        args: Sequence[Any] = (),
        caller: Principal | None = None,
        policy: RetryPolicy | None = None,
    ) -> BatchFuture:
        return self.request_async(
            dst, "invoke", self._invoke_payload(guid, method, args, caller), policy
        )

    def remote_get_data_async(
        self,
        dst: str,
        guid: str,
        name: str,
        caller: Principal | None = None,
        policy: RetryPolicy | None = None,
    ) -> BatchFuture:
        return self.request_async(
            dst, "get_data", self._get_data_payload(guid, name, caller), policy
        )

    def remote_describe_async(
        self,
        dst: str,
        guid: str,
        caller: Principal | None = None,
        policy: RetryPolicy | None = None,
    ) -> BatchFuture:
        return self.request_async(
            dst, "describe", self._describe_payload(guid, caller), policy
        )

    def batch(self, dst: str, policy: RetryPolicy | None = None) -> RequestBatch:
        """A batch coalescing requests to *dst* into one frame per flush."""
        return RequestBatch(self, dst, policy=policy)

    def send_queue(self, policy: RetryPolicy | None = None) -> SendQueue:
        """A queue coalescing requests per destination (one frame each)."""
        return SendQueue(self, policy=policy)

    def batched_ref(self, ref: RemoteRef, batch: RequestBatch) -> BatchedRef:
        """Bind an existing reference to a batch (calls become futures)."""
        return BatchedRef(ref, batch)

    def remote_resolve(self, dst: str, path: str) -> RemoteRef:
        guid = self.request(dst, "resolve", {"path": path})
        return RemoteRef(self, dst, guid)

    def ping(self, dst: str) -> float:
        """Round-trip a tiny message; returns the simulated RTT."""
        start = self.network.now
        self.request(dst, "ping", {})
        return self.network.now - start

    def mount_remote_names(self, prefix: str, dst: str) -> None:
        """Federate: resolve ``prefix/...`` through site *dst*."""
        self.names.mount(prefix, _RemoteNames(self, dst))

    # ------------------------------------------------------------------
    # server side
    # ------------------------------------------------------------------

    def _handle_invoke(self, message: Message) -> Any:
        body = message.payload
        caller = self._caller_from(body.get("caller"))
        obj = self.local_object(str(body["target"]))
        args = self.import_value(body.get("args", []))
        probe = _probes.ACTIVE
        if probe is not None:
            probe.handle(self, "invoke", obj, str(body["method"]))
        return obj.invoke(str(body["method"]), args, caller=caller)

    def _handle_get_data(self, message: Message) -> Any:
        body = message.payload
        caller = self._caller_from(body.get("caller"))
        obj = self.local_object(str(body["target"]))
        probe = _probes.ACTIVE
        if probe is not None:
            probe.handle(self, "get_data", obj, str(body["name"]))
        return obj.get_data(str(body["name"]), caller=caller)

    def _handle_describe(self, message: Message) -> dict:
        body = message.payload
        caller = self._caller_from(body.get("caller"))
        obj = self.local_object(str(body["target"]))
        return describe_object(obj, viewer=caller).to_mapping()

    def _handle_resolve(self, message: Message) -> str:
        path = str(message.payload.get("path", ""))
        guid = self.names.try_resolve(path)
        if guid is None:
            raise NamingError(f"{self.site_id} cannot resolve {path!r}")
        return guid

    def _handle_ping(self, message: Message) -> dict:
        return {"site": self.site_id, "time": self.network.now}

    def _handle_batch(self, message: Message) -> dict:
        """Serve one coalesced frame of logical requests.

        Each inner request carries the same per-request ``request_id`` an
        individual send would, and shares the site's ``_served`` ledger:
        a logical request is executed **at most once** even when its
        frame is retried, duplicated, or its requests are later re-sent
        individually. Inner failures become per-request error envelopes —
        one bad request does not poison its neighbours. The frame itself
        is also deduplicated by :meth:`receive` via its own request_id.
        """
        body = message.payload
        entries = body.get("requests") if isinstance(body, Mapping) else None
        if not isinstance(entries, list):
            raise NetworkError("batch payload must carry a 'requests' list")
        probe = _probes.ACTIVE
        if probe is not None:
            probe.count("rmi.batch.frames")
            probe.count("rmi.batch.served", len(entries))
        return {
            "replies": [self._serve_batched(message, entry) for entry in entries]
        }

    def _serve_batched(self, frame: Message, entry: Any) -> dict:
        """Execute (or replay) one logical request of a batch frame."""
        if not isinstance(entry, Mapping):
            return _failure(NetworkError(f"malformed batch entry {entry!r}"))
        kind = str(entry.get("kind", ""))
        request_id = entry.get("request_id")
        if not isinstance(request_id, str) or not request_id:
            return _failure(_missing_request_id(kind))
        replayed = self._replay(kind, request_id)
        if replayed is not None:
            return replayed
        handler = self._handlers.get(kind)
        if handler is None or kind == "batch":  # no nested frames
            envelope = _failure(NetworkError(f"unknown kind {kind!r}"))
        else:
            inner = Message(
                kind, frame.src, frame.dst, entry.get("payload"), frame.msg_id,
                None, frame.lamport, 0, request_id, frame.verdict,
            )
            envelope = self._execute(inner, handler, batched=True)
        self._record(kind, request_id, envelope, entry.get("payload"))
        return envelope

    def __repr__(self) -> str:
        return (
            f"Site({self.site_id!r}, domain={self.domain!r}, "
            f"{len(self._objects)} objects)"
        )


class _RemoteNames:
    """Mount adapter: resolve names through a remote site."""

    __slots__ = ("_site", "_dst")

    def __init__(self, site: Site, dst: str):
        self._site = site
        self._dst = dst

    def resolve(self, path: str) -> str:
        return self._site.request(self._dst, "resolve", {"path": path})

    def list_bindings(self, prefix: str = "") -> list[tuple[str, str]]:
        # remote enumeration is deliberately not supported: a site
        # advertises resolution, not its whole directory
        return []
