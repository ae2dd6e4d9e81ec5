"""A real-TCP gateway into a simulated site.

The reproduction's network substrate is a deterministic simulator (see
DESIGN.md §3); real deployments of the paper's system spoke RMI over real
sockets. The gateway bridges the two: it exposes one site's protocol
surface (invoke / get_data / describe / resolve / ping) over actual TCP
on localhost, so an external process — a different Python interpreter, a
different language, a netcat — can interrogate and invoke the objects
living in the simulation using the same MRM1 wire format the simulated
transport uses.

Framing: each direction sends ``4-byte big-endian length`` + one MRM1
message. Requests are mappings ``{kind, payload}``; responses follow the
transport's reply convention (``{ok, result}`` / ``{ok, error, message}``).

Requests are serialized through one lock: the simulation kernel is
single-threaded by design, and a gateway request may pump it (an invoke
that forwards across the simulated WAN does). The gateway is a doorway,
not a second scheduler.
"""

from __future__ import annotations

import socket
import struct
import threading
from typing import Any

from ..core.acl import Principal, remote_principal
from ..core.errors import MROMError, NetworkError, error_for_name
from ..core.introspection import describe as describe_object
from .marshal import marshal_frame, unmarshal
from .site import Site

__all__ = ["TcpGateway", "TcpGatewayClient"]

_LENGTH = struct.Struct(">I")
MAX_FRAME = 16 * 1024 * 1024


def _send_frame(sock: socket.socket, value: Any) -> None:
    # zero-copy: header and body leave in one scatter-gather syscall,
    # the body as a memoryview over the pooled buffer — no concatenated
    # bytes object, and no Nagle stall from a split write
    with marshal_frame(value) as frame:
        buffers = [memoryview(_LENGTH.pack(len(frame))), frame.view]
        while buffers:
            sent = sock.sendmsg(buffers)
            while buffers and sent >= len(buffers[0]):
                sent -= len(buffers[0])
                buffers.pop(0)
            if sent:
                buffers[0] = buffers[0][sent:]


def _recv_exactly(sock: socket.socket, count: int) -> bytes | None:
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            return None
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def _recv_frame(sock: socket.socket) -> Any | None:
    header = _recv_exactly(sock, _LENGTH.size)
    if header is None:
        return None
    (length,) = _LENGTH.unpack(header)
    if length > MAX_FRAME:
        raise NetworkError(f"frame of {length} bytes exceeds the gateway limit")
    body = _recv_exactly(sock, length)
    if body is None:
        return None
    return unmarshal(body)


class TcpGateway:
    """Serves one site's protocol surface on a localhost TCP port."""

    def __init__(self, site: Site, host: str = "127.0.0.1", port: int = 0):
        self.site = site
        self._lock = threading.Lock()
        self._server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._server.bind((host, port))
        self._server.listen(8)
        self.host, self.port = self._server.getsockname()
        self._running = True
        self.requests_served = 0
        self._thread = threading.Thread(
            target=self._accept_loop, name=f"gateway-{site.site_id}", daemon=True
        )
        self._thread.start()

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        self._running = False
        try:
            self._server.close()
        except OSError:  # pragma: no cover - platform noise
            pass

    def __enter__(self) -> "TcpGateway":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- serving ------------------------------------------------------------

    def _accept_loop(self) -> None:
        while self._running:
            try:
                connection, _address = self._server.accept()
            except OSError:
                return
            threading.Thread(
                target=self._serve_connection, args=(connection,), daemon=True
            ).start()

    def _serve_connection(self, connection: socket.socket) -> None:
        with connection:
            while self._running:
                try:
                    request = _recv_frame(connection)
                except MROMError as exc:
                    _send_frame(
                        connection,
                        {"ok": False, "error": type(exc).__name__,
                         "message": str(exc)},
                    )
                    return
                if request is None:
                    return
                _send_frame(connection, self._respond(request))

    def _respond(self, request: Any) -> dict:
        if not isinstance(request, dict) or "kind" not in request:
            return {"ok": False, "error": "NetworkError",
                    "message": "malformed gateway request"}
        kind = str(request["kind"])
        payload = request.get("payload", {})
        with self._lock:  # the simulation kernel is single-threaded
            # external requests share the site's admission window, so
            # TCP-borne load honours the same backpressure contract as
            # simulation-borne load
            if not self.site.try_admit(kind, src="tcp"):
                error = self.site.overloaded_error()
                return {"ok": False, "error": type(error).__name__,
                        "message": str(error)}
            try:
                result = self._dispatch(kind, payload)
            except MROMError as exc:
                return {"ok": False, "error": type(exc).__name__,
                        "message": str(exc)}
            finally:
                self.site.release()
            self.requests_served += 1
            return {"ok": True, "result": self.site.export_value(result)}

    def _dispatch(self, kind: str, payload: Any) -> Any:
        if not isinstance(payload, dict):
            payload = {}
        if kind == "ping":
            return {"site": self.site.site_id, "time": self.site.network.now}
        if kind == "resolve":
            return self.site.names.resolve(str(payload.get("path", "")))
        if kind not in ("describe", "get_data", "invoke"):
            # anything else the site itself serves (``dir.resolve``,
            # ``cluster.invoke``, ...) is reachable over TCP too — the
            # multi-process cluster driver runs entirely on this path
            return self._dispatch_handler(kind, payload)
        caller = self._external_caller(payload)
        target = str(payload.get("target", ""))
        obj = self.site.local_object(target)
        if kind == "describe":
            return describe_object(obj, viewer=caller).to_mapping()
        if kind == "get_data":
            return obj.get_data(str(payload.get("name", "")), caller=caller)
        if kind == "invoke":
            args = self.site.import_value(payload.get("args", []))
            return obj.invoke(str(payload.get("method", "")), args, caller=caller)
        raise NetworkError(f"gateway does not serve kind {kind!r}")  # pragma: no cover

    def _dispatch_handler(self, kind: str, payload: Any) -> Any:
        """Serve a registered site handler (``dir.*`` / ``cluster.*`` …)
        for a TCP-borne request, as if it arrived on the simulated wire."""
        from .transport import Message

        handler = self.site._handlers.get(kind)
        if handler is None:
            raise NetworkError(f"gateway does not serve kind {kind!r}")
        message = Message(
            kind=kind, src="tcp", dst=self.site.site_id,
            payload=payload, msg_id=0, reply_to=None, lamport=0, size=0,
        )
        return handler(message)

    @staticmethod
    def _external_caller(payload: Any) -> Principal:
        raw = payload.get("caller", {}) if isinstance(payload, dict) else {}
        if not isinstance(raw, dict):
            raw = {}
        return remote_principal(
            str(raw.get("guid", "mrom:gateway-client")),
            str(raw.get("domain", "external")),
            str(raw.get("name", "gateway-client")),
        )

    def __repr__(self) -> str:
        return f"TcpGateway({self.site.site_id} @ {self.host}:{self.port})"


class TcpGatewayClient:
    """A client for :class:`TcpGateway` — usable from any process."""

    def __init__(self, host: str, port: int, timeout: float = 5.0):
        self._sock = socket.create_connection((host, port), timeout=timeout)

    def close(self) -> None:
        self._sock.close()

    def __enter__(self) -> "TcpGatewayClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def call(self, kind: str, payload: dict | None = None) -> Any:
        """Issue any gateway request by kind — the generic face the
        cluster driver uses for ``dir.*`` and ``cluster.*`` traffic."""
        return self._call(kind, payload or {})

    def _call(self, kind: str, payload: dict) -> Any:
        _send_frame(self._sock, {"kind": kind, "payload": payload})
        reply = _recv_frame(self._sock)
        if reply is None:
            raise NetworkError("gateway closed the connection")
        if not isinstance(reply, dict):
            raise NetworkError("malformed gateway reply")
        if not reply.get("ok"):
            # rebuild the remote failure under its own type: an external
            # caller must be able to tell denial (AccessDeniedError)
            # from absence (MethodNotFoundError) from overload
            raise error_for_name(
                str(reply.get("error", "")),
                str(reply.get("message", "gateway failure")),
            )
        return reply.get("result")

    def ping(self) -> dict:
        return self._call("ping", {})

    def resolve(self, path: str) -> str:
        return self._call("resolve", {"path": path})

    def describe(self, guid: str, caller: dict | None = None) -> dict:
        return self._call("describe", {"target": guid, "caller": caller or {}})

    def get_data(self, guid: str, name: str, caller: dict | None = None) -> Any:
        return self._call(
            "get_data", {"target": guid, "name": name, "caller": caller or {}}
        )

    def invoke(
        self, guid: str, method: str, args: list | None = None,
        caller: dict | None = None,
    ) -> Any:
        return self._call(
            "invoke",
            {"target": guid, "method": method, "args": args or [],
             "caller": caller or {}},
        )
