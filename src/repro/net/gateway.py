"""A real-TCP gateway into a simulated site.

The reproduction's network substrate is a deterministic simulator (see
DESIGN.md §3); real deployments of the paper's system spoke RMI over real
sockets. The gateway bridges the two: it serves one site's handler
table (invoke / get_data / describe / resolve / ping, and every kind a
higher layer registered) over actual TCP on localhost, so an external
process — a different Python interpreter, a different language, a
netcat — can interrogate and invoke the objects living in the
simulation using the same MRM1 wire format the simulated transport
uses. A TCP request runs the same handler, probe points and typed
refusals as a simulated one; it carries no ``request_id``, so it stays
outside the served ledger and the journal.

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

from ..core.errors import MROMError, NetworkError, error_for_name
from .marshal import MAGIC, Encoded, encode, marshal_frame, unmarshal
from .site import Site, _failure
from .transport import Message

__all__ = ["TcpGateway", "TcpGatewayClient"]

_LENGTH = struct.Struct(">I")
MAX_FRAME = 16 * 1024 * 1024


def _send_frame(sock: socket.socket, *parts: bytes | bytearray | memoryview) -> None:
    """Write one frame: the length prefix and *parts* (which together
    form one MRM1 message) leave in one scatter-gather syscall, with no
    concatenated copy and no Nagle stall from a split write."""
    buffers = [_LENGTH.pack(sum(map(len, parts))), *parts]
    while buffers:
        sent = sock.sendmsg(buffers)
        while buffers and sent >= len(buffers[0]):
            sent -= len(buffers[0])
            buffers.pop(0)
        if sent:
            buffers[0] = memoryview(buffers[0])[sent:]


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
            try:
                while self._running:
                    try:
                        request = _recv_frame(connection)
                    except MROMError as exc:
                        # the stream is out of step: answer, then hang up
                        _send_frame(connection, MAGIC, encode(_failure(exc)))
                        return
                    if request is None:
                        return
                    _send_frame(connection, MAGIC, self._respond(request))
            except OSError:
                return  # the peer went away mid-frame; nothing to answer

    def _respond(self, request: Any) -> Encoded:
        """Serve one decoded request frame through the site's handler
        table, exactly as a request off the simulated wire is served;
        returns the reply envelope."""
        if not isinstance(request, dict) or "kind" not in request:
            return encode(_failure(NetworkError("malformed gateway request")))
        # src "tcp", msg_id 0, no reply_to, lamport or wire size
        message = Message(
            str(request["kind"]), "tcp", self.site.site_id,
            request.get("payload", {}), 0, None, 0, 0,
        )
        handler = self.site._handlers.get(message.kind)
        if handler is None:
            return encode(_failure(NetworkError(f"unknown kind {message.kind!r}")))
        with self._lock:  # the simulation kernel is single-threaded
            # external requests share the site's admission window, so
            # TCP-borne load honours the same backpressure contract as
            # simulation-borne load
            if not self.site.try_admit(message.kind, src="tcp"):
                return encode(_failure(self.site.overloaded_error()))
            try:
                # the reply is encoded under the lock: the result may be
                # live state another request could change
                envelope = self.site._execute(message, handler)
            finally:
                self.site.release()
            self.requests_served += 1
            return envelope

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
        _send_frame(self._sock, marshal_frame({"kind": kind, "payload": payload}))
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
