"""Seeded fuzz of the TCP gateway's framing and dispatch.

A peer on the gateway's port may send any bytes. Whatever it sends —
length prefixes up to and past ``MAX_FRAME``, frames cut off mid-body,
random bytes, or well-formed frames with random kinds and payloads —
every reply the gateway writes is a reply envelope whose failures name
an :class:`MROMError` type, or the gateway closes the connection. No
exception escapes a serving thread (``threading.excepthook`` records
any that would), and a peer stalled mid-frame holds up no one else.

Hypothesis runs derandomized, so every run draws the same examples.
"""

from __future__ import annotations

import socket
import struct
import threading

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.errors import error_for_name
from repro.net.gateway import MAX_FRAME, TcpGatewayClient
from repro.net.marshal import marshal, unmarshal

from .test_hostile_payloads import KINDS, WRONG_TYPES, World

pytestmark = pytest.mark.fuzz

FUZZ = settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=100,
    suppress_health_check=[HealthCheck.too_slow],
)

_LENGTH = struct.Struct(">I")


@pytest.fixture(scope="module")
def gateway():
    escaped: list = []
    previous = threading.excepthook
    threading.excepthook = escaped.append
    world = World()
    try:
        yield world.gateway, escaped
    finally:
        world.close()
        threading.excepthook = previous


def _serving_threads() -> set[threading.Thread]:
    return {
        thread for thread in threading.enumerate()
        if "_serve_connection" in thread.name
    }


def _read_to_eof(sock: socket.socket) -> bytes:
    received = bytearray()
    try:
        while chunk := sock.recv(65536):
            received += chunk
    except ConnectionResetError:
        pass  # hung up on with our bytes unread: a close as well
    return bytes(received)


def _settle(escaped: list, serving_before: set) -> None:
    """Wait for the connections opened since *serving_before* to be
    served out, then check that none of them raised."""
    for thread in _serving_threads() - serving_before:
        thread.join(timeout=5)
    assert not escaped, [hook.exc_value for hook in escaped]


def exchange(gateway, raw: bytes) -> list:
    """Send *raw* on a fresh connection, end the write side, and read
    until the gateway hangs up; returns the decoded replies, which must
    be whole frames."""
    gw, escaped = gateway
    serving_before = _serving_threads()
    with socket.create_connection((gw.host, gw.port), timeout=5) as sock:
        try:
            sock.sendall(raw)
            sock.shutdown(socket.SHUT_WR)
        except OSError:
            pass  # the gateway hung up before it read everything
        received = bytearray(_read_to_eof(sock))
    _settle(escaped, serving_before)
    replies = []
    while len(received) >= _LENGTH.size:
        (length,) = _LENGTH.unpack_from(received)
        body = bytes(received[_LENGTH.size:_LENGTH.size + length])
        assert len(body) == length, "the gateway wrote a cut frame"
        replies.append(unmarshal(body))
        del received[:_LENGTH.size + length]
    assert not received, "the gateway wrote a cut length prefix"
    return replies


def assert_reply(reply, may_succeed: bool) -> None:
    assert isinstance(reply, dict)
    if reply.get("ok") is True and may_succeed:
        assert "result" in reply
        return
    assert reply.get("ok") is False, reply
    # the wire name of an MROMError type, which the client rebuilds as is
    name = reply.get("error")
    assert type(error_for_name(str(name))).__name__ == name, reply
    assert isinstance(reply.get("message"), str)


def frame(body: bytes) -> bytes:
    return _LENGTH.pack(len(body)) + body


# -- strategies ---------------------------------------------------------------

scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False),
    st.text(max_size=12), st.binary(max_size=12),
)
values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=12,
)
#: payloads that name the fields the built-in handlers read, so the
#: random values reach them
payloads = st.one_of(
    values,
    st.dictionaries(st.sampled_from(sorted(WRONG_TYPES)), values, max_size=6),
)
kinds = st.one_of(st.sampled_from(KINDS), st.text(max_size=16))
requests = st.builds(lambda kind, payload: {"kind": kind, "payload": payload},
                     kinds, payloads)


# -- cases ----------------------------------------------------------------------


@FUZZ
@given(st.one_of(
    st.integers(min_value=0, max_value=2 ** 32 - 1),
    st.integers(min_value=MAX_FRAME - 2, max_value=MAX_FRAME + 2),
), st.binary(max_size=64))
def test_any_length_prefix_is_refused_typed_or_hung_up(gateway, length, body):
    if length > MAX_FRAME:
        # refused on the prefix alone, before a byte of body is read
        (reply,) = exchange(gateway, _LENGTH.pack(length))
        assert_reply(reply, may_succeed=False)
        assert "exceeds the gateway limit" in reply["message"]
        return
    for reply in exchange(gateway, _LENGTH.pack(length) + body):
        assert_reply(reply, may_succeed=False)


@FUZZ
@given(requests, st.data())
def test_a_frame_cut_mid_body_is_hung_up_on(gateway, request, data):
    whole = frame(marshal(request))
    cut = data.draw(st.integers(min_value=1, max_value=len(whole) - 1))
    assert exchange(gateway, whole[:cut]) == []


@FUZZ
@given(st.binary(min_size=1, max_size=96))
def test_random_bytes_are_refused_typed_or_hung_up(gateway, raw):
    for reply in exchange(gateway, raw):
        assert_reply(reply, may_succeed=True)


@FUZZ
@given(st.lists(requests, min_size=1, max_size=3))
def test_valid_frames_with_random_kinds_and_payloads_are_served_typed(
    gateway, batch
):
    replies = exchange(gateway, b"".join(frame(marshal(r)) for r in batch))
    assert len(replies) == len(batch)
    for reply in replies:
        assert_reply(reply, may_succeed=True)


def test_a_body_without_the_magic_is_refused_typed(gateway):
    (reply,) = exchange(gateway, frame(b"XXXX"))
    assert_reply(reply, may_succeed=False)
    assert reply["error"] == "MarshalError"


def test_a_peer_stalled_mid_frame_does_not_block_another(gateway):
    gw, escaped = gateway
    serving_before = _serving_threads()
    whole = frame(marshal({"kind": "ping", "payload": {}}))
    with socket.create_connection((gw.host, gw.port), timeout=5) as stalled:
        stalled.sendall(whole[: len(whole) // 2])
        with TcpGatewayClient(gw.host, gw.port) as client:
            assert client.ping()["site"] == "srv"
        stalled.sendall(whole[len(whole) // 2:])
        stalled.shutdown(socket.SHUT_WR)
        received = _read_to_eof(stalled)
    assert unmarshal(received[_LENGTH.size:])["ok"] is True
    _settle(escaped, serving_before)
