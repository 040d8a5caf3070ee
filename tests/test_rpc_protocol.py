"""Frame protocol: encoding, stream behaviour, malformed input."""

import pytest

from repro.errors import ConnectionClosedError, ProtocolError
from repro.rpc.protocol import (
    HEADER_SIZE,
    MAGIC,
    Message,
    MessageType,
    encode_message,
    error_body,
    recv_message,
    request_body,
    send_message,
    validate_request_body,
)


class FakeStream:
    """In-memory Stream for protocol tests."""

    def __init__(self, data: bytes = b""):
        self.buffer = bytearray(data)
        self.sent = bytearray()

    def sendall(self, data: bytes) -> None:
        self.sent += data

    def recv_exactly(self, size: int) -> bytes:
        if len(self.buffer) < size:
            raise ConnectionClosedError("eof")
        out = bytes(self.buffer[:size])
        del self.buffer[:size]
        return out


def test_round_trip_request():
    msg = Message(MessageType.REQUEST, 7, request_body("Obj", "m", (1, 2), {"k": 3}))
    stream = FakeStream(encode_message(msg))
    decoded = recv_message(stream)
    assert decoded.msg_type is MessageType.REQUEST
    assert decoded.seq == 7
    assert decoded.body["object"] == "Obj"
    assert decoded.body["args"] == [1, 2]


def test_send_then_recv_via_stream():
    stream = FakeStream()
    send_message(stream, Message(MessageType.PING, 3, None))
    stream.buffer = bytearray(stream.sent)
    decoded = recv_message(stream)
    assert decoded.msg_type is MessageType.PING
    assert decoded.body is None


def test_header_is_sixteen_bytes():
    assert HEADER_SIZE == 16


def test_frame_starts_with_magic():
    frame = encode_message(Message(MessageType.PONG, 1, None))
    assert frame[:4] == MAGIC


def test_bad_magic_rejected():
    frame = bytearray(encode_message(Message(MessageType.PING, 1, None)))
    frame[0] = ord("X")
    with pytest.raises(ProtocolError, match="magic"):
        recv_message(FakeStream(bytes(frame)))


def test_bad_version_rejected():
    frame = bytearray(encode_message(Message(MessageType.PING, 1, None)))
    assert frame[4] == 2  # the one wire version
    for version in (1, 3, 99):
        frame[4] = version
        with pytest.raises(ProtocolError, match="version"):
            recv_message(FakeStream(bytes(frame)))


def test_unknown_message_type_rejected():
    frame = bytearray(encode_message(Message(MessageType.PING, 1, None)))
    frame[5] = 200
    with pytest.raises(ProtocolError, match="message type"):
        recv_message(FakeStream(bytes(frame)))


def test_truncated_frame_raises_connection_closed():
    frame = encode_message(Message(MessageType.REQUEST, 1, {"object": "x", "method": "y"}))
    with pytest.raises(ConnectionClosedError):
        recv_message(FakeStream(frame[: len(frame) - 3]))


def test_oneway_flag():
    msg = Message(MessageType.REQUEST, 1, {}, flags=1)
    assert msg.oneway
    assert not Message(MessageType.REQUEST, 1, {}).oneway


def test_validate_request_body_happy():
    body = request_body("Obj", "method", (1,), {"a": 2})
    object_id, method, args, kwargs = validate_request_body(body)
    assert (object_id, method, args, kwargs) == ("Obj", "method", [1], {"a": 2})


@pytest.mark.parametrize(
    "body",
    [
        "not a dict",
        {},
        {"object": 1, "method": "m"},
        {"object": "o", "method": 2},
        {"object": "o", "method": "m", "args": "nope"},
        {"object": "o", "method": "m", "kwargs": []},
    ],
)
def test_validate_request_body_rejects(body):
    with pytest.raises(ProtocolError):
        validate_request_body(body)


def test_error_body_fields():
    body = error_body("ValueError", "bad", "trace")
    assert body == {
        "error_type": "ValueError",
        "message": "bad",
        "traceback": "trace",
    }
