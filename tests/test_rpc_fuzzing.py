"""Adversarial input on the control channel: the daemon must not die.

The control agent faces a facility network; a scanning host or a buggy
client will throw garbage at the Pyro port. These tests verify the
daemon survives malformed frames, remains serving for legitimate
clients, and never executes anything from a bad frame.
"""

import socket
import struct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.rpc import Daemon, Proxy, deserialize_binary, expose
from repro.rpc.protocol import HEADER, MAGIC, VERSION, MessageType, parse_header


@expose
class Counter:
    def __init__(self):
        self.calls = 0

    def bump(self):
        self.calls += 1
        return self.calls


@pytest.fixture
def served():
    service = Counter()
    daemon = Daemon()
    uri = daemon.register(service, object_id="C")
    daemon.start_background()
    yield service, daemon, uri
    daemon.shutdown()


def raw_send(daemon, payload: bytes) -> bytes:
    """Send raw bytes, then end the stream; returns what the daemon sent
    back before it dropped the connection."""
    host, port = daemon.address
    received = bytearray()
    with socket.create_connection((host, port), timeout=2.0) as sock:
        sock.sendall(payload)
        # end-of-stream: the daemon drops the connection at once instead
        # of waiting for the rest of a frame that never comes
        sock.shutdown(socket.SHUT_WR)
        sock.settimeout(0.5)
        try:
            while chunk := sock.recv(4096):
                received += chunk
        except (socket.timeout, OSError):
            pass
    return bytes(received)


def v2_frame(seq: int, envelope_body: bytes) -> bytes:
    """A REQUEST whose binary payload carries ``envelope_body`` as the
    envelope's body, hand-built so it need not be valid."""
    envelope = b'{"body":' + envelope_body + b',"blobs":[]}'
    payload = struct.pack("!I", len(envelope)) + envelope
    return HEADER.pack(MAGIC, VERSION, 1, 0, seq, len(payload)) + payload


def error_reply(data: bytes) -> dict:
    """The body of the one ERROR frame in ``data``."""
    msg_type, _flags, _seq, length = parse_header(data[:16])
    assert msg_type is MessageType.ERROR
    assert len(data) == 16 + length
    return deserialize_binary(data[16:])


class TestGarbageFrames:
    def test_http_request_rejected(self, served):
        _service, daemon, uri = served
        raw_send(daemon, b"GET / HTTP/1.1\r\nHost: x\r\n\r\n")
        with Proxy(uri) as proxy:
            assert proxy.bump() == 1  # daemon still serving

    def test_wrong_magic(self, served):
        _service, daemon, uri = served
        frame = HEADER.pack(b"EVIL", VERSION, 1, 0, 1, 4) + b"null"
        raw_send(daemon, frame)
        with Proxy(uri) as proxy:
            assert proxy.bump() >= 1

    def test_huge_declared_payload(self, served):
        _service, daemon, uri = served
        frame = HEADER.pack(MAGIC, VERSION, 1, 0, 1, 2**31 - 1)
        raw_send(daemon, frame)
        with Proxy(uri) as proxy:
            assert proxy.bump() >= 1

    def test_truncated_frame_then_disconnect(self, served):
        _service, daemon, uri = served
        frame = HEADER.pack(MAGIC, VERSION, 1, 0, 1, 100) + b"short"
        raw_send(daemon, frame)
        with Proxy(uri) as proxy:
            assert proxy.bump() >= 1

    def test_invalid_json_payload(self, served):
        _service, daemon, uri = served
        body = b"{definitely not json"
        reply = raw_send(daemon, v2_frame(7, body))
        # the frame got past the header to the payload decoder
        assert error_reply(reply)["error_type"] == "SerializationError"
        with Proxy(uri) as proxy:
            assert proxy.bump() >= 1

    def test_request_for_dunder_never_executes(self, served):
        service, daemon, uri = served
        body = (
            b'{"object":"C","method":"__init__","args":[],"kwargs":{}}'
        )
        service.calls = 5
        reply = raw_send(daemon, v2_frame(9, body))
        # decoded, then refused by the @expose check
        assert error_reply(reply)["error_type"] == "MethodNotExposedError"
        with Proxy(uri) as proxy:
            assert proxy.bump() == 6  # __init__ did not reset the counter

    def test_version_1_frame_rejected_and_daemon_keeps_serving(self, served):
        # the retired all-JSON wire: a well-formed v1 REQUEST for an
        # exposed method dies at the version byte and never executes
        service, daemon, uri = served
        body = b'{"object":"C","method":"bump","args":[],"kwargs":{}}'
        frame = HEADER.pack(MAGIC, 1, 1, 0, 3, len(body)) + body
        reply = raw_send(daemon, frame)
        error = error_reply(reply)
        assert error["error_type"] == "ProtocolError"
        assert "unsupported protocol version 1" in error["message"]
        assert service.calls == 0
        with Proxy(uri) as proxy:
            assert proxy.bump() == 1

    @given(st.binary(min_size=1, max_size=256))
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_random_bytes_never_kill_the_daemon(self, served, blob):
        _service, daemon, uri = served
        raw_send(daemon, blob)
        with Proxy(uri) as proxy:
            assert proxy.bump() >= 1

    @given(
        st.integers(min_value=0, max_value=255),
        st.integers(min_value=0, max_value=255),
        st.binary(max_size=64),
    )
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_random_typed_frames(self, served, version, msg_type, body):
        _service, daemon, uri = served
        frame = HEADER.pack(MAGIC, version, msg_type, 0, 1, len(body)) + body
        raw_send(daemon, frame)
        with Proxy(uri) as proxy:
            assert proxy.bump() >= 1
