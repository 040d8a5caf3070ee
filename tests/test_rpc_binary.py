"""Binary bulk framing, the one wire version.

Covers the PROTOCOLS §1.7 surface: the blob-hoisting codec, the framed
payload, golden frames pinned byte for byte, torn/oversized-frame
handling (stable ``RPC_FRAME_CORRUPT`` code), and a proxy that speaks
the binary wire from its first frame.
"""

from __future__ import annotations

import socket
import threading

import numpy as np
import pytest

from repro.errors import (
    FrameCorruptError,
    ProtocolError,
    SerializationError,
)
from repro.rpc import (
    Daemon,
    Proxy,
    deserialize_binary,
    expose,
    serialize,
    serialize_binary,
)
from repro.rpc.protocol import (
    HEADER,
    MAGIC,
    MAX_PAYLOAD,
    VERSION,
    Message,
    MessageType,
    encode_message,
    error_body,
    parse_header,
    request_body,
)
from repro.rpc.transport import connect_tcp


@expose
class BulkService:
    """Echo plus bulk producers."""

    def echo(self, value):
        return value

    def wave(self, n: int):
        return np.linspace(0.0, 1.0, n)

    def chunk(self, n: int) -> bytes:
        return b"\xa5" * n

    def table(self, n: int):
        return {
            "potential_v": np.linspace(0.2, 0.8, n),
            "current_a": np.linspace(-1e-6, 1e-6, n),
            "raw": b"header",
        }


@pytest.fixture()
def reactor_daemon():
    daemon = Daemon(host="127.0.0.1")
    uri = daemon.register(BulkService(), object_id="Bulk")
    daemon.start_background()
    yield daemon, uri
    daemon.shutdown()


class _Tap:
    """A connection that keeps every byte it sends and receives."""

    def __init__(self, conn):
        self._conn = conn
        self.sent = bytearray()
        self.received = bytearray()

    def sendall(self, data):
        self.sent += data
        self._conn.sendall(data)

    def recv_exactly(self, size):
        data = self._conn.recv_exactly(size)
        self.received += data
        return data

    def __getattr__(self, name):
        return getattr(self._conn, name)


class TestBinaryCodec:
    def test_round_trip_nested_bulk(self):
        original = {
            "trace": np.arange(1000, dtype=np.float64),
            "meta": {"file": b"cv-001.mpt", "cycles": 3},
            "tags": ("a", b"b"),
        }
        decoded = deserialize_binary(b"".join(serialize_binary(original)))
        np.testing.assert_array_equal(decoded["trace"], original["trace"])
        assert decoded["meta"] == {"file": b"cv-001.mpt", "cycles": 3}
        assert decoded["tags"] == ("a", b"b")

    def test_dtype_shape_and_writability_preserved(self):
        original = np.arange(12, dtype=np.float32).reshape(3, 4)
        decoded = deserialize_binary(b"".join(serialize_binary(original)))
        assert decoded.dtype == np.float32
        assert decoded.shape == (3, 4)
        decoded[0, 0] = 42.0  # the decode must not alias the read buffer

    def test_empty_array_and_empty_bytes(self):
        decoded = deserialize_binary(
            b"".join(serialize_binary({"a": np.array([]), "b": b""}))
        )
        assert decoded["a"].size == 0
        assert decoded["b"] == b""

    def test_binary_beats_json_on_bulk(self):
        payload = {"trace": np.linspace(0, 1, 100_000)}
        binary_size = sum(len(p) for p in serialize_binary(payload))
        json_size = len(serialize(payload))
        assert binary_size < json_size

    def test_torn_frame_maps_to_stable_code(self):
        data = b"".join(serialize_binary({"x": np.arange(64.0)}))
        for cut in (2, 5, len(data) // 2, len(data) - 1):
            with pytest.raises(FrameCorruptError) as info:
                deserialize_binary(data[:cut])
            assert info.value.code == "RPC_FRAME_CORRUPT"

    def test_trailing_garbage_rejected(self):
        data = b"".join(serialize_binary({"x": b"abc"}))
        with pytest.raises(FrameCorruptError):
            deserialize_binary(data + b"\x00")

    def test_bad_envelope_json_is_serialization_error(self):
        import struct

        bogus = b"not json at all"
        data = struct.pack("!I", len(bogus)) + bogus
        with pytest.raises(SerializationError):
            deserialize_binary(data)


class TestBinaryFrames:
    def test_v2_message_round_trips(self):
        msg = Message(MessageType.RESPONSE, 7, {"result": np.arange(10.0)})
        raw = encode_message(msg)
        assert raw[4] == VERSION == 2
        msg_type, flags, seq, length = parse_header(raw[:16])
        assert (msg_type, seq) == (MessageType.RESPONSE, 7)
        assert length == len(raw) - 16
        body = deserialize_binary(raw[16:])
        np.testing.assert_array_equal(body["result"], np.arange(10.0))

    def test_oversized_header_is_frame_corrupt(self):
        header = HEADER.pack(
            MAGIC, VERSION, int(MessageType.REQUEST), 0, 1, MAX_PAYLOAD + 1
        )
        with pytest.raises(FrameCorruptError) as info:
            parse_header(header)
        assert info.value.code == "RPC_FRAME_CORRUPT"

    def test_bad_magic_is_protocol_error(self):
        header = HEADER.pack(
            b"NOPE", VERSION, int(MessageType.REQUEST), 0, 1, 0
        )
        with pytest.raises(ProtocolError):
            parse_header(header)

    def test_version_1_frame_is_rejected(self):
        # the retired all-JSON wire: no peer in this package speaks it
        header = HEADER.pack(MAGIC, 1, int(MessageType.REQUEST), 0, 1, 4)
        with pytest.raises(ProtocolError, match="version 1"):
            parse_header(header)

    def test_hello_is_no_longer_a_message_type(self):
        header = HEADER.pack(MAGIC, VERSION, 9, 0, 1, 0)
        with pytest.raises(ProtocolError, match="message type 9"):
            parse_header(header)


#: Frames encoded as wire v2 before the v1 wire and HELLO were deleted.
#: Deleting them must not move one byte of what the peers still send.
GOLDEN_REQUEST = bytes.fromhex(
    "524943450201000000000029000000d7000000d37b22626f6479223a7b226f62"
    "6a656374223a2241434c5f576f726b73746174696f6e222c226d6574686f6422"
    "3a225365745f466c6f775f4d4643222c2261726773223a5b312c34322e355d2c"
    "226b7761726773223a7b22756e6974223a227363636d227d2c226964656d223a"
    "226b2d37222c227472616365223a7b2274726163655f6964223a226162616261"
    "626162616261626162616261626162616261626162616261626162222c227370"
    "616e5f6964223a2263646364636463646364636463646364227d7d2c22626c6f"
    "6273223a5b5d7d"
)
GOLDEN_RESPONSE = bytes.fromhex(
    "52494345020200000000002a00000108000000dd7b22626f6479223a7b227265"
    "73756c74223a7b226368756e6b223a7b225f5f726570726f5f747970655f5f22"
    "3a22626c6f62222c2269223a302c226b696e64223a226279746573227d2c2274"
    "72616365223a7b225f5f726570726f5f747970655f5f223a22626c6f62222c22"
    "69223a312c226b696e64223a226e646172726179222c226474797065223a223c"
    "6638222c227368617065223a5b345d7d2c226e223a7b225f5f726570726f5f74"
    "7970655f5f223a227475706c65222c226974656d73223a5b332c2278225d7d7d"
    "7d2c22626c6f6273223a5b372c33325d7d000152494345ff0000000000000000"
    "000000000000f03f00000000000000400000000000000840"
)
GOLDEN_ERROR = bytes.fromhex(
    "52494345020300000000002b000000910000008d7b22626f6479223a7b226572"
    "726f725f74797065223a22496e737472756d656e74436f6d6d616e644572726f"
    "72222c226d657373616765223a2270756d70207374616c6c6564222c22747261"
    "63656261636b223a2254726163656261636b2e2e2e5c6e222c22636f6465223a"
    "22494e535452554d454e545f434f4d4d414e44227d2c22626c6f6273223a5b5d"
    "7d"
)


class TestGoldenFrames:
    def test_request(self):
        body = request_body(
            "ACL_Workstation",
            "Set_Flow_MFC",
            (1, 42.5),
            {"unit": "sccm"},
            idempotency_key="k-7",
            trace_context={"trace_id": "ab" * 16, "span_id": "cd" * 8},
        )
        frame = encode_message(Message(MessageType.REQUEST, 41, body))
        assert frame == GOLDEN_REQUEST

    def test_response_with_bulk_blobs(self):
        body = {
            "result": {
                "chunk": b"\x00\x01RICE\xff",
                "trace": np.arange(4, dtype="<f8"),
                "n": (3, "x"),
            }
        }
        frame = encode_message(Message(MessageType.RESPONSE, 42, body))
        assert frame == GOLDEN_RESPONSE

    def test_error(self):
        body = error_body(
            "InstrumentCommandError",
            "pump stalled",
            "Traceback...\n",
            code="INSTRUMENT_COMMAND",
        )
        frame = encode_message(Message(MessageType.ERROR, 43, body))
        assert frame == GOLDEN_ERROR


class TestVersionNegotiation:
    """What is left of negotiation: none. The proxy's first frame is
    already a binary-wire REQUEST, and it never falls back."""

    def test_auto_client_on_reactor_daemon_goes_binary(self, reactor_daemon):
        daemon, uri = reactor_daemon
        host, port = daemon.address
        taps: list[_Tap] = []

        def dial(host, port):
            taps.append(_Tap(connect_tcp(host, port, timeout=10.0)))
            return taps[-1]

        with Proxy(uri, connection_factory=dial) as proxy:
            trace = proxy.wave(5000)
            assert trace.shape == (5000,)
            assert daemon.serving_mode == "reactor"
        (tap,) = taps
        # one REQUEST out, one RESPONSE back, both version 2
        assert parse_header(bytes(tap.sent[:16]))[0] is MessageType.REQUEST
        assert tap.sent[4] == tap.received[4] == VERSION
        assert len(tap.sent) == 16 + parse_header(bytes(tap.sent[:16]))[3]
        # the 40,000-byte array came as a raw blob, not as base64
        assert 40_000 < len(tap.received) < 40_400

    def test_required_binary_against_json_daemon_raises(self):
        # a daemon that speaks only the retired all-JSON wire answers the
        # proxy's first frame as such a daemon did: a version-1 ERROR,
        # then a dropped connection. The proxy raises instead of
        # downgrading
        server = socket.create_server(("127.0.0.1", 0))
        host, port = server.getsockname()[:2]

        def json_only_peer():
            conn, _ = server.accept()
            with conn:
                conn.recv(65536)
                body = serialize(
                    error_body("ProtocolError", "unsupported protocol version 2", "")
                )
                conn.sendall(
                    HEADER.pack(MAGIC, 1, int(MessageType.ERROR), 0, 0, len(body))
                    + body
                )

        peer = threading.Thread(target=json_only_peer)
        peer.start()
        try:
            with Proxy(f"PYRO:Bulk@{host}:{port}", timeout=5.0) as proxy:
                with pytest.raises(ProtocolError, match="version 1"):
                    proxy.echo(1)
        finally:
            peer.join(timeout=5.0)
            server.close()
        assert not peer.is_alive()

    def test_negotiation_survives_reconnect(self, reactor_daemon):
        _, uri = reactor_daemon
        with Proxy(uri) as proxy:
            assert proxy.echo(1) == 1
            proxy.close()  # drop the connection, keep the proxy
            assert proxy.echo(2) == 2
            np.testing.assert_array_equal(proxy.wave(3), [0.0, 0.5, 1.0])

    def test_pipelined_bulk_reads_over_binary(self, reactor_daemon):
        _, uri = reactor_daemon
        with Proxy(uri, max_inflight=8) as proxy:
            with proxy.pipeline() as pipe:
                pending = [pipe.call("chunk", 4096) for _ in range(16)]
                chunks = [p.result() for p in pending]
        assert all(c == b"\xa5" * 4096 for c in chunks)


class TestCorruptFramesOverTheWire:
    def test_daemon_replies_frame_corrupt_then_closes(self, reactor_daemon):
        from repro.rpc.protocol import recv_message

        _, uri = reactor_daemon
        daemon, _ = reactor_daemon
        host, port = daemon.address
        conn = connect_tcp(host, port, timeout=5.0)
        try:
            # header declares an absurd payload length: unrecoverable
            conn.sendall(
                HEADER.pack(
                    MAGIC,
                    VERSION,
                    int(MessageType.REQUEST),
                    0,
                    1,
                    MAX_PAYLOAD + 1,
                )
            )
            reply = recv_message(conn)
            assert reply.msg_type == MessageType.ERROR
            assert reply.body.get("code") == "RPC_FRAME_CORRUPT"
        finally:
            conn.close()

    def test_client_surfaces_frame_corrupt_code(self):
        from repro.errors import code_table

        assert code_table()["RPC_FRAME_CORRUPT"] is FrameCorruptError
