"""Binary bulk framing (wire v2) and mixed-version interop.

Covers the PROTOCOLS §1.7 surface: the blob-hoisting codec, the framed
v2 payload, torn/oversized-frame handling (stable ``RPC_FRAME_CORRUPT``
code), and the HELLO negotiation matrix — a binary-capable client
against a JSON-only daemon and vice versa must converge on a working
wire, never a dead connection.
"""

from __future__ import annotations

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
    ThreadedDaemon,
    deserialize_binary,
    expose,
    serialize,
    serialize_binary,
)
from repro.rpc.protocol import (
    BINARY_VERSION,
    HEADER,
    MAGIC,
    MAX_PAYLOAD,
    VERSION,
    Message,
    MessageType,
    encode_message,
    parse_header,
)


@expose
class BulkService:
    """Echo plus bulk producers, for exercising both wire versions."""

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


@pytest.fixture()
def json_daemon():
    daemon = ThreadedDaemon(host="127.0.0.1")
    uri = daemon.register(BulkService(), object_id="Bulk")
    daemon.start_background()
    yield daemon, uri
    daemon.shutdown()


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
        msg = Message(
            MessageType.RESPONSE,
            7,
            {"result": np.arange(10.0)},
            version=BINARY_VERSION,
        )
        raw = encode_message(msg)
        version, msg_type, flags, seq, length = parse_header(raw[:16])
        assert (version, msg_type, seq) == (
            BINARY_VERSION,
            MessageType.RESPONSE,
            7,
        )
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


class TestVersionNegotiation:
    def test_auto_client_on_reactor_daemon_goes_binary(self, reactor_daemon):
        daemon, uri = reactor_daemon
        with Proxy(uri) as proxy:
            trace = proxy.wave(5000)
            assert proxy.wire_version == BINARY_VERSION
            assert trace.shape == (5000,)
            assert daemon.serving_mode == "reactor"

    def test_auto_client_on_json_daemon_falls_back(self, json_daemon):
        daemon, uri = json_daemon
        with Proxy(uri) as proxy:
            trace = proxy.wave(100)
            assert proxy.wire_version == VERSION
            np.testing.assert_allclose(trace[-1], 1.0)
            assert daemon.serving_mode == "threaded"

    def test_pinned_json_client_on_reactor_daemon(self, reactor_daemon):
        _, uri = reactor_daemon
        # an old peer never sends HELLO; the daemon must answer v1 frames
        # with v1 frames without any negotiation at all
        with Proxy(uri, binary=False) as proxy:
            assert proxy.wire_version == VERSION
            assert proxy.echo({"k": (1, 2)}) == {"k": (1, 2)}

    def test_required_binary_against_json_daemon_raises(self, json_daemon):
        _, uri = json_daemon
        with Proxy(uri, binary=True) as proxy:
            with pytest.raises(ProtocolError):
                proxy.echo(1)

    def test_negotiation_survives_reconnect(self, reactor_daemon):
        _, uri = reactor_daemon
        with Proxy(uri) as proxy:
            proxy.echo(1)
            assert proxy.wire_version == BINARY_VERSION
            proxy.close()  # drop the connection, keep the proxy
            assert proxy.echo(2) == 2
            assert proxy.wire_version == BINARY_VERSION

    def test_reconnect_to_downgraded_peer_renegotiates(self):
        # the endpoint's daemon is replaced between connections: a v2
        # reactor daemon settles the proxy on binary, then dies, and a
        # JSON-only ThreadedDaemon takes over the same host:port. The
        # cached v2 verdict must not be replayed at the new peer — the
        # next dial re-runs HELLO and settles on v1
        daemon = Daemon(host="127.0.0.1")
        daemon.register(BulkService(), object_id="Bulk")
        daemon.start_background()
        host, port = daemon.address
        uri = f"PYRO:Bulk@{host}:{port}"
        proxy = Proxy(uri)
        successor = None
        try:
            proxy.echo(1)
            assert proxy.wire_version == BINARY_VERSION
            daemon.shutdown()

            successor = ThreadedDaemon(host=host, port=port)
            successor.register(BulkService(), object_id="Bulk")
            successor.start_background()
            # the stale socket fails once; the redial must renegotiate
            with pytest.raises(Exception):
                proxy.echo(2)
            assert proxy.echo(3) == 3
            assert proxy.wire_version == VERSION
            trace = proxy.wave(100)
            np.testing.assert_allclose(trace[-1], 1.0)
        finally:
            proxy.close()
            daemon.shutdown()
            if successor is not None:
                successor.shutdown()

    def test_bulk_payloads_identical_across_versions(
        self, reactor_daemon, json_daemon
    ):
        _, v2_uri = reactor_daemon
        _, v1_uri = json_daemon
        with Proxy(v2_uri) as new, Proxy(v1_uri) as old:
            a, b = new.table(256), old.table(256)
            np.testing.assert_array_equal(a["potential_v"], b["potential_v"])
            np.testing.assert_array_equal(a["current_a"], b["current_a"])
            assert a["raw"] == b["raw"] == b"header"

    def test_pipelined_bulk_reads_over_binary(self, reactor_daemon):
        _, uri = reactor_daemon
        with Proxy(uri, max_inflight=8) as proxy:
            with proxy.pipeline() as pipe:
                pending = [pipe.call("chunk", 4096) for _ in range(16)]
                chunks = [p.result() for p in pending]
            # checked before close(): closing forgets the negotiation so
            # the next dial re-HELLOs (the peer may have been replaced)
            assert proxy.wire_version == BINARY_VERSION
        assert all(c == b"\xa5" * 4096 for c in chunks)


class TestCorruptFramesOverTheWire:
    def test_daemon_replies_frame_corrupt_then_closes(self, reactor_daemon):
        from repro.rpc.transport import connect_tcp
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
                    BINARY_VERSION,
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
