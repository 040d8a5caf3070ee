"""RPC2's baseline: a thread-per-connection daemon on the all-JSON wire.

A frozen copy of how the package served before its selector reactor and
binary wire, kept only so that ``test_bench_rpc_throughput.py`` still
prices the same two servers:

- every frame is wire version 1: the 16-byte header of
  :mod:`repro.rpc.protocol` with version byte 1, and a payload of
  type-tagged JSON (:func:`repro.rpc.serialization.serialize`), so bulk
  ndarrays and bytes travel base64'd inside the JSON;
- :class:`ThreadedJSONDaemon` serves each connection from a blocking
  reader thread, and shares the dispatch core (verbs, ``@expose``,
  dedup) with :class:`~repro.rpc.Daemon`, so only the serving core and
  the wire format differ;
- :class:`JSONProxy` is its client: one connection, and a burst sends
  every request before it reads the first reply, as a pipelined proxy
  with a window as deep as the burst does.

The package itself speaks only version 2 and rejects these frames.
"""

from __future__ import annotations

import threading
from typing import Any

from repro.errors import (
    CommunicationError,
    ConnectionClosedError,
    ProtocolError,
    SerializationError,
)
from repro.rpc import Daemon
from repro.rpc.naming import parse_uri
from repro.rpc.protocol import (
    HEADER,
    HEADER_SIZE,
    MAGIC,
    Message,
    MessageType,
    request_body,
)
from repro.rpc.serialization import deserialize, serialize
from repro.rpc.transport import connect_tcp

JSON_VERSION = 1


def encode_json_frame(msg: Message) -> bytes:
    payload = serialize(msg.body)
    header = HEADER.pack(
        MAGIC, JSON_VERSION, int(msg.msg_type), msg.flags, msg.seq, len(payload)
    )
    return header + payload


def recv_json_frame(conn: Any) -> Message:
    magic, version, raw_type, flags, seq, length = HEADER.unpack(
        conn.recv_exactly(HEADER_SIZE)
    )
    if magic != MAGIC or version != JSON_VERSION:
        raise ProtocolError(f"not a JSON-wire frame: {magic!r} version {version}")
    payload = conn.recv_exactly(length) if length else b""
    return Message(MessageType(raw_type), seq, deserialize(payload), flags)


class _JSONConnection:
    """The dispatch core's reply surface on a blocking connection."""

    def __init__(self, conn: Any):
        self.conn = conn
        self.peer = conn.peer
        self.data: dict[str, Any] = {}
        self._send_lock = threading.Lock()

    def reply(self, msg: Message) -> None:
        with self._send_lock:
            self.conn.sendall(encode_json_frame(msg))


class ThreadedJSONDaemon(Daemon):
    """A reader thread per connection, JSON frames only."""

    def _listener_selectable(self) -> bool:
        return False  # serve TCP from a blocking accept loop too

    def _serve_connection(self, conn: Any) -> None:
        client = _JSONConnection(conn)
        try:
            while self._running.is_set():
                try:
                    msg = recv_json_frame(conn)
                except ConnectionClosedError:
                    break
                except (ProtocolError, SerializationError) as exc:
                    self._try_reply_error(client, 0, exc)
                    break
                try:
                    self._handle_message(client, msg)
                except (CommunicationError, ConnectionClosedError, OSError):
                    break
        finally:
            conn.close()
            with self._lock:
                self._open_connections.discard(conn)


class JSONProxy:
    """Client of :class:`ThreadedJSONDaemon`: ``proxy.echo(x)`` calls
    ``echo`` remotely, :meth:`call_many` sends a burst."""

    def __init__(self, uri: str, timeout: float = 10.0):
        parsed = parse_uri(uri)
        self._object_id = parsed.object_id
        self._conn = connect_tcp(parsed.host, parsed.port, timeout=timeout)
        self._conn.settimeout(timeout)
        self._seq = 0

    def call_many(self, method: str, calls: list[tuple]) -> list[Any]:
        """Send one REQUEST per argument tuple, then collect the replies."""
        seqs = []
        for args in calls:
            self._seq += 1
            body = request_body(self._object_id, method, args, {})
            self._conn.sendall(
                encode_json_frame(Message(MessageType.REQUEST, self._seq, body))
            )
            seqs.append(self._seq)
        replies = {}
        for _ in seqs:
            msg = recv_json_frame(self._conn)
            replies[msg.seq] = msg
        return [self._result(replies[seq]) for seq in seqs]

    @staticmethod
    def _result(msg: Message) -> Any:
        if msg.msg_type is MessageType.ERROR:
            raise RuntimeError(f"{msg.body['error_type']}: {msg.body['message']}")
        return msg.body["result"]

    def __getattr__(self, method: str):
        if method.startswith("_"):
            raise AttributeError(method)
        return lambda *args: self.call_many(method, [args])[0]

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "JSONProxy":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
