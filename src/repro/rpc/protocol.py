"""Binary frame protocol carried over the control-channel transport.

Every message is one frame::

    offset  size  field
    0       4     magic  b"RICE"  (Repro Instrument-Computing Ecosystem)
    4       1     version (2)
    5       1     message type
    6       2     flags
    8       4     sequence id (request/response correlation)
    12      4     payload length N
    16      N     payload (see repro.rpc.serialization)

The fixed 16-byte header keeps parsing trivial and lets either side reject
garbage immediately (wrong magic, wrong version) instead of
desynchronising.

There is one wire version (PROTOCOLS §1.7): the payload is a binary bulk
frame (``serialize_binary``), a JSON envelope followed by raw blobs, so
I-V arrays and mount chunks cross the wire without base64. Every peer
speaks it from its first frame; a frame carrying any other version byte
is rejected.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import IntEnum
from typing import Any, Protocol

from repro.errors import FrameCorruptError, ProtocolError
from repro.rpc.serialization import deserialize_binary, serialize_binary

MAGIC = b"RICE"
VERSION = 2  # binary bulk payload, the only wire version
HEADER = struct.Struct("!4sBBHII")
HEADER_SIZE = HEADER.size  # 16
MAX_PAYLOAD = 256 * 1024 * 1024  # defensive cap: 256 MiB

FLAG_ONEWAY = 0x0001


class MessageType(IntEnum):
    """Frame discriminator."""

    REQUEST = 1
    RESPONSE = 2
    ERROR = 3
    PING = 4
    PONG = 5
    METADATA = 6
    CHALLENGE = 7  # server -> client: authenticate before anything else
    AUTH = 8  # client -> server: HMAC over the challenge nonce


class Stream(Protocol):
    """What the protocol needs from a transport connection."""

    def sendall(self, data: bytes) -> None: ...

    def recv_exactly(self, size: int) -> bytes: ...


@dataclass(frozen=True)
class Message:
    """A decoded frame."""

    msg_type: MessageType
    seq: int
    body: Any
    flags: int = 0

    @property
    def oneway(self) -> bool:
        return bool(self.flags & FLAG_ONEWAY)


def encode_message(msg: Message) -> bytes:
    """Serialise a message to one contiguous frame."""
    parts = serialize_binary(msg.body)
    length = sum(len(p) for p in parts)
    if length > MAX_PAYLOAD:
        raise ProtocolError(
            f"payload of {length} bytes exceeds MAX_PAYLOAD={MAX_PAYLOAD}"
        )
    header = HEADER.pack(
        MAGIC, VERSION, int(msg.msg_type), msg.flags, msg.seq, length
    )
    return b"".join([header, *parts])


def parse_header(header: bytes) -> tuple[MessageType, int, int, int]:
    """Validate a 16-byte header; returns (type, flags, seq, length).

    Shared by the blocking reader and the reactor's incremental parser
    so both reject garbage identically.

    Raises:
        ProtocolError: bad magic, unsupported version, unknown type.
        FrameCorruptError: declared payload exceeds MAX_PAYLOAD — that is
            indistinguishable from a torn length field, and either way
            the stream cannot be resynchronised.
    """
    magic, version, raw_type, flags, seq, length = HEADER.unpack(header)
    if magic != MAGIC:
        raise ProtocolError(f"bad frame magic {magic!r} (expected {MAGIC!r})")
    if version != VERSION:
        raise ProtocolError(f"unsupported protocol version {version}")
    try:
        msg_type = MessageType(raw_type)
    except ValueError as exc:
        raise ProtocolError(f"unknown message type {raw_type}") from exc
    if length > MAX_PAYLOAD:
        raise FrameCorruptError(
            f"declared payload {length} exceeds MAX_PAYLOAD={MAX_PAYLOAD}"
        )
    return msg_type, flags, seq, length


def decode_frame(
    msg_type: MessageType, flags: int, seq: int, payload: bytes
) -> Message:
    """Build a Message from parsed header fields plus its raw payload."""
    return Message(
        msg_type=msg_type,
        seq=seq,
        body=deserialize_binary(payload),
        flags=flags,
    )


def send_message(stream: Stream, msg: Message) -> None:
    """Write one frame to the stream."""
    stream.sendall(encode_message(msg))


def recv_message(stream: Stream) -> Message:
    """Read one frame from the stream.

    Raises:
        ConnectionClosedError: peer closed before a full frame arrived.
        ProtocolError: bad magic, version, type, or oversized payload.
        FrameCorruptError: a binary payload was structurally damaged.
    """
    header = stream.recv_exactly(HEADER_SIZE)
    msg_type, flags, seq, length = parse_header(header)
    payload = stream.recv_exactly(length) if length else b""
    return decode_frame(msg_type, flags, seq, payload)


# --------------------------------------------------------------------------
# Body shapes (kept as plain dicts on the wire; helpers build/validate them)
# --------------------------------------------------------------------------
def request_body(
    object_id: str,
    method: str,
    args: tuple,
    kwargs: dict,
    idempotency_key: str | None = None,
    trace_context: dict[str, str] | None = None,
    lease: dict[str, Any] | None = None,
    tenant: str | None = None,
) -> dict[str, Any]:
    """Build a REQUEST body.

    ``idempotency_key`` is an optional client-chosen token identifying one
    *logical* call across retransmissions. A daemon that has already
    executed a request with the same key replays the recorded outcome
    instead of re-executing the method; daemons predating the field simply
    ignore the extra key (the body stays a plain dict), so the frame is
    backward-compatible on the wire.

    ``trace_context`` is an optional ``{"trace_id": ..., "span_id": ...}``
    carrier (see ``repro.obs.trace``) identifying the client-side span on
    whose behalf this request is made; a tracing daemon parents its
    dispatch span under it. Same compatibility story as ``idem``: absent
    for untraced calls, ignored by daemons that predate it.

    ``lease`` is an optional ``{"resource": ..., "epoch": ...}`` fencing
    token (see ``repro.durability.lease``) asserting which acquisition
    epoch of the named resource the caller holds; a daemon with a lease
    registry rejects stale epochs with ``LEASE_FENCED`` instead of
    dispatching. Daemons predating the field ignore it.

    ``tenant`` is an optional tenant identifier (PROTOCOLS §1.8): a
    gateway daemon attributes the request to that tenant's quotas and
    fair-share after checking the connection authenticated with the
    tenant's API key. Daemons predating the field ignore it.
    """
    body = {
        "object": object_id,
        "method": method,
        "args": list(args),
        "kwargs": kwargs,
    }
    if idempotency_key is not None:
        body["idem"] = idempotency_key
    if trace_context is not None:
        body["trace"] = trace_context
    if lease is not None:
        body["lease"] = lease
    if tenant is not None:
        body["tenant"] = tenant
    return body


def request_idempotency_key(body: Any) -> str | None:
    """Extract the optional idempotency key from a decoded REQUEST body."""
    if isinstance(body, dict):
        key = body.get("idem")
        if isinstance(key, str) and key:
            return key
    return None


def request_trace_context(body: Any) -> dict[str, str] | None:
    """Extract the optional trace carrier from a decoded REQUEST body.

    Returns the raw ``{"trace_id", "span_id"}`` dict when both fields are
    non-empty strings, else ``None`` — malformed observability metadata
    must never fail a request, so there is no error path here.
    """
    if isinstance(body, dict):
        carrier = body.get("trace")
        if (
            isinstance(carrier, dict)
            and isinstance(carrier.get("trace_id"), str)
            and isinstance(carrier.get("span_id"), str)
            and carrier["trace_id"]
            and carrier["span_id"]
        ):
            return {"trace_id": carrier["trace_id"], "span_id": carrier["span_id"]}
    return None


def request_lease(body: Any) -> dict[str, Any] | None:
    """Extract the optional lease token from a decoded REQUEST body.

    Returns ``{"resource": str, "epoch": int}`` when well-formed, else
    ``None``. Unlike trace metadata, a *malformed* lease is still
    ``None`` here — fencing only applies to clients that assert a lease,
    and asserting garbage is indistinguishable from asserting nothing.
    """
    if isinstance(body, dict):
        token = body.get("lease")
        if (
            isinstance(token, dict)
            and isinstance(token.get("resource"), str)
            and token["resource"]
            and isinstance(token.get("epoch"), int)
        ):
            return {"resource": token["resource"], "epoch": token["epoch"]}
    return None


def request_tenant(body: Any) -> str | None:
    """Extract the optional tenant id from a decoded REQUEST body.

    Returns the tenant id when it is a non-empty string, else ``None`` —
    tolerant like the other optional fields: a request without a tenant
    is simply not tenant-scoped, and gateways decide whether that is
    allowed.
    """
    if isinstance(body, dict):
        tenant = body.get("tenant")
        if isinstance(tenant, str) and tenant:
            return tenant
    return None


def validate_request_body(body: Any) -> tuple[str, str, list, dict]:
    """Check a decoded REQUEST body; returns (object_id, method, args, kwargs)."""
    if not isinstance(body, dict):
        raise ProtocolError(f"request body must be a dict, got {type(body).__name__}")
    try:
        object_id = body["object"]
        method = body["method"]
        args = body.get("args", [])
        kwargs = body.get("kwargs", {})
    except KeyError as exc:
        raise ProtocolError(f"request body missing field {exc}") from exc
    if not isinstance(object_id, str) or not isinstance(method, str):
        raise ProtocolError("request object id and method must be strings")
    if not isinstance(args, list) or not isinstance(kwargs, dict):
        raise ProtocolError("request args/kwargs have wrong container types")
    return object_id, method, args, kwargs


def error_body(
    error_type: str, message: str, traceback_text: str, code: str = ""
) -> dict[str, Any]:
    """Build an ERROR body.

    ``code`` is the machine-readable :attr:`repro.errors.ReproError.code`
    of the server-side exception when it was a :class:`ReproError`
    (empty for foreign exception types); clients surface it as
    ``RemoteInvocationError.remote_code``.
    """
    body = {
        "error_type": error_type,
        "message": message,
        "traceback": traceback_text,
    }
    if code:
        body["code"] = code
    return body
