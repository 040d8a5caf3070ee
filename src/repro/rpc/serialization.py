"""Wire serialisation: JSON with explicit type tags, no pickle.

The control channel crosses facility boundaries, so the format must be safe
to deserialise from an untrusted peer: only plain data types are
reconstructed, never arbitrary classes. Every frame's payload is the
binary form (:func:`serialize_binary`): a tagged-JSON envelope with bulk
values hoisted out as raw blobs. The all-JSON form (:func:`serialize`),
where NumPy arrays travel as base64 raw buffers with dtype and shape, is
the dedup journal's body encoding (``repro-journal-1``).

Supported round-trip types:

- JSON natives: None, bool, int, float (including nan/inf), str, list, dict
  with string keys;
- tagged extensions: bytes, bytearray, tuple, set, frozenset, complex,
  numpy scalars and ndarrays (C-contiguous copy taken on encode), and dicts
  with non-string keys.

Anything else raises :class:`SerializationError` on encode; unknown tags
raise it on decode.
"""

from __future__ import annotations

import base64
import json
import struct
from typing import Any

import numpy as np

from repro.errors import SerializationError

_TAG = "__repro_type__"

# dtypes we are willing to reconstruct; object/void dtypes would be a
# deserialisation gadget, so they are rejected on both sides.
_SAFE_DTYPE_KINDS = frozenset("biufc")  # bool, int, uint, float, complex


def _encode(obj: Any, depth: int = 0) -> Any:
    """Recursively convert ``obj`` into JSON-compatible structures."""
    if depth > 64:
        raise SerializationError("value nesting exceeds maximum depth of 64")
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        # json emits bare NaN/Infinity tokens which are not strict JSON;
        # tag them so decode is symmetric and the payload stays standard.
        if obj != obj or obj in (float("inf"), float("-inf")):
            return {_TAG: "float", "repr": repr(obj)}
        return obj
    if isinstance(obj, (bytes, bytearray)):
        return {_TAG: "bytes", "data": base64.b64encode(bytes(obj)).decode("ascii")}
    if isinstance(obj, tuple):
        return {_TAG: "tuple", "items": [_encode(v, depth + 1) for v in obj]}
    if isinstance(obj, (set, frozenset)):
        tag = "frozenset" if isinstance(obj, frozenset) else "set"
        return {_TAG: tag, "items": [_encode(v, depth + 1) for v in obj]}
    if isinstance(obj, complex):
        return {_TAG: "complex", "real": obj.real, "imag": obj.imag}
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind not in _SAFE_DTYPE_KINDS:
            raise SerializationError(
                f"refusing to serialise ndarray of dtype {obj.dtype} "
                f"(kind {obj.dtype.kind!r}); only numeric dtypes travel"
            )
        contiguous = np.ascontiguousarray(obj)
        return {
            _TAG: "ndarray",
            "dtype": contiguous.dtype.str,
            "shape": list(contiguous.shape),
            "data": base64.b64encode(contiguous.tobytes()).decode("ascii"),
        }
    if isinstance(obj, np.generic):
        return _encode(obj.item(), depth)
    if isinstance(obj, dict):
        if all(isinstance(k, str) for k in obj):
            if _TAG in obj:
                # A user dict that collides with our tag key must be escaped
                # or it would decode as an extension type.
                return {
                    _TAG: "dict",
                    "items": [
                        [_encode(k, depth + 1), _encode(v, depth + 1)]
                        for k, v in obj.items()
                    ],
                }
            return {k: _encode(v, depth + 1) for k, v in obj.items()}
        return {
            _TAG: "dict",
            "items": [
                [_encode(k, depth + 1), _encode(v, depth + 1)]
                for k, v in obj.items()
            ],
        }
    if isinstance(obj, list):
        return [_encode(v, depth + 1) for v in obj]
    raise SerializationError(
        f"type {type(obj).__name__} is not serialisable over the control channel"
    )


def _decode(obj: Any) -> Any:
    """Inverse of :func:`_encode`."""
    if isinstance(obj, list):
        return [_decode(v) for v in obj]
    if isinstance(obj, dict):
        tag = obj.get(_TAG)
        if tag is None:
            return {k: _decode(v) for k, v in obj.items()}
        if tag == "float":
            value = obj["repr"]
            if value not in ("nan", "inf", "-inf"):
                raise SerializationError(f"bad special float repr: {value!r}")
            return float(value)
        if tag == "bytes":
            return base64.b64decode(obj["data"].encode("ascii"))
        if tag == "tuple":
            return tuple(_decode(v) for v in obj["items"])
        if tag == "set":
            return set(_decode(v) for v in obj["items"])
        if tag == "frozenset":
            return frozenset(_decode(v) for v in obj["items"])
        if tag == "complex":
            return complex(obj["real"], obj["imag"])
        if tag == "dict":
            return {_decode(k): _decode(v) for k, v in obj["items"]}
        if tag == "ndarray":
            dtype = np.dtype(obj["dtype"])
            if dtype.kind not in _SAFE_DTYPE_KINDS:
                raise SerializationError(
                    f"refusing to deserialise ndarray dtype {dtype}"
                )
            raw = base64.b64decode(obj["data"].encode("ascii"))
            shape = tuple(int(n) for n in obj["shape"])
            expected = dtype.itemsize * int(np.prod(shape, dtype=np.int64)) if shape else dtype.itemsize
            count = int(np.prod(shape, dtype=np.int64))
            if len(raw) != dtype.itemsize * count:
                raise SerializationError(
                    f"ndarray payload length {len(raw)} does not match "
                    f"shape {shape} dtype {dtype} (expected {expected})"
                )
            array = np.frombuffer(raw, dtype=dtype).reshape(shape)
            return array.copy()  # writable, decoupled from the buffer
        raise SerializationError(f"unknown serialisation tag: {tag!r}")
    return obj


# --------------------------------------------------------------------------
# Binary bulk framing (the wire payload, PROTOCOLS §1.7)
# --------------------------------------------------------------------------
#
# The JSON path above base64-encodes every measurement array — a 10k-point
# voltammogram pays an encode, a 33% inflation, and a decode per hop. The
# binary payload keeps the structural envelope as JSON but hoists every
# bulk value (ndarray, bytes) out into raw blobs appended after it:
#
#     offset  size  field
#     0       4     envelope length E (big-endian u32)
#     4       E     envelope: UTF-8 JSON {"body": ..., "blobs": [len, ...]}
#     4+E     *     blob 0, blob 1, ... (raw buffers, concatenated)
#
# Inside the envelope a hoisted value is a placeholder tag:
#     {"__repro_type__": "blob", "i": 0, "kind": "bytes"}
#     {"__repro_type__": "blob", "i": 1, "kind": "ndarray",
#      "dtype": "<f8", "shape": [10000]}
#
# Encode gathers memoryviews (no base64, no copy until the final frame
# assembly); decode reconstructs ndarrays straight off the received
# buffer with one memcpy for writability. Structural damage — envelope
# or blob table overrunning the payload, negative lengths, unknown blob
# index — raises :class:`~repro.errors.FrameCorruptError` so a torn
# binary frame surfaces as a stable ``RPC_FRAME_CORRUPT`` error instead
# of a JSON parse failure.

_ENVELOPE_LEN = struct.Struct("!I")


def _encode_hoisting(obj: Any, blobs: list[Any], depth: int = 0) -> Any:
    """Like :func:`_encode` but hoists bulk values into ``blobs``."""
    if depth > 64:
        raise SerializationError("value nesting exceeds maximum depth of 64")
    if isinstance(obj, (bytes, bytearray, memoryview)):
        blobs.append(bytes(obj) if isinstance(obj, memoryview) else obj)
        return {_TAG: "blob", "i": len(blobs) - 1, "kind": "bytes"}
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind not in _SAFE_DTYPE_KINDS:
            raise SerializationError(
                f"refusing to serialise ndarray of dtype {obj.dtype} "
                f"(kind {obj.dtype.kind!r}); only numeric dtypes travel"
            )
        contiguous = np.ascontiguousarray(obj)
        blobs.append(contiguous)
        return {
            _TAG: "blob",
            "i": len(blobs) - 1,
            "kind": "ndarray",
            "dtype": contiguous.dtype.str,
            "shape": list(contiguous.shape),
        }
    if isinstance(obj, tuple):
        return {
            _TAG: "tuple",
            "items": [_encode_hoisting(v, blobs, depth + 1) for v in obj],
        }
    if isinstance(obj, (set, frozenset)):
        tag = "frozenset" if isinstance(obj, frozenset) else "set"
        return {
            _TAG: tag,
            "items": [_encode_hoisting(v, blobs, depth + 1) for v in obj],
        }
    if isinstance(obj, dict):
        if all(isinstance(k, str) for k in obj) and _TAG not in obj:
            return {k: _encode_hoisting(v, blobs, depth + 1) for k, v in obj.items()}
        return {
            _TAG: "dict",
            "items": [
                [_encode_hoisting(k, blobs, depth + 1),
                 _encode_hoisting(v, blobs, depth + 1)]
                for k, v in obj.items()
            ],
        }
    if isinstance(obj, list):
        return [_encode_hoisting(v, blobs, depth + 1) for v in obj]
    # scalars, special floats, complex, numpy scalars: the JSON encoder
    # already handles them without bulk cost
    return _encode(obj, depth)


def _decode_with_blobs(obj: Any, blobs: list[memoryview]) -> Any:
    """Inverse of :func:`_encode_hoisting`."""
    if isinstance(obj, list):
        return [_decode_with_blobs(v, blobs) for v in obj]
    if isinstance(obj, dict):
        tag = obj.get(_TAG)
        if tag == "blob":
            from repro.errors import FrameCorruptError

            index = obj.get("i")
            if not isinstance(index, int) or not 0 <= index < len(blobs):
                raise FrameCorruptError(
                    f"binary envelope references blob {index!r} "
                    f"but the frame carries {len(blobs)}"
                )
            raw = blobs[index]
            kind = obj.get("kind")
            if kind == "bytes":
                return bytes(raw)
            if kind == "ndarray":
                dtype = np.dtype(obj["dtype"])
                if dtype.kind not in _SAFE_DTYPE_KINDS:
                    raise SerializationError(
                        f"refusing to deserialise ndarray dtype {dtype}"
                    )
                shape = tuple(int(n) for n in obj["shape"])
                count = int(np.prod(shape, dtype=np.int64))
                if len(raw) != dtype.itemsize * count:
                    raise FrameCorruptError(
                        f"blob {index} length {len(raw)} does not match "
                        f"ndarray shape {shape} dtype {dtype}"
                    )
                # frombuffer is zero-copy off the frame; one memcpy buys
                # writability and decouples the value from the buffer
                return np.frombuffer(raw, dtype=dtype).reshape(shape).copy()
            raise FrameCorruptError(f"unknown blob kind {kind!r}")
        if tag == "tuple":
            return tuple(_decode_with_blobs(v, blobs) for v in obj["items"])
        if tag == "set":
            return set(_decode_with_blobs(v, blobs) for v in obj["items"])
        if tag == "frozenset":
            return frozenset(_decode_with_blobs(v, blobs) for v in obj["items"])
        if tag == "dict":
            return {
                _decode_with_blobs(k, blobs): _decode_with_blobs(v, blobs)
                for k, v in obj["items"]
            }
        if tag is None:
            return {k: _decode_with_blobs(v, blobs) for k, v in obj.items()}
        return _decode(obj)
    return _decode(obj)


def serialize_binary(obj: Any) -> list[bytes]:
    """Encode a value into binary-payload parts (envelope + raw blobs).

    Returns the frame payload as a list of buffers so the caller can
    assemble header + envelope + blobs with a single join — bulk data
    is never base64'd and is copied at most once on its way to the
    wire.
    """
    blobs: list[Any] = []
    try:
        envelope_body = _encode_hoisting(obj, blobs)
        envelope = json.dumps(
            {
                "body": envelope_body,
                "blobs": [
                    b.nbytes if isinstance(b, np.ndarray) else len(b)
                    for b in blobs
                ],
            },
            separators=(",", ":"),
            allow_nan=False,
        ).encode("utf-8")
    except SerializationError:
        raise
    except (TypeError, ValueError) as exc:
        raise SerializationError(f"cannot serialise value: {exc}") from exc
    parts: list[bytes] = [_ENVELOPE_LEN.pack(len(envelope)), envelope]
    for blob in blobs:
        if isinstance(blob, np.ndarray):
            # cast to a flat byte view so len(part) is nbytes, not the
            # leading-dimension element count
            parts.append(blob.data.cast("B") if blob.nbytes else b"")
        else:
            parts.append(bytes(blob))
    return parts


def deserialize_binary(data: bytes) -> Any:
    """Decode a binary payload produced by :func:`serialize_binary`.

    Raises:
        FrameCorruptError: the envelope or blob table overruns the
            payload (torn frame), or a blob reference is invalid.
        SerializationError: the envelope is not valid JSON or carries a
            malformed type tag.
    """
    from repro.errors import FrameCorruptError

    view = memoryview(data)
    if len(view) < _ENVELOPE_LEN.size:
        raise FrameCorruptError(
            f"binary payload of {len(view)} bytes is shorter than its "
            "envelope-length prefix"
        )
    (envelope_len,) = _ENVELOPE_LEN.unpack_from(view, 0)
    end = _ENVELOPE_LEN.size + envelope_len
    if end > len(view):
        raise FrameCorruptError(
            f"binary envelope of {envelope_len} bytes overruns the "
            f"{len(view)}-byte payload (torn frame)"
        )
    try:
        envelope = json.loads(bytes(view[_ENVELOPE_LEN.size:end]).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SerializationError(f"cannot parse binary envelope: {exc}") from exc
    if not isinstance(envelope, dict) or "body" not in envelope:
        raise FrameCorruptError("binary envelope missing its body")
    lengths = envelope.get("blobs", [])
    if not isinstance(lengths, list) or not all(
        isinstance(n, int) and n >= 0 for n in lengths
    ):
        raise FrameCorruptError(f"malformed blob table: {lengths!r}")
    blobs: list[memoryview] = []
    offset = end
    for length in lengths:
        if offset + length > len(view):
            raise FrameCorruptError(
                f"blob table declares {sum(lengths)} bytes but only "
                f"{len(view) - end} follow the envelope (torn frame)"
            )
        blobs.append(view[offset:offset + length])
        offset += length
    if offset != len(view):
        raise FrameCorruptError(
            f"{len(view) - offset} trailing bytes after the last blob"
        )
    return _decode_with_blobs(envelope["body"], blobs)


def serialize(obj: Any) -> bytes:
    """Encode a value to wire bytes (UTF-8 JSON)."""
    try:
        return json.dumps(
            _encode(obj), separators=(",", ":"), allow_nan=False
        ).encode("utf-8")
    except SerializationError:
        raise
    except (TypeError, ValueError) as exc:
        raise SerializationError(f"cannot serialise value: {exc}") from exc


def deserialize(data: bytes) -> Any:
    """Decode wire bytes back to a value.

    Raises:
        SerializationError: payload is not valid UTF-8 JSON or carries an
            unknown/malformed type tag.
    """
    try:
        parsed = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SerializationError(f"cannot parse wire payload: {exc}") from exc
    return _decode(parsed)
