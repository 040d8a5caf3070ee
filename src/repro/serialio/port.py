"""In-memory serial endpoints connected back-to-back like a null-modem cable.

Semantics follow pyserial's ``Serial`` closely enough that the J-Kem and
SP200 drivers written against this module would port to real hardware by
swapping the constructor:

- ``write`` appends to the peer's receive buffer and returns the byte count;
- ``read(n)`` blocks until at least one byte is available or the timeout
  expires, then returns up to ``n`` bytes (pyserial behaviour);
- ``read_until(terminator)`` accumulates until the terminator or timeout,
  scanning whatever is buffered under one lock per wait; bytes after the
  terminator stay buffered for the next read;
- closing either end makes further I/O raise :class:`PortNotOpenError`, and
  a blocked reader on the other end gets whatever is buffered then EOF-style
  empty bytes.

A per-direction byte-rate limit can be set to emulate slow UARTs.
"""

from __future__ import annotations

import threading

from repro.errors import PortNotOpenError, SerialTimeoutError


class _Pipe:
    """One direction of the cable: a byte queue with condition variable."""

    def __init__(self) -> None:
        self.buffer = bytearray()
        self.lock = threading.Lock()
        self.data_available = threading.Condition(self.lock)
        self.closed = False

    def push(self, data: bytes) -> None:
        with self.data_available:
            self.buffer += data
            self.data_available.notify_all()

    def close(self) -> None:
        with self.data_available:
            self.closed = True
            self.data_available.notify_all()


class SerialEndpoint:
    """One end of a virtual serial cable.

    Attributes:
        name: port name, e.g. ``"COM3"`` or ``"/dev/ttyUSB0"``.
        timeout: default read timeout in seconds (None blocks forever).
    """

    def __init__(
        self,
        name: str,
        rx: _Pipe,
        tx: _Pipe,
        timeout: float | None = 1.0,
    ):
        self.name = name
        self.timeout = timeout
        self._rx = rx
        self._tx = tx
        self._open = True

    # -- lifecycle ---------------------------------------------------------
    @property
    def is_open(self) -> bool:
        return self._open

    def close(self) -> None:
        """Close this end; the peer sees EOF on subsequent reads."""
        if self._open:
            self._open = False
            self._tx.close()
            self._rx.close()

    def __enter__(self) -> "SerialEndpoint":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _require_open(self) -> None:
        if not self._open:
            raise PortNotOpenError(f"port {self.name} is closed")

    # -- writing -----------------------------------------------------------
    def write(self, data: bytes) -> int:
        """Send bytes to the peer. Returns the number of bytes written."""
        self._require_open()
        if not isinstance(data, (bytes, bytearray)):
            raise TypeError(f"write() expects bytes, got {type(data).__name__}")
        if self._tx.closed:
            raise PortNotOpenError(f"peer of {self.name} is closed")
        self._tx.push(bytes(data))
        return len(data)

    # -- reading -----------------------------------------------------------
    def in_waiting(self) -> int:
        """Bytes currently buffered for reading."""
        self._require_open()
        with self._rx.lock:
            return len(self._rx.buffer)

    def read(self, size: int = 1, timeout: float | None = ...) -> bytes:  # type: ignore[assignment]
        """Read up to ``size`` bytes.

        Blocks until at least one byte is available, the port timeout
        expires (returning whatever arrived, possibly ``b""``), or the peer
        closes (returning buffered bytes then ``b""``).
        """
        self._require_open()
        if size <= 0:
            return b""
        effective_timeout = self.timeout if timeout is ... else timeout
        rx = self._rx
        with rx.data_available:
            if not rx.buffer and not rx.closed:
                rx.data_available.wait(timeout=effective_timeout)
            data = bytes(rx.buffer[:size])
            del rx.buffer[:size]
            return data

    def read_exactly(self, size: int, timeout: float | None = ...) -> bytes:  # type: ignore[assignment]
        """Read exactly ``size`` bytes or raise :class:`SerialTimeoutError`."""
        chunks: list[bytes] = []
        remaining = size
        while remaining > 0:
            chunk = self.read(remaining, timeout=timeout)
            if not chunk:
                raise SerialTimeoutError(
                    f"read_exactly({size}) on {self.name} got only "
                    f"{size - remaining} bytes before timeout/EOF"
                )
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    def read_until(
        self,
        terminator: bytes = b"\n",
        max_bytes: int = 65536,
        timeout: float | None = ...,  # type: ignore[assignment]
    ) -> bytes:
        """Read until ``terminator`` is seen (inclusive) or timeout/EOF.

        Each wait, like one :meth:`read`, lasts up to the timeout; what is
        buffered then is scanned under that one lock. Bytes after the
        terminator stay buffered.

        Raises:
            SerialTimeoutError: terminator not seen before timeout or EOF.
            ProtocolError-like ValueError: no terminator within
                ``max_bytes + 1`` bytes (those bytes are consumed).
        """
        if not terminator:
            raise ValueError("terminator must be non-empty")
        self._require_open()
        effective_timeout = self.timeout if timeout is ... else timeout
        limit = max_bytes + 1  # the longest reply that may still end well
        rx = self._rx
        accumulated = bytearray()
        with rx.data_available:
            while True:
                if not rx.buffer and not rx.closed:
                    rx.data_available.wait(timeout=effective_timeout)
                if not rx.buffer:
                    raise SerialTimeoutError(
                        f"read_until({terminator!r}) on {self.name} timed out "
                        f"after {len(accumulated)} bytes"
                    )
                # a terminator split across two writes straddles the seam
                start = max(0, len(accumulated) - len(terminator) + 1)
                taken = len(accumulated)
                accumulated += rx.buffer[: limit - taken]
                found = accumulated.find(terminator, start)
                end = found + len(terminator) if found >= 0 else len(accumulated)
                del accumulated[end:]
                del rx.buffer[: end - taken]
                if found >= 0:
                    return bytes(accumulated)
                if len(accumulated) >= limit:
                    raise ValueError(
                        f"read_until exceeded max_bytes={max_bytes} on {self.name}"
                    )

    def reset_input_buffer(self) -> None:
        """Discard everything buffered for reading."""
        self._require_open()
        with self._rx.lock:
            self._rx.buffer.clear()


def create_port_pair(
    name: str = "COM1",
    timeout: float | None = 1.0,
) -> tuple[SerialEndpoint, SerialEndpoint]:
    """Create both ends of a virtual serial cable.

    Returns ``(host_end, device_end)``; names are suffixed ``:host`` /
    ``:device`` for log readability.
    """
    a_to_b = _Pipe()
    b_to_a = _Pipe()
    host = SerialEndpoint(f"{name}:host", rx=b_to_a, tx=a_to_b, timeout=timeout)
    device = SerialEndpoint(f"{name}:device", rx=a_to_b, tx=b_to_a, timeout=timeout)
    return host, device
