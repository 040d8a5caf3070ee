"""Transport abstraction under the RPC protocol.

Two implementations exist:

- real TCP (this module) for live cross-host operation and the integration
  tests/benchmarks;
- the simulated ICE network (:mod:`repro.net.simtransport`) which routes the
  same frames through the modelled topology, charging latency/bandwidth and
  enforcing firewall rules.

Both expose the same minimal surface — :class:`Listener` producing
:class:`Connection` objects with ``sendall`` / ``recv_exactly`` — so the
daemon and proxy are transport-agnostic.
"""

from __future__ import annotations

import socket

from repro.errors import (
    CallTimeoutError,
    CommunicationError,
    ConnectionClosedError,
)


class Connection:
    """Bidirectional ordered byte stream."""

    def sendall(self, data: bytes) -> None:
        raise NotImplementedError

    def recv_exactly(self, size: int) -> bytes:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    def settimeout(self, timeout: float | None) -> None:
        """Set the blocking-read deadline; None means block forever."""
        raise NotImplementedError

    @property
    def peer(self) -> str:
        """Human-readable peer address for logs."""
        return "?"

    def fileno(self) -> int:
        """OS-level descriptor, when the transport has one.

        Raises :class:`OSError` for purely in-process transports (the
        simulated network's byte pipes) — the daemon probes this to
        decide between the selector reactor and threaded serving.
        """
        raise OSError("transport has no OS file descriptor")


class Listener:
    """Accepts inbound connections on a bound address."""

    def accept(self) -> Connection:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    @property
    def address(self) -> tuple[str, int]:
        """(host, port) the listener is bound to."""
        raise NotImplementedError


# --------------------------------------------------------------------------
# TCP implementation
# --------------------------------------------------------------------------
class TCPConnection(Connection):
    """A connected TCP socket with framed-read support."""

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        try:
            self._peer = "%s:%d" % self._sock.getpeername()[:2]
        except OSError:
            self._peer = "?"

    def sendall(self, data: bytes) -> None:
        try:
            self._sock.sendall(data)
        except OSError as exc:
            raise ConnectionClosedError(f"send to {self._peer} failed: {exc}") from exc

    def recv_exactly(self, size: int) -> bytes:
        chunks: list[bytes] = []
        remaining = size
        while remaining > 0:
            try:
                chunk = self._sock.recv(min(remaining, 65536))
            except socket.timeout as exc:
                raise CallTimeoutError(
                    f"read from {self._peer} timed out with {remaining} bytes pending"
                ) from exc
            except OSError as exc:
                raise ConnectionClosedError(
                    f"read from {self._peer} failed: {exc}"
                ) from exc
            if not chunk:
                raise ConnectionClosedError(
                    f"{self._peer} closed the connection with {remaining} bytes pending"
                )
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()

    def settimeout(self, timeout: float | None) -> None:
        self._sock.settimeout(timeout)

    @property
    def peer(self) -> str:
        return self._peer

    # -- non-blocking surface for the reactor ------------------------------
    def fileno(self) -> int:
        return self._sock.fileno()

    def setblocking(self, flag: bool) -> None:
        self._sock.setblocking(flag)

    def try_recv(self, size: int) -> bytes | None:
        """Non-blocking read: bytes, or None when no data is ready.

        Raises:
            ConnectionClosedError: the peer closed or the socket died.
        """
        try:
            chunk = self._sock.recv(size)
        except (BlockingIOError, InterruptedError):
            return None
        except OSError as exc:
            raise ConnectionClosedError(
                f"read from {self._peer} failed: {exc}"
            ) from exc
        if not chunk:
            raise ConnectionClosedError(f"{self._peer} closed the connection")
        return chunk

    def try_send(self, data: bytes | memoryview) -> int:
        """Non-blocking write: bytes accepted (0 when the buffer is full).

        Raises:
            ConnectionClosedError: the peer closed or the socket died.
        """
        try:
            return self._sock.send(data)
        except (BlockingIOError, InterruptedError):
            return 0
        except OSError as exc:
            raise ConnectionClosedError(
                f"send to {self._peer} failed: {exc}"
            ) from exc


class TCPListener(Listener):
    """Bound, listening TCP socket."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0, backlog: int = 32):
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            self._sock.bind((host, port))
        except OSError as exc:
            self._sock.close()
            raise CommunicationError(f"cannot bind {host}:{port}: {exc}") from exc
        self._sock.listen(backlog)
        self._address = self._sock.getsockname()[:2]

    def accept(self) -> TCPConnection:
        try:
            sock, _addr = self._sock.accept()
        except OSError as exc:
            raise ConnectionClosedError(f"listener closed: {exc}") from exc
        return TCPConnection(sock)

    def try_accept(self) -> TCPConnection | None:
        """Non-blocking accept: a connection, or None when none is pending."""
        try:
            sock, _addr = self._sock.accept()
        except (BlockingIOError, InterruptedError):
            return None
        except OSError as exc:
            raise ConnectionClosedError(f"listener closed: {exc}") from exc
        return TCPConnection(sock)

    def close(self) -> None:
        # shutdown() first: on Linux, close() alone leaves a thread
        # blocked in accept() asleep
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()

    def fileno(self) -> int:
        return self._sock.fileno()

    def setblocking(self, flag: bool) -> None:
        self._sock.setblocking(flag)

    @property
    def address(self) -> tuple[str, int]:
        return self._address


def connect_tcp(host: str, port: int, timeout: float | None = 5.0) -> TCPConnection:
    """Open a client connection to ``host:port``."""
    try:
        sock = socket.create_connection((host, port), timeout=timeout)
    except socket.timeout as exc:
        raise CallTimeoutError(
            f"connect to {host}:{port} timed out after {timeout}s"
        ) from exc
    except OSError as exc:
        raise CommunicationError(f"cannot connect to {host}:{port}: {exc}") from exc
    sock.settimeout(None)
    return TCPConnection(sock)
