"""The client side of the remote-object layer (paper Fig 3, client side).

A :class:`Proxy` dials the daemon named by a ``PYRO:`` URI and forwards
attribute calls::

    with Proxy("PYRO:ACL_Workstation@10.2.11.161:9690") as ws:
        ws.call_Initialize_SP200_API(params)

One proxy holds one connection; by default one call at a time is on the
wire (same contract as Pyro4 — share across threads or clone per
thread). Remote exceptions re-raise locally: known :mod:`repro.errors`
classes keep their type, anything else becomes
:class:`RemoteInvocationError` carrying the remote traceback.

Every frame takes one exchange path (``docs/PROTOCOLS.md`` §1.4): it
claims a slot of the in-flight window, registers in a waiter map keyed
by sequence id, and its reply is collected by whichever waiting thread
is reading. The default window of 1 is lockstep. A proxy built with
``max_inflight > 1`` pipelines: N calls cost one round trip plus N
executions instead of N round trips. Threads sharing the proxy overlap
automatically; a single thread can burst explicitly through
:meth:`Proxy.pipeline`. Callers that want truly independent connections
instead of a multiplexed one use :class:`ProxyPool`.
"""

from __future__ import annotations

import copy
import itertools
import threading
import uuid
from typing import Any, Callable

import repro.errors as _errors_module
from repro.errors import (
    CommunicationError,
    ProtocolError,
    RemoteInvocationError,
    ReproError,
)
from repro.rpc.context import current_tenant
from repro.rpc.naming import PyroURI, parse_uri
from repro.rpc.protocol import (
    BINARY_VERSION,
    FLAG_ONEWAY,
    VERSION,
    Message,
    MessageType,
    encode_message,
    hello_body,
    recv_message,
    request_body,
    send_message,
)
from repro.rpc.transport import Connection, connect_tcp


def _rebuild_remote_error(body: dict) -> Exception:
    """Map an ERROR frame body to the most faithful local exception."""
    error_type = body.get("error_type", "Exception")
    message = body.get("message", "")
    traceback_text = body.get("traceback", "")
    remote_code = body.get("code", "")
    candidate = getattr(_errors_module, error_type, None)
    if (
        isinstance(candidate, type)
        and issubclass(candidate, ReproError)
        and candidate.__init__ in (ReproError.__init__, Exception.__init__)
    ):
        return candidate(message)
    return RemoteInvocationError(
        f"remote call raised {error_type}: {message}",
        remote_type=error_type,
        remote_traceback=traceback_text,
        remote_code=remote_code if isinstance(remote_code, str) else "",
    )


def _clone_transport_error(exc: Exception) -> Exception:
    """A per-waiter copy of a shared failure.

    Every call in flight when the connection dies must raise, but raising
    one exception object from several threads races on its traceback;
    each waiter gets its own instance instead.
    """
    try:
        clone = type(exc)(str(exc))
    except Exception:  # noqa: BLE001 - exotic signature; fall back
        clone = CommunicationError(str(exc))
    clone.__cause__ = exc
    return clone


class _PendingSlot:
    """Waiter-map entry for one in-flight frame."""

    __slots__ = ("reply", "error", "bytes_sent", "bytes_received")

    def __init__(self) -> None:
        self.reply: Message | None = None
        self.error: Exception | None = None
        self.bytes_sent: int | None = None
        self.bytes_received: int | None = None

    @property
    def resolved(self) -> bool:
        return self.reply is not None or self.error is not None


class _RemoteMethod:
    """Callable bound to one remote method name of a proxy (a bare
    :class:`Proxy` or a ``ResilientProxy`` — anything with ``_call``)."""

    def __init__(self, proxy: Any, name: str):
        self._proxy = proxy
        self._name = name

    def __call__(self, *args: Any, **kwargs: Any) -> Any:
        return self._proxy._call(self._name, args, kwargs)

    def oneway(self, *args: Any, **kwargs: Any) -> None:
        """Fire-and-forget variant: no reply is awaited."""
        self._proxy._call(self._name, args, kwargs, oneway=True)


class Proxy:
    """Client handle to one remote object.

    Args:
        uri: ``PYRO:ObjectId@host:port`` string or :class:`PyroURI`.
        timeout: per-call deadline in seconds (None = block).
        connection_factory: override how the byte stream is opened — the
            simulated network passes its own dialer here.
        secret: shared secret for daemons that require the HMAC
            challenge-response handshake.
        tracer: optional :class:`repro.obs.Tracer`; when set, every call
            runs inside an ``rpc.call.<method>`` span and its context is
            carried in the REQUEST ``trace`` field so the daemon's
            dispatch span parents under it. None = zero overhead.
        metrics: optional :class:`repro.obs.MetricsRegistry` receiving
            per-call counters, latency histograms, byte counts and the
            ``rpc.client.inflight`` gauge. ``rpc.client.call_latency_s``
            is recorded only when ``tracer`` is also set, because it
            reads the tracer's clock. The byte counters count only on
            transports that count bytes (the simulated network and the
            delayed loopback; plain TCP counts none), and include ONEWAY
            frames at every window.
        max_inflight: in-flight REQUEST window. 1 (default) keeps the
            classic one-call-at-a-time semantics; above 1 the proxy
            pipelines — concurrent threads overlap their round trips on
            the one connection, and :meth:`pipeline` becomes available
            for single-threaded bursts.
        binary: wire-format selection (PROTOCOLS §1.7). ``"auto"``
            (default) sends a HELLO on connect and upgrades to the v2
            binary bulk frames when the daemon agrees, silently staying
            on v1 JSON against older daemons. ``False`` never negotiates
            (pure v1, zero handshake cost). ``True`` negotiates and
            *requires* v2 — :class:`ProtocolError` if the peer cannot.
    """

    def __init__(
        self,
        uri: str | PyroURI,
        timeout: float | None = 10.0,
        connection_factory: Callable[[str, int], Connection] | None = None,
        secret: bytes | None = None,
        tracer: Any = None,
        metrics: Any = None,
        max_inflight: int = 1,
        binary: bool | str = "auto",
        tenant: str | None = None,
    ):
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")
        if binary not in (True, False, "auto"):
            raise ValueError(f"binary must be True, False or 'auto', got {binary!r}")
        self._uri = parse_uri(uri)
        self._timeout = timeout
        self._secret = secret
        self._connect_fn = connection_factory or (
            lambda host, port: connect_tcp(host, port, timeout=timeout)
        )
        self._conn: Connection | None = None
        self._seq = 0
        self._lock = threading.RLock()
        self._metadata: dict[str, Any] | None = None
        self._binary = binary
        # negotiated wire version for the *current* connection (None =
        # not yet asked). Forgotten on close: the peer behind an endpoint
        # can be replaced between dials (daemon restart, downgrade to a
        # pre-HELLO build), so a cached v2 verdict from the old peer must
        # never be replayed at a new one that only speaks v1.
        self._negotiated: int | None = VERSION if binary is False else None
        self.tracer = tracer
        self.metrics = metrics
        # optional fencing token: when set, every REQUEST carries it and
        # a lease-aware daemon rejects stale epochs with LEASE_FENCED
        self.lease: dict[str, Any] | None = None
        # optional tenant id (PROTOCOLS §1.8): when set, every REQUEST
        # carries it and a gateway-aware daemon scopes the dispatch to
        # that tenant's session; when unset, the envelope falls back to
        # the tenant bound on the calling context (if any), so daemon-
        # side metrics stay attributed across the wire
        self.tenant: str | None = tenant
        # exchange state, for every frame at every window: a waiter map
        # keyed by sequence id plus a "become the reader" condition — at
        # most one thread blocks in recv at a time, depositing replies for
        # everyone else
        self._max_inflight = int(max_inflight)
        self._send_lock = threading.Lock()
        self._demux = threading.Condition(threading.Lock())
        self._pending: dict[int, _PendingSlot] = {}
        self._reader_busy = False
        self._inflight_frames = 0

    # -- connection management ----------------------------------------------
    @property
    def uri(self) -> PyroURI:
        return self._uri

    @property
    def connected(self) -> bool:
        return self._conn is not None

    @property
    def max_inflight(self) -> int:
        """Size of the in-flight REQUEST window (1 = no pipelining)."""
        return self._max_inflight

    @property
    def wire_version(self) -> int:
        """The negotiated protocol version (1 until a HELLO settles it)."""
        return self._negotiated or VERSION

    def _ensure_connected(self) -> Connection:
        if self._conn is None:
            conn = self._connect_fn(self._uri.host, self._uri.port)
            conn.settimeout(self._timeout)
            if self._secret is not None:
                self._answer_challenge(conn)
            if self._negotiated is None:
                conn = self._negotiate(conn)
            self._conn = conn
        return self._conn

    def _negotiate(self, conn: Connection) -> Connection:
        """Run the HELLO handshake; returns the connection to keep using.

        The HELLO travels as v1, so every daemon can read it. A reactor
        daemon answers RESPONSE ``{"version": N}``; a daemon predating
        the handshake chokes on the unknown frame type, answers ERROR
        and drops the connection — that outcome *is* the downgrade
        signal, so the proxy settles on v1 and redials. An HMAC daemon
        answers with its CHALLENGE, which a proxy without a secret cannot
        meet: :class:`~repro.errors.AuthenticationError`. Transport
        failures that are not a clean ERROR/close (timeouts, routing)
        propagate: a partition must look like a partition, not like an
        old peer.
        """
        try:
            send_message(conn, Message(MessageType.HELLO, 0, hello_body()))
            reply = recv_message(conn)
        except _errors_module.CallTimeoutError:
            conn.close()
            raise
        except _errors_module.ConnectionClosedError:
            reply = None
        if reply is not None and reply.msg_type is MessageType.CHALLENGE:
            conn.close()
            raise _errors_module.AuthenticationError(
                "daemon requires authentication; no secret configured"
            )
        if reply is not None and reply.msg_type is MessageType.RESPONSE:
            agreed = VERSION
            if isinstance(reply.body, dict):
                raw = reply.body.get("version")
                if isinstance(raw, int) and raw >= 1:
                    agreed = min(raw, BINARY_VERSION)
            self._negotiated = agreed
        else:
            # ERROR reply or an immediate close: an old JSON-only peer.
            # Its framing is gone (it may already have dropped us), so
            # settle on v1, redial, and never ask this endpoint again.
            self._negotiated = VERSION
            conn.close()
            conn = self._connect_fn(self._uri.host, self._uri.port)
            conn.settimeout(self._timeout)
            if self._secret is not None:
                self._answer_challenge(conn)
        if self._binary is True and self._negotiated < BINARY_VERSION:
            conn.close()
            raise ProtocolError(
                f"binary=True but {self._uri} only speaks wire version "
                f"{self._negotiated}"
            )
        return conn

    def _answer_challenge(self, conn: Connection) -> None:
        """Complete the daemon's HMAC handshake before first use."""
        import hashlib
        import hmac

        from repro.errors import AuthenticationError

        challenge = recv_message(conn)
        if challenge.msg_type is not MessageType.CHALLENGE or not isinstance(
            challenge.body, dict
        ):
            conn.close()
            raise AuthenticationError(
                "server did not issue an authentication challenge "
                "(secret configured on an unauthenticated daemon?)"
            )
        nonce = bytes.fromhex(challenge.body.get("nonce", ""))
        digest = hmac.new(self._secret or b"", nonce, hashlib.sha256).hexdigest()
        send_message(
            conn, Message(MessageType.AUTH, challenge.seq, {"hmac": digest})
        )
        reply = recv_message(conn)
        if reply.msg_type is MessageType.ERROR:
            conn.close()
            raise AuthenticationError(
                reply.body.get("message", "authentication rejected")
                if isinstance(reply.body, dict)
                else "authentication rejected"
            )

    def _effective_tenant(self) -> "str | None":
        """The tenant stamped on outgoing REQUESTs: the explicit proxy
        attribute when set, else whatever is bound on the calling
        context — attribution follows the call across the wire."""
        return self.tenant if self.tenant is not None else current_tenant()

    def close(self) -> None:
        """Drop the connection; the proxy reconnects lazily if reused.

        Calls in flight on the connection fail with their transport error.
        """
        with self._lock:
            if self._conn is not None:
                self._conn.close()
                self._conn = None
            self._metadata = None
            if self._binary is not False:
                # re-negotiate on the next dial: the endpoint may now be
                # served by a different daemon (restart/downgrade), and
                # sending cached-v2 frames at a v1-only peer would poison
                # its framing instead of downgrading cleanly
                self._negotiated = None

    def __enter__(self) -> "Proxy":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- calls -----------------------------------------------------------------
    def _next_seq(self) -> int:
        self._seq = (self._seq + 1) & 0xFFFFFFFF
        return self._seq

    @staticmethod
    def _process_reply(reply: Message) -> Any:
        """Unpack a REQUEST's reply frame into a return value or raise."""
        if reply.msg_type == MessageType.ERROR:
            raise _rebuild_remote_error(reply.body)
        if reply.msg_type != MessageType.RESPONSE:
            raise ProtocolError(f"unexpected reply type {reply.msg_type}")
        if isinstance(reply.body, dict) and "result" in reply.body:
            return reply.body["result"]
        return reply.body

    def _call(
        self,
        method: str,
        args: tuple,
        kwargs: dict,
        oneway: bool = False,
        idempotency_key: str | None = None,
    ) -> Any:
        return self._start_call(
            method, args, kwargs, oneway=oneway, idempotency_key=idempotency_key
        ).result()

    def _start_call(
        self,
        method: str,
        args: tuple,
        kwargs: dict,
        *,
        oneway: bool = False,
        idempotency_key: str | None = None,
        pipelined: bool = False,
    ) -> "PendingReply":
        """Send one REQUEST; its reply is taken from the returned handle.

        A plain call's ``rpc.call.<method>`` span is current until its
        reply is taken; a burst call's span is not (the burst keeps
        sending under the caller's span) and carries ``rpc.pipelined``.
        A ONEWAY call resolves as soon as its frame is sent.
        """
        tracer = self.tracer
        tenant = self._effective_tenant()
        span = start = trace_context = None
        if tracer is not None:
            attributes = {"rpc.method": method, "rpc.object": self._uri.object_id}
            if pipelined:
                attributes["rpc.pipelined"] = True
                span = tracer.start_span(f"rpc.call.{method}", attributes=attributes)
            else:
                span = tracer.start_as_current_span(
                    f"rpc.call.{method}", attributes=attributes
                )
            if tenant is not None:
                # stamp the tenant on the span so the trace index and tail
                # sampler can attribute the whole trace to its owner
                span.set_attribute("tenant", tenant)
            trace_context = span.context.to_wire()
            start = tracer.clock.now()
        pending = PendingReply(self, None, _PendingSlot(), method, span, start)
        try:
            body = request_body(
                self._uri.object_id,
                method,
                args,
                kwargs,
                idempotency_key=idempotency_key,
                trace_context=trace_context,
                lease=self.lease,
                tenant=tenant,
            )
            pending._conn, pending._slot = self._submit(
                MessageType.REQUEST, body, FLAG_ONEWAY if oneway else 0
            )
        except Exception as exc:
            pending._settle(exc)
            raise
        if oneway:
            pending._settle(None)
        return pending

    def _inflight_gauge(self):
        return self.metrics.gauge(
            "rpc.client.inflight", "frames awaiting their reply"
        )

    # -- exchange: one window-bounded waiter map for every frame ---------------
    def _claim_window(self, seq: int, slot: _PendingSlot) -> bool:
        """Try to take one in-flight window slot and register ``slot`` as
        the waiter for ``seq`` (demux lock held)."""
        if self._inflight_frames < self._max_inflight:
            self._inflight_frames += 1
            if self.metrics is not None:
                self._inflight_gauge().inc()
            self._pending[seq] = slot
            return True
        return False

    def _fail_pending_locked(self, exc: Exception) -> None:
        """Fail every waiter (demux lock held) — the stream is undefined."""
        for slot in self._pending.values():
            if not slot.resolved:
                slot.error = _clone_transport_error(exc)
        self._pending.clear()
        if self.metrics is not None and self._inflight_frames:
            self._inflight_gauge().dec(self._inflight_frames)
        self._inflight_frames = 0

    def _pump(self, conn: Connection, done: Callable[[], bool]) -> None:
        """Drive the shared reader until ``done()`` holds.

        ``done`` is evaluated with the demux lock held, so it may claim
        state atomically (the window claim does). At most one thread sits
        in ``recv`` at a time; it deposits each reply into the waiter map
        by sequence id and wakes everyone. Any transport or framing error
        fails every in-flight call and drops the connection: the state of
        the stream is undefined after a failed exchange.
        """
        cond = self._demux
        cond.acquire()
        try:
            while not done():
                if self._reader_busy:
                    cond.wait()
                    continue
                self._reader_busy = True
                cond.release()
                failure: Exception | None = None
                msg: Message | None = None
                received: int | None = None
                try:
                    try:
                        track = hasattr(conn, "bytes_received")
                        recv0 = conn.bytes_received if track else 0
                        msg = recv_message(conn)
                        if track:
                            received = conn.bytes_received - recv0
                    except Exception as exc:  # noqa: BLE001 - fails the stream
                        failure = exc
                finally:
                    cond.acquire()
                    self._reader_busy = False
                if failure is None and msg.msg_type is MessageType.CHALLENGE:
                    # an HMAC daemon challenges a connection that sent no
                    # HELLO (binary=False) where its first reply belongs
                    failure = _errors_module.AuthenticationError(
                        "daemon requires authentication; no secret configured"
                    )
                elif failure is None:
                    slot = self._pending.pop(msg.seq, None)
                    if slot is not None:
                        slot.reply = msg
                        slot.bytes_received = received
                        self._inflight_frames = max(0, self._inflight_frames - 1)
                        if self.metrics is not None:
                            self._inflight_gauge().dec()
                        cond.notify_all()
                        continue
                    failure = ProtocolError(
                        f"reply sequence {msg.seq} matches no in-flight request"
                    )
                self._fail_pending_locked(failure)
                cond.notify_all()
                cond.release()
                try:
                    self.close()
                finally:
                    cond.acquire()
        finally:
            cond.release()

    def _submit(
        self, msg_type: MessageType, body: Any, flags: int = 0
    ) -> tuple[Connection, _PendingSlot]:
        """Claim a window slot, register the waiter, and send one frame.

        A ONEWAY frame expects no reply, so it takes neither a window
        slot nor a waiter-map entry; its slot only carries its byte count.
        """
        with self._lock:
            conn = self._ensure_connected()
            seq = self._next_seq()
        # encode before claiming a window slot: a serialisation error must
        # surface to this caller alone, not fail the whole pipeline
        payload = encode_message(
            Message(msg_type, seq, body, flags=flags, version=self.wire_version)
        )
        slot = _PendingSlot()
        if not flags & FLAG_ONEWAY:
            # claiming may have to drain replies first — that is the
            # backpressure that bounds the window without a second thread
            self._pump(conn, lambda: self._claim_window(seq, slot))
        try:
            with self._send_lock:
                track = hasattr(conn, "bytes_sent")
                sent0 = conn.bytes_sent if track else 0
                conn.sendall(payload)
                if track:
                    slot.bytes_sent = conn.bytes_sent - sent0
        except Exception as exc:  # noqa: BLE001 - a half-sent frame kills
            # the stream: every in-flight call fails
            with self._demux:
                self._fail_pending_locked(exc)
                self._demux.notify_all()
            self.close()
            raise
        return conn, slot

    def _await_reply(self, conn: Connection, slot: _PendingSlot) -> Message:
        self._pump(conn, lambda: slot.resolved)
        if slot.error is not None:
            raise slot.error
        return slot.reply

    def _exchange(self, msg_type: MessageType, body: Any) -> Message:
        """One control frame (PING, METADATA) and its reply."""
        return self._await_reply(*self._submit(msg_type, body))

    def call(self, method: str, *args: Any, **kwargs: Any) -> Any:
        """Invoke a remote method by name: ``proxy.call("Start", ch=1)``.

        The explicit spelling of ``proxy.Start(ch=1)`` — it reads the
        same on :class:`Proxy`, :class:`ProxyPool` and the resilient
        wrapper, which is what lets orchestration code swap one for
        another without touching call sites.
        """
        return self._call(method, args, kwargs)

    def pipeline(self, idempotent: bool = False) -> "Pipeline":
        """Explicit burst issuance over this proxy's connection.

        Requires ``max_inflight > 1``. With ``idempotent=True`` every
        call carries a fresh idempotency key, so re-issuing a burst after
        a transport failure replays completed calls instead of
        re-executing them (PROTOCOLS §1.1).
        """
        if self._max_inflight < 2:
            raise ValueError(
                "pipeline() needs a proxy built with max_inflight > 1"
            )
        return Pipeline(self, idempotent=idempotent)

    def _pyro_ping(self) -> None:
        """Liveness probe (task A of the paper's workflow uses this).

        Named with the underscore prefix (Pyro4's ``_pyroBind`` convention)
        so it can never shadow a remote method called ``ping``.
        """
        reply = self._exchange(MessageType.PING, None)
        if reply.msg_type != MessageType.PONG:
            raise ProtocolError(f"expected PONG, got {reply.msg_type}")

    def _pyro_metadata(self) -> dict[str, Any]:
        """Exposed-method metadata from the daemon (cached).

        Returns a copy: mutating the result must not poison the cache
        for later callers.
        """
        with self._lock:
            cached = self._metadata
        if cached is None:
            reply = self._exchange(
                MessageType.METADATA, {"object": self._uri.object_id}
            )
            if reply.msg_type == MessageType.ERROR:
                raise _rebuild_remote_error(reply.body)
            cached = reply.body
            with self._lock:
                self._metadata = cached
        return copy.deepcopy(cached)

    def __getattr__(self, name: str) -> _RemoteMethod:
        if name.startswith("_"):
            raise AttributeError(name)
        return _RemoteMethod(self, name)


class PendingReply:
    """Handle to one in-flight call.

    :meth:`result` blocks until the correlated reply arrives (driving the
    shared reader if nobody else is) and returns the remote value or
    raises the remote/transport error. Resolution is cached: ``result``
    can be called repeatedly.
    """

    __slots__ = (
        "_proxy",
        "_conn",
        "_slot",
        "_method",
        "_span",
        "_start",
        "_resolved",
        "_value",
        "_error",
    )

    def __init__(
        self,
        proxy: Proxy,
        conn: Connection,
        slot: _PendingSlot,
        method: str,
        span: Any = None,
        start: float | None = None,
    ):
        self._proxy = proxy
        self._conn = conn
        self._slot = slot
        self._method = method
        self._span = span
        self._start = start
        self._resolved = False
        self._value: Any = None
        self._error: Exception | None = None

    @property
    def done(self) -> bool:
        """True when the reply has landed (``result`` will not block)."""
        return self._resolved or self._slot.resolved

    def result(self) -> Any:
        """The remote return value; raises what the call raised."""
        if not self._resolved:
            proxy = self._proxy
            try:
                self._value = proxy._process_reply(
                    proxy._await_reply(self._conn, self._slot)
                )
            except Exception as exc:
                self._settle(exc)
            else:
                self._settle(None)
        if self._error is not None:
            raise self._error
        return self._value

    def _settle(self, error: Exception | None) -> None:
        """Resolve the call: write its ``rpc.client.*`` metrics, end its span."""
        self._resolved = True
        self._error = error
        proxy, method, span, slot = self._proxy, self._method, self._span, self._slot
        metrics = proxy.metrics
        if metrics is not None:
            metrics.counter(
                "rpc.client.calls_total", "RPC calls issued by this client"
            ).inc(method=method, status="ok" if error is None else "error")
            if span is not None:
                # on the clock ``_start`` was read on: the span's tracer's
                metrics.histogram(
                    "rpc.client.call_latency_s", "client-observed RPC latency"
                ).observe(
                    span.tracer.clock.now() - self._start,
                    exemplar=span.trace_id,
                    method=method,
                )
            if slot.bytes_sent:
                metrics.counter(
                    "rpc.client.bytes_sent_total", "request bytes on the wire"
                ).inc(slot.bytes_sent, method=method)
            if slot.bytes_received:
                metrics.counter(
                    "rpc.client.bytes_received_total", "response bytes on the wire"
                ).inc(slot.bytes_received, method=method)
        if span is not None:
            self._span = None
            if error is None:
                span.end()
            else:
                span.record_exception(error)
                span.end("ERROR")


class Pipeline:
    """Futures-style burst issuance over one pipelined proxy.

    ::

        with proxy.pipeline() as pipe:
            pending = [pipe.call("read_chunk", path, off) for off in offsets]
            chunks = [p.result() for p in pending]

    :meth:`call` returns immediately with a :class:`PendingReply` while
    the REQUEST frame is already on the wire; when ``max_inflight``
    frames are outstanding it drains replies while waiting for a window
    slot, so a single thread can issue an arbitrarily long burst without
    deadlocking. Exiting the context collects every uncollected reply
    (the first error propagates, unless the block is already unwinding
    on an exception).

    Each call gets its own ``rpc.call.<method>`` span (parented under
    the span current at issue time, not at collection time) and, with
    ``idempotent=True``, its own idempotency key.
    """

    def __init__(self, proxy: Proxy, idempotent: bool = False):
        self._proxy = proxy
        self._idempotent = idempotent
        self._key_prefix = uuid.uuid4().hex
        self._key_seq = itertools.count()
        self._issued: list[PendingReply] = []

    def call(
        self,
        method: str,
        *args: Any,
        _idempotency_key: str | None = None,
        **kwargs: Any,
    ) -> PendingReply:
        """Send one call; the reply is collected via the returned handle."""
        key = _idempotency_key
        if key is None and self._idempotent:
            key = f"{self._key_prefix}:{next(self._key_seq)}"
        pending = self._proxy._start_call(
            method, args, kwargs, idempotency_key=key, pipelined=True
        )
        self._issued.append(pending)
        return pending

    def drain(self) -> None:
        """Collect every not-yet-collected reply.

        Raises the first error among them; errors already delivered to
        the caller through :meth:`PendingReply.result` are theirs to
        handle and are not raised again here.
        """
        first_error: Exception | None = None
        for pending in self._issued:
            if pending._resolved:
                continue
            try:
                pending.result()
            except Exception as exc:  # noqa: BLE001 - surfaced below
                if first_error is None:
                    first_error = exc
        self._issued.clear()
        if first_error is not None:
            raise first_error

    def __enter__(self) -> "Pipeline":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc is not None:
            # already unwinding: collect best-effort so no reply is left
            # orphaned in the waiter map, but keep the original error
            for pending in self._issued:
                if pending._resolved:
                    continue
                try:
                    pending.result()
                except Exception:  # noqa: BLE001
                    pass
            self._issued.clear()
            return
        self.drain()


class ProxyPool:
    """A small pool of independent connections to one endpoint.

    Pipelining multiplexes one connection; a pool hands out *separate*
    connections, so concurrent callers (fleet-campaign threads, parallel
    fetch loops) never share a byte stream at all. Members are created
    lazily up to ``size`` and reused; :meth:`acquire` blocks while all
    are checked out.

    Resilience threads through per the PR-1 layer: pass ``retry_policy``
    (and optionally ``breaker``) and every member is wrapped in a
    :class:`~repro.resilience.ResilientProxy` — with **one** circuit
    breaker shared pool-wide, because the endpoint's health is a
    property of the endpoint, not of whichever pooled connection
    observed the failure.

    Args:
        uri: ``PYRO:`` URI every member dials.
        size: maximum concurrent connections.
        timeout / connection_factory / secret / tracer / metrics /
            max_inflight: forwarded to each member :class:`Proxy`.
        retry_policy: wrap members in ResilientProxy with this policy.
        breaker: shared breaker; default-constructed when a
            ``retry_policy`` is given without one.
        proxy_factory: full override — zero-arg callable building one
            member (the ICE uses this to inject its simulated dialer).
    """

    def __init__(
        self,
        uri: str | PyroURI,
        size: int = 4,
        *,
        timeout: float | None = 10.0,
        connection_factory: Callable[[str, int], Connection] | None = None,
        secret: bytes | None = None,
        tracer: Any = None,
        metrics: Any = None,
        max_inflight: int = 1,
        binary: bool | str = "auto",
        retry_policy: Any = None,
        breaker: Any = None,
        proxy_factory: Callable[[], Any] | None = None,
    ):
        if size < 1:
            raise ValueError(f"pool size must be >= 1, got {size}")
        self._uri = parse_uri(uri)
        self.size = size
        self._timeout = timeout
        self._connection_factory = connection_factory
        self._secret = secret
        self.tracer = tracer
        self.metrics = metrics
        self._max_inflight = max_inflight
        self._binary = binary
        self._retry_policy = retry_policy
        if retry_policy is not None and breaker is None:
            from repro.resilience.policy import CircuitBreaker

            breaker = CircuitBreaker(metrics=metrics, name=str(self._uri))
        self._breaker = breaker
        self._proxy_factory = proxy_factory
        self._cond = threading.Condition(threading.Lock())
        self._idle: list[Any] = []
        self._created = 0
        self._closed = False

    @property
    def breaker(self) -> Any:
        """The endpoint's shared circuit breaker (None when unwrapped)."""
        return self._breaker

    @property
    def in_use(self) -> int:
        with self._cond:
            return self._created - len(self._idle)

    def _make_member(self) -> Any:
        if self._proxy_factory is not None:
            proxy = self._proxy_factory()
        else:
            proxy = Proxy(
                self._uri,
                timeout=self._timeout,
                connection_factory=self._connection_factory,
                secret=self._secret,
                tracer=self.tracer,
                metrics=self.metrics,
                max_inflight=self._max_inflight,
                binary=self._binary,
            )
        if self._retry_policy is not None or self._breaker is not None:
            from repro.resilience.proxy import ResilientProxy

            proxy = ResilientProxy(
                proxy,
                policy=self._retry_policy,
                breaker=self._breaker,
                tracer=self.tracer,
                metrics=self.metrics,
            )
        return proxy

    def _checkout(self, timeout: float | None = None) -> Any:
        with self._cond:
            while True:
                if self._closed:
                    raise CommunicationError("proxy pool is closed")
                if self._idle:
                    return self._idle.pop()
                if self._created < self.size:
                    self._created += 1
                    break
                if not self._cond.wait(timeout):
                    raise _errors_module.CallTimeoutError(
                        f"no pooled connection to {self._uri} became free "
                        f"within {timeout}s"
                    )
        try:
            return self._make_member()
        except BaseException:
            with self._cond:
                self._created -= 1
                self._cond.notify()
            raise

    def _checkin(self, proxy: Any) -> None:
        with self._cond:
            if not self._closed:
                self._idle.append(proxy)
                self._cond.notify()
                return
        proxy.close()

    class _Lease:
        """Context manager pairing one checkout with its checkin."""

        __slots__ = ("_pool", "_proxy")

        def __init__(self, pool: "ProxyPool", proxy: Any):
            self._pool = pool
            self._proxy = proxy

        def __enter__(self) -> Any:
            return self._proxy

        def __exit__(self, *exc_info: object) -> None:
            self._pool._checkin(self._proxy)

    def acquire(self, timeout: float | None = None) -> "ProxyPool._Lease":
        """Check a member out; use as a context manager to return it."""
        return ProxyPool._Lease(self, self._checkout(timeout))

    def call(self, method: str, *args: Any, **kwargs: Any) -> Any:
        """One call on whichever member is free first."""
        with self.acquire() as proxy:
            return getattr(proxy, method)(*args, **kwargs)

    class _PooledPipeline:
        """A member checkout wrapping one :class:`Pipeline` burst.

        ``with pool.pipeline() as pipe:`` checks a member out, runs the
        burst on its (pipelined) connection, and returns the member on
        exit — the pool analogue of ``with proxy.pipeline() as pipe:``.
        """

        __slots__ = ("_lease", "_pipe")

        def __init__(self, lease: "ProxyPool._Lease", pipe: "Pipeline"):
            self._lease = lease
            self._pipe = pipe

        def __enter__(self) -> "Pipeline":
            return self._pipe.__enter__()

        def __exit__(self, exc_type, exc, tb) -> None:
            try:
                self._pipe.__exit__(exc_type, exc, tb)
            finally:
                self._lease.__exit__(exc_type, exc, tb)

    def pipeline(self, idempotent: bool = False) -> "ProxyPool._PooledPipeline":
        """Burst issuance on a checked-out member (context manager).

        Requires the pool's members to be built with ``max_inflight > 1``.
        Resilient members are unwrapped to their underlying proxy: a
        pipelined burst manages its own failure semantics (idempotent
        re-issue), so per-call retries inside the burst would double up.
        """
        lease = self.acquire()
        member = lease.__enter__()
        try:
            inner = member if isinstance(member, Proxy) else getattr(
                member, "_proxy", member
            )
            pipe = inner.pipeline(idempotent=idempotent)
        except BaseException:
            lease.__exit__(None, None, None)
            raise
        return ProxyPool._PooledPipeline(lease, pipe)

    def close(self) -> None:
        """Close every idle member and refuse further checkouts.

        Members currently checked out are closed when checked back in.
        """
        with self._cond:
            self._closed = True
            idle, self._idle = self._idle, []
            self._cond.notify_all()
        for proxy in idle:
            proxy.close()

    def __enter__(self) -> "ProxyPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __len__(self) -> int:
        with self._cond:
            return self._created
