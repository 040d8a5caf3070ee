"""The server side of the remote-object layer.

A :class:`Daemon` owns a listener, a registry of exposed objects, and a
serving core. ``register`` hands back the ``PYRO:`` URI a remote
:class:`~repro.rpc.proxy.Proxy` dials (paper Fig 3, server side).

Serving has two modes, chosen by the listener's capabilities:

- **reactor** (TCP, anything with a file descriptor): a single
  selector-driven event loop (:mod:`repro.rpc.reactor`) serves every
  connection — per-connection read/write buffers, bounded outboxes with
  explicit backpressure, and burst-coalesced syscalls. Dispatch runs
  inline on the loop, so calls from one connection execute in order,
  exactly like the old thread-per-connection daemon.
- **threaded** (the simulated ICE network, delayed loopback): those
  transports are condition-variable byte pipes with no descriptor to
  select on, so each connection gets a blocking reader thread sharing
  the same dispatch core.

Dispatch rules (identical in both modes):

- only methods passing :func:`repro.rpc.expose.is_exposed` are callable;
- exceptions raised by the target method travel back as ERROR frames with
  the class name and formatted traceback; the proxy re-raises them as
  :class:`RemoteInvocationError` (or the matching ``repro.errors`` class
  when one exists — instrument errors keep their identity end to end);
- ``@oneway`` methods are acknowledged before execution.
"""

from __future__ import annotations

import threading
import time
import traceback
import uuid
from collections import OrderedDict
from typing import Any

from repro.errors import (
    CommunicationError,
    ConnectionClosedError,
    MethodNotExposedError,
    NamingError,
    ProtocolError,
    SerializationError,
)
from repro.logging_utils import EventLog
from repro.rpc.expose import exposed_methods, is_exposed, is_oneway
from repro.rpc.protocol import (
    Message,
    MessageType,
    error_body,
    recv_message,
    request_idempotency_key,
    request_lease,
    request_tenant,
    request_trace_context,
    send_message,
    validate_request_body,
)
from repro.rpc.context import (
    current_tenant,
    reset_current_tenant,
    set_current_tenant,
)
from repro.rpc.reactor import DEFAULT_MAX_OUTBOX_BYTES, Reactor, ReactorClient
from repro.rpc.transport import Connection, Listener, TCPListener


class DedupCache:
    """Bounded idempotent-replay cache shared by every connection.

    One entry per idempotency key holds the recorded outcome frame
    (RESPONSE or ERROR body) of the first execution. Duplicates arriving
    *after* completion replay the outcome; duplicates arriving while the
    first execution is still in flight wait for it instead of running the
    method a second time. Eviction is LRU at ``capacity`` entries, which
    bounds memory regardless of client behaviour.
    """

    def __init__(self, capacity: int = 256):
        if capacity < 1:
            raise ValueError(f"dedup capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._done: OrderedDict[str, tuple[MessageType, Any]] = OrderedDict()
        # key -> None while executing with no waiter yet; the Event is
        # only allocated when a duplicate actually arrives mid-flight,
        # keeping the (overwhelmingly common) no-duplicate path cheap
        self._pending: dict[str, threading.Event | None] = {}

    def __len__(self) -> int:
        with self._lock:
            return len(self._done)

    def claim(
        self, key: str, wait_s: float | None = 300.0
    ) -> tuple[MessageType, Any] | None:
        """Resolve who handles ``key``.

        Returns the cached outcome when one exists (caller replays it), or
        None when the caller now owns execution and must eventually call
        :meth:`finish` or :meth:`abandon`. When another thread is already
        executing the same key, blocks until it finishes (bounded by
        ``wait_s``; on timeout the caller executes anyway — the original
        executor is presumed wedged).
        """
        while True:
            with self._lock:
                if key in self._done:
                    self._done.move_to_end(key)
                    return self._done[key]
                if key not in self._pending:
                    self._pending[key] = None
                    return None
                event = self._pending[key]
                if event is None:
                    event = threading.Event()
                    self._pending[key] = event
            if not event.wait(wait_s):
                return None

    def finish(self, key: str, msg_type: MessageType, body: Any) -> None:
        """Record the outcome of an executed key and wake any waiters."""
        with self._lock:
            self._done[key] = (msg_type, body)
            self._done.move_to_end(key)
            while len(self._done) > self.capacity:
                self._done.popitem(last=False)
            event = self._pending.pop(key, None)
        if event is not None:
            event.set()

    def abandon(self, key: str) -> None:
        """Release a claim without recording an outcome (handler died)."""
        with self._lock:
            event = self._pending.pop(key, None)
        if event is not None:
            event.set()

    def preload(self, outcomes: dict[str, tuple[MessageType, Any]]) -> int:
        """Seed the cache with journaled outcomes (daemon restart path).

        Insertion order is preserved, so LRU eviction drops the oldest
        journaled outcomes first when the journal outgrew ``capacity``.
        Returns how many entries landed in the cache.
        """
        with self._lock:
            for key, outcome in outcomes.items():
                self._done[key] = outcome
                self._done.move_to_end(key)
            while len(self._done) > self.capacity:
                self._done.popitem(last=False)
            return len(self._done)


class _ThreadedClient:
    """Adapter giving a blocking transport connection the dispatch-core
    surface (``reply``/``peer``) that :class:`ReactorClient` provides."""

    def __init__(self, conn: Connection):
        self.conn = conn
        self.peer = conn.peer
        self._send_lock = threading.Lock()
        self.data: dict[str, Any] = {}

    def reply(self, msg: Message) -> None:
        with self._send_lock:
            send_message(self.conn, msg)


class Daemon:
    """Serves registered objects over a transport listener.

    Args:
        host: bind address for the default TCP listener.
        port: bind port (0 = ephemeral).
        listener: pre-built listener (e.g. a simulated-network one); when
            given, ``host``/``port`` are ignored.
        event_log: optional shared :class:`EventLog` for transcripts.
        secret: when set, every connection must pass an HMAC-SHA256
            challenge-response before any request is served (the paper's
            future-work "security posture" hardening — facility firewalls
            alone are not authentication).
        dedup_capacity: LRU bound of the idempotent-replay cache (entries
            survive reconnects; a retried REQUEST carrying an already-seen
            idempotency key replays the recorded outcome instead of
            re-executing the instrument call).
        dedup_wait_s: how long a duplicate waits for an in-flight
            execution of the same key before giving up and executing.
        tracer: optional :class:`repro.obs.Tracer`; when set, every
            dispatched request runs inside an ``rpc.dispatch.<method>``
            span parented under the client span carried in the REQUEST
            ``trace`` field. Assignable after construction too —
            ``repro.connect`` wires in-process sim daemons this way so
            client and daemon spans land in one trace store.
        metrics: optional :class:`repro.obs.MetricsRegistry` receiving
            dispatch counters and latency histograms (also assignable).
        dedup_journal: optional
            :class:`~repro.durability.dedup_journal.DedupJournal`. Every
            finished idempotent outcome is appended (fsync'd) before the
            reply frame is sent, and outcomes already on disk preload the
            cache — at-most-once then survives a daemon restart, not just
            a reconnect. ``dedup_preloaded`` counts the restored entries.
        lease_registry: optional
            :class:`~repro.durability.lease.LeaseRegistry`. Requests
            carrying a ``lease`` token are checked against it before
            dispatch; a stale epoch is rejected with ``LEASE_FENCED``
            (counted in ``fenced_count``) and never executes.
        max_outbox_bytes: per-connection outbound buffer bound before
            backpressure pauses reading from that client.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        listener: Listener | None = None,
        event_log: EventLog | None = None,
        secret: bytes | None = None,
        dedup_capacity: int = 256,
        dedup_wait_s: float = 300.0,
        tracer: Any = None,
        metrics: Any = None,
        dedup_journal: Any = None,
        lease_registry: Any = None,
        max_outbox_bytes: int = DEFAULT_MAX_OUTBOX_BYTES,
    ):
        self._listener = listener if listener is not None else TCPListener(host, port)
        self._secret = secret
        self._objects: dict[str, Any] = {}
        self._lock = threading.Lock()
        self._running = threading.Event()
        self._accept_thread: threading.Thread | None = None
        self._client_threads: list[threading.Thread] = []
        self._open_connections: set[Connection] = set()
        self._dedup = DedupCache(dedup_capacity)
        self._dedup_wait_s = dedup_wait_s
        self._dedup_journal = dedup_journal
        self._max_outbox_bytes = max_outbox_bytes
        self.lease_registry = lease_registry
        self.log = event_log if event_log is not None else EventLog()
        self.call_count = 0
        self.replay_count = 0
        self.fenced_count = 0
        self.dedup_preloaded = 0
        self.crashed = False
        self.quiescent = True
        self.tracer = tracer
        self.metrics = metrics
        self._reactor: Reactor | None = None
        if self._listener_selectable():
            self._reactor = Reactor(
                self._listener,
                on_connect=self._reactor_connect,
                on_frame=self._reactor_frame,
                on_frame_error=self._reactor_frame_error,
                max_outbox_bytes=max_outbox_bytes,
                metrics_provider=lambda: self.metrics,
            )
        if dedup_journal is not None:
            restored = dedup_journal.replay()
            if restored:
                self.dedup_preloaded = self._dedup.preload(restored)
                self.log.emit(
                    "daemon",
                    "dedup-restore",
                    f"preloaded {self.dedup_preloaded} idempotent outcomes "
                    "from the dedup journal",
                )

    def _listener_selectable(self) -> bool:
        try:
            return (
                callable(getattr(self._listener, "try_accept", None))
                and self._listener.fileno() >= 0
            )
        except (OSError, AttributeError):
            return False

    @property
    def backpressure_total(self) -> int:
        """Times a client's reads were paused for a full outbox."""
        return self._reactor.backpressure_total if self._reactor else 0

    @property
    def serving_mode(self) -> str:
        """``"reactor"`` or ``"threaded"`` — how connections are served."""
        return "reactor" if self._reactor is not None else "threaded"

    # -- registry ------------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        """(host, port) clients should dial."""
        return self._listener.address

    def register(self, obj: Any, object_id: str | None = None) -> str:
        """Publish ``obj``; returns its ``PYRO:`` URI string."""
        from repro.rpc.naming import make_uri  # avoid import cycle at module load

        if object_id is None:
            object_id = f"obj_{uuid.uuid4().hex}"
        with self._lock:
            if object_id in self._objects:
                raise NamingError(f"object id already registered: {object_id!r}")
            self._objects[object_id] = obj
        host, port = self.address
        uri = str(make_uri(object_id, host, port))
        self.log.emit("daemon", "register", f"registered {object_id} at {uri}")
        return uri

    def unregister(self, object_id: str) -> None:
        """Remove an object from the registry."""
        with self._lock:
            if object_id not in self._objects:
                raise NamingError(f"object id not registered: {object_id!r}")
            del self._objects[object_id]

    def registered_ids(self) -> list[str]:
        with self._lock:
            return sorted(self._objects)

    def _get_object(self, object_id: str) -> Any:
        with self._lock:
            try:
                return self._objects[object_id]
            except KeyError:
                raise NamingError(f"no object registered as {object_id!r}") from None

    # -- serving ---------------------------------------------------------------
    def start_background(self) -> None:
        """Run the serving core on daemon threads (paper's requestLoop)."""
        if self._running.is_set():
            return
        self._running.set()
        if self._reactor is not None:
            self._reactor.start_background()
            return
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-daemon-accept", daemon=True
        )
        self._accept_thread.start()

    def request_loop(self) -> None:
        """Blocking serve loop; returns after :meth:`shutdown`."""
        self._running.set()
        if self._reactor is not None:
            self._reactor.run()
        else:
            self._accept_loop()

    def _accept_loop(self) -> None:
        while self._running.is_set():
            try:
                conn = self._listener.accept()
            except ConnectionClosedError:
                break
            with self._lock:
                self._open_connections.add(conn)
            thread = threading.Thread(
                target=self._serve_connection,
                args=(conn,),
                name=f"repro-daemon-client-{conn.peer}",
                daemon=True,
            )
            with self._lock:
                # prune finished handlers so a long-lived daemon's thread
                # list tracks live connections, not connection history
                self._client_threads = [
                    t for t in self._client_threads if t.is_alive()
                ]
                self._client_threads.append(thread)
            thread.start()

    def shutdown(self, join_timeout_s: float = 5.0) -> None:
        """Stop serving, drop all live connections, and join handlers.

        Joins the serving threads (reactor loop or accept + per-connection
        handlers) under one shared ``join_timeout_s`` deadline, so callers
        (tests, the crash/restart helper) observe a quiescent daemon
        deterministically rather than racing abandoned daemon threads.
        :attr:`quiescent` reports whether every thread actually exited in
        time.
        """
        if not self._running.is_set() and self._accept_thread is None:
            if self._reactor is not None:
                self._reactor.stop()
            self._listener.close()
            self._close_dedup_journal()
            return
        self._running.clear()
        deadline = time.monotonic() + join_timeout_s
        stragglers: list[str] = []
        if self._reactor is not None:
            self._reactor.stop()
            if not self._reactor.join(
                timeout=max(0.0, deadline - time.monotonic())
            ):
                stragglers.append("repro-daemon-reactor")
        else:
            self._listener.close()
            with self._lock:
                connections = list(self._open_connections)
                threads = list(self._client_threads)
            for conn in connections:
                conn.close()
            if self._accept_thread is not None:
                self._accept_thread.join(
                    timeout=max(0.0, deadline - time.monotonic())
                )
                threads.append(self._accept_thread)
                self._accept_thread = None
            for thread in threads:
                if thread is not threading.current_thread():
                    thread.join(timeout=max(0.0, deadline - time.monotonic()))
            stragglers.extend(t.name for t in threads if t.is_alive())
            with self._lock:
                self._client_threads.clear()
        self.quiescent = not stragglers
        self._close_dedup_journal()
        if stragglers:
            self.log.emit(
                "daemon",
                "shutdown-stragglers",
                f"{len(stragglers)} serving thread(s) outlived the "
                f"{join_timeout_s}s join deadline",
                threads=stragglers,
            )
        self.log.emit("daemon", "shutdown", "daemon stopped")

    def crash(self) -> None:
        """Simulate abrupt process death (the chaos ``crash_daemon`` path).

        Unlike :meth:`shutdown`, nothing is joined and nothing is
        flushed: the listener and every connection drop mid-frame, the
        in-memory dedup cache is discarded, and only state already
        fsync'd to the dedup journal survives for the next incarnation —
        exactly what ``kill -9`` would leave behind.
        """
        self.crashed = True
        self._running.clear()
        if self._reactor is not None:
            self._reactor.crash()
        else:
            self._listener.close()
        with self._lock:
            connections = list(self._open_connections)
            self._open_connections.clear()
            self._client_threads.clear()
        for conn in connections:
            conn.close()
        self._accept_thread = None
        # process memory is gone: the cache resets to empty, and the
        # journal handle closes without any graceful draining
        self._dedup = DedupCache(self._dedup.capacity)
        self._close_dedup_journal()

    def _close_dedup_journal(self) -> None:
        if self._dedup_journal is not None:
            try:
                self._dedup_journal.close()
            except OSError:
                pass

    def __enter__(self) -> "Daemon":
        self.start_background()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

    # -- reactor callbacks -----------------------------------------------------
    def _reactor_connect(self, client: ReactorClient) -> None:
        if self._secret is None:
            client.data["stage"] = "ready"
            return
        client.data["stage"] = "auth"
        client.data["nonce"] = self._challenge(client)

    def _reactor_frame(self, client: ReactorClient, msg: Message) -> None:
        if client.data.get("stage") == "auth":
            self._check_auth(client, msg)
            return
        self._dispatch(client, msg)

    def _dispatch(self, client: Any, msg: Message) -> None:
        try:
            self._handle_message(client, msg)
        except (CommunicationError, ConnectionClosedError, OSError) as exc:
            # The peer vanished while we were answering. Any idempotent
            # outcome is already in the dedup cache, so the reply is
            # replayed when the client retransmits.
            self.log.emit(
                "daemon", "reply-lost", f"reply to {client.peer} lost: {exc}"
            )

    def _reactor_frame_error(self, client: ReactorClient, exc: Exception) -> None:
        # A malformed frame poisons stream framing: report and drop.
        self._try_reply_error(client, 0, exc)

    def _check_auth(self, client: ReactorClient, msg: Message) -> None:
        if self._verify_auth(client, client.data.get("nonce", b""), msg):
            client.data["stage"] = "ready"
        else:
            client.close_after_flush()

    # -- challenge-response (both serving cores) -------------------------------
    def _challenge(self, client: Any) -> bytes:
        """Send a fresh CHALLENGE; returns its nonce."""
        import os

        nonce = os.urandom(32)
        client.reply(Message(MessageType.CHALLENGE, 0, {"nonce": nonce.hex()}))
        return nonce

    def _verify_auth(self, client: Any, nonce: bytes, msg: Message) -> bool:
        """Check the peer's AUTH frame against ``nonce`` and answer it:
        ``{"auth": "ok"}`` when the HMAC matches, ERROR otherwise."""
        import hashlib
        import hmac

        from repro.errors import AuthenticationError

        expected = hmac.new(self._secret or b"", nonce, hashlib.sha256).hexdigest()
        provided = msg.body.get("hmac") if isinstance(msg.body, dict) else None
        if (
            msg.msg_type is not MessageType.AUTH
            or not isinstance(provided, str)
            or not hmac.compare_digest(provided, expected)
        ):
            self.log.emit("daemon", "auth", f"authentication failed for {client.peer}")
            self._try_reply_error(
                client, msg.seq, AuthenticationError("bad or missing credentials")
            )
            return False
        client.reply(Message(MessageType.RESPONSE, msg.seq, {"auth": "ok"}))
        return True

    # -- threaded serving (sim network / delayed loopback) ---------------------
    def _authenticate(self, client: _ThreadedClient) -> bool:
        """Run the challenge-response; True when the peer may proceed."""
        nonce = self._challenge(client)
        try:
            msg = recv_message(client.conn)
        except (ConnectionClosedError, ProtocolError, SerializationError):
            return False
        return self._verify_auth(client, nonce, msg)

    def _serve_connection(self, conn: Connection) -> None:
        client = _ThreadedClient(conn)
        try:
            if self._secret is not None and not self._authenticate(client):
                return
            while self._running.is_set():
                try:
                    msg = recv_message(conn)
                except ConnectionClosedError:
                    break
                except (ProtocolError, SerializationError) as exc:
                    # A malformed frame poisons stream framing: report and drop.
                    self._try_reply_error(client, 0, exc)
                    break
                try:
                    self._handle_message(client, msg)
                except (CommunicationError, ConnectionClosedError, OSError) as exc:
                    self.log.emit(
                        "daemon", "reply-lost", f"reply to {conn.peer} lost: {exc}"
                    )
                    break
        finally:
            conn.close()
            with self._lock:
                self._open_connections.discard(conn)

    # -- dispatch core (mode-agnostic) ----------------------------------------
    def _handle_message(self, client: Any, msg: Message) -> None:
        if msg.msg_type == MessageType.PING:
            client.reply(Message(MessageType.PONG, msg.seq, None))
            return
        if msg.msg_type == MessageType.METADATA:
            self._handle_metadata(client, msg)
            return
        if msg.msg_type == MessageType.REQUEST:
            self._handle_request(client, msg)
            return
        self._try_reply_error(
            client,
            msg.seq,
            ProtocolError(f"unexpected message type {msg.msg_type}"),
        )

    def _handle_metadata(self, client: Any, msg: Message) -> None:
        try:
            object_id = msg.body["object"] if isinstance(msg.body, dict) else None
            if not isinstance(object_id, str):
                raise ProtocolError("metadata request must name an object")
            obj = self._get_object(object_id)
            methods = exposed_methods(obj)
            body = {
                "methods": methods,
                "oneway": [m for m in methods if is_oneway(obj, m)],
            }
            client.reply(Message(MessageType.RESPONSE, msg.seq, body))
        except Exception as exc:  # noqa: BLE001 - must answer the client
            self._try_reply_error(client, msg.seq, exc)

    def _handle_request(self, client: Any, msg: Message) -> None:
        # Fencing precedes dedup: a fenced request must never execute
        # *and* must never poison the dedup cache, because its key may be
        # legitimately re-issued by the successor that holds the lease.
        lease = request_lease(msg.body)
        if lease is not None and self.lease_registry is not None:
            try:
                self.lease_registry.check(lease["resource"], lease["epoch"])
            except Exception as exc:  # noqa: BLE001 - LeaseFencedError
                self.fenced_count += 1
                if self.metrics is not None:
                    self.metrics.counter(
                        "durability.lease_fenced_total",
                        "requests rejected for a stale lease epoch",
                    ).inc(resource=lease["resource"])
                self.log.emit(
                    "daemon",
                    "lease-fenced",
                    f"fenced {client.peer}: {exc}",
                    resource=lease["resource"],
                    epoch=lease["epoch"],
                )
                if not msg.oneway:
                    self._try_reply_error(client, msg.seq, exc)
                return
        key = request_idempotency_key(msg.body)
        if key is not None:
            cached = self._dedup.claim(key, wait_s=self._dedup_wait_s)
            if cached is not None:
                self._replay(client, msg, key, cached)
                return
        # This handler now owns execution for ``key`` (when one was sent):
        # the outcome must be recorded *before* the reply frame is sent, so
        # a retransmission after a lost response replays instead of
        # re-executing the instrument call.
        recorded = key is None

        def record(msg_type: MessageType, body: Any) -> None:
            nonlocal recorded
            if self.crashed:
                # a dead process records nothing: a handler racing the
                # crash must not journal its outcome post-mortem (the
                # client never saw a reply and will re-issue the call)
                return
            if not recorded:
                recorded = True
                # write-ahead order: the outcome is durable on disk
                # before it becomes replayable in memory (and before the
                # reply frame leaves), so a crash any time after the
                # client sees the reply can still replay it on restart
                if self._dedup_journal is not None:
                    try:
                        self._dedup_journal.record(key, msg_type, body)
                        if self.metrics is not None:
                            self.metrics.counter(
                                "durability.dedup_journal_records_total",
                                "idempotent outcomes spilled to disk",
                            ).inc()
                    except Exception as exc:  # noqa: BLE001 - journal loss
                        # must not fail the live call; it only weakens
                        # restart-time replay for this one key
                        self.log.emit(
                            "daemon",
                            "dedup-journal-error",
                            f"failed to journal outcome for {key[:16]}: {exc}",
                        )
                self._dedup.finish(key, msg_type, body)

        try:
            self._execute_request(client, msg, record)
        finally:
            if not recorded:
                self._dedup.abandon(key)

    def _replay(
        self,
        client: Any,
        msg: Message,
        key: str,
        cached: tuple[MessageType, Any],
    ) -> None:
        """Answer a retransmitted request from the dedup cache."""
        self.replay_count += 1
        if self.metrics is not None:
            self.metrics.counter(
                "rpc.daemon.replays_total", "idempotent replays served from cache"
            ).inc()
        msg_type, body = cached
        self.log.emit(
            "daemon",
            "replay",
            f"idempotent replay for key {key[:16]} ({msg_type.name})",
        )
        if msg.oneway:
            return
        try:
            client.reply(Message(msg_type, msg.seq, body))
        except (ConnectionClosedError, SerializationError):
            pass

    def _execute_request(self, client: Any, msg: Message, record) -> None:
        # bind the request's tenant for the whole dispatch (handlers read
        # it via repro.rpc.context.current_tenant); reset in the finally
        # because the reactor thread serves many tenants back to back
        tenant_token = set_current_tenant(request_tenant(msg.body))
        try:
            self._execute_request_inner(client, msg, record)
        finally:
            reset_current_tenant(tenant_token)

    def _execute_request_inner(self, client: Any, msg: Message, record) -> None:
        trace_parent = request_trace_context(msg.body)
        try:
            object_id, method_name, args, kwargs = validate_request_body(msg.body)
            obj = self._get_object(object_id)
            if not is_exposed(obj, method_name):
                raise MethodNotExposedError(
                    f"method {method_name!r} of {object_id!r} is not exposed"
                )
            bound = getattr(obj, method_name)
        except Exception as exc:  # noqa: BLE001
            record(MessageType.ERROR, self._error_body_for(exc))
            if not msg.oneway:
                self._try_reply_error(client, msg.seq, exc)
            return

        if msg.oneway or is_oneway(obj, method_name):
            if not msg.oneway:
                # Client used a normal call on a @oneway method: ack first.
                client.reply(Message(MessageType.RESPONSE, msg.seq, None))
            try:
                self._invoke_logged(
                    object_id,
                    method_name,
                    bound,
                    args,
                    kwargs,
                    swallow=True,
                    trace_parent=trace_parent,
                )
            finally:
                record(MessageType.RESPONSE, None)
            return

        try:
            result = self._invoke_logged(
                object_id, method_name, bound, args, kwargs, trace_parent=trace_parent
            )
        except Exception as exc:  # noqa: BLE001 - remote errors travel as frames
            record(MessageType.ERROR, self._error_body_for(exc))
            self._try_reply_error(client, msg.seq, exc)
            return
        record(MessageType.RESPONSE, {"result": result})
        try:
            client.reply(Message(MessageType.RESPONSE, msg.seq, {"result": result}))
        except SerializationError as exc:
            self._try_reply_error(client, msg.seq, exc)

    def _invoke_logged(
        self,
        object_id: str,
        method_name: str,
        bound: Any,
        args: list,
        kwargs: dict,
        swallow: bool = False,
        trace_parent: dict[str, str] | None = None,
    ) -> Any:
        self.call_count += 1
        self.log.emit(
            "daemon", "call", f"{object_id}.{method_name}", args=len(args)
        )
        if self.tracer is None and self.metrics is None:
            return self._invoke_raw(object_id, method_name, bound, args, kwargs, swallow)

        from repro.obs.trace import extract_context

        span = None
        if self.tracer is not None:
            # Dispatch runs outside any client-side contextvar scope, so
            # the parent comes from the wire (or None = root).
            span = self.tracer.start_as_current_span(
                f"rpc.dispatch.{method_name}",
                parent=extract_context(trace_parent),
                attributes={"rpc.method": method_name, "rpc.object": object_id},
            )
            # the envelope tenant is bound on this thread by the
            # connection handler; stamp it so daemon-half spans carry
            # the same attribution as the client half
            span_tenant = current_tenant()
            if span_tenant is not None:
                span.set_attribute("tenant", span_tenant)
        exemplar = span.trace_id if span is not None else None
        clock = self.tracer.clock if self.tracer is not None else None
        start = clock.now() if clock is not None else None
        status = "ok"
        try:
            return self._invoke_raw(
                object_id, method_name, bound, args, kwargs, swallow
            )
        except Exception as exc:
            status = "error"
            if span is not None:
                span.record_exception(exc)
                span.end("ERROR")
                span = None
            raise
        finally:
            if self.metrics is not None:
                self.metrics.counter(
                    "rpc.daemon.calls_total", "requests dispatched by this daemon"
                ).inc(method=method_name, status=status)
                if start is not None:
                    self.metrics.histogram(
                        "rpc.daemon.dispatch_latency_s",
                        "daemon-side method execution time",
                    ).observe(
                        clock.now() - start,
                        exemplar=exemplar,
                        method=method_name,
                    )
            if span is not None:
                span.end()

    def _invoke_raw(
        self,
        object_id: str,
        method_name: str,
        bound: Any,
        args: list,
        kwargs: dict,
        swallow: bool,
    ) -> Any:
        try:
            return bound(*args, **kwargs)
        except Exception:
            if swallow:
                self.log.emit(
                    "daemon",
                    "oneway-error",
                    f"{object_id}.{method_name} raised (oneway, dropped)",
                )
                return None
            raise

    @staticmethod
    def _error_body_for(exc: Exception) -> dict[str, Any]:
        code = getattr(exc, "code", "")
        return error_body(
            error_type=type(exc).__name__,
            message=str(exc),
            traceback_text="".join(
                traceback.format_exception(type(exc), exc, exc.__traceback__)
            ),
            code=code if isinstance(code, str) else "",
        )

    def _try_reply_error(self, client: Any, seq: int, exc: Exception) -> None:
        body = self._error_body_for(exc)
        try:
            client.reply(Message(MessageType.ERROR, seq, body))
        except (ConnectionClosedError, SerializationError):
            pass
