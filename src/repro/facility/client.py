"""The Pyro client wrapper used from the remote system (paper Fig 3).

The paper's notebook instantiates ``ACL_Pyro_Client(ip, port)`` and calls
``call_<Method>`` wrappers; :class:`ACLPyroClient` reproduces that shape:
every server method ``X`` is callable as ``client.call_X(...)`` (and, for
convenience, directly as ``client.X(...)``).
"""

from __future__ import annotations

from typing import Any, Callable

from repro.logging_utils import EventLog
from repro.resilience import CircuitBreaker, ResilientProxy, RetryPolicy
from repro.rpc.naming import PyroURI, make_uri
from repro.rpc.proxy import Proxy

DEFAULT_OBJECT_ID = "ACL_Workstation"


class ACLPyroClient:
    """Client handle to the ACL workstation server.

    Args:
        host: control agent address (or URI via :meth:`from_uri`).
        port: control-channel TCP port.
        object_id: registered Pyro object id.
        connection_factory: custom dialer (the simulated network's).
        timeout: per-call deadline in seconds.
        retry_policy: wrap the proxy in a
            :class:`~repro.resilience.ResilientProxy` under this policy
            (reconnect + retry with idempotent replay).
        breaker: optional circuit breaker for the resilient wrapper.
        event_log: structured log the resilient wrapper emits retry
            events to.
        tracer: optional :class:`repro.obs.Tracer`; every call gets a
            client-side span whose context rides the request frame.
        metrics: optional :class:`repro.obs.MetricsRegistry` receiving
            per-call counters/latencies.
        idem_prefix: idempotency-key prefix handed to the resilient
            wrapper. A resumed run passes the prefix journaled by its
            crashed predecessor so re-issued calls replay from the
            daemon's dedup journal instead of re-executing (durable
            at-most-once; requires ``retry_policy``/``breaker`` so a
            ResilientProxy exists to stamp keys).
        max_inflight: control-channel pipelining window (PROTOCOLS
            §1.4); 1 keeps the classic lockstep request/reply.
    """

    def __init__(
        self,
        host: str,
        port: int,
        object_id: str = DEFAULT_OBJECT_ID,
        connection_factory: Callable | None = None,
        timeout: float | None = 60.0,
        secret: bytes | None = None,
        retry_policy: RetryPolicy | None = None,
        breaker: CircuitBreaker | None = None,
        event_log: EventLog | None = None,
        tracer: Any = None,
        metrics: Any = None,
        idem_prefix: str | None = None,
        max_inflight: int = 1,
    ):
        uri = make_uri(object_id, host, port)
        proxy = Proxy(
            uri,
            timeout=timeout,
            connection_factory=connection_factory,
            secret=secret,
            tracer=tracer,
            metrics=metrics,
            max_inflight=max_inflight,
        )
        if retry_policy is not None or breaker is not None:
            proxy = ResilientProxy(
                proxy,
                policy=retry_policy,
                breaker=breaker,
                event_log=event_log,
                tracer=tracer,
                metrics=metrics,
                key_prefix=idem_prefix,
            )
        self._proxy = proxy

    @classmethod
    def from_uri(
        cls,
        uri: str | PyroURI,
        connection_factory: Callable | None = None,
        timeout: float | None = 60.0,
        secret: bytes | None = None,
        retry_policy: RetryPolicy | None = None,
        breaker: CircuitBreaker | None = None,
        event_log: EventLog | None = None,
        tracer: Any = None,
        metrics: Any = None,
        idem_prefix: str | None = None,
        max_inflight: int = 1,
    ) -> "ACLPyroClient":
        """Build from a full ``PYRO:`` URI."""
        from repro.rpc.naming import parse_uri

        parsed = parse_uri(uri)
        return cls(
            host=parsed.host,
            port=parsed.port,
            object_id=parsed.object_id,
            connection_factory=connection_factory,
            timeout=timeout,
            secret=secret,
            retry_policy=retry_policy,
            breaker=breaker,
            event_log=event_log,
            tracer=tracer,
            metrics=metrics,
            idem_prefix=idem_prefix,
            max_inflight=max_inflight,
        )

    @property
    def resilient(self) -> bool:
        """Whether calls retry/replay through a :class:`ResilientProxy`."""
        return isinstance(self._proxy, ResilientProxy)

    @property
    def idem_prefix(self) -> str | None:
        """The resilient wrapper's idempotency-key prefix (None when bare)."""
        return getattr(self._proxy, "key_prefix", None)

    def set_lease(self, resource: str, epoch: int) -> None:
        """Attach a fencing token to every subsequent request.

        The daemon rejects calls whose epoch is stale with
        ``LEASE_FENCED`` — see ``docs/PROTOCOLS.md`` §1.6.
        """
        self._proxy.lease = {"resource": resource, "epoch": epoch}

    def clear_lease(self) -> None:
        self._proxy.lease = None

    # -- connection management ---------------------------------------------
    def ping(self) -> None:
        """Liveness check of the control channel (workflow task A)."""
        self._proxy._pyro_ping()

    def available_commands(self) -> list[str]:
        """Exposed method names on the server."""
        return list(self._proxy._pyro_metadata().get("methods", []))

    def close(self) -> None:
        self._proxy.close()

    def __enter__(self) -> "ACLPyroClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- call forwarding ------------------------------------------------------
    def __getattr__(self, name: str) -> Callable[..., Any]:
        if name.startswith("_"):
            raise AttributeError(name)
        # the notebook style: client.call_Initialize_SP200_API(...)
        target = name[len("call_"):] if name.startswith("call_") else name
        return getattr(self._proxy, target)
