"""A reconnecting, retrying wrapper around :class:`repro.rpc.proxy.Proxy`.

A bare proxy holds one connection and surfaces every transport hiccup to
the caller — correct, but the paper's steering loop spans a WAN, a campus
gateway and a lab hub, where a mid-run link flap is routine rather than
exceptional. :class:`ResilientProxy` hides that class of failure:

- each *logical* call gets one unique idempotency key that is
  reused across every retransmission, so the daemon's dedup cache can
  replay the recorded outcome instead of re-executing — a retried
  ``Dispense_Syringe_Pump`` never dispenses twice;
- on a transient transport error the underlying connection is dropped and
  redialled on the next attempt, with backoff from a
  :class:`~repro.resilience.policy.RetryPolicy`;
- an optional :class:`~repro.resilience.policy.CircuitBreaker` fails fast
  when the endpoint is persistently dead instead of stalling the workflow
  on every call.

The call surface mirrors ``Proxy`` (``__getattr__`` → remote method,
``_pyro_ping``, ``_pyro_metadata``, ``close``, context manager), so it
drops into :class:`repro.facility.client.ACLPyroClient` unchanged.
"""

from __future__ import annotations

import itertools
import random
import uuid
from typing import Any, Callable

from repro.clock import Clock, WALL
from repro.logging_utils import EventLog
from repro.resilience.policy import CircuitBreaker, RetryPolicy
from repro.rpc.proxy import Proxy, _RemoteMethod


class ResilientProxy:
    """Retry/reconnect/replay decorator over a :class:`Proxy`.

    Args:
        proxy: the wrapped proxy (owned: ``close`` closes it).
        policy: retry policy; defaults to :class:`RetryPolicy` defaults.
        breaker: optional circuit breaker gating every attempt.
        clock: time source for backoff sleeps (virtual in tests).
        rng: jitter source; pass a seeded ``random.Random`` for
            reproducible backoff sequences.
        event_log: optional structured log; emits ``rpc.resilient`` retry
            events for transcript-style assertions.
        tracer: optional :class:`repro.obs.Tracer`; each logical call gets
            an ``rpc.resilient.<method>`` span under which every attempt's
            ``rpc.call.<method>`` span nests. Defaults to the wrapped
            proxy's tracer so one knob configures both layers.
        metrics: optional :class:`repro.obs.MetricsRegistry` receiving
            retry/reconnect counters (defaults to the proxy's registry).
        key_prefix: idempotency-key prefix. Defaults to a fresh uuid4
            hex per proxy — globally unique keys, at-most-once within
            one daemon lifetime. Pass the prefix recorded in a durable
            journal to make a *resumed* client re-issue byte-identical
            keys, so calls it already made before a crash replay from
            the daemon's dedup journal instead of re-executing.

    Attributes:
        retry_count: attempts beyond the first, across all calls.
        reconnect_count: times the underlying connection was redialled
            after a failure.
    """

    def __init__(
        self,
        proxy: Proxy,
        policy: RetryPolicy | None = None,
        breaker: CircuitBreaker | None = None,
        clock: Clock | None = None,
        rng: random.Random | None = None,
        event_log: EventLog | None = None,
        tracer: Any = None,
        metrics: Any = None,
        key_prefix: str | None = None,
    ):
        self._proxy = proxy
        self._policy = policy or RetryPolicy()
        self._breaker = breaker
        self._clock = clock or WALL
        self._rng = rng
        self._event_log = event_log
        self.tracer = tracer if tracer is not None else getattr(proxy, "tracer", None)
        self.metrics = (
            metrics if metrics is not None else getattr(proxy, "metrics", None)
        )
        # one random prefix per proxy + a counter keeps keys globally
        # unique at a fraction of the cost of a uuid4 per call; a caller
        # resuming a journaled run passes the recorded prefix instead
        self._key_prefix = key_prefix if key_prefix else uuid.uuid4().hex
        self._key_seq = itertools.count()
        self.retry_count = 0
        self.reconnect_count = 0

    # -- passthrough surface ---------------------------------------------
    @property
    def uri(self):
        return self._proxy.uri

    @property
    def connected(self) -> bool:
        return self._proxy.connected

    @property
    def policy(self) -> RetryPolicy:
        return self._policy

    @property
    def breaker(self) -> CircuitBreaker | None:
        return self._breaker

    @property
    def key_prefix(self) -> str:
        """Idempotency-key prefix (journaled so a resume can reuse it)."""
        return self._key_prefix

    @property
    def lease(self) -> Any:
        return self._proxy.lease

    @lease.setter
    def lease(self, token: Any) -> None:
        # lives on the wrapped proxy, so it survives redials (close()
        # only drops the connection, never the proxy object)
        self._proxy.lease = token

    def close(self) -> None:
        self._proxy.close()

    def __enter__(self) -> "ResilientProxy":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- retried operations ----------------------------------------------
    def _run_with_retry(self, label: str, attempt: Callable[[], Any]) -> Any:
        gated = attempt
        if self._breaker is not None:
            breaker = self._breaker
            gated = lambda: breaker.call(attempt)  # noqa: E731

        def on_retry(next_attempt: int, exc: BaseException, delay: float) -> None:
            self.retry_count += 1
            # the wrapped proxy drops its connection on transport errors
            # already; closing here guarantees a clean redial even for
            # error types it does not recognise
            self._proxy.close()
            self.reconnect_count += 1
            if self.metrics is not None:
                self.metrics.counter(
                    "resilience.retries_total", "retry attempts beyond the first"
                ).inc(method=label, error_type=type(exc).__name__)
                self.metrics.counter(
                    "resilience.reconnects_total", "connection redials after failure"
                ).inc()
            if self.tracer is not None:
                from repro.obs.trace import current_span

                span = current_span()
                if span is not None:
                    span.add_event(
                        "retry",
                        attempt=next_attempt,
                        error_type=type(exc).__name__,
                        delay_s=delay,
                    )
            if self._event_log is not None:
                self._event_log.emit(
                    "rpc.resilient",
                    "retry",
                    f"{label}: attempt {next_attempt} after "
                    f"{type(exc).__name__}: {exc}",
                    method=label,
                    attempt=next_attempt,
                    error_type=type(exc).__name__,
                    delay_s=delay,
                )

        return self._policy.run(
            gated, clock=self._clock, rng=self._rng, on_retry=on_retry
        )

    def _call(
        self, method: str, args: tuple, kwargs: dict, oneway: bool = False
    ) -> Any:
        # one key per *logical* call: every retransmission of this call
        # carries the same key, so the daemon executes it at most once
        key = f"{self._key_prefix}:{next(self._key_seq)}"
        attempt = lambda: self._proxy._call(  # noqa: E731
            method, args, kwargs, oneway=oneway, idempotency_key=key
        )
        if self.tracer is None:
            return self._run_with_retry(method, attempt)
        with self.tracer.start_as_current_span(
            f"rpc.resilient.{method}", attributes={"rpc.method": method}
        ):
            return self._run_with_retry(method, attempt)

    def call(self, method: str, *args: Any, **kwargs: Any) -> Any:
        """Invoke a remote method by name, with the retry/breaker policy.

        Mirrors :meth:`repro.rpc.proxy.Proxy.call` so resilient and bare
        proxies stay drop-in interchangeable at call sites.
        """
        return self._call(method, args, kwargs)

    def _pyro_ping(self) -> None:
        # ping carries no side effects, so no idempotency key is needed
        self._run_with_retry("_pyro_ping", self._proxy._pyro_ping)

    def _pyro_metadata(self) -> dict[str, Any]:
        return self._run_with_retry("_pyro_metadata", self._proxy._pyro_metadata)

    def __getattr__(self, name: str) -> _RemoteMethod:
        # the bound method calls back into self._call, so ``.oneway`` sends
        # are retried until the send succeeds, like plain calls
        if name.startswith("_"):
            raise AttributeError(name)
        return _RemoteMethod(self, name)
