"""Typed configuration objects for :func:`repro.connect`.

The session surface grew one keyword at a time — ``resilient=`` here,
``pipeline_depth=`` there, ``require_healthy=``/``profile=`` on every
workflow call — until dialling a tuned session meant threading half a
dozen loose kwargs through three layers. These two dataclasses collapse
that sprawl:

- :class:`TransportConfig` — everything about *how bytes move*: call
  timeout, control-channel pipelining window, data-channel read-ahead
  depth, binary wire-format negotiation policy, the HMAC secret;
- :class:`SessionConfig` — everything about *how the session behaves*:
  resilience, the health gate, profiling, durable campaign journaling,
  the health-rule window.

Both are frozen: a config captures a policy, not mutable state, so one
object can be shared across many ``connect()`` calls (a notebook, a
fleet of sessions, a test fixture) without aliasing surprises.

Example::

    import repro
    from repro.core.config import TransportConfig, SessionConfig

    transport = TransportConfig(pipeline_depth=8, binary="auto")
    policy = SessionConfig(resilient=True, require_healthy=True)
    with repro.connect(transport=transport, session=policy) as s:
        s.run_workflow()           # health-gated per the SessionConfig

The legacy loose kwargs (``resilient=``, ``health_window_s=``) still
work but emit :class:`DeprecationWarning`; they are mapped onto a
config object internally.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

from repro.errors import WorkflowError

_BINARY_CHOICES = (True, False, "auto")


@dataclass(frozen=True)
class TransportConfig:
    """How the session's control and data channels move bytes.

    Attributes:
        timeout: per-call deadline in seconds (both channels).
        max_inflight: control-channel pipelining window — how many
            requests the control proxy may have in flight at once
            (PROTOCOLS §1.4). 1 = classic lockstep request/reply.
        pipeline_depth: data-channel read-ahead depth — how many
            ``read_chunk`` requests a mount keeps in flight during bulk
            reads. 1 = one WAN round trip per chunk.
        binary: wire-format negotiation policy (PROTOCOLS §1.7).
            ``"auto"`` negotiates binary bulk framing with v2 peers and
            falls back to JSON against old daemons; ``False`` pins the
            JSON v1 wire; ``True`` requires v2 and raises
            :class:`~repro.errors.ProtocolError` against a JSON-only
            peer.
        secret: HMAC challenge-response secret for URI-mode connects
            (in-process ICEs supply their own from ``ICEConfig``).
    """

    timeout: float | None = 120.0
    max_inflight: int = 1
    pipeline_depth: int = 1
    binary: bool | str = "auto"
    secret: bytes | None = None

    def __post_init__(self) -> None:
        if self.max_inflight < 1:
            raise WorkflowError(
                f"max_inflight must be >= 1, got {self.max_inflight}"
            )
        if self.pipeline_depth < 1:
            raise WorkflowError(
                f"pipeline_depth must be >= 1, got {self.pipeline_depth}"
            )
        if self.binary not in _BINARY_CHOICES:
            raise WorkflowError(
                f"binary must be True, False or 'auto', got {self.binary!r}"
            )


@dataclass(frozen=True)
class SessionConfig:
    """Session behaviour: resilience, gating, profiling, durability.

    Attributes:
        resilient: route control calls through a
            :class:`~repro.resilience.ResilientProxy` (reconnect +
            retry with idempotent replay). On by default.
        require_healthy: default for the pre-flight health gate on
            :meth:`~repro.core.facade.Session.workflow`,
            :meth:`~repro.core.facade.Session.run_workflow` and
            :meth:`~repro.core.facade.Session.campaign` — individual
            calls can still override it.
        profile: default for span profiling on
            :meth:`~repro.core.facade.Session.run_workflow` (one
            ``repro-profile-1`` document per run, built from the spans
            it finishes) and :meth:`~repro.core.facade.Session.campaign`
            (one per round plus one over all rounds).
        journal_dir: durable-execution journal directory handed to
            campaigns built via
            :meth:`~repro.core.facade.Session.campaign`; None runs
            campaigns in memory only.
        health_window_s: rolling window for the session health engine.
        trace_sample_budget: tail-based trace sampling budget — the
            per-tenant fraction of *normal* traces kept by the
            :class:`~repro.obs.analysis.TraceSampler` (error, slow and
            SLO-breaching traces are always kept). ``None`` (default)
            disables tail sampling: every finished span reaches the
            exporters, as before.
        trace_slow_threshold_s: root-span duration at which a trace
            counts as slow for the tail sampler's keep-always rule.
    """

    resilient: bool = True
    require_healthy: bool = False
    profile: bool = False
    journal_dir: str | Path | None = None
    health_window_s: float = 300.0
    trace_sample_budget: float | None = None
    trace_slow_threshold_s: float = 30.0

    def __post_init__(self) -> None:
        if self.health_window_s <= 0:
            raise WorkflowError(
                f"health_window_s must be > 0, got {self.health_window_s}"
            )
        if self.trace_sample_budget is not None and not (
            0.0 <= self.trace_sample_budget <= 1.0
        ):
            raise WorkflowError(
                "trace_sample_budget must be in [0, 1], got "
                f"{self.trace_sample_budget}"
            )
        if self.trace_slow_threshold_s <= 0:
            raise WorkflowError(
                "trace_slow_threshold_s must be > 0, got "
                f"{self.trace_slow_threshold_s}"
            )


def merge_legacy_kwargs(
    session: SessionConfig | None,
    *,
    warn: bool = True,
    **legacy: object,
) -> SessionConfig:
    """Fold deprecated loose kwargs into a :class:`SessionConfig`.

    ``connect()`` calls this with whatever legacy keywords the caller
    passed (``resilient=``, ``health_window_s=``); each one set emits a
    :class:`DeprecationWarning` naming its replacement field. Passing a
    legacy kwarg *and* an explicit ``session=`` config that disagree is
    an error — silently preferring either would hide a bug at the call
    site.
    """
    import warnings

    provided = {k: v for k, v in legacy.items() if v is not None}
    base = session if session is not None else SessionConfig()
    if not provided:
        return base
    for name in provided:
        if name not in ("resilient", "health_window_s"):
            raise TypeError(f"unknown legacy session kwarg {name!r}")
        if warn:
            warnings.warn(
                f"connect({name}=...) is deprecated; pass "
                f"session=SessionConfig({name}=...) instead",
                DeprecationWarning,
                stacklevel=3,
            )
    if session is not None:
        conflicts = [
            name
            for name, value in provided.items()
            if getattr(session, name) != value
        ]
        if conflicts:
            raise WorkflowError(
                "conflicting session configuration: "
                + ", ".join(
                    f"{n}= disagrees with session.{n}" for n in conflicts
                )
            )
        return session
    return replace(base, **provided)
