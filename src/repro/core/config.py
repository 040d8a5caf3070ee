"""Typed configuration objects for :func:`repro.connect`.

The session surface grew one keyword at a time — ``resilient=`` here,
``pipeline_depth=`` there, ``require_healthy=``/``profile=`` on every
workflow call — until dialling a tuned session meant threading half a
dozen loose kwargs through three layers. These two dataclasses collapse
that sprawl:

- :class:`TransportConfig` — everything about *how bytes move*: call
  timeout, control-channel pipelining window, data-channel read-ahead
  depth, the HMAC secret;
- :class:`SessionConfig` — everything about *how the session behaves*:
  resilience, the health gate, profiling, durable campaign journaling,
  tail sampling.

Both are frozen: a config captures a policy, not mutable state, so one
object can be shared across many ``connect()`` calls (a notebook, a
fleet of sessions, a test fixture) without aliasing surprises.

Example::

    import repro
    from repro.core.config import TransportConfig, SessionConfig

    transport = TransportConfig(pipeline_depth=8)
    policy = SessionConfig(resilient=True, require_healthy=True)
    with repro.connect(transport=transport, session=policy) as s:
        s.run_workflow()           # health-gated per the SessionConfig
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.errors import WorkflowError

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
        secret: HMAC challenge-response secret for URI-mode connects
            (in-process ICEs supply their own from ``ICEConfig``).
    """

    timeout: float | None = 120.0
    max_inflight: int = 1
    pipeline_depth: int = 1
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
        trace_sample_budget: tail-based trace sampling budget — the
            per-tenant fraction of *normal* traces kept by the
            :class:`~repro.obs.analysis.TraceSampler` (error, slow and
            SLO-breaching traces are always kept). ``None`` (default)
            disables tail sampling: every finished span reaches the
            exporters, as before.
    """

    resilient: bool = True
    require_healthy: bool = False
    profile: bool = False
    journal_dir: str | Path | None = None
    trace_sample_budget: float | None = None

    def __post_init__(self) -> None:
        if self.trace_sample_budget is not None and not (
            0.0 <= self.trace_sample_budget <= 1.0
        ):
            raise WorkflowError(
                "trace_sample_budget must be in [0, 1], got "
                f"{self.trace_sample_budget}"
            )
