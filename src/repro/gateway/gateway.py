"""The multi-tenant facility gateway (queue + scheduler + executor).

One :class:`Gateway` fronts a set of instrument cells on behalf of many
tenants. The flow per job:

1. **admission** — :meth:`Gateway.submit` authenticates the tenant
   (HMAC-checked API key), applies its rate limit and quota, validates
   the campaign spec, then journals the job (``job-submitted``) before
   acknowledging — a crash after the ack can never lose the job.
2. **placement** — the scheduler thread (or an explicit :meth:`step`)
   picks a free *healthy* cell first, then the tenant whose fair-share
   turn it is, and journals ``job-started`` with the chosen cell.
3. **execution** — the job's strategy spec is rebuilt via
   :func:`~repro.core.campaign.strategy_from_spec` and run as a
   :class:`~repro.core.campaign.Campaign` against the cell's ICE, with
   a per-job durable journal. A cancel that races a running job stops
   it at the next round boundary.
4. **restart** — a gateway rebuilt over the same ``state_dir`` replays
   its journal: finished jobs keep their outcome, queued jobs are still
   queued, and jobs caught running are re-queued under their original
   idempotency-key prefix so the re-execution *resumes* (campaign
   journal + daemon dedup replay) instead of re-touching instruments.

Everything observable lands in ``gateway.*`` metrics, which the
``gateway`` health subsystem judges (see ``docs/OBSERVABILITY.md``).
"""

from __future__ import annotations

import threading
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from repro.clock import Clock, WALL
from repro.errors import (
    GatewayError,
    QuotaExceededError,
    RateLimitedError,
    TenantAuthError,
    UnknownTenantError,
)
from repro.gateway.jobs import (
    CANCELLED,
    FAILED,
    FEED_SCHEMA,
    SUCCEEDED,
    Job,
    JobStore,
)
from repro.gateway.scheduler import Cell, FairShareScheduler
from repro.gateway.tenants import TenantRegistry, TenantSpec
from repro.obs.trace import use_span
from repro.rpc.context import reset_current_tenant, set_current_tenant


@dataclass(frozen=True)
class JobContext:
    """What the executor hands a job runner.

    Attributes:
        journal_dir: per-job durable-execution directory (campaign WAL
            and checkpoints live here).
        idem_prefix: the job's fixed idempotency-key prefix.
        resume: True when this execution follows a gateway restart that
            caught the job running — the runner must resume, not rerun.
        cancelled: callable; True once a tenant cancel has landed, to be
            honoured at the next safe boundary.
    """

    journal_dir: Path
    idem_prefix: str
    resume: bool
    cancelled: Callable[[], bool]


#: A runner executes one placed job and returns
#: ``{"state": <terminal state>, "rounds": int, "error": str | None}``.
Runner = Callable[[Job, Cell, JobContext], dict[str, Any]]


def campaign_runner(job: Job, cell: Cell, ctx: JobContext) -> dict[str, Any]:
    """Default runner: the job spec as a closed-loop campaign.

    The spec's strategy is wrapped so a pending cancel reads as "stop"
    at the next round boundary — the campaign finishes its in-flight
    round cleanly (safe state) instead of being killed mid-acquisition.
    """
    from repro.core.campaign import Campaign, strategy_from_spec

    if cell.ice is None:
        raise GatewayError(
            f"cell {cell.name!r} has no ICE attached; the default campaign "
            "runner needs one (or inject a custom runner)"
        )
    strategy = strategy_from_spec(job.spec["strategy"])

    def guarded(history):
        if ctx.cancelled():
            return None
        return strategy(history)

    campaign = Campaign(
        ice=cell.ice,
        strategy=guarded,
        max_rounds=int(job.spec.get("max_rounds", 10)),
        journal_dir=ctx.journal_dir,
    )
    if ctx.resume and (ctx.journal_dir / "campaign.jsonl").exists():
        rounds = campaign.resume()
    else:
        rounds = campaign.run()
    if ctx.cancelled():
        return {"state": CANCELLED, "rounds": len(rounds)}
    ok = bool(rounds) and all(r.result.succeeded for r in rounds)
    return {
        "state": SUCCEEDED if ok else FAILED,
        "rounds": len(rounds),
        "error": None if ok else "campaign round failed",
    }


class Gateway:
    """Queue, fair-share scheduler and executor over instrument cells.

    Args:
        cells: the schedulable cells — :class:`Cell` objects, or a
            ``{name: ice}`` mapping for the common case.
        state_dir: durable gateway state (job journal + per-job campaign
            journals). Reopening the same directory resumes the queue.
        tenants: initial :class:`TenantSpec` registrations.
        metrics: optional :class:`~repro.obs.MetricsRegistry`; all
            ``gateway.*`` series land here.
        clock: time source (tests inject a fake).
        runner: override job execution (benchmarks use a synthetic
            runner); defaults to :func:`campaign_runner`.
        tracer: optional :class:`~repro.obs.Tracer` for per-job root
            spans (``gateway.job``); falls back to the executing cell's
            ICE tracer. Even with no tracer at all, every execution is
            stamped with a fresh root trace id (journal-first) so
            ``Job_Status`` always carries ``trace_id``.
        fsync: journal durability; leave on outside benchmarks.
    """

    def __init__(
        self,
        cells: dict[str, Any] | list[Cell],
        state_dir: str | Path,
        tenants: tuple[TenantSpec, ...] | list[TenantSpec] = (),
        *,
        metrics: Any = None,
        clock: Clock | None = None,
        runner: Runner | None = None,
        tracer: Any = None,
        feed_capacity: int = 1024,
        fsync: bool = True,
        poll_interval_s: float = 0.01,
    ):
        self._clock = clock or WALL
        self.metrics = metrics
        self.tracer = tracer
        self.state_dir = Path(state_dir)
        if isinstance(cells, dict):
            cells = [Cell(name=name, ice=ice) for name, ice in cells.items()]
        self.scheduler = FairShareScheduler(list(cells), metrics=metrics)
        self.registry = TenantRegistry(clock=self._clock)
        for spec in tenants:
            self.registry.add(spec)
        self.store = JobStore.open(
            self.state_dir,
            clock=self._clock,
            feed_capacity=feed_capacity,
            fsync=fsync,
        )
        self._runner: Runner = runner or campaign_runner
        self._sched_lock = threading.Lock()
        self._poll_interval_s = poll_interval_s
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        if metrics is not None and self.store.requeued_on_open:
            metrics.counter(
                "gateway.jobs_requeued_total",
                "running jobs re-queued by a gateway restart",
            ).inc(len(self.store.requeued_on_open))
        for tenant in self.registry.tenants():
            self._update_depth(tenant)

    # -- tenant administration ---------------------------------------------
    def add_tenant(self, spec: TenantSpec) -> None:
        self.registry.add(spec)
        self._update_depth(spec.tenant_id)

    # -- client verbs -------------------------------------------------------
    def _count_reject(self, reason: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(
                "gateway.rejects_total", "gateway admission rejections"
            ).inc(reason=reason)

    def _auth(self, tenant_id: str | None, api_key: str) -> TenantSpec:
        try:
            return self.registry.authenticate(tenant_id, api_key)
        except (UnknownTenantError, TenantAuthError):
            self._count_reject("auth")
            raise

    def _update_depth(self, tenant: str) -> None:
        if self.metrics is not None:
            self.metrics.gauge(
                "gateway.queue_depth", "queued + running jobs per tenant"
            ).set(float(self.store.active_count(tenant)), tenant=tenant)

    def submit(
        self,
        tenant_id: str | None,
        api_key: str,
        spec: dict[str, Any],
        priority: int = 0,
    ) -> dict[str, Any]:
        """Admit one job; returns its wire view (``state == "queued"``)."""
        tenant = self._auth(tenant_id, api_key)
        if not isinstance(spec, dict) or "strategy" not in spec:
            raise GatewayError(
                'job spec must be {"strategy": <spec>, "max_rounds": N}'
            )
        from repro.core.campaign import strategy_from_spec

        strategy_from_spec(spec["strategy"])  # validate before journaling
        try:
            self.registry.admit_submit(
                tenant, self.store.active_count(tenant.tenant_id)
            )
        except RateLimitedError:
            self._count_reject("rate")
            raise
        except QuotaExceededError:
            self._count_reject("quota")
            raise
        job = self.store.submit(tenant.tenant_id, spec, priority=priority)
        if self.metrics is not None:
            self.metrics.counter(
                "gateway.jobs_submitted_total", "jobs admitted by the gateway"
            ).inc(tenant=tenant.tenant_id)
        self._update_depth(tenant.tenant_id)
        return job.to_wire()

    def status(
        self, tenant_id: str | None, api_key: str, job_id: str
    ) -> dict[str, Any]:
        tenant = self._auth(tenant_id, api_key)
        return self.store.get(job_id, tenant=tenant.tenant_id).to_wire()

    def cancel(
        self, tenant_id: str | None, api_key: str, job_id: str
    ) -> dict[str, Any]:
        tenant = self._auth(tenant_id, api_key)
        job = self.store.cancel(job_id, tenant=tenant.tenant_id)
        if job.state == CANCELLED and self.metrics is not None:
            self.metrics.counter(
                "gateway.jobs_finished_total", "jobs reaching a terminal state"
            ).inc(status=CANCELLED)
        self._update_depth(tenant.tenant_id)
        return job.to_wire()

    def poll(
        self,
        tenant_id: str | None,
        api_key: str,
        cursor: int = 0,
        max_events: int = 256,
    ) -> dict[str, Any]:
        """Cursor-poll the tenant's job events (PROTOCOLS §1.5 contract)."""
        tenant = self._auth(tenant_id, api_key)
        events, next_cursor, gap = self.store.feed.read_since(
            cursor, max_events=max_events, tenant=tenant.tenant_id
        )
        return {
            "schema": FEED_SCHEMA,
            "service": "gateway",
            "cursor": next_cursor,
            "gap": gap,
            "events": [e.to_wire() for e in events],
        }

    # -- scheduling + execution --------------------------------------------
    def _place(self) -> tuple[Job, Cell] | None:
        """One placement decision under the scheduler lock.

        Cell before tenant: when no healthy cell is free there is no
        placement, and no tenant's stride may advance for a turn it
        never got.
        """
        with self._sched_lock:
            cell = self.scheduler.pick_cell()
            if cell is None:
                return None
            backlog = {
                t: self.store.next_for_tenant(t)
                for t in self.registry.tenants()
            }
            weights = {
                t: self.registry.spec(t).weight
                for t in self.registry.tenants()
            }
            tenant = self.scheduler.pick_tenant(backlog, weights)
            if tenant is None:
                return None
            job = backlog[tenant]
            self.store.mark_running(job.job_id, cell.name)
            cell.busy = True
            self._update_depth(tenant)
            return job, cell

    def _job_span(self, job: Job, cell: Cell) -> tuple[str, Any]:
        """A root span (or at least a root trace id) for one execution.

        The span — installed current around the runner — parents every
        campaign/workflow/RPC span the execution produces, so the whole
        cross-facility run shares one trace id. Without any tracer a
        bare trace id is still minted: the journal contract (trace_id
        stamped before the runner starts) does not depend on tracing
        being on.
        """
        tracer = self.tracer
        if tracer is None and cell.ice is not None:
            tracer = getattr(cell.ice, "tracer", None)
        if tracer is None:
            return uuid.uuid4().hex, None
        span = tracer.start_span(
            "gateway.job",
            parent=None,
            attributes={
                "job_id": job.job_id,
                "tenant": job.tenant,
                "cell": cell.name,
            },
        )
        return span.trace_id, span

    def _execute(self, job: Job, cell: Cell) -> None:
        ctx = JobContext(
            journal_dir=self.state_dir / "jobs" / job.job_id,
            idem_prefix=job.idem_prefix,
            resume=job.job_id in self.store.requeued_on_open,
            cancelled=lambda: self.store.get(job.job_id).cancel_requested,
        )
        trace_id, job_span = self._job_span(job, cell)
        # journal-first: the trace linkage must survive a crash during
        # the run — that is exactly when an operator wants to explain it
        self.store.assign_trace(job.job_id, trace_id)
        state, rounds, error = FAILED, 0, None
        # bind the job's tenant on this thread for the whole run: every
        # metric the runner's workflow/RPC stack writes is attributed to
        # the tenant automatically (see MetricsRegistry tenant labels)
        tenant_token = set_current_tenant(job.tenant)
        try:
            with use_span(job_span):
                outcome = self._runner(job, cell, ctx) or {}
            state = str(outcome.get("state", SUCCEEDED))
            rounds = int(outcome.get("rounds", 0))
            error = outcome.get("error")
        except Exception as exc:  # noqa: BLE001 - a job failure is data
            state, error = FAILED, f"{type(exc).__name__}: {exc}"
        finally:
            reset_current_tenant(tenant_token)
            cell.busy = False
            if job_span is not None:
                job_span.set_attribute("state", state)
                job_span.end("ERROR" if state == FAILED else None)
        self.store.mark_finished(job.job_id, state, rounds=rounds, error=error)
        if self.metrics is not None:
            self.metrics.counter(
                "gateway.jobs_finished_total", "jobs reaching a terminal state"
            ).inc(status=state)
        self._update_depth(job.tenant)

    def step(self) -> dict[str, Any] | None:
        """Place and synchronously execute at most one job.

        Returns the finished job's wire view, or None when nothing was
        placeable (empty queue, every cell busy or unhealthy).
        """
        placement = self._place()
        if placement is None:
            return None
        job, cell = placement
        self._execute(job, cell)
        return self.store.get(job.job_id).to_wire()

    def run_until_idle(self, max_jobs: int | None = None) -> int:
        """Drive :meth:`step` until the queue drains; returns jobs run.

        Stops early when placement stalls (e.g. every cell unhealthy)
        so a gated queue cannot spin this loop forever.
        """
        executed = 0
        while max_jobs is None or executed < max_jobs:
            if self.step() is None:
                break
            executed += 1
        return executed

    def start(self) -> None:
        """Serve the queue from a background scheduler thread."""
        if self._thread is not None:
            raise GatewayError("gateway scheduler already running")
        self._stop.clear()

        def loop() -> None:
            while not self._stop.is_set():
                if self.step() is None:
                    self._stop.wait(self._poll_interval_s)

        self._thread = threading.Thread(
            target=loop, name="gateway-scheduler", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop the scheduler thread (lets an in-flight job finish)."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None

    def close(self) -> None:
        self.stop()
        self.store.close()
        for cell in self.scheduler.cells:
            cell.close()

    def __enter__(self) -> "Gateway":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- introspection ------------------------------------------------------
    def queue_depth(self, tenant: str | None = None) -> int:
        if tenant is not None:
            return self.store.active_count(tenant)
        return sum(
            self.store.active_count(t) for t in self.registry.tenants()
        )
