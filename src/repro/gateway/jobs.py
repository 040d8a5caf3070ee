"""Persistent job queue and store for the facility gateway.

Every state transition a client can observe is first made durable in a
:class:`~repro.durability.journal.Journal` (``gateway.jsonl``), then
applied in memory — the same write-ahead discipline the campaign layer
uses for rounds. A gateway process that dies mid-flight is rebuilt by
:meth:`JobStore.open`: submitted jobs reappear queued, finished jobs
keep their outcome, and jobs that were *running* at the moment of death
are re-queued under their original idempotency-key prefix, so the next
execution replays already-performed instrument calls from the daemon's
dedup journal instead of re-executing them.

Alongside the table, a :class:`JobFeed` retention ring records one
event per transition and serves them through the same
:class:`~repro.obs.primitives.CursorRing` as ``Telemetry_Poll``
(PROTOCOLS §1.5): clients poll with the last sequence number they saw
and get back everything newer, plus a ``gap`` count when their cursor
has fallen off the ring.
"""

from __future__ import annotations

import threading
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.clock import Clock, WALL
from repro.durability.journal import Journal
from repro.errors import GatewayError, JobStateError, UnknownJobError
from repro.obs.primitives import CursorRing

#: Job lifecycle states.
QUEUED = "queued"
RUNNING = "running"
SUCCEEDED = "succeeded"
FAILED = "failed"
CANCELLED = "cancelled"

#: States a job can never leave.
TERMINAL = (SUCCEEDED, FAILED, CANCELLED)

#: Schema tag stamped into every Job_Poll reply.
FEED_SCHEMA = "repro-jobs-1"


@dataclass
class Job:
    """One unit of gateway work: a campaign spec owned by a tenant.

    Attributes:
        job_id: gateway-assigned identifier.
        tenant: owning tenant id.
        spec: JSON-safe execution spec — ``{"strategy": <spec>,
            "max_rounds": N}`` where ``strategy`` rebuilds via
            :func:`repro.core.campaign.strategy_from_spec`.
        priority: larger runs earlier *within the tenant's own queue*;
            fairness across tenants is the scheduler's job, so priority
            never lets one tenant jump another's line.
        idem_prefix: idempotency-key prefix assigned at submit and fixed
            for the job's lifetime — the token that makes re-execution
            after a crash replay instead of repeat.
        state: one of ``queued``/``running``/``succeeded``/``failed``/
            ``cancelled``.
        cell: instrument cell the job ran (or is running) on.
        cancel_requested: set by a cancel that raced a running job; the
            executor stops at the next round boundary.
        rounds: completed campaign rounds, filled at finish.
        error: failure description, filled when ``state == "failed"``.
        trace_id: root trace id of the job's (latest) execution —
            journaled before the runner starts, so ``Job_Status`` can
            always point diagnosis at the right trace. A re-execution
            after a crash restamps it.
    """

    job_id: str
    tenant: str
    spec: dict[str, Any]
    priority: int = 0
    idem_prefix: str = ""
    state: str = QUEUED
    cell: str | None = None
    submitted_at: float = 0.0
    started_at: float | None = None
    finished_at: float | None = None
    cancel_requested: bool = False
    rounds: int = 0
    error: str | None = None
    trace_id: str | None = None
    #: monotonically increasing submit index — the FIFO tiebreak
    order: int = 0

    def to_wire(self) -> dict[str, Any]:
        """JSON-safe view returned by the gateway verbs."""
        return {
            "job_id": self.job_id,
            "tenant": self.tenant,
            "spec": self.spec,
            "priority": self.priority,
            "state": self.state,
            "cell": self.cell,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "cancel_requested": self.cancel_requested,
            "rounds": self.rounds,
            "error": self.error,
            "trace_id": self.trace_id,
        }


@dataclass(frozen=True)
class JobEvent:
    """One entry on the job feed (the cursor currency of ``Job_Poll``)."""

    seq: int
    timestamp: float
    name: str  # job.submitted / job.started / job.finished / ...
    tenant: str
    job_id: str
    data: dict[str, Any] = field(default_factory=dict)

    def to_wire(self) -> dict[str, Any]:
        return {
            "seq": self.seq,
            "timestamp": self.timestamp,
            "name": self.name,
            "tenant": self.tenant,
            "job_id": self.job_id,
            "data": self.data,
        }


class JobFeed:
    """Bounded retention ring of :class:`JobEvent`, cursor-polled.

    The ring is ``TelemetryBus``'s :class:`~repro.obs.primitives.CursorRing`:
    ``gap`` counts the events that fell off retention between the
    caller's cursor and the oldest event still held — a slow poller
    learns exactly how much it missed instead of silently losing history.
    """

    def __init__(self, capacity: int = 1024, clock: Clock | None = None):
        if capacity < 1:
            raise GatewayError(f"feed capacity must be >= 1, got {capacity}")
        self._clock = clock or WALL
        self._lock = threading.Lock()
        self._ring: CursorRing[JobEvent] = CursorRing(capacity)

    def publish(self, name: str, job: Job, **data: Any) -> JobEvent:
        with self._lock:
            return self._ring.append(
                lambda seq: JobEvent(
                    seq=seq,
                    timestamp=self._clock.now(),
                    name=name,
                    tenant=job.tenant,
                    job_id=job.job_id,
                    data=data,
                )
            )

    def read_since(
        self,
        cursor: int,
        max_events: int = 256,
        tenant: str | None = None,
    ) -> tuple[list[JobEvent], int, int]:
        """Events after ``cursor``; returns ``(events, next_cursor, gap)``.

        ``gap`` is ring-level (how many events of *any* tenant fell off
        retention past the cursor); the tenant filter applies to the
        returned slice only, so a quiet tenant still advances its cursor
        past other tenants' traffic.
        """
        cursor = max(0, int(cursor))
        max_events = max(1, int(max_events))
        keep = None if tenant is None else (lambda e: e.tenant == tenant)
        with self._lock:
            return self._ring.read(cursor, max_events, keep)


class JobStore:
    """The durable job table: journal-backed, thread-safe.

    Use :meth:`open`; every mutation appends its journal record before
    touching the in-memory table, so what a restart replays is always a
    superset of what any client was told.
    """

    def __init__(
        self,
        journal: Journal,
        feed: JobFeed,
        clock: Clock | None = None,
    ):
        self._clock = clock or WALL
        self._journal = journal
        self._lock = threading.RLock()
        self._jobs: dict[str, Job] = {}
        self._order = 0
        self.feed = feed
        #: job ids that were RUNNING when the previous process died and
        #: came back queued — their next execution must resume, not rerun
        self.requeued_on_open: list[str] = []

    # -- construction -------------------------------------------------------
    @classmethod
    def open(
        cls,
        state_dir: str | Path,
        clock: Clock | None = None,
        feed_capacity: int = 1024,
        fsync: bool = True,
    ) -> "JobStore":
        """Open (or create) the store under ``state_dir``; replays the
        journal and re-queues any job the last incarnation left running."""
        directory = Path(state_dir)
        directory.mkdir(parents=True, exist_ok=True)
        journal = Journal(directory / "gateway.jsonl", fsync=fsync)
        store = cls(
            journal, JobFeed(capacity=feed_capacity, clock=clock), clock=clock
        )
        store._replay(journal.initial_replay.records)
        return store

    def _replay(self, records) -> None:
        for rec in records:
            data = rec.data
            if rec.kind == "job-submitted":
                job = Job(
                    job_id=data["job_id"],
                    tenant=data["tenant"],
                    spec=dict(data.get("spec") or {}),
                    priority=int(data.get("priority", 0)),
                    idem_prefix=str(data.get("idem_prefix", "")),
                    submitted_at=float(data.get("submitted_at", 0.0)),
                    order=self._order,
                )
                self._order += 1
                self._jobs[job.job_id] = job
            elif rec.kind == "job-started":
                job = self._jobs.get(data.get("job_id", ""))
                if job is not None:
                    job.state = RUNNING
                    job.cell = data.get("cell")
                    job.started_at = data.get("started_at")
            elif rec.kind == "job-finished":
                job = self._jobs.get(data.get("job_id", ""))
                if job is not None:
                    job.state = str(data.get("state", FAILED))
                    job.finished_at = data.get("finished_at")
                    job.rounds = int(data.get("rounds", 0))
                    job.error = data.get("error")
            elif rec.kind == "job-trace":
                job = self._jobs.get(data.get("job_id", ""))
                if job is not None:
                    job.trace_id = data.get("trace_id")
            elif rec.kind == "job-cancelled":
                job = self._jobs.get(data.get("job_id", ""))
                if job is not None:
                    if job.state == QUEUED:
                        job.state = CANCELLED
                        job.finished_at = data.get("cancelled_at")
                    else:
                        job.cancel_requested = True
        # a job the dead process left running goes back in the queue
        # under its original idem_prefix: the re-execution resumes from
        # its campaign journal / the daemon's dedup journal, so no
        # instrument action runs twice
        for job in self._jobs.values():
            if job.state == RUNNING:
                job.state = QUEUED
                job.cell = None
                job.started_at = None
                self.requeued_on_open.append(job.job_id)

    # -- queries ------------------------------------------------------------
    def get(self, job_id: str, tenant: str | None = None) -> Job:
        """Look a job up; a wrong-tenant id is as unknown as a bad one
        (job ids must not leak across tenants)."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None or (tenant is not None and job.tenant != tenant):
                raise UnknownJobError(f"unknown job {job_id!r}")
            return job

    def jobs(self, tenant: str | None = None) -> list[Job]:
        with self._lock:
            return [
                j
                for j in self._jobs.values()
                if tenant is None or j.tenant == tenant
            ]

    def active_count(self, tenant: str) -> int:
        """Queued + running jobs charged against the tenant's quota."""
        with self._lock:
            return sum(
                1
                for j in self._jobs.values()
                if j.tenant == tenant and j.state in (QUEUED, RUNNING)
            )

    def queued(self) -> list[Job]:
        """Schedulable jobs, tenant-priority order left to the caller."""
        with self._lock:
            return [j for j in self._jobs.values() if j.state == QUEUED]

    def next_for_tenant(self, tenant: str) -> Job | None:
        """The tenant's own head of line: highest priority, then FIFO."""
        with self._lock:
            candidates = [
                j
                for j in self._jobs.values()
                if j.tenant == tenant and j.state == QUEUED
            ]
        if not candidates:
            return None
        return min(candidates, key=lambda j: (-j.priority, j.order))

    # -- transitions --------------------------------------------------------
    def submit(
        self, tenant: str, spec: dict[str, Any], priority: int = 0
    ) -> Job:
        with self._lock:
            job = Job(
                job_id=uuid.uuid4().hex[:12],
                tenant=tenant,
                spec=spec,
                priority=int(priority),
                idem_prefix=uuid.uuid4().hex,
                submitted_at=self._clock.now(),
                order=self._order,
            )
            self._order += 1
            self._journal.append(
                "job-submitted",
                job_id=job.job_id,
                tenant=job.tenant,
                spec=job.spec,
                priority=job.priority,
                idem_prefix=job.idem_prefix,
                submitted_at=job.submitted_at,
            )
            self._jobs[job.job_id] = job
        self.feed.publish("job.submitted", job, priority=job.priority)
        return job

    def mark_running(self, job_id: str, cell: str) -> Job:
        with self._lock:
            job = self.get(job_id)
            if job.state != QUEUED:
                raise JobStateError(
                    f"job {job_id!r} is {job.state}, cannot start"
                )
            started_at = self._clock.now()
            self._journal.append(
                "job-started", job_id=job_id, cell=cell, started_at=started_at
            )
            job.state = RUNNING
            job.cell = cell
            job.started_at = started_at
        self.feed.publish("job.started", job, cell=cell)
        return job

    def assign_trace(self, job_id: str, trace_id: str) -> Job:
        """Stamp the root trace id of the job's execution, journal-first.

        Written before the runner issues its first call, so a status
        query — or a post-crash replay — can always link the job to its
        trace. Re-executions restamp (last record wins on replay).
        """
        with self._lock:
            job = self.get(job_id)
            self._journal.append(
                "job-trace", job_id=job_id, trace_id=trace_id
            )
            job.trace_id = trace_id
            return job

    def mark_finished(
        self,
        job_id: str,
        state: str,
        rounds: int = 0,
        error: str | None = None,
    ) -> Job:
        if state not in TERMINAL:
            raise JobStateError(f"{state!r} is not a terminal job state")
        with self._lock:
            job = self.get(job_id)
            if job.state in TERMINAL:
                raise JobStateError(
                    f"job {job_id!r} already finished ({job.state})"
                )
            finished_at = self._clock.now()
            self._journal.append(
                "job-finished",
                job_id=job_id,
                state=state,
                finished_at=finished_at,
                rounds=rounds,
                error=error,
            )
            job.state = state
            job.finished_at = finished_at
            job.rounds = rounds
            job.error = error
        self.feed.publish("job.finished", job, state=state, rounds=rounds)
        return job

    def cancel(self, job_id: str, tenant: str | None = None) -> Job:
        """Cancel a job the tenant owns.

        Queued: terminal immediately. Running: sets ``cancel_requested``
        — the executor honours it at the next round boundary and the job
        finishes ``cancelled`` then. Already terminal: JobStateError.
        """
        with self._lock:
            job = self.get(job_id, tenant=tenant)
            if job.state in TERMINAL:
                raise JobStateError(
                    f"job {job_id!r} already finished ({job.state})"
                )
            cancelled_at = self._clock.now()
            self._journal.append(
                "job-cancelled", job_id=job_id, cancelled_at=cancelled_at
            )
            if job.state == QUEUED:
                job.state = CANCELLED
                job.finished_at = cancelled_at
            else:
                job.cancel_requested = True
        self.feed.publish(
            "job.cancelled", job, while_running=job.state == RUNNING
        )
        return job

    def close(self) -> None:
        self._journal.close()
