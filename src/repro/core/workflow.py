"""A dependency-aware task engine for science workflows.

Design goals, in the order the paper motivates them:

- **explicit task graph** — the five workflow tasks A-E have a linear
  dependency today, but campaigns fan out (fill once, measure at several
  scan rates), so the engine is a DAG runner, not a list walker;
- **shared context** — tasks communicate through a dict-like
  :class:`Context` (client handles, file names, traces);
- **retries** — transient cross-facility failures (a dropped control
  connection) are retried per task with a bounded budget;
- **transcript** — every state change lands in an
  :class:`~repro.logging_utils.EventLog`, which is what the figure
  benchmarks print;
- **one thread** — ready tasks run one at a time on the caller's thread,
  in registration order, as the paper's notebook runs tasks A-E.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable

from repro.clock import Clock, WALL
from repro.errors import DependencyError, TaskFailedError, TaskTimeoutError
from repro.logging_utils import EventLog
from repro.obs.trace import current_span as _current_span, use_span as _use_span
from repro.resilience.policy import RetryPolicy


class TaskState(Enum):
    PENDING = "pending"
    RUNNING = "running"
    SUCCEEDED = "succeeded"
    FAILED = "failed"
    SKIPPED = "skipped"  # upstream failure


class Context(dict):
    """Shared workflow state: a dict with attribute sugar."""

    def __getattr__(self, name: str) -> Any:
        try:
            return self[name]
        except KeyError:
            raise AttributeError(name) from None

    def __setattr__(self, name: str, value: Any) -> None:
        self[name] = value


@dataclass
class Task:
    """One unit of work.

    Attributes:
        name: unique identifier (e.g. ``"A_establish_communications"``).
        fn: callable taking the shared :class:`Context`.
        depends: names of tasks that must succeed first.
        retries: additional attempts on exception (fixed-delay mode;
            ignored when ``policy`` is set).
        retry_delay_s: pause between attempts (fixed-delay mode).
        policy: optional :class:`~repro.resilience.policy.RetryPolicy`
            governing attempts and backoff instead of the fixed-delay
            pair; non-retryable errors (per the policy) fail immediately.
        timeout_s: per-attempt deadline; a run past it fails that attempt
            with :class:`~repro.errors.TaskTimeoutError`. Measured on
            wall time — the attempt runs on a real watchdog thread.
        description: human-readable purpose.
    """

    name: str
    fn: Callable[[Context], Any]
    depends: tuple[str, ...] = ()
    retries: int = 0
    retry_delay_s: float = 0.0
    policy: RetryPolicy | None = None
    timeout_s: float | None = None
    description: str = ""

    @property
    def max_attempts(self) -> int:
        return self.policy.max_attempts if self.policy else self.retries + 1


@dataclass
class TaskResult:
    """Outcome of one task."""

    name: str
    state: TaskState
    result: Any = None
    error: BaseException | None = None
    attempts: int = 0
    started_at: float = 0.0
    finished_at: float = 0.0

    @property
    def duration_s(self) -> float:
        return max(0.0, self.finished_at - self.started_at)


@dataclass
class WorkflowResult:
    """Outcome of a whole run."""

    tasks: dict[str, TaskResult] = field(default_factory=dict)
    context: Context = field(default_factory=Context)

    @property
    def succeeded(self) -> bool:
        return all(
            r.state is TaskState.SUCCEEDED for r in self.tasks.values()
        )

    def failed_tasks(self) -> list[TaskResult]:
        return [r for r in self.tasks.values() if r.state is TaskState.FAILED]

    def raise_on_failure(self) -> None:
        """Re-raise the first task failure, if any."""
        for result in self.tasks.values():
            if result.state is TaskState.FAILED:
                raise TaskFailedError(
                    f"task {result.name!r} failed: {result.error}",
                    task_name=result.name,
                ) from result.error


class Workflow:
    """A named DAG of tasks.

    Args:
        name: workflow label for transcripts.
        event_log: shared log; a fresh one is created if omitted.
        clock: time source for retry pauses, so a workflow under a
            :class:`~repro.clock.VirtualClock` retries without real
            sleeping.
        tracer: optional :class:`repro.obs.Tracer`; a run produces a
            ``workflow.<name>`` root span with one ``task.<task>`` child
            per task, installed as current around each attempt so RPC
            and instrument spans nest beneath their task.
        metrics: optional :class:`repro.obs.MetricsRegistry` receiving
            per-task duration histograms and outcome counters.
    """

    def __init__(
        self,
        name: str,
        event_log: EventLog | None = None,
        clock: Clock | None = None,
        tracer: Any = None,
        metrics: Any = None,
    ):
        self.name = name
        self.log = event_log if event_log is not None else EventLog()
        self.clock = clock or WALL
        self.tracer = tracer
        self.metrics = metrics
        self._tasks: dict[str, Task] = {}
        self._teardowns: list[tuple[str, Callable[[Context], Any]]] = []

    # -- construction -------------------------------------------------------
    def add_task(
        self,
        name: str,
        fn: Callable[[Context], Any],
        depends: tuple[str, ...] | list[str] = (),
        retries: int = 0,
        retry_delay_s: float = 0.0,
        policy: RetryPolicy | None = None,
        timeout_s: float | None = None,
        description: str = "",
    ) -> Task:
        """Register a task; duplicate names raise."""
        if name in self._tasks:
            raise DependencyError(f"duplicate task name: {name!r}")
        task = Task(
            name=name,
            fn=fn,
            depends=tuple(depends),
            retries=retries,
            retry_delay_s=retry_delay_s,
            policy=policy,
            timeout_s=timeout_s,
            description=description,
        )
        self._tasks[name] = task
        return task

    def add_teardown(
        self, fn: Callable[[Context], Any], name: str | None = None
    ) -> None:
        """Register a safe-state action for unhealthy runs.

        Teardowns run (in registration order) after any run that ends
        with a failed or skipped task — the moment the workflow can no
        longer vouch for the apparatus, pumps must stop, the purge gas
        must close and the potentiostat must park. Each teardown is
        best-effort: an exception is logged and the rest still run, since
        a dead control link must not stop the remaining safety actions.
        """
        self._teardowns.append((name or getattr(fn, "__name__", "teardown"), fn))

    def task(
        self, name: str, depends: tuple[str, ...] | list[str] = (), **kwargs
    ) -> Callable:
        """Decorator sugar over :meth:`add_task`."""

        def wrap(fn: Callable[[Context], Any]) -> Callable[[Context], Any]:
            self.add_task(name, fn, depends=depends, **kwargs)
            return fn

        return wrap

    @property
    def task_names(self) -> list[str]:
        return list(self._tasks)

    # -- validation -----------------------------------------------------------
    def _validate(self) -> None:
        for task in self._tasks.values():
            for dep in task.depends:
                if dep not in self._tasks:
                    raise DependencyError(
                        f"task {task.name!r} depends on unknown task {dep!r}"
                    )
        # cycle detection: Kahn's algorithm must consume every node
        in_degree = {name: len(t.depends) for name, t in self._tasks.items()}
        queue = [name for name, degree in in_degree.items() if degree == 0]
        seen = 0
        dependents: dict[str, list[str]] = {name: [] for name in self._tasks}
        for task in self._tasks.values():
            for dep in task.depends:
                dependents[dep].append(task.name)
        while queue:
            node = queue.pop()
            seen += 1
            for child in dependents[node]:
                in_degree[child] -= 1
                if in_degree[child] == 0:
                    queue.append(child)
        if seen != len(self._tasks):
            raise DependencyError(f"workflow {self.name!r} contains a cycle")

    # -- execution ------------------------------------------------------------
    def run(
        self,
        context: Context | dict | None = None,
        abort_on_failure: bool = True,
    ) -> WorkflowResult:
        """Execute the DAG.

        Args:
            context: initial shared state.
            abort_on_failure: when True, downstream tasks of a failure are
                SKIPPED and the run ends early (the paper's workflow must
                not start the potentiostat when the cell fill failed).
        """
        self._validate()
        ctx = context if isinstance(context, Context) else Context(context or {})
        results = {
            name: TaskResult(name=name, state=TaskState.PENDING)
            for name in self._tasks
        }
        self.log.emit(self.name, "workflow", f"run started ({len(results)} tasks)")
        run_span = (
            self.tracer.start_as_current_span(
                f"workflow.{self.name}",
                attributes={"workflow.task_count": len(results)},
            )
            if self.tracer is not None
            else None
        )

        def ready_tasks() -> list[Task]:
            out = []
            for task in self._tasks.values():
                state = results[task.name].state
                if state is not TaskState.PENDING:
                    continue
                dep_states = [results[d].state for d in task.depends]
                if all(s is TaskState.SUCCEEDED for s in dep_states):
                    out.append(task)
                elif any(
                    s in (TaskState.FAILED, TaskState.SKIPPED) for s in dep_states
                ):
                    results[task.name].state = TaskState.SKIPPED
                    self.log.emit(
                        self.name, "task", f"{task.name} skipped (upstream failure)"
                    )
            return out

        def run_attempt(task: Task) -> Any:
            if task.timeout_s is None:
                return task.fn(ctx)
            # run on a watchdog thread so a hung attempt (e.g. a blocked
            # instrument call) can be abandoned; the thread is daemonic —
            # its eventual result is discarded, the deadline is the
            # contract
            box: dict[str, Any] = {}
            # contextvars do not flow into a fresh thread: hand the
            # watchdog the ambient span so instrument/RPC child spans
            # still nest under this task
            ambient_span = _current_span()

            def target() -> None:
                try:
                    with _use_span(ambient_span):
                        box["result"] = task.fn(ctx)
                except BaseException as exc:  # noqa: BLE001 - relayed below
                    box["error"] = exc

            worker = threading.Thread(
                target=target, name=f"{self.name}:{task.name}", daemon=True
            )
            worker.start()
            worker.join(task.timeout_s)
            if worker.is_alive():
                raise TaskTimeoutError(
                    f"task {task.name!r} exceeded its "
                    f"{task.timeout_s}s deadline"
                )
            if "error" in box:
                raise box["error"]
            return box.get("result")

        def finish_task(record: TaskResult, task: Task, span) -> None:
            """Publish one task's outcome to metrics and its span."""
            if self.metrics is not None:
                self.metrics.counter(
                    "workflow.tasks_total", "task outcomes by state"
                ).inc(workflow=self.name, task=task.name, state=record.state.value)
                self.metrics.histogram(
                    "workflow.task_duration_s", "wall time per task"
                ).observe(record.duration_s, workflow=self.name, task=task.name)
            if span is not None:
                span.set_attribute("task.attempts", record.attempts)
                span.set_attribute("task.state", record.state.value)
                if record.error is not None:
                    span.record_exception(record.error)
                span.end(
                    "OK" if record.state is TaskState.SUCCEEDED else "ERROR"
                )

        def execute(task: Task) -> None:
            record = results[task.name]
            record.state = TaskState.RUNNING
            record.started_at = time.monotonic()
            self.log.emit(self.name, "task", f"{task.name} started")
            task_span = (
                self.tracer.start_span(f"task.{task.name}", parent=run_span)
                if self.tracer is not None
                else None
            )
            last_error: BaseException | None = None
            max_attempts = task.max_attempts
            for attempt in range(1, max_attempts + 1):
                record.attempts = attempt
                try:
                    with _use_span(task_span):
                        outcome = run_attempt(task)
                except Exception as exc:  # noqa: BLE001 - task boundary
                    last_error = exc
                    self.log.emit(
                        self.name,
                        "task",
                        f"{task.name} attempt {attempt} raised: {exc}",
                    )
                    if task_span is not None:
                        task_span.add_event(
                            "attempt-failed",
                            attempt=attempt,
                            error_type=type(exc).__name__,
                        )
                    # a timed-out attempt is always worth retrying (the
                    # outcome is unknown; idempotency keys make the redo
                    # safe), everything else defers to the policy
                    if (
                        task.policy is not None
                        and not isinstance(exc, TaskTimeoutError)
                        and not task.policy.is_retryable(exc)
                    ):
                        break
                    if attempt < max_attempts:
                        delay = (
                            task.policy.backoff_s(attempt + 1)
                            if task.policy is not None
                            else task.retry_delay_s
                        )
                        if delay > 0:
                            self.clock.sleep(delay)
                    continue
                record.state = TaskState.SUCCEEDED
                record.result = outcome
                record.finished_at = time.monotonic()
                self.log.emit(
                    self.name,
                    "task",
                    f"{task.name} succeeded in {record.duration_s:.3f}s",
                )
                finish_task(record, task, task_span)
                return
            record.state = TaskState.FAILED
            record.error = last_error
            record.finished_at = time.monotonic()
            self.log.emit(self.name, "task", f"{task.name} FAILED: {last_error}")
            finish_task(record, task, task_span)

        progressed = True
        while progressed:
            progressed = False
            for task in ready_tasks():
                execute(task)
                progressed = True
                if (
                    abort_on_failure
                    and results[task.name].state is TaskState.FAILED
                ):
                    break
            if abort_on_failure and any(
                r.state is TaskState.FAILED for r in results.values()
            ):
                # let ready_tasks() mark the rest skipped, then stop
                ready_tasks()
                break

        self.log.emit(
            self.name,
            "workflow",
            "run finished: "
            + ", ".join(f"{n}={r.state.value}" for n, r in results.items()),
        )
        unhealthy = any(
            r.state in (TaskState.FAILED, TaskState.SKIPPED)
            for r in results.values()
        )
        if unhealthy and self._teardowns:
            self._run_teardowns(ctx)
        if run_span is not None:
            run_span.set_attribute("workflow.unhealthy", unhealthy)
            run_span.end("ERROR" if unhealthy else "OK")
        return WorkflowResult(tasks=results, context=ctx)

    def _run_teardowns(self, ctx: Context) -> None:
        self.log.emit(
            self.name,
            "teardown",
            f"run unhealthy; executing {len(self._teardowns)} "
            "safe-state action(s)",
        )
        span = _current_span()
        for name, fn in self._teardowns:
            try:
                fn(ctx)
            except Exception as exc:  # noqa: BLE001 - never block safing
                self.log.emit(
                    self.name, "teardown", f"{name} raised: {exc}"
                )
                if span is not None:
                    span.add_event(
                        "teardown", action=name, ok=False,
                        error_type=type(exc).__name__,
                    )
            else:
                self.log.emit(self.name, "teardown", f"{name} done")
                if span is not None:
                    span.add_event("teardown", action=name, ok=True)
