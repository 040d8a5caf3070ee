"""The task engine: DAGs, retries, skips."""

import time

import pytest

from repro.core.workflow import Context, TaskState, Workflow
from repro.errors import DependencyError, TaskFailedError


class TestContext:
    def test_attribute_sugar(self):
        ctx = Context()
        ctx.value = 42
        assert ctx["value"] == 42
        assert ctx.value == 42
        with pytest.raises(AttributeError):
            _ = ctx.missing


class TestConstruction:
    def test_duplicate_name(self):
        flow = Workflow("w")
        flow.add_task("a", lambda ctx: None)
        with pytest.raises(DependencyError):
            flow.add_task("a", lambda ctx: None)

    def test_unknown_dependency(self):
        flow = Workflow("w")
        flow.add_task("a", lambda ctx: None, depends=("ghost",))
        with pytest.raises(DependencyError, match="unknown task"):
            flow.run()

    def test_cycle_detected(self):
        flow = Workflow("w")
        flow.add_task("a", lambda ctx: None, depends=("b",))
        flow.add_task("b", lambda ctx: None, depends=("a",))
        with pytest.raises(DependencyError, match="cycle"):
            flow.run()

    def test_decorator_sugar(self):
        flow = Workflow("w")

        @flow.task("a")
        def task_a(ctx):
            return 1

        assert flow.task_names == ["a"]


class TestExecution:
    def test_linear_chain_order_and_context(self):
        flow = Workflow("w")
        order = []

        flow.add_task("a", lambda ctx: order.append("a") or ctx.update(x=1))
        flow.add_task(
            "b", lambda ctx: order.append("b") or ctx["x"] + 1, depends=("a",)
        )
        result = flow.run()
        assert order == ["a", "b"]
        assert result.succeeded
        assert result.tasks["b"].result == 2

    def test_initial_context_passed(self):
        flow = Workflow("w")
        flow.add_task("a", lambda ctx: ctx["seed"] * 2)
        result = flow.run({"seed": 21})
        assert result.tasks["a"].result == 42

    def test_failure_skips_downstream(self):
        flow = Workflow("w")
        flow.add_task("a", lambda ctx: 1 / 0)
        flow.add_task("b", lambda ctx: "never", depends=("a",))
        flow.add_task("c", lambda ctx: "independent")
        result = flow.run()
        assert result.tasks["a"].state is TaskState.FAILED
        assert result.tasks["b"].state is TaskState.SKIPPED
        assert not result.succeeded
        assert isinstance(result.tasks["a"].error, ZeroDivisionError)

    def test_abort_on_failure_false_continues_independents(self):
        flow = Workflow("w")
        flow.add_task("a", lambda ctx: 1 / 0)
        flow.add_task("b", lambda ctx: "ok")
        result = flow.run(abort_on_failure=False)
        assert result.tasks["b"].state is TaskState.SUCCEEDED

    def test_raise_on_failure(self):
        flow = Workflow("w")
        flow.add_task("boom", lambda ctx: 1 / 0)
        result = flow.run()
        with pytest.raises(TaskFailedError) as excinfo:
            result.raise_on_failure()
        assert excinfo.value.task_name == "boom"

    def test_retries_eventually_succeed(self):
        attempts = []

        def flaky(ctx):
            attempts.append(1)
            if len(attempts) < 3:
                raise OSError("transient")
            return "done"

        flow = Workflow("w")
        flow.add_task("flaky", flaky, retries=3)
        result = flow.run()
        assert result.succeeded
        assert result.tasks["flaky"].attempts == 3

    def test_retries_exhausted(self):
        flow = Workflow("w")
        flow.add_task("flaky", lambda ctx: 1 / 0, retries=2)
        result = flow.run()
        assert result.tasks["flaky"].state is TaskState.FAILED
        assert result.tasks["flaky"].attempts == 3

    def test_diamond_dependencies(self):
        flow = Workflow("w")
        seen = []
        flow.add_task("top", lambda ctx: seen.append("top"))
        flow.add_task("left", lambda ctx: seen.append("left"), depends=("top",))
        flow.add_task("right", lambda ctx: seen.append("right"), depends=("top",))
        flow.add_task(
            "bottom",
            lambda ctx: seen.append("bottom"),
            depends=("left", "right"),
        )
        result = flow.run()
        assert result.succeeded
        assert seen[0] == "top"
        assert seen[-1] == "bottom"

    def test_durations_recorded(self):
        flow = Workflow("w")
        flow.add_task("a", lambda ctx: time.sleep(0.02))
        result = flow.run()
        assert result.tasks["a"].duration_s >= 0.015

    def test_transcript_logged(self):
        flow = Workflow("paper-flow")
        flow.add_task("a", lambda ctx: None)
        flow.run()
        messages = flow.log.messages(source="paper-flow")
        assert any("a succeeded" in m for m in messages)


class TestClockDrivenRetries:
    def test_retry_delay_charged_on_injected_clock(self):
        from repro.clock import VirtualClock

        clock = VirtualClock()
        flow = Workflow("w", clock=clock)
        attempts = []

        def flaky(ctx):
            attempts.append(1)
            if len(attempts) < 3:
                raise OSError("transient")
            return "done"

        flow.add_task("flaky", flaky, retries=3, retry_delay_s=10.0)
        start = time.monotonic()
        result = flow.run()
        elapsed = time.monotonic() - start
        assert result.succeeded
        # two 10 s pauses went to the virtual clock, not time.sleep
        assert clock.now() == pytest.approx(20.0)
        assert elapsed < 5.0

    def test_policy_backoff_governs_attempts_and_delays(self):
        from repro.clock import VirtualClock
        from repro.errors import CommunicationError
        from repro.resilience import RetryPolicy

        clock = VirtualClock()
        flow = Workflow("w", clock=clock)
        calls = []

        def flaky(ctx):
            calls.append(1)
            raise CommunicationError("link down")

        flow.add_task(
            "flaky",
            flaky,
            policy=RetryPolicy(max_attempts=3, base_delay_s=1.0, jitter="none"),
        )
        result = flow.run()
        assert result.tasks["flaky"].state is TaskState.FAILED
        assert result.tasks["flaky"].attempts == 3
        assert len(calls) == 3
        # backoff 1 s then 2 s, on the injected clock
        assert clock.now() == pytest.approx(3.0)

    def test_policy_fails_fast_on_non_retryable_error(self):
        from repro.clock import VirtualClock
        from repro.resilience import RetryPolicy

        flow = Workflow("w", clock=VirtualClock())
        calls = []

        def broken(ctx):
            calls.append(1)
            raise ValueError("bad arguments")  # not transient

        flow.add_task(
            "broken", broken, policy=RetryPolicy(max_attempts=5, jitter="none")
        )
        result = flow.run()
        assert result.tasks["broken"].state is TaskState.FAILED
        assert len(calls) == 1


class TestTaskTimeouts:
    def test_attempt_past_deadline_fails_with_timeout(self):
        from repro.errors import TaskTimeoutError

        flow = Workflow("w")
        flow.add_task("slow", lambda ctx: time.sleep(5.0), timeout_s=0.05)
        result = flow.run()
        record = result.tasks["slow"]
        assert record.state is TaskState.FAILED
        assert isinstance(record.error, TaskTimeoutError)

    def test_timeout_is_retried_under_policy(self):
        from repro.clock import VirtualClock
        from repro.resilience import RetryPolicy

        flow = Workflow("w", clock=VirtualClock())
        calls = []

        def slow_then_fast(ctx):
            calls.append(1)
            if len(calls) == 1:
                time.sleep(5.0)  # first attempt blows the deadline
            return "done"

        flow.add_task(
            "flaky",
            slow_then_fast,
            policy=RetryPolicy(max_attempts=3, base_delay_s=0.0, jitter="none"),
            timeout_s=0.05,
        )
        result = flow.run()
        assert result.succeeded
        assert result.tasks["flaky"].attempts == 2

    def test_fast_task_unaffected_by_timeout(self):
        flow = Workflow("w")
        flow.add_task("quick", lambda ctx: "ok", timeout_s=5.0)
        result = flow.run()
        assert result.succeeded
        assert result.tasks["quick"].result == "ok"


class TestTeardowns:
    def test_teardowns_run_on_failed_run(self):
        flow = Workflow("w")
        fired = []
        flow.add_task("boom", lambda ctx: 1 / 0)
        flow.add_teardown(lambda ctx: fired.append("first"))
        flow.add_teardown(lambda ctx: fired.append("second"))
        flow.run()
        assert fired == ["first", "second"]

    def test_teardowns_skipped_on_healthy_run(self):
        flow = Workflow("w")
        fired = []
        flow.add_task("fine", lambda ctx: "ok")
        flow.add_teardown(lambda ctx: fired.append("never"))
        result = flow.run()
        assert result.succeeded
        assert fired == []

    def test_teardown_sees_context(self):
        flow = Workflow("w")
        seen = {}
        flow.add_task("setup", lambda ctx: ctx.update(handle="H"))
        flow.add_task("boom", lambda ctx: 1 / 0, depends=("setup",))
        flow.add_teardown(lambda ctx: seen.update(handle=ctx.get("handle")))
        flow.run()
        assert seen["handle"] == "H"

    def test_failing_teardown_does_not_stop_the_rest(self):
        flow = Workflow("w")
        fired = []

        def bad_teardown(ctx):
            raise RuntimeError("control link dead")

        flow.add_task("boom", lambda ctx: 1 / 0)
        flow.add_teardown(bad_teardown, name="safe-state")
        flow.add_teardown(lambda ctx: fired.append("local-cleanup"))
        flow.run()
        assert fired == ["local-cleanup"]
        messages = flow.log.messages(kind="teardown")
        assert any("safe-state raised" in m for m in messages)
