"""The run profile built from finished spans, and its workflow hooks."""

from __future__ import annotations

import sys
import threading

import pytest

import repro
from repro.clock import VirtualClock
from repro.core.campaign import Campaign, scan_rate_strategy
from repro.core.cv_workflow import CVWorkflowSettings, run_cv_workflow
from repro.core.workflow import Workflow
from repro.obs import Tracer, profiled, summarize_spans
from repro.obs.profiler import SCHEMA, profile_spans

FAST = CVWorkflowSettings(e_step_v=0.002)


def _profiling(tracer: Tracer) -> bool:
    """Is any profiled block still open on ``tracer``?"""
    return tracer._profiling > 0


@pytest.fixture
def clocked():
    clock = VirtualClock()
    tracer = Tracer("prof", clock=clock)
    with profiled(tracer) as profiler:
        yield clock, tracer, profiler


class TestSelfTimeAttribution:
    def test_nested_spans_split_self_and_total(self, clocked):
        clock, tracer, profiler = clocked
        with tracer.start_as_current_span("outer"):
            clock.advance(1.0)
            with tracer.start_as_current_span("inner"):
                clock.advance(2.0)
            clock.advance(3.0)
        doc = profiler.profile()
        outer = doc["operations"]["outer"]
        inner = doc["operations"]["inner"]
        assert outer["self_s"] == pytest.approx(4.0)
        assert outer["total_s"] == pytest.approx(6.0)
        assert inner["self_s"] == pytest.approx(2.0)
        assert inner["total_s"] == pytest.approx(2.0)
        assert outer["count"] == 1 and inner["count"] == 1

    def test_repeated_operations_accumulate(self, clocked):
        clock, tracer, profiler = clocked
        for _ in range(3):
            with tracer.start_as_current_span("op"):
                clock.advance(0.5)
        stats = profiler.profile()["operations"]["op"]
        assert stats["count"] == 3
        assert stats["self_s"] == pytest.approx(1.5)

    def test_error_spans_are_counted(self, clocked):
        clock, tracer, profiler = clocked
        with pytest.raises(RuntimeError):
            with tracer.start_as_current_span("failing"):
                clock.advance(0.1)
                raise RuntimeError("boom")
        stats = profiler.profile()["operations"]["failing"]
        assert stats["errors"] == 1

    def test_hot_path_tree_follows_nesting(self, clocked):
        clock, tracer, profiler = clocked
        with tracer.start_as_current_span("root"):
            clock.advance(1.0)
            with tracer.start_as_current_span("leaf"):
                clock.advance(2.0)
        doc = profiler.profile()
        paths = {tuple(entry["path"]) for entry in doc["hot_paths"]}
        assert ("root",) in paths
        assert ("root", "leaf") in paths
        tree = doc["tree"]
        assert tree["children"][0]["name"] == "root"
        assert tree["children"][0]["children"][0]["name"] == "leaf"


class TestAttachment:
    def test_profile_document_schema(self, clocked):
        clock, tracer, profiler = clocked
        with tracer.start_as_current_span("op"):
            clock.advance(0.1)
        doc = profiler.profile()
        assert doc["schema"] == SCHEMA
        assert doc["samples_total"] >= 1
        assert doc["wall_s"] >= 0.0
        for stats in doc["operations"].values():
            assert set(stats) >= {
                "count",
                "errors",
                "self_s",
                "cpu_self_s",
                "total_s",
                "samples",
            }

    def test_blocks_nest(self):
        clock = VirtualClock()
        tracer = Tracer("t", clock=clock)
        with profiled(tracer) as outer:
            with tracer.start_as_current_span("first"):
                clock.advance(1.0)
            with profiled(tracer) as inner:
                with tracer.start_as_current_span("second"):
                    clock.advance(2.0)
            assert _profiling(tracer)  # the outer block is still open
            with tracer.start_as_current_span("third"):
                clock.advance(3.0)
        assert not _profiling(tracer)
        assert set(inner.profile()["operations"]) == {"second"}
        outer_ops = outer.profile()["operations"]
        assert set(outer_ops) == {"first", "second", "third"}
        assert outer_ops["second"]["self_s"] == pytest.approx(2.0)
        assert outer.profile()["wall_s"] == pytest.approx(6.0)


class TestSpanRule:
    """Self-time from finished spans: the same-thread union rule."""

    def test_child_on_another_thread_keeps_the_parent_self_time(self, clocked):
        # the daemon-dispatch shape: a connection thread serves the call
        # while the client span waits on its own thread
        clock, tracer, profiler = clocked
        with tracer.start_as_current_span("rpc.call") as call:
            clock.advance(1.0)

            def serve():
                with tracer.start_as_current_span("rpc.dispatch", parent=call):
                    clock.advance(2.0)

            worker = threading.Thread(target=serve)
            worker.start()
            worker.join()
            clock.advance(1.0)
        ops = profiler.profile()["operations"]
        assert ops["rpc.call"]["self_s"] == pytest.approx(4.0)
        assert ops["rpc.dispatch"]["self_s"] == pytest.approx(2.0)

    def test_overlapping_children_subtract_their_union(self, clocked):
        # pipelined calls: started with start_span, never made current
        clock, tracer, profiler = clocked
        with tracer.start_as_current_span("batch"):
            clock.advance(1.0)
            first = tracer.start_span("call")  # [1, 9]
            clock.advance(1.0)
            second = tracer.start_span("call")  # [2, 9.5]
            clock.advance(7.0)
            first.end()
            clock.advance(0.5)
            second.end()
            clock.advance(0.5)
            third = tracer.start_span("call")  # [10, 11]
            clock.advance(1.0)
            third.end()
            clock.advance(1.0)
        ops = profiler.profile()["operations"]
        # 12 s less the union [1, 9.5] + [10, 11]; summing the children
        # (8 + 7.5 + 1 = 16.5 s) would drive it negative
        assert ops["batch"]["self_s"] == pytest.approx(2.5)
        # gaps [0, 1], [9.5, 10] and [11, 12]
        assert ops["batch"]["samples"] == 3
        assert ops["call"]["self_s"] == pytest.approx(16.5)
        assert ops["call"]["samples"] == 3

    def test_spans_started_outside_a_block_carry_no_cpu_stamp(self):
        tracer = Tracer("t", clock=VirtualClock())
        before = tracer.start_span("before")
        with profiled(tracer) as profiler:
            inside = tracer.start_span("inside")
            before.end()
            inside.end()
        after = tracer.start_span("after")
        after.end()
        assert before._thread_cpu is None and after._thread_cpu is None
        assert inside._thread_cpu is not None
        ops = profiler.profile()["operations"]
        assert set(ops) == {"before", "inside"}
        assert ops["before"]["cpu_self_s"] == 0.0

    def test_span_ended_on_another_thread_adds_no_cpu(self, clocked):
        _clock, tracer, profiler = clocked
        span = tracer.start_span("handed-off")
        sum(range(200_000))  # burn CPU on the starting thread
        worker = threading.Thread(target=span.end)
        worker.start()
        worker.join()
        assert span._thread_cpu[1] == 0.0
        assert profiler.profile()["operations"]["handed-off"]["cpu_self_s"] == 0.0

    def test_tracer_stops_profiling_when_the_run_raises(self, ice, monkeypatch):
        tracer = Tracer("t")

        def crash(flow):
            assert _profiling(tracer)
            raise RuntimeError("boom")

        monkeypatch.setattr(Workflow, "run", crash)
        with pytest.raises(RuntimeError, match="boom"):
            run_cv_workflow(ice, settings=FAST, tracer=tracer, profile=True)
        assert not _profiling(tracer)
        span = tracer.start_span("later")
        span.end()
        assert span._thread_cpu is None

    def test_any_span_list_can_be_checked(self, clocked):
        clock, tracer, profiler = clocked
        with tracer.start_as_current_span("outer"):
            clock.advance(1.0)
            with tracer.start_as_current_span("inner"):
                clock.advance(2.0)
        doc = profile_spans(tracer.finished_spans(), 0.0, clock.now())
        assert doc["operations"] == profiler.profile()["operations"]
        assert doc["wall_s"] == pytest.approx(3.0)

    def test_concurrent_blocks_leave_the_tracer_unprofiled(self):
        tracer = Tracer("t", clock=VirtualClock())
        errors = []

        def worker():
            try:
                for _ in range(200):
                    with profiled(tracer):
                        tracer.start_span("op").end()
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert not _profiling(tracer)


class TestWorkflowProfiling:
    def test_profiled_run_attaches_document(self, ice):
        result = run_cv_workflow(ice, settings=FAST, profile=True)
        assert result.succeeded
        assert result.profile is not None
        assert result.profile["schema"] == SCHEMA
        operations = result.profile["operations"]
        assert any(name.startswith("task.") for name in operations)
        # the run's own root span is profiled too, and carries the
        # tasks' time in its total
        root = operations.get("workflow.cv-workflow")
        assert root is not None and root["total_s"] > 0

    def test_unprofiled_run_stays_clean(self, ice):
        result = run_cv_workflow(ice, settings=FAST)
        assert result.profile is None
        assert ice.tracer is None or not _profiling(ice.tracer)

    def test_counts_and_totals_match_the_span_summary(self):
        tracer = Tracer("session")
        with repro.connect(tracer=tracer) as session:
            with profiled(tracer) as outer:
                result = session.run_workflow(settings=FAST, profile=True)
        assert result.succeeded
        operations = result.profile["operations"]
        summary = summarize_spans(outer.spans)
        assert set(operations) == set(summary)
        for name, stats in operations.items():
            assert stats["count"] == summary[name]["count"]
            assert stats["total_s"] == summary[name]["total_s"]

    def test_campaign_shares_one_profiler_across_rounds(self, ice):
        ice.attach_observability(tracer=Tracer("campaign", clock=None))
        campaign = Campaign(
            ice,
            scan_rate_strategy((0.1, 0.2), base=FAST),
            profile=True,
        )
        rounds = campaign.run()
        assert len(rounds) == 2
        assert all(r.result.profile is not None for r in rounds)
        doc = campaign.profile_doc
        assert doc is not None and doc["schema"] == SCHEMA
        # one profiler across the campaign: task counts cover both rounds
        task_ops = {
            name: stats
            for name, stats in doc["operations"].items()
            if name.startswith("task.")
        }
        assert task_ops
        assert all(stats["count"] == 2 for stats in task_ops.values())
        # the tracer is no longer profiling after the campaign
        if ice.tracer is not None:
            assert not _profiling(ice.tracer)
