"""Unit tests for the observability core: spans, metrics, exporters."""

from __future__ import annotations

import json

import pytest

from repro.clock import VirtualClock
from repro.obs import (
    LATENCY_BUCKETS_S,
    MetricsRegistry,
    JsonlSpanExporter,
    SpanStatus,
    Tracer,
    child_span,
    current_span,
    extract_context,
    read_jsonl_spans,
    summarize_spans,
    use_span,
)


class TestSpans:
    def test_root_span_ids_and_timing(self):
        clock = VirtualClock()
        tracer = Tracer("svc", clock=clock)
        span = tracer.start_span("op")
        assert len(span.trace_id) == 32 and len(span.span_id) == 16
        assert span.parent_id is None
        clock.sleep(1.5)
        span.end()
        assert span.duration_s == pytest.approx(1.5)
        assert span.status == SpanStatus.OK
        assert tracer.finished_spans() == [span]

    def test_service_attribute_stamped(self):
        tracer = Tracer("dgx")
        with tracer.start_as_current_span("op") as span:
            pass
        assert span.attributes["service"] == "dgx"

    def test_current_span_nesting(self):
        tracer = Tracer()
        assert current_span() is None
        with tracer.start_as_current_span("outer") as outer:
            assert current_span() is outer
            with tracer.start_as_current_span("inner") as inner:
                assert current_span() is inner
                assert inner.parent_id == outer.span_id
                assert inner.trace_id == outer.trace_id
            assert current_span() is outer
        assert current_span() is None

    def test_explicit_parent_none_starts_new_trace(self):
        tracer = Tracer()
        with tracer.start_as_current_span("outer") as outer:
            root = tracer.start_span("detached", parent=None)
            assert root.parent_id is None
            assert root.trace_id != outer.trace_id
            root.end()

    def test_exception_marks_error_and_records_event(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.start_as_current_span("boom") as span:
                raise ValueError("nope")
        assert span.status == SpanStatus.ERROR
        (event,) = [e for e in span.events if e["name"] == "exception"]
        assert event["attributes"]["error_type"] == "ValueError"

    def test_mutation_after_end_is_ignored(self):
        tracer = Tracer()
        span = tracer.start_span("op")
        span.end()
        span.set_attribute("late", 1)
        span.add_event("late")
        assert "late" not in span.attributes and span.events == []
        first_end = span.end_time
        span.end(SpanStatus.ERROR)  # double end: no-op
        assert span.status == SpanStatus.OK and span.end_time == first_end

    def test_max_spans_ring_buffer(self):
        tracer = Tracer(max_spans=5)
        for i in range(8):
            tracer.start_span(f"s{i}").end()
        names = [s.name for s in tracer.finished_spans()]
        assert names == ["s3", "s4", "s5", "s6", "s7"]
        assert len(tracer) == 5

    def test_child_span_is_noop_without_parent(self):
        with child_span("deep.layer") as span:
            assert span is None

    def test_child_span_uses_parent_tracer(self):
        tracer = Tracer()
        with tracer.start_as_current_span("task") as task:
            with child_span("instrument.X", unit=1) as span:
                assert span is not None
                assert span.parent_id == task.span_id
                assert span.attributes["unit"] == 1
        assert [s.name for s in tracer.finished_spans()] == [
            "instrument.X",
            "task",
        ]

    def test_use_span_adopts_foreign_span(self):
        tracer = Tracer()
        span = tracer.start_as_current_span("ambient")
        span.end()  # contextvar restored
        with use_span(span):
            assert current_span() is span
        assert current_span() is None
        with use_span(None):
            assert current_span() is None

    def test_find_and_summarize(self):
        clock = VirtualClock()
        tracer = Tracer(clock=clock)
        for _ in range(3):
            s = tracer.start_span("rpc.call.ping")
            clock.sleep(0.25)
            s.end()
        assert len(tracer.find("rpc.call")) == 3
        stats = tracer.summarize()["rpc.call.ping"]
        assert stats["count"] == 3
        assert stats["mean_s"] == pytest.approx(0.25)


class TestWireContext:
    def test_inject_extract_roundtrip(self):
        tracer = Tracer()
        with tracer.start_as_current_span("client") as span:
            carrier = tracer.inject()
        ctx = extract_context(carrier)
        assert ctx is not None
        assert ctx.trace_id == span.trace_id
        assert ctx.span_id == span.span_id

    def test_inject_without_current_span(self):
        assert Tracer().inject() is None

    @pytest.mark.parametrize(
        "carrier",
        [None, "junk", 42, {}, {"trace_id": "a"}, {"trace_id": 1, "span_id": 2},
         {"trace_id": "", "span_id": ""}, ["trace_id", "span_id"]],
    )
    def test_extract_tolerates_malformed_carriers(self, carrier):
        assert extract_context(carrier) is None

    def test_remote_parenting_via_extracted_context(self):
        client, daemon = Tracer("client"), Tracer("daemon")
        with client.start_as_current_span("rpc.call.x") as call:
            carrier = client.inject()
        dispatch = daemon.start_span(
            "rpc.dispatch.x", parent=extract_context(carrier)
        )
        dispatch.end()
        assert dispatch.trace_id == call.trace_id
        assert dispatch.parent_id == call.span_id


class TestMetrics:
    def test_counter_labels_and_total(self):
        reg = MetricsRegistry()
        calls = reg.counter("calls_total")
        calls.inc(method="ping")
        calls.inc(method="ping")
        calls.inc(3, method="echo")
        assert calls.value(method="ping") == 2
        assert calls.value(method="echo") == 3
        assert calls.value(method="nope") == 0
        assert calls.total() == 5
        with pytest.raises(ValueError):
            calls.inc(-1)

    def test_gauge_set_inc_dec(self):
        reg = MetricsRegistry()
        g = reg.gauge("breaker.state")
        g.set(1, breaker="ctl")
        assert g.value(breaker="ctl") == 1
        g.inc(breaker="ctl")
        g.dec(0.5, breaker="ctl")
        assert g.value(breaker="ctl") == pytest.approx(1.5)

    def test_histogram_buckets_and_snapshot(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=(0.01, 0.1, 1.0))
        for v in (0.005, 0.05, 0.5, 5.0):
            h.observe(v)
        snap = h.snapshot()
        assert snap["count"] == 4
        assert snap["min"] == 0.005 and snap["max"] == 5.0
        assert snap["buckets"] == {"0.01": 1, "0.1": 1, "1.0": 1, "+Inf": 1}
        assert h.count() == 4
        assert reg.histogram("lat").snapshot()["count"] == 4  # same instrument

    def test_get_or_create_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError):
            reg.gauge("x")

    def test_summarize_and_table(self):
        reg = MetricsRegistry()
        reg.counter("a").inc(2, method="ping")
        reg.gauge("b").set(7)
        reg.histogram("c").observe(0.2)
        summary = reg.summarize()
        assert summary["a{method=ping}"] == 2
        assert summary["b"] == 7
        assert summary["c"]["count"] == 1
        table = reg.format_table()
        assert "a{method=ping}" in table and "count=1" in table
        assert MetricsRegistry().format_table() == "(no metrics recorded)"

    def test_default_latency_buckets_are_sorted(self):
        assert list(LATENCY_BUCKETS_S) == sorted(LATENCY_BUCKETS_S)


class TestExporters:
    def test_jsonl_roundtrip(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        clock = VirtualClock()
        exporter = JsonlSpanExporter(path)
        tracer = Tracer("svc", clock=clock, exporter=exporter)
        with tracer.start_as_current_span("outer"):
            s = tracer.start_as_current_span("inner")
            clock.sleep(0.5)
            s.end()
        exporter.close()
        rows = read_jsonl_spans(path)
        assert [r["name"] for r in rows] == ["inner", "outer"]
        assert rows[0]["parent_id"] == rows[1]["span_id"]
        assert rows[0]["duration_s"] == pytest.approx(0.5)
        # every line is valid standalone JSON
        with open(path) as fh:
            for line in fh:
                json.loads(line)

    def test_jsonl_concurrent_exports_keep_lines_whole(self, tmp_path):
        import threading

        path = tmp_path / "spans.jsonl"
        exporter = JsonlSpanExporter(path)
        clock = VirtualClock()

        def hammer(worker: int) -> None:
            tracer = Tracer(f"svc{worker}", clock=clock, exporter=exporter)
            for i in range(50):
                tracer.start_span(f"w{worker}.op{i}").end()

        threads = [
            threading.Thread(target=hammer, args=(n,)) for n in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        exporter.close()
        rows = read_jsonl_spans(path)
        assert len(rows) == 200
        # no interleaved/torn lines: every one parses on its own
        with open(path) as fh:
            for line in fh:
                json.loads(line)

    def test_jsonl_close_flushes_and_reopens_for_late_spans(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        exporter = JsonlSpanExporter(path)
        tracer = Tracer("svc", clock=VirtualClock(), exporter=exporter)
        tracer.start_span("before").end()
        exporter.close()
        assert [r["name"] for r in read_jsonl_spans(path)] == ["before"]
        # a straggler span after close() reopens in append mode
        tracer.start_span("after").end()
        exporter.close()
        assert [r["name"] for r in read_jsonl_spans(path)] == ["before", "after"]

    def test_trace_tree_marks_orphans_as_synthetic_roots(self):
        from repro.obs import trace_tree

        clock = VirtualClock()
        tracer = Tracer("svc", clock=clock)
        with tracer.start_as_current_span("root"):
            with tracer.start_as_current_span("kept.child"):
                orphan = tracer.start_as_current_span("orphan.child")
                orphan.end()
        spans = tracer.finished_spans()
        # drop the orphan's parent from the capture (as a ring overflow
        # or a partial stream would)
        partial = [s for s in spans if s.name != "kept.child"]
        rendering = trace_tree(partial)
        lines = rendering.splitlines()
        assert any(line.startswith("… orphan.child") for line in lines)
        assert any(line.startswith("root") for line in lines)
        # full captures render unmarked
        assert "…" not in trace_tree(spans)

    def test_summarize_spans_accepts_dicts_and_spans(self):
        clock = VirtualClock()
        tracer = Tracer(clock=clock)
        a = tracer.start_span("op")
        clock.sleep(1.0)
        a.end(SpanStatus.ERROR)
        from_spans = summarize_spans(tracer.finished_spans())
        from_dicts = summarize_spans([s.to_dict() for s in tracer.finished_spans()])
        assert from_spans == from_dicts
        assert from_spans["op"]["errors"] == 1
        assert from_spans["op"]["mean_s"] == pytest.approx(1.0)
