"""Trace analytics: the index, critical-path blame, tail sampling,
histogram exemplars, and SLO alert exemplar resolution."""

from __future__ import annotations

import pytest

from repro.clock import VirtualClock
from repro.obs.analysis import (
    INDEX_EVICTED_METRIC,
    SAMPLER_DROPPED_METRIC,
    SAMPLER_KEPT_METRIC,
    SCHEMA,
    TraceIndex,
    TraceSampler,
    critical_path,
    format_blame,
)
from repro.obs.metrics import OVERFLOW_VALUE, MetricsRegistry
from repro.obs.slo import SLOEngine, SLObjective
from repro.obs.stream import KIND_SLO, TelemetryBus
from repro.obs.timeseries import TimeSeriesStore
from repro.obs.trace import SpanStatus, Tracer, extract_context


def span_dict(
    name,
    trace_id="t" * 32,
    span_id="root",
    parent_id=None,
    start=0.0,
    end=None,
    status=SpanStatus.OK,
    **attrs,
):
    return {
        "name": name,
        "trace_id": trace_id,
        "span_id": span_id,
        "parent_id": parent_id,
        "start_time": start,
        "end_time": end,
        "duration_s": (end - start) if end is not None else 0.0,
        "status": status,
        "attributes": attrs,
        "events": [],
    }


class TestCriticalPath:
    def test_segments_partition_root_interval(self):
        """Nested tree: every instant of root wall time is attributed
        exactly once, so blame sums to the root duration."""
        spans = [
            span_dict("root", span_id="r", start=0.0, end=10.0),
            span_dict("a", span_id="a", parent_id="r", start=1.0, end=4.0),
            span_dict("b", span_id="b", parent_id="r", start=5.0, end=9.0),
            span_dict("g", span_id="g", parent_id="b", start=6.0, end=8.0),
        ]
        result = critical_path(spans)
        assert result["schema"] == SCHEMA
        assert result["root"] == "root"
        assert result["root_duration_s"] == pytest.approx(10.0)
        assert result["coverage"] == pytest.approx(1.0)
        self_by_op = {row["op"]: row["self_s"] for row in result["blame"]}
        # root: [0,1] + [4,5] + [9,10]; a: [1,4]; b: [5,6]+[8,9]; g: [6,8]
        assert self_by_op["root"] == pytest.approx(3.0)
        assert self_by_op["a"] == pytest.approx(3.0)
        assert self_by_op["b"] == pytest.approx(2.0)
        assert self_by_op["g"] == pytest.approx(2.0)
        assert sum(self_by_op.values()) == pytest.approx(10.0)
        pcts = [row["pct"] for row in result["blame"]]
        assert sum(pcts) == pytest.approx(100.0)

    def test_last_finishing_child_wins_overlap(self):
        """Two overlapping children: the later-finishing one owns the
        overlap — that is who the parent was blocked on at each instant."""
        spans = [
            span_dict("root", span_id="r", start=0.0, end=10.0),
            span_dict("a", span_id="a", parent_id="r", start=1.0, end=6.0),
            span_dict("b", span_id="b", parent_id="r", start=4.0, end=8.0),
        ]
        result = critical_path(spans)
        self_by_op = {row["op"]: row["self_s"] for row in result["blame"]}
        assert self_by_op["b"] == pytest.approx(4.0)  # [4, 8]
        assert self_by_op["a"] == pytest.approx(3.0)  # [1, 4] only
        assert self_by_op["root"] == pytest.approx(3.0)  # [0,1] + [8,10]
        assert result["coverage"] == pytest.approx(1.0)

    def test_blame_sorted_worst_first(self):
        spans = [
            span_dict("root", span_id="r", start=0.0, end=10.0),
            span_dict("big", span_id="a", parent_id="r", start=1.0, end=9.0),
        ]
        result = critical_path(spans)
        assert result["blame"][0]["op"] == "big"

    def test_orphan_parent_tolerated_widest_subtree_wins(self):
        """The daemon half arrived without the client root: the orphan
        with the longest duration becomes the root of the analysis."""
        spans = [
            span_dict(
                "dispatch",
                span_id="d",
                parent_id="never-arrived",
                start=1.0,
                end=9.0,
            ),
            span_dict(
                "instrument", span_id="i", parent_id="d", start=2.0, end=8.0
            ),
            span_dict(
                "stray", span_id="s", parent_id="also-missing", start=0.0, end=2.0
            ),
        ]
        result = critical_path(spans)
        assert result["root"] == "dispatch"
        assert result["root_duration_s"] == pytest.approx(8.0)

    def test_clock_skew_child_clamped_to_parent(self):
        """A child whose stamps leak past the parent (cross-process
        skew) cannot push coverage over 100%."""
        spans = [
            span_dict("root", span_id="r", start=0.0, end=10.0),
            span_dict("c", span_id="c", parent_id="r", start=-1.0, end=11.0),
        ]
        result = critical_path(spans)
        assert result["coverage"] == pytest.approx(1.0)
        self_by_op = {row["op"]: row["self_s"] for row in result["blame"]}
        assert self_by_op["c"] == pytest.approx(10.0)

    def test_no_ended_root_returns_none(self):
        assert critical_path([]) is None
        assert critical_path([span_dict("open", end=None)]) is None

    def test_accepts_live_span_objects(self):
        clock = VirtualClock()
        tracer = Tracer("svc", clock=clock)
        root = tracer.start_span("root", parent=None)
        clock.advance(1.0)
        child = tracer.start_span("child", parent=root)
        clock.advance(2.0)
        child.end()
        clock.advance(1.0)
        root.end()
        result = critical_path([root, child])
        self_by_op = {row["op"]: row["self_s"] for row in result["blame"]}
        assert self_by_op == {
            "root": pytest.approx(2.0),
            "child": pytest.approx(2.0),
        }

    def test_format_blame_renders_rows(self):
        spans = [
            span_dict("root", span_id="r", start=0.0, end=10.0),
            span_dict(
                "slow-op",
                span_id="a",
                parent_id="r",
                start=1.0,
                end=9.0,
                service="acl",
            ),
        ]
        text = format_blame(critical_path(spans))
        assert "slow-op" in text
        assert "acl" in text
        assert "coverage=100.0%" in text


class TestTraceIndex:
    def _tracer(self):
        clock = VirtualClock()
        return clock, Tracer("svc", clock=clock)

    def test_attach_keeps_earlier_sinks_and_detaches_only_itself(self):
        clock, tracer = self._tracer()
        seen = []
        tracer.add_sink(seen.append)
        index = TraceIndex(clock=clock)
        detach = index.attach(tracer)
        with tracer.start_as_current_span("op"):
            clock.advance(1.0)
        assert len(seen) == 1  # the earlier sink still ran
        assert len(index) == 1
        detach()
        tracer.start_span("after", parent=None).end()
        assert len(seen) == 2
        assert len(index) == 1

    def test_get_returns_schema_document(self):
        clock, tracer = self._tracer()
        index = TraceIndex(clock=clock)
        index.attach(tracer)
        root = tracer.start_span("root", parent=None)
        clock.advance(2.0)
        root.end()
        doc = index.get(root.trace_id)
        assert doc["schema"] == SCHEMA
        assert doc["root"] == "root"
        assert doc["duration_s"] == pytest.approx(2.0)
        assert doc["span_count"] == 1
        assert index.get("no-such-trace") is None

    def test_query_filters(self):
        clock, tracer = self._tracer()
        index = TraceIndex(clock=clock)
        index.attach(tracer)
        fast = tracer.start_span("rpc.call.A", parent=None)
        fast.set_attribute("tenant", "lab-a")
        clock.advance(0.5)
        fast.end()
        slow = tracer.start_span("rpc.call.B", parent=None)
        slow.set_attribute("tenant", "lab-b")
        clock.advance(5.0)
        slow.end(SpanStatus.ERROR)

        assert {s["trace_id"] for s in index.query(op="rpc.call.")} == {
            fast.trace_id,
            slow.trace_id,
        }
        assert [s["trace_id"] for s in index.query(tenant="lab-b")] == [
            slow.trace_id
        ]
        assert [s["trace_id"] for s in index.query(min_duration_s=1.0)] == [
            slow.trace_id
        ]
        assert [s["trace_id"] for s in index.query(error=True)] == [
            slow.trace_id
        ]
        assert index.query(op="nope") == []

    def test_query_newest_first_and_limit(self):
        clock, tracer = self._tracer()
        index = TraceIndex(clock=clock)
        index.attach(tracer)
        ids = []
        for _ in range(3):
            span = tracer.start_span("op", parent=None)
            clock.advance(1.0)
            span.end()
            ids.append(span.trace_id)
        summaries = index.query(limit=2)
        assert [s["trace_id"] for s in summaries] == [ids[2], ids[1]]

    def test_eviction_oldest_first_counted(self):
        clock, tracer = self._tracer()
        reg = MetricsRegistry()
        index = TraceIndex(max_traces=2, clock=clock, metrics=reg)
        index.attach(tracer)
        ids = []
        for _ in range(3):
            span = tracer.start_span("op", parent=None)
            span.end()
            ids.append(span.trace_id)
        assert len(index) == 2
        assert ids[0] not in index.trace_ids()
        assert reg.counter(INDEX_EVICTED_METRIC).value() == 1

    def test_eviction_runs_in_blocks_with_one_write_each(self):
        clock, tracer = self._tracer()
        reg = MetricsRegistry()
        writes = []
        reg.add_update_listener(lambda name, *_: writes.append(name))
        index = TraceIndex(max_traces=16, clock=clock, metrics=reg)
        index.attach(tracer)
        ids = []
        for _ in range(16 + 1 + 2):
            span = tracer.start_span("op", parent=None)
            span.end()
            ids.append(span.trace_id)
        # the 17th trace evicted the three oldest at once (down to 14);
        # the next two refilled to 16 without evicting
        assert len(index) == 16
        assert index.trace_ids() == ids[3:]
        assert writes == [INDEX_EVICTED_METRIC]
        assert reg.counter(INDEX_EVICTED_METRIC).value() == 3
        span = tracer.start_span("op", parent=None)
        span.end()
        assert len(index) == 14
        assert writes == [INDEX_EVICTED_METRIC] * 2
        assert reg.counter(INDEX_EVICTED_METRIC).value() == 6

    def test_ingest_stamps_capturing_service(self):
        index = TraceIndex()
        count = index.ingest(
            [span_dict("dispatch", span_id="d", start=0.0, end=1.0)],
            service="acl-daemon",
        )
        assert count == 1
        (doc,) = index.spans("t" * 32)
        assert doc["attributes"]["service"] == "acl-daemon"

    def test_ingest_keeps_existing_service(self):
        index = TraceIndex()
        index.ingest(
            [span_dict("d", span_id="d", start=0.0, end=1.0, service="orig")],
            service="other",
        )
        (doc,) = index.spans("t" * 32)
        assert doc["attributes"]["service"] == "orig"

    def test_explain_merges_both_halves(self):
        """Client root + daemon dispatch ingested separately still
        produce one blame table under the shared trace id."""
        index = TraceIndex()
        index.add_span(span_dict("rpc.call.X", span_id="c", start=0.0, end=4.0))
        index.ingest(
            [
                span_dict(
                    "rpc.dispatch.X",
                    span_id="d",
                    parent_id="c",
                    start=0.5,
                    end=3.5,
                )
            ],
            service="acl-daemon",
        )
        result = index.explain("t" * 32)
        self_by_op = {row["op"]: row["self_s"] for row in result["blame"]}
        assert self_by_op["rpc.dispatch.X"] == pytest.approx(3.0)
        assert self_by_op["rpc.call.X"] == pytest.approx(1.0)
        assert index.explain("unknown") is None


def _end_trace(tracer, clock, duration=0.1, status=None, tenant=None, spans=1):
    """One root trace with optional children; returns its trace id."""
    root = tracer.start_span("root", parent=None)
    if tenant is not None:
        root.set_attribute("tenant", tenant)
    for _ in range(spans - 1):
        child = tracer.start_span("child", parent=root)
        clock.advance(duration / max(spans, 1))
        child.end()
    clock.advance(duration)
    root.end(status)
    return root.trace_id


class TestTraceSampler:
    def _rig(self, **kwargs):
        clock = VirtualClock()
        tracer = Tracer("svc", clock=clock)
        released = []
        reg = MetricsRegistry()
        sampler = TraceSampler(metrics=reg, **kwargs)
        sampler.add_sink(released.append)
        sampler.attach(tracer)
        return clock, tracer, sampler, released, reg

    def test_error_trace_always_kept(self):
        clock, tracer, sampler, released, reg = self._rig(budget=0.0)
        tid = _end_trace(tracer, clock, status=SpanStatus.ERROR, spans=2)
        assert sampler.is_kept(tid)
        assert {s.trace_id for s in released} == {tid}
        assert reg.counter(SAMPLER_KEPT_METRIC).value(reason="error") == 1

    def test_slow_trace_always_kept(self):
        clock, tracer, sampler, released, reg = self._rig(
            budget=0.0, slow_threshold_s=1.0
        )
        tid = _end_trace(tracer, clock, duration=2.0)
        assert sampler.is_kept(tid)
        assert reg.counter(SAMPLER_KEPT_METRIC).value(reason="slow") == 1

    def test_breach_hook_keeps_trace(self):
        clock, tracer, sampler, released, reg = self._rig(budget=0.0)
        sampler.breach = lambda root: True
        tid = _end_trace(tracer, clock)
        assert sampler.is_kept(tid)
        assert reg.counter(SAMPLER_KEPT_METRIC).value(reason="breach") == 1

    def test_budget_counters_are_deterministic(self):
        """At a 10% budget exactly every 10th normal trace is kept —
        the keep rate is exact, not a coin flip."""
        clock, tracer, sampler, released, _ = self._rig(
            budget=0.1, slow_threshold_s=None
        )
        kept = [
            sampler.is_kept(_end_trace(tracer, clock, duration=0.01))
            for _ in range(100)
        ]
        assert sum(kept) == 10
        assert kept[9] and kept[19]  # the 10th, 20th, ...
        assert not any(kept[:9])

    def test_budgets_are_per_tenant(self):
        clock, tracer, sampler, _, _ = self._rig(
            budget=0.5, slow_threshold_s=None
        )
        for tenant in ("a", "b"):
            for _ in range(4):
                _end_trace(tracer, clock, duration=0.01, tenant=tenant)
        stats = sampler.stats()
        assert stats["tenants"]["a"] == {"seen": 4, "kept": 2}
        assert stats["tenants"]["b"] == {"seen": 4, "kept": 2}

    def test_dropped_trace_never_reaches_downstream(self):
        clock, tracer, sampler, released, reg = self._rig(
            budget=0.0, slow_threshold_s=None
        )
        _end_trace(tracer, clock, spans=3)
        assert released == []
        assert (
            reg.counter(SAMPLER_DROPPED_METRIC).value(reason="budget") == 1
        )

    def test_kept_trace_released_in_end_order(self):
        clock, tracer, sampler, released, _ = self._rig(budget=1.0)
        tid = _end_trace(tracer, clock, spans=3)
        names = [s.name for s in released]
        assert names == ["child", "child", "root"]
        assert all(s.trace_id == tid for s in released)

    def test_late_span_follows_kept_verdict(self):
        clock, tracer, sampler, released, _ = self._rig(budget=1.0)
        root = tracer.start_span("root", parent=None)
        straggler = tracer.start_span("straggler", parent=root)
        clock.advance(0.1)
        root.end()
        assert sampler.is_kept(root.trace_id)
        straggler.end()  # ends after its root: must still flow through
        assert [s.name for s in released] == ["root", "straggler"]

    def test_late_span_follows_dropped_verdict(self):
        clock, tracer, sampler, released, _ = self._rig(
            budget=0.0, slow_threshold_s=None
        )
        root = tracer.start_span("root", parent=None)
        straggler = tracer.start_span("straggler", parent=root)
        root.end()
        straggler.end()
        assert released == []

    def test_tenant_table_folds_into_overflow(self):
        clock, tracer, sampler, _, _ = self._rig(
            budget=1.0, slow_threshold_s=None, max_tenants=2
        )
        for tenant in ("a", "b", "c", "d"):
            _end_trace(tracer, clock, duration=0.01, tenant=tenant)
        stats = sampler.stats()
        assert set(stats["tenants"]) == {"a", "b", OVERFLOW_VALUE}
        assert stats["tenants"][OVERFLOW_VALUE]["seen"] == 2

    def test_buffer_overflow_evicts_oldest_counted(self):
        clock, tracer, sampler, _, reg = self._rig(
            budget=1.0, max_buffered=2
        )
        # three traces whose roots never end: the oldest is evicted
        for _ in range(3):
            root = tracer.start_span("root", parent=None)
            tracer.start_span("child", parent=root).end()
        assert (
            reg.counter(SAMPLER_DROPPED_METRIC).value(reason="overflow") == 1
        )

    def test_kept_trace_ids_most_recent_first_per_tenant(self):
        clock, tracer, sampler, _, _ = self._rig(budget=1.0)
        t1 = _end_trace(tracer, clock, tenant="lab-a")
        t2 = _end_trace(tracer, clock, tenant="lab-b")
        t3 = _end_trace(tracer, clock, tenant="lab-a")
        assert sampler.kept_trace_ids() == [t3, t2, t1]
        assert sampler.kept_trace_ids(tenant="lab-a") == [t3, t1]
        assert sampler.kept_trace_ids(limit=1) == [t3]

    def test_flush_drops_unfinished_buffers(self):
        clock, tracer, sampler, _, _ = self._rig(budget=1.0)
        root = tracer.start_span("root", parent=None)
        tracer.start_span("child", parent=root).end()
        assert sampler.flush() == 1
        assert sampler.stats()["buffered_traces"] == 0

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            TraceSampler(budget=1.5)


class TestHistogramExemplars:
    def test_observe_records_bucket_exemplar(self):
        reg = MetricsRegistry()
        hist = reg.histogram("lat_s", buckets=(0.1, 1.0))
        hist.observe(0.05, exemplar="trace-fast", method="A")
        hist.observe(5.0, exemplar="trace-slow", method="A")
        rows = hist.exemplars(method="A")
        by_bucket = {r["bucket"]: r["trace_id"] for r in rows}
        assert by_bucket["0.1"] == "trace-fast"
        assert by_bucket["+Inf"] == "trace-slow"

    def test_last_observation_wins_per_bucket(self):
        reg = MetricsRegistry()
        hist = reg.histogram("lat_s", buckets=(1.0,))
        hist.observe(0.2, exemplar="first")
        hist.observe(0.3, exemplar="second")
        (row,) = hist.exemplars()
        assert row["trace_id"] == "second"
        assert row["value"] == pytest.approx(0.3)

    def test_no_exemplar_records_nothing(self):
        reg = MetricsRegistry()
        hist = reg.histogram("lat_s", buckets=(1.0,))
        hist.observe(0.2)
        assert hist.exemplars() == []

    def test_snapshot_carries_exemplars(self):
        reg = MetricsRegistry()
        hist = reg.histogram("lat_s", buckets=(1.0,))
        hist.observe(0.2, exemplar="tid")
        snap = hist.snapshot()
        assert snap["exemplars"]["1.0"]["trace_id"] == "tid"

    def test_exemplars_filter_by_labels(self):
        reg = MetricsRegistry()
        hist = reg.histogram("lat_s", buckets=(1.0,))
        hist.observe(0.2, exemplar="a-trace", tenant="a")
        hist.observe(0.2, exemplar="b-trace", tenant="b")
        rows = hist.exemplars(tenant="a")
        assert {r["trace_id"] for r in rows} == {"a-trace"}


class TestExtractContextTolerance:
    """Satellite: the tolerant-parse contract, exhaustively."""

    @pytest.mark.parametrize(
        "carrier",
        [
            None,
            "junk",
            42,
            3.14,
            True,
            ["trace_id", "span_id"],
            {},
            {"trace_id": "t" * 32},  # span_id missing
            {"span_id": "s" * 16},  # trace_id missing
            {"trace_id": "", "span_id": "s" * 16},  # empty id
            {"trace_id": "t" * 32, "span_id": ""},
            {"trace_id": 123, "span_id": "s" * 16},  # wrong types
            {"trace_id": "t" * 32, "span_id": 456},
            {"trace_id": None, "span_id": None},
            {"trace_id": ["t"], "span_id": {"s": 1}},
        ],
    )
    def test_malformed_carrier_yields_none_without_raising(self, carrier):
        assert extract_context(carrier) is None

    def test_well_formed_carrier_round_trips(self):
        ctx = extract_context({"trace_id": "t" * 32, "span_id": "s" * 16})
        assert ctx is not None
        assert ctx.trace_id == "t" * 32
        assert ctx.span_id == "s" * 16

    def test_extra_fields_ignored(self):
        ctx = extract_context(
            {"trace_id": "t" * 32, "span_id": "s" * 16, "future": {"x": 1}}
        )
        assert ctx is not None


class TestSLOAlertExemplars:
    def _rig(self):
        clock = VirtualClock()
        reg = MetricsRegistry()
        store = TimeSeriesStore(clock=clock)
        store.attach(reg)
        bus = TelemetryBus("test", clock=clock)
        engine = SLOEngine(store, clock=clock, bus=bus, metrics=reg)
        engine.add(
            SLObjective(name="avail", metric="calls_total", min_events=5)
        )
        return clock, reg, bus, engine

    def _fire(self, reg, engine):
        counter = reg.counter("calls_total")
        for _ in range(20):
            counter.inc(status="error", tenant="lab-a")
        return engine.evaluate()

    def test_alert_without_sampler_carries_empty_list(self):
        clock, reg, bus, engine = self._rig()
        with bus.subscribe() as sub:
            statuses = self._fire(reg, engine)
            assert any(s["alerts"] for s in statuses)
            (event,) = [e for e in sub.poll() if e.kind == KIND_SLO]
        assert event.data["exemplar_trace_ids"] == []

    def test_alert_names_sampler_kept_traces(self):
        clock, reg, bus, engine = self._rig()
        tracer = Tracer("svc", clock=clock)
        sampler = TraceSampler(budget=1.0, metrics=reg)
        sampler.attach(tracer)
        engine.attach_sampler(sampler)
        kept = [
            _end_trace(tracer, clock, tenant="lab-a") for _ in range(5)
        ]
        with bus.subscribe() as sub:
            self._fire(reg, engine)
            (event,) = [e for e in sub.poll() if e.kind == KIND_SLO]
        ids = event.data["exemplar_trace_ids"]
        assert 0 < len(ids) <= 3
        assert set(ids) <= set(kept)
        # most recent kept traces first
        assert ids[0] == kept[-1]

    def test_alert_prefers_metric_bucket_exemplars(self):
        clock, reg, bus, engine = self._rig()
        engine.add(
            SLObjective(
                name="lat",
                metric="lat_s",
                kind="latency",
                threshold_s=1.0,
                objective=0.9,
                min_events=5,
                fast_burn=2.0,
            )
        )
        tracer = Tracer("svc", clock=clock)
        sampler = TraceSampler(budget=1.0, metrics=reg)
        sampler.attach(tracer)
        engine.attach_sampler(sampler)
        slow_tid = _end_trace(tracer, clock, tenant="lab-a")
        for _ in range(3):
            _end_trace(tracer, clock, tenant="lab-a")  # newer kept traces
        hist = reg.histogram("lat_s", buckets=(1.0,))
        for _ in range(10):
            hist.observe(5.0, exemplar=slow_tid, tenant="lab-a")
        with bus.subscribe() as sub:
            engine.evaluate()
            events = [e for e in sub.poll() if e.kind == KIND_SLO]
        (event,) = [e for e in events if e.data["objective"] == "lat"]
        # the observation that breached the objective leads the list,
        # even though newer kept traces exist
        assert event.data["exemplar_trace_ids"][0] == slow_tid

    def test_resolve_event_carries_empty_list(self):
        clock, reg, bus, engine = self._rig()
        counter = reg.counter("calls_total")
        for _ in range(20):
            counter.inc(status="error", tenant="lab-a")
        engine.evaluate()
        clock.advance(3600.0)  # burst ages out of both windows
        for _ in range(20):
            counter.inc(status="ok", tenant="lab-a")
        with bus.subscribe() as sub:
            engine.evaluate()
            (event,) = [e for e in sub.poll() if e.kind == KIND_SLO]
        assert event.name == "slo.resolved"
        assert event.data["exemplar_trace_ids"] == []
