"""Live telemetry streaming: the bus, the polling verb, the merged feed."""

from __future__ import annotations

import threading
import time

import pytest

import repro
from repro.core.cv_workflow import CVWorkflowSettings
from repro.clock import VirtualClock
from repro.logging_utils import EventLog
from repro.obs import MetricsRegistry, Tracer
from repro.obs.recorder import FlightRecorder
from repro.obs.scrape import ObservabilityServer
from repro.obs.stream import (
    KIND_METRIC,
    KIND_SPAN,
    KIND_STREAM,
    SCHEMA,
    SessionStream,
    TelemetryBus,
    TelemetryEvent,
)
from repro.obs.timeseries import TimeSeriesStore

FAST = CVWorkflowSettings(e_step_v=0.002)


def _server(bus):
    """The daemon half's server object, serving ``bus``."""
    return ObservabilityServer(
        FlightRecorder(bus.service), bus, TimeSeriesStore()
    )


class TestTelemetryBus:
    def test_publish_reaches_subscriber_in_order(self):
        bus = TelemetryBus("dgx-session", clock=VirtualClock())
        with bus.subscribe() as sub:
            for i in range(5):
                bus.publish("event", f"e{i}", index=i)
            events = sub.poll()
        assert [e.name for e in events] == [f"e{i}" for i in range(5)]
        assert [e.seq for e in events] == [1, 2, 3, 4, 5]
        assert all(e.service == "dgx-session" for e in events)

    def test_slow_subscriber_drops_oldest_and_is_counted(self):
        metrics = MetricsRegistry()
        bus = TelemetryBus("dgx-session", clock=VirtualClock(), metrics=metrics)
        sub = bus.subscribe(capacity=4)
        for i in range(10):
            bus.publish("event", f"e{i}")
        events = sub.poll()
        # newest survive, oldest evicted
        assert [e.name for e in events] == ["e6", "e7", "e8", "e9"]
        assert sub.dropped == 6
        dropped = metrics.counter("obs.stream.dropped_total")
        assert dropped.value(half="dgx-session") == 6

    def test_publishing_never_blocks_on_closed_subscription(self):
        bus = TelemetryBus("dgx-session", clock=VirtualClock())
        sub = bus.subscribe()
        sub.close()
        bus.publish("event", "after-close")
        assert sub.poll() == []

    def test_cursor_read_pages_and_reports_gaps(self):
        bus = TelemetryBus("acl-daemon", clock=VirtualClock(), history=4)
        for i in range(10):
            bus.publish("event", f"e{i}")
        # cursor 0 fell off the ring: only the last 4 retained, 6 missed
        events, cursor, gap = bus.read_since(0)
        assert [e.name for e in events] == ["e6", "e7", "e8", "e9"]
        assert cursor == 10
        assert gap == 6
        # caught up: nothing new, no gap
        events, cursor, gap = bus.read_since(cursor)
        assert events == [] and cursor == 10 and gap == 0
        bus.publish("event", "e10")
        events, cursor, gap = bus.read_since(cursor)
        assert [e.name for e in events] == ["e10"] and gap == 0

    def test_attached_tracer_publishes_span_completions(self):
        clock = VirtualClock()
        bus = TelemetryBus("dgx-session", clock=clock)
        tracer = Tracer("t", clock=clock)
        remove = tracer.add_sink(bus.publish_span)
        with bus.subscribe() as sub:
            with tracer.start_as_current_span("op.one") as span:
                clock.advance(0.5)
                span.set_attribute("k", "v")
            events = sub.poll()
        assert len(events) == 1
        event = events[0]
        assert event.kind == KIND_SPAN and event.name == "op.one"
        assert event.trace_id == span.trace_id
        assert event.data["duration_s"] == pytest.approx(0.5)
        assert event.data["attributes"]["k"] == "v"
        remove()

    def test_attach_tracer_filter_and_earlier_sink(self):
        clock = VirtualClock()
        bus = TelemetryBus("acl-daemon", clock=clock)
        tracer = Tracer("t", clock=clock)
        exported = []
        tracer.add_sink(exported.append)
        # the daemon half of the tracer filters: only dispatch and
        # instrument spans reach the bus
        remove = tracer.halves.acl.add(bus.publish_span)
        with bus.subscribe() as sub:
            tracer.start_as_current_span("rpc.dispatch.keep").end()
            tracer.start_as_current_span("rpc.call.drop").end()
            names = [e.name for e in sub.poll()]
            # removing takes the bus's sink away, not the earlier one
            remove()
            tracer.start_as_current_span("rpc.dispatch.after").end()
            assert sub.poll() == []
        assert names == ["rpc.dispatch.keep"]
        # the earlier sink still sees everything
        assert [s.name for s in exported] == [
            "rpc.dispatch.keep", "rpc.call.drop", "rpc.dispatch.after",
        ]

    def test_metric_updates_flow_without_feedback_loop(self):
        metrics = MetricsRegistry()
        bus = TelemetryBus("dgx-session", clock=VirtualClock(), metrics=metrics)
        metrics.halves.dgx.add(bus.publish_metric)
        metrics.halves.acl.add(bus.publish_metric)
        with bus.subscribe() as sub:
            metrics.counter("rpc.calls_total").inc(verb="Status_JKem")
            metrics.gauge("cell.volume_ml").set(5.0)
            events = sub.poll()
        names = {e.name for e in events}
        assert "rpc.calls_total" in names and "cell.volume_ml" in names
        # the bus's own bookkeeping counters must not echo through the
        # listener (that would publish forever)
        assert not any(n.startswith("obs.stream.") for n in names)
        update = next(e for e in events if e.name == "rpc.calls_total")
        assert update.kind == KIND_METRIC
        assert update.data["labels"] == {"verb": "Status_JKem"}
        assert update.data["value"] == 1

    def test_event_log_entries_are_published(self):
        bus = TelemetryBus("acl-daemon", clock=VirtualClock())
        log = EventLog(clock_fn=bus.clock.now)
        log.subscribe(bus.publish_event)
        with bus.subscribe() as sub:
            log.emit("jkem", "pump.dispense", "5 ml", volume_ml=5.0)
            events = sub.poll()
        assert len(events) == 1
        assert events[0].kind == "event"
        assert events[0].name == "jkem:pump.dispense"
        assert events[0].data["data"]["volume_ml"] == 5.0

    def test_wire_round_trip_and_malformed_tolerance(self):
        bus = TelemetryBus("dgx-session", clock=VirtualClock())
        original = bus.publish("event", "e", trace_id="abc", answer=42)
        decoded = TelemetryEvent.from_wire(original.to_wire())
        assert decoded == original
        assert TelemetryEvent.from_wire("garbage") is None
        assert TelemetryEvent.from_wire({"seq": "not-an-int"}) is None


class TestTelemetryServer:
    def test_poll_verb_serves_the_daemon_bus(self, ice):
        ice.telemetry_bus.publish("event", "test.ping", payload=1)
        proxy = ice.obs_client()
        try:
            reply = proxy.Telemetry_Poll(cursor=0)
        finally:
            proxy.close()
        assert reply["schema"] == SCHEMA
        assert reply["service"] == "acl-daemon"
        assert reply["gap"] == 0
        names = [e["name"] for e in reply["events"]]
        assert "test.ping" in names
        assert reply["cursor"] >= 1

    def test_poll_cursor_advances_incrementally(self, ice):
        proxy = ice.obs_client()
        try:
            first = proxy.Telemetry_Poll(cursor=0)
            ice.telemetry_bus.publish("event", "test.after")
            second = proxy.Telemetry_Poll(cursor=first["cursor"])
        finally:
            proxy.close()
        names = [e["name"] for e in second["events"]]
        # the poll RPC itself logs a daemon event, so don't assert an
        # exact list — only that nothing before the cursor repeats
        assert "test.after" in names
        assert all(e["seq"] > first["cursor"] for e in second["events"])

    def test_direct_server_reports_gap(self):
        bus = TelemetryBus("acl-daemon", clock=VirtualClock(), history=2)
        server = _server(bus)
        for i in range(5):
            bus.publish("event", f"e{i}")
        reply = server.Telemetry_Poll(cursor=0)
        assert reply["gap"] == 3
        assert [e["name"] for e in reply["events"]] == ["e3", "e4"]


class TestSessionStream:
    def test_live_feed_during_workflow(self, ice):
        """Acceptance: a subscriber sees task spans and metric/health
        events *while* ``run_cv_workflow`` is still running."""
        with repro.connect(ice) as session:
            outcome = {}

            def run():
                outcome["result"] = session.run_workflow(settings=FAST)

            worker = threading.Thread(target=run)
            batches: list[list[TelemetryEvent]] = []
            with session.stream() as stream:
                worker.start()
                try:
                    while worker.is_alive():
                        batches.append(stream.drain())
                        time.sleep(0.02)
                finally:
                    worker.join()
                after = stream.drain()
            seen_live = [e for batch in batches for e in batch]
            assert outcome["result"].succeeded
            # the live window (before the run returned) saw task spans...
            live_task_spans = [
                e
                for e in seen_live
                if e.kind == KIND_SPAN and e.name.startswith("task.")
            ]
            assert live_task_spans, "no task span observed before the run returned"
            # ...and at least one metric or health event
            assert any(
                e.kind in ("metric", "health") for e in seen_live
            ), "no metric/health event observed before the run returned"
            # both halves contribute to the merged feed
            services = {e.service for e in seen_live + after}
            assert "dgx-session" in services
            assert "acl-daemon" in services
            # each drained batch is merged in time order (global order
            # across batches is not promised: the remote poll lags)
            for batch in batches:
                stamps = [e.timestamp for e in batch]
                assert stamps == sorted(stamps)

    def test_remote_failure_degrades_with_synthetic_event(self):
        bus = TelemetryBus("dgx-session", clock=VirtualClock())

        def broken_client():
            raise ConnectionError("partitioned")

        stream = SessionStream(bus, remote_client_fn=broken_client)
        events = stream.drain()
        names = [e.name for e in events]
        assert "stream.remote_poll_failed" in names
        failed = next(e for e in events if e.name == "stream.remote_poll_failed")
        assert failed.kind == KIND_STREAM
        assert stream.remote_poll_failures >= 1
        # local publishing still flows
        bus.publish("event", "local.still.works")
        assert "local.still.works" in [e.name for e in stream.drain()]
        stream.close()

    def test_remote_gap_surfaces_cursor_gap_event(self):
        metrics = MetricsRegistry()
        local = TelemetryBus("dgx-session", clock=VirtualClock(), metrics=metrics)
        remote = TelemetryBus("acl-daemon", clock=VirtualClock(), history=2)
        server = _server(remote)

        class InProcessClient:
            def Telemetry_Poll(self, cursor=0, max_events=256):
                return server.Telemetry_Poll(cursor, max_events)

            def close(self):
                pass

        stream = SessionStream(local, remote_client_fn=InProcessClient)
        for i in range(6):
            remote.publish("event", f"e{i}")
        events = stream.drain()
        gap_events = [e for e in events if e.name == "stream.cursor_gap"]
        assert len(gap_events) == 1
        assert gap_events[0].data["missed"] == 4
        assert stream.remote_gap_total == 4
        assert metrics.counter("obs.stream.dropped_total").value(half="remote") == 4
        # the retained remote events did arrive
        assert {"e4", "e5"} <= {e.name for e in events}
        stream.close()

    def test_stream_without_remote_half_is_local_only(self):
        bus = TelemetryBus("dgx-session", clock=VirtualClock())
        stream = SessionStream(bus, remote_client_fn=None)
        bus.publish("event", "only.local")
        events = stream.drain()
        assert [e.name for e in events] == ["only.local"]
        stream.close()


class TestHealthTransitions:
    def test_status_change_is_published_once(self):
        metrics = MetricsRegistry()
        bus = TelemetryBus("dgx-session", clock=VirtualClock(), metrics=metrics)
        from repro.obs.health import HealthEngine

        engine = HealthEngine(metrics, bus=bus)
        flip = {"status": None}

        def probe():
            return (flip["status"], "forced") if flip["status"] else None

        engine.register_probe("workflow", probe)
        with bus.subscribe() as sub:
            engine.evaluate()  # healthy: first evaluation is a transition
            engine.evaluate()  # still healthy: no event
            flip["status"] = "unhealthy"
            engine.evaluate()  # flip: second event
            events = [e for e in sub.poll() if e.kind == "health"]
        assert [e.data["status"] for e in events] == ["healthy", "unhealthy"]
        assert events[1].data["previous"] == "healthy"
        assert any("forced" in r for r in events[1].data["reasons"])
