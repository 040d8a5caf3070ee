"""Flight recorder: ring buffers, merging, the RPC verb, black boxes.

The tier-1 half covers the :class:`FlightRecorder` capture surfaces and
:func:`merge_snapshots` correlation; the chaos-marked e2e covers the
acceptance scenario — a safe-state teardown writes exactly one merged
client+daemon dump whose spans share the workflow's trace id.
"""

from __future__ import annotations

import json

import pytest

from repro.clock import VirtualClock
from repro.core.cv_workflow import CVWorkflowSettings
from repro.logging_utils import EventLog
from repro.obs import MetricsRegistry, Tracer
from repro.obs.recorder import SCHEMA, FlightRecorder, merge_snapshots
from repro.obs.scrape import ObservabilityServer


class TestCapture:
    def test_span_ring_is_bounded(self):
        clock = VirtualClock()
        tracer = Tracer("svc", clock=clock)
        recorder = FlightRecorder("svc", clock=clock, max_spans=5)
        tracer.add_sink(recorder.record_span)
        for i in range(12):
            tracer.start_span(f"op{i}").end()
        snapshot = recorder.snapshot()
        assert len(snapshot["spans"]) == 5
        # oldest entries fell off silently
        assert [s["name"] for s in snapshot["spans"]] == [
            "op7", "op8", "op9", "op10", "op11",
        ]

    def test_attach_tracer_adds_a_sink_and_detaches_only_itself(self):
        seen = []
        tracer = Tracer("svc", exporter=seen.append)
        recorder = FlightRecorder("svc")
        remove = tracer.add_sink(recorder.record_span)
        tracer.start_span("op").end()
        assert len(seen) == 1  # the earlier sink still fires
        assert len(recorder.snapshot()["spans"]) == 1
        remove()
        tracer.start_span("after").end()
        assert len(seen) == 2
        assert len(recorder.snapshot()["spans"]) == 1

    def test_only_filter_splits_the_halves(self):
        tracer = Tracer("shared")
        daemon_half = FlightRecorder("acl-daemon")
        tracer.halves.acl.add(daemon_half.record_span)
        client_half = FlightRecorder("dgx-session")
        tracer.halves.dgx.add(client_half.record_span)
        tracer.start_span("rpc.call.Status_JKem").end()
        tracer.start_span("rpc.dispatch.Status_JKem").end()
        tracer.start_span("instrument.Status_JKem").end()
        assert [s["name"] for s in daemon_half.snapshot()["spans"]] == [
            "rpc.dispatch.Status_JKem",
            "instrument.Status_JKem",
        ]
        assert [s["name"] for s in client_half.snapshot()["spans"]] == [
            "rpc.call.Status_JKem"
        ]

    def test_event_log_subscription_and_notes(self):
        log = EventLog()
        recorder = FlightRecorder("svc", clock=VirtualClock())
        log.subscribe(recorder.record_event)
        log.emit("cell", "halt", "overflow guard tripped", volume_ml=25.0)
        recorder.note("operator paged", severity="high")
        snapshot = recorder.snapshot()
        assert snapshot["events"][0]["kind"] == "halt"
        assert snapshot["events"][0]["data"]["volume_ml"] == 25.0
        assert snapshot["notes"][0]["message"] == "operator paged"

    def test_metric_snapshots_capture_final_readings(self):
        metrics = MetricsRegistry()
        recorder = FlightRecorder("svc", clock=VirtualClock())
        recorder.observe_metrics(metrics)
        metrics.counter("rpc.client.calls_total").inc(status="ok")
        snapshot = recorder.snapshot()  # takes a fresh metric snapshot
        assert snapshot["schema"] == SCHEMA
        readings = snapshot["metric_snapshots"][-1]["metrics"]
        assert any(k.startswith("rpc.client.calls_total") for k in readings)


class TestMergeSnapshots:
    @staticmethod
    def _half(service, spans):
        return {
            "schema": SCHEMA,
            "service": service,
            "captured_at": 10.0,
            "spans": spans,
            "events": [],
            "metric_snapshots": [],
            "notes": [],
        }

    def test_merge_groups_by_trace_id_across_services(self):
        client = self._half(
            "dgx-session",
            [
                {
                    "name": "rpc.call.Fill",
                    "trace_id": "t1",
                    "span_id": "c1",
                    "parent_id": None,
                    "start_time": 1.0,
                    "duration_s": 0.4,
                    "status": "OK",
                    # the shared in-process tracer stamped its own name;
                    # the capturing half must win
                    "attributes": {"service": "not-me"},
                    "service": "not-me",
                }
            ],
        )
        daemon = self._half(
            "acl-daemon",
            [
                {
                    "name": "rpc.dispatch.Fill",
                    "trace_id": "t1",
                    "span_id": "d1",
                    "parent_id": "c1",
                    "start_time": 1.1,
                    "duration_s": 0.2,
                    "status": "OK",
                }
            ],
        )
        merged = merge_snapshots([client, daemon], trigger="unit")
        assert merged["schema"] == SCHEMA and merged["trigger"] == "unit"
        assert [h["service"] for h in merged["halves"]] == [
            "dgx-session",
            "acl-daemon",
        ]
        # pooled spans: start-time order, capturing-half service
        assert [s["service"] for s in merged["spans"]] == [
            "dgx-session",
            "acl-daemon",
        ]
        trace = merged["traces"]["t1"]
        assert trace["span_count"] == 2
        assert set(trace["services"]) == {"dgx-session", "acl-daemon"}
        child = next(s for s in trace["spans"] if s["span_id"] == "d1")
        assert child["parent_id"] == "c1"


class TestDump:
    def test_dump_writes_one_sanitized_json_file(self, tmp_path):
        recorder = FlightRecorder("svc", clock=VirtualClock())
        path = recorder.dump(tmp_path, trigger="breaker open: ctl/1")
        assert path.parent == tmp_path
        assert path.name.startswith("flightrec-breaker-open--ctl-1-")
        doc = json.loads(path.read_text())
        assert doc["schema"] == SCHEMA
        assert doc["halves"][0]["service"] == "svc"
        assert recorder.last_dump == path
        # a second dump never overwrites the first
        again = recorder.dump(tmp_path, trigger="breaker open: ctl/1")
        assert again != path and again.exists()

    def test_dump_ignores_malformed_remote_halves(self, tmp_path):
        recorder = FlightRecorder("svc", clock=VirtualClock())
        path = recorder.dump(
            tmp_path, trigger="t", remote_snapshots=["garbage", None]
        )
        doc = json.loads(path.read_text())
        assert len(doc["halves"]) == 1


class TestRecorderServer:
    def test_recorder_dump_verb_over_the_control_channel(self, ice):
        proxy = ice.obs_client()
        try:
            assert proxy.Recorder_Note("client says hello") is True
            snapshot = proxy.Recorder_Dump()
        finally:
            proxy.close()
        assert snapshot["schema"] == SCHEMA
        assert snapshot["service"] == "acl-daemon"
        notes = [n["message"] for n in snapshot["notes"]]
        assert "client says hello" in notes
        # the daemon's event log was attached at build time, so the
        # snapshot carries facility events
        assert isinstance(snapshot["events"], list)

    def test_server_object_id_is_stable(self):
        assert ObservabilityServer.OBJECT_ID == "ACL_Observability"


@pytest.mark.chaos
class TestBlackBoxE2E:
    def test_safe_state_teardown_writes_merged_black_box(self, tmp_path):
        import repro

        flight_dir = tmp_path / "blackbox"
        # 25 mL overflows the cell: the fill task fails mid-experiment
        # and the safe-state teardown path fires, dump included
        settings = CVWorkflowSettings(fill_volume_ml=25.0, e_step_v=0.01)
        with repro.connect(flight_dir=flight_dir) as session:
            result = session.run_workflow(settings=settings)
            assert not result.succeeded

        dumps = list(flight_dir.glob("flightrec-safe-state-teardown-*.json"))
        assert len(dumps) == 1, "expected exactly one black box"
        doc = json.loads(dumps[0].read_text())
        assert doc["schema"] == "repro-flightrec-1"

        # both halves made it into one document
        services = {h["service"] for h in doc["halves"]}
        assert services == {"dgx-session", "acl-daemon"}

        # the workflow's trace correlates spans from both facilities:
        # the client-side task span and the daemon-side dispatch span it
        # caused share one trace id
        task_traces = [
            t
            for t in doc["traces"].values()
            if any(s["name"].startswith("task.") for s in t["spans"])
        ]
        assert task_traces
        assert any(
            {"dgx-session", "acl-daemon"} <= set(t["services"])
            for t in task_traces
        )

    def test_partitioned_channel_still_yields_client_half(self, tmp_path):
        """When the control path dies, the remote pull fails — but the
        client half must still land on disk (that is the whole point of
        a black box)."""
        import repro
        from repro.facility.ice import HOST_DGX
        from repro.net.chaos import ChaosController
        from repro.resilience import RetryPolicy

        flight_dir = tmp_path / "blackbox"
        settings = CVWorkflowSettings(
            resilient_client=True,
            client_retry_policy=RetryPolicy(
                max_attempts=2, base_delay_s=0.01, jitter="none"
            ),
        )
        with repro.connect(flight_dir=flight_dir) as session:
            chaos = ChaosController(
                session.ice.simnet, event_log=session.ice.event_log
            )
            chaos.flap_link(
                HOST_DGX, "ornl-wan", after_frames=14, down_frames=10**6
            )
            try:
                result = session.run_workflow(settings=settings)
            finally:
                chaos.stop()
            assert not result.succeeded

        dumps = list(flight_dir.glob("flightrec-safe-state-teardown-*.json"))
        assert dumps, "no black box written under partition"
        doc = json.loads(dumps[0].read_text())
        services = {h["service"] for h in doc["halves"]}
        assert "dgx-session" in services
