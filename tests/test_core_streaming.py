"""Live acquisition monitoring and steering."""

import pytest

from repro.core.streaming import LiveMonitor, compliance_guard
from repro.errors import WorkflowError
from repro.facility.ice import ElectrochemistryICE, ICEConfig
from repro.facility.workstation import WorkstationConfig


@pytest.fixture
def slow_ice():
    """An ICE whose acquisitions take ~0.5 s of wall time."""
    config = ICEConfig(workstation=WorkstationConfig(time_scale=0.04))
    ecosystem = ElectrochemistryICE.build(config)
    yield ecosystem
    ecosystem.shutdown()


def start_acquisition(client, e_step=0.002):
    # the pump's top rate: the fill is set-up, the acquisition is the test
    client.call_Set_Rate_SyringePump(1, 150.0)
    client.call_Set_Vial_FractionCollector(1, "BOTTOM")
    client.call_Set_Port_SyringePump(1, 1)
    client.call_Withdraw_SyringePump(1, 5.0)
    client.call_Set_Port_SyringePump(1, 8)
    client.call_Dispense_SyringePump(1, 5.0)
    client.call_Initialize_SP200_API({"channel": 1})
    client.call_Connect_SP200()
    client.call_Load_Firmware_SP200()
    client.call_Initialize_CV_Tech_SP200({"e_step_v": e_step})
    client.call_Load_Technique_SP200()
    client.call_Start_Channel_SP200()


class TestLiveMonitor:
    def test_watch_sees_progress_then_finish(self, slow_ice):
        client = slow_ice.client()
        start_acquisition(client)
        seen: list[int] = []
        monitor = LiveMonitor(
            client,
            poll_interval_s=0.05,
            on_progress=lambda s: seen.append(s.samples_acquired),
        )
        outcome = monitor.watch(timeout_s=30.0)
        assert outcome.finished and not outcome.aborted
        assert outcome.polls >= 3
        # progress is monotone and partial values were observed mid-run
        assert seen == sorted(seen)
        assert any(0 < value < 600 for value in seen)
        client.call_Disconnect_SP200()
        client.close()

    def test_guard_aborts_early(self, slow_ice):
        client = slow_ice.client()
        start_acquisition(client)
        monitor = LiveMonitor(
            client,
            poll_interval_s=0.05,
            guard=lambda s: s.samples_acquired < 100,  # trip once data flows
        )
        outcome = monitor.watch(timeout_s=30.0)
        assert outcome.aborted and not outcome.finished
        # the instrument is still usable afterwards
        slow_ice.workstation.potentiostat.channel(1).wait(timeout=30.0)
        client.call_Disconnect_SP200()
        client.close()

    def test_compliance_guard_with_partial_data(self, slow_ice):
        client = slow_ice.client()
        start_acquisition(client)
        monitor = LiveMonitor(
            client,
            poll_interval_s=0.05,
            fetch_partial_data=True,
            guard=compliance_guard(1e-9),  # absurdly low limit: must trip
        )
        outcome = monitor.watch(timeout_s=30.0)
        assert outcome.aborted
        tripped = [
            s for s in outcome.samples if s.partial_max_abs_current is not None
        ]
        assert tripped and tripped[-1].partial_max_abs_current > 1e-9
        slow_ice.workstation.potentiostat.channel(1).wait(timeout=30.0)
        client.call_Disconnect_SP200()
        client.close()

    def test_compliance_guard_passes_under_limit(self, slow_ice):
        client = slow_ice.client()
        start_acquisition(client)
        monitor = LiveMonitor(
            client,
            poll_interval_s=0.05,
            fetch_partial_data=True,
            guard=compliance_guard(1.0),  # far above any real current
        )
        outcome = monitor.watch(timeout_s=30.0)
        assert outcome.finished and not outcome.aborted
        client.call_Disconnect_SP200()
        client.close()

    def test_timeout_raises(self, slow_ice):
        client = slow_ice.client()
        start_acquisition(client)
        monitor = LiveMonitor(client, poll_interval_s=0.05)
        with pytest.raises(WorkflowError, match="still"):
            monitor.watch(timeout_s=0.1)
        slow_ice.workstation.potentiostat.channel(1).wait(timeout=30.0)
        client.call_Disconnect_SP200()
        client.close()

    def test_bad_interval(self, slow_ice):
        client = slow_ice.client()
        with pytest.raises(WorkflowError):
            LiveMonitor(client, poll_interval_s=0.0)
        client.close()


class TestMonitorTracing:
    def test_each_poll_emits_a_span_onto_the_bus(self, slow_ice):
        from repro.obs import Tracer
        from repro.obs.stream import TelemetryBus

        tracer = Tracer("steering")
        bus = TelemetryBus("dgx-session")
        tracer.add_sink(bus.publish_span)
        client = slow_ice.client()
        start_acquisition(client)
        monitor = LiveMonitor(client, poll_interval_s=0.05, tracer=tracer)
        with bus.subscribe(capacity=2048) as sub:
            outcome = monitor.watch(timeout_s=30.0)
            events = [e for e in sub.poll() if e.name == "monitor.poll"]
        assert outcome.finished
        # one span per probe, each carrying the acquisition snapshot
        assert len(events) == outcome.polls
        assert events[-1].data["attributes"]["state"] == "finished"
        acquired = [e.data["attributes"]["samples_acquired"] for e in events]
        assert acquired == sorted(acquired)
        spans = tracer.find("monitor.poll")
        assert len(spans) == outcome.polls
        client.call_Disconnect_SP200()
        client.close()

    def test_ambient_span_adopts_untraced_monitor(self, slow_ice):
        from repro.obs import Tracer

        tracer = Tracer("steering")
        client = slow_ice.client()
        start_acquisition(client)
        monitor = LiveMonitor(client, poll_interval_s=0.05)  # no tracer
        with tracer.start_as_current_span("steering.loop") as root:
            outcome = monitor.watch(timeout_s=30.0)
        assert outcome.finished
        polls = tracer.find("monitor.poll")
        assert len(polls) == outcome.polls
        assert all(s.parent_id == root.span_id for s in polls)
        client.call_Disconnect_SP200()
        client.close()
