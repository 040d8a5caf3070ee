"""Chaos e2e: the paper's CV workflow under injected network faults.

The acceptance scenario of the resilience layer: the full five-task
workflow runs to a normal voltammogram while the chaos controller flaps
the DGX's WAN uplink mid-run and resets the control-channel connection,
with zero duplicated instrument side effects; a forced abort exercises
the safe-state teardown.
"""

import pytest

from repro.core.cv_workflow import CVWorkflowSettings, run_cv_workflow
from repro.core.workflow import TaskState
from repro.errors import CircuitOpenError, RetryExhaustedError
from repro.facility.ice import CONTROL_PORT, HOST_AGENT, HOST_DGX
from repro.net.chaos import ChaosController
from repro.obs import MetricsRegistry
from repro.resilience import CircuitBreaker, RetryPolicy

FAST_POLICY = RetryPolicy(max_attempts=8, base_delay_s=0.01, jitter="none")

RESILIENT = CVWorkflowSettings(
    resilient_client=True, client_retry_policy=FAST_POLICY
)


@pytest.mark.chaos
class TestWorkflowUnderChaos:
    def test_cv_workflow_survives_flap_and_reset(self, ice, trained_classifier):
        chaos = ChaosController(ice.simnet, event_log=ice.event_log)
        # mid-run (task C territory) the DGX's WAN uplink flaps ...
        chaos.flap_link(HOST_DGX, "ornl-wan", after_frames=18, down_frames=3)
        # ... and later (task D territory) every control-channel session
        # to the agent is abruptly reset at the lab hub
        chaos.reset_connections_after(
            HOST_AGENT,
            "acl-hub",
            after_frames=30,
            dst_host=HOST_AGENT,
            port=CONTROL_PORT,
        )
        try:
            result = run_cv_workflow(
                ice, settings=RESILIENT, classifier=trained_classifier
            )
        finally:
            chaos.stop()

        # both faults actually fired — otherwise this test proves nothing
        assert chaos.fired("link-down") and chaos.fired("link-up")
        resets = chaos.fired("connection-reset")
        assert resets and sum(r["connections"] for r in resets) >= 1

        # the workflow still produced the paper's result
        assert result.succeeded
        assert result.voltammogram is not None and len(result.voltammogram) > 0
        assert result.metrics is not None
        assert result.metrics.e_half_v == pytest.approx(0.40, abs=0.01)
        assert result.normality is not None and result.normality.normal

        # zero duplicated side effects: exactly one 5 mL fill reached the
        # cell even though instrument calls were retried across the faults
        status = ice.client().call_Cell_Status()
        assert status["volume_ml"] == pytest.approx(
            RESILIENT.fill_volume_ml
        )

    def test_reset_during_acquisition_replays_not_reruns(self, ice):
        """A reset arriving late hits the long-running acquisition call;
        the retried frame must be replayed from the dedup cache rather
        than starting a second acquisition."""
        chaos = ChaosController(ice.simnet, event_log=ice.event_log)
        chaos.reset_connections_after(
            HOST_AGENT,
            "acl-hub",
            after_frames=39,  # the Get_Tech_Path_Rslt exchange
            dst_host=HOST_AGENT,
            port=CONTROL_PORT,
        )
        try:
            result = run_cv_workflow(ice, settings=RESILIENT)
        finally:
            chaos.stop()
        assert chaos.fired("connection-reset")
        assert result.succeeded
        # one acquisition, one measurement file on the share
        mount = ice.mount()
        files = [s for s in mount.listdir() if s.path.endswith(".mpt")]
        mount.unmount()
        assert len(files) == 1


@pytest.mark.chaos
class TestSafeStateOnAbort:
    def test_forced_abort_runs_safe_state_teardown(self, ice):
        # 25 mL > cell capacity: task C aborts the run mid-experiment,
        # with the purge MFC already flowing from task B
        settings = CVWorkflowSettings(fill_volume_ml=25.0)
        result = run_cv_workflow(ice, settings=settings)

        assert not result.succeeded
        assert result.workflow.tasks["C_fill_cell"].state is TaskState.FAILED
        assert result.workflow.tasks["D_run_cv"].state is TaskState.SKIPPED

        # safe state reached: pumps halted, purge gas off, stat parked
        ws = ice.workstation
        assert ws.mfc.setpoint_sccm == 0.0
        assert ws.potentiostat.usb_connected is False
        assert ws.event_log.events(kind="halt")
        teardown_msgs = ice.event_log.messages(kind="teardown")
        assert any("safe state" in m for m in teardown_msgs)

    def test_partition_abort_still_runs_local_teardowns(self, ice):
        """With the control path hard-partitioned, the safe-state call
        fails — but the engine guards each teardown, so the local mount
        and client cleanup still run and the run ends, not hangs."""
        settings = CVWorkflowSettings(
            resilient_client=True,
            client_retry_policy=RetryPolicy(
                max_attempts=2, base_delay_s=0.01, jitter="none"
            ),
        )
        chaos = ChaosController(ice.simnet, event_log=ice.event_log)
        chaos.flap_link(HOST_DGX, "ornl-wan", after_frames=14, down_frames=10**6)
        try:
            result = run_cv_workflow(ice, settings=settings)
        finally:
            chaos.stop()

        assert not result.succeeded
        teardown_msgs = ice.event_log.messages(kind="teardown")
        # the safe-state teardown was attempted and its failure recorded,
        # without stopping the remaining teardowns
        assert any("raised" in m for m in teardown_msgs)
        assert any("executing 3 safe-state" in m for m in teardown_msgs)


@pytest.mark.chaos
class TestChaosMetrics:
    """The observability layer must *see* the faults the chaos controller
    injects — retries, reconnects and breaker trips all land in metrics."""

    def test_retry_counter_increments_under_link_flap(self, ice):
        metrics = MetricsRegistry()
        chaos = ChaosController(ice.simnet, event_log=ice.event_log)
        chaos.flap_link(HOST_DGX, "ornl-wan", after_frames=18, down_frames=3)
        try:
            result = run_cv_workflow(ice, settings=RESILIENT, metrics=metrics)
        finally:
            chaos.stop()

        assert chaos.fired("link-down") and result.succeeded
        retries = metrics.counter("resilience.retries_total")
        assert retries.total() > 0
        # every retried attempt redialled the dead connection first
        assert metrics.counter("resilience.reconnects_total").total() > 0
        # labels identify what was retried and why
        assert any(
            labels.get("error_type") for labels, _ in retries.series()
        )

    def test_breaker_open_gauge_observed_under_partition(self, ice):
        metrics = MetricsRegistry()
        breaker = CircuitBreaker(
            failure_threshold=2,
            min_calls=2,
            cooldown_s=60.0,
            metrics=metrics,
            name="control",
        )
        client = ice.client(
            retry_policy=RetryPolicy(
                max_attempts=2, base_delay_s=0.01, jitter="none"
            ),
            breaker=breaker,
            metrics=metrics,
        )
        chaos = ChaosController(ice.simnet, event_log=ice.event_log)
        chaos.flap_link(HOST_DGX, "ornl-wan", after_frames=0, down_frames=10**6)
        try:
            saw_open = False
            for _ in range(8):
                try:
                    client.call_Status_JKem()
                except CircuitOpenError:
                    saw_open = True
                    break
                except (RetryExhaustedError, Exception):
                    continue
        finally:
            chaos.stop()
            client.close()

        assert saw_open, "breaker never failed fast under a hard partition"
        state = metrics.gauge("resilience.breaker.state")
        assert state.value(breaker="control") == 1  # 1 == OPEN
        assert metrics.counter(
            "resilience.breaker.opens_total"
        ).value(breaker="control") >= 1
        assert metrics.counter(
            "resilience.breaker.rejected_total"
        ).value(breaker="control") >= 1


@pytest.mark.chaos
class TestStreamUnderPartition:
    """The live feed must degrade, not hang, when its remote half dies."""

    def test_partition_surfaces_failure_events_without_hanging(self, ice):
        import time

        import repro

        chaos = ChaosController(ice.simnet, event_log=ice.event_log)
        try:
            with repro.connect(ice) as session:
                with session.stream() as stream:
                    # healthy first: the daemon half is reachable
                    ice.telemetry_bus.publish("event", "test.before")
                    first = stream.drain()
                    assert "test.before" in [e.name for e in first]
                    assert stream.remote_poll_failures == 0

                    # hard-partition the DGX's WAN uplink mid-stream
                    chaos.flap_link(
                        HOST_DGX, "ornl-wan", after_frames=0,
                        down_frames=10**6,
                    )
                    start = time.monotonic()
                    degraded = []
                    for _ in range(5):
                        degraded.extend(stream.drain())
                        if stream.remote_poll_failures:
                            break
                    elapsed = time.monotonic() - start

                    # the subscriber got synthetic events, not a hang
                    assert stream.remote_poll_failures >= 1
                    names = [e.name for e in degraded]
                    assert "stream.remote_poll_failed" in names
                    assert elapsed < 30.0, "drain must not hang on a partition"

                    # the local half keeps flowing through the outage
                    session.metrics.counter("test.alive_total").inc()
                    local = stream.drain()
                    assert any(
                        e.name == "test.alive_total" for e in local
                    )
        finally:
            chaos.stop()

    def test_feed_recovers_when_the_link_heals(self, ice):
        import repro

        chaos = ChaosController(ice.simnet, event_log=ice.event_log)
        try:
            with repro.connect(ice) as session:
                with session.stream() as stream:
                    stream.drain()  # establish the remote cursor
                    # short flap: retry traffic itself drives the heal
                    chaos.flap_link(
                        HOST_DGX, "ornl-wan", after_frames=0, down_frames=4
                    )
                    ice.telemetry_bus.publish("event", "test.during")
                    recovered = []
                    for _ in range(30):
                        recovered.extend(stream.drain())
                        if any(e.name == "test.during" for e in recovered):
                            break
                    # the poll failed at least once, then reconnected and
                    # caught up on the daemon events published meanwhile
                    assert stream.remote_poll_failures >= 1
                    assert any(e.name == "test.during" for e in recovered)
        finally:
            chaos.stop()


class TestScheduledFaults:
    """The controller's latency spike and client crash, driven frame by
    frame on the simulated ICE (no workflow, so they run in tier-1)."""

    EXTRA_S = 0.05

    def test_latency_spike_rises_then_clears(self, ice):
        link = ice.topology.link(HOST_DGX, "ornl-wan")
        chaos = ChaosController(ice.simnet, event_log=ice.event_log)
        chaos.spike_latency(
            HOST_DGX,
            "ornl-wan",
            after_frames=2,
            extra_s=self.EXTRA_S,
            duration_frames=3,
        )
        try:
            owed = [
                link.transmit(64, charge_latency=False) - link.spec.latency_s
                for _ in range(7)
            ]
        finally:
            chaos.stop()
        # the third frame trips the spike and pays it, as do the three
        # after it; the seventh clears it before it is charged
        spiked = [0.0, 0.0] + [self.EXTRA_S] * 4 + [0.0]
        assert owed == pytest.approx(spiked)
        assert link.extra_latency_s == 0.0
        assert [r["kind"] for r in chaos.injections] == [
            "latency-spike",
            "latency-clear",
        ]

    def test_stop_zeroes_a_spike_that_never_cleared(self, ice):
        link = ice.topology.link(HOST_DGX, "ornl-wan")
        chaos = ChaosController(ice.simnet)
        chaos.spike_latency(
            HOST_DGX,
            "ornl-wan",
            after_frames=0,
            extra_s=self.EXTRA_S,
            duration_frames=1000,
        )
        link.transmit(64, charge_latency=False)
        assert link.extra_latency_s == self.EXTRA_S
        chaos.stop()
        assert link.extra_latency_s == 0.0
        # the hook is gone too: later frames neither spike nor clear
        link.transmit(64, charge_latency=False)
        assert link.extra_latency_s == 0.0
        assert [r["kind"] for r in chaos.injections] == ["latency-spike"]

    def test_client_crash_drops_the_connection_and_the_next_call_redials(
        self, ice
    ):
        client = ice.client()
        client.ping()
        proxy = client._proxy
        assert proxy.connected
        chaos = ChaosController(ice.simnet, event_log=ice.event_log)
        try:
            chaos.crash_client_mid_round(client)
            assert not proxy.connected
            assert [r["kind"] for r in chaos.injections] == ["client-crash"]
            assert client.call_Cell_Status()["volume_ml"] == 0.0
            assert proxy.connected
        finally:
            chaos.stop()
            client.close()
