"""The paper's five-task workflow, end to end on the simulated ICE."""

import numpy as np
import pytest

from repro.core.cv_workflow import (
    CVWorkflowSettings,
    build_cv_workflow,
    run_cv_workflow,
)
from repro.core.workflow import TaskState


class TestHappyPath:
    def test_paper_defaults(self, ice, trained_classifier):
        result = run_cv_workflow(ice, classifier=trained_classifier)
        assert result.succeeded
        # Fig 7: the I-V profile of ferrocene
        trace = result.voltammogram
        assert trace is not None
        assert trace.potential_v.min() == pytest.approx(0.2, abs=0.01)
        assert trace.potential_v.max() == pytest.approx(0.8, abs=0.01)
        assert np.abs(trace.current_a).max() > 1e-5
        # analysis on the DGX
        assert result.metrics is not None
        assert result.metrics.e_half_v == pytest.approx(0.40, abs=0.01)
        # ML verdict: normal (paper §4.3.3)
        assert result.normality is not None
        assert result.normality.normal
        assert "normal" in result.summary()

    def test_task_names_match_paper(self, ice):
        flow = build_cv_workflow(ice)
        assert flow.task_names == [
            "A_establish_communications",
            "B_configure_jkem",
            "C_fill_cell",
            "D_run_cv",
            "E_shutdown",
            "analyze",
        ]

    def test_measurement_file_on_share(self, ice):
        result = run_cv_workflow(ice)
        assert result.measurement_file is not None
        mount = ice.mount()
        assert mount.exists(result.measurement_file)
        mount.unmount()

    def test_custom_settings(self, ice):
        settings = CVWorkflowSettings(
            fill_volume_ml=6.0,
            scan_rate_v_s=0.2,
            n_cycles=2,
            e_step_v=0.002,
            measurement_stem="custom_run",
        )
        result = run_cv_workflow(ice, settings=settings)
        assert result.succeeded
        assert result.measurement_file == "custom_run.mpt"
        assert result.voltammogram.n_cycles == 2

    def test_rerunnable_on_same_ice(self, ice):
        first = run_cv_workflow(ice)
        second = run_cv_workflow(
            ice, settings=CVWorkflowSettings(fill_volume_ml=2.0)
        )
        assert first.succeeded and second.succeeded
        assert first.measurement_file != second.measurement_file


class TestFailureModes:
    def test_overfill_fails_task_c_and_skips_d(self, ice):
        settings = CVWorkflowSettings(fill_volume_ml=25.0)  # > cell capacity
        result = run_cv_workflow(ice, settings=settings)
        assert not result.succeeded
        tasks = result.workflow.tasks
        assert tasks["C_fill_cell"].state is TaskState.FAILED
        assert tasks["D_run_cv"].state is TaskState.SKIPPED
        assert result.voltammogram is None

    def test_disconnected_electrode_flagged_abnormal(self, ice, trained_classifier):
        ice.workstation.cell.set_electrode_connected("working", False)
        result = run_cv_workflow(ice, classifier=trained_classifier)
        assert result.succeeded  # the workflow ran; the *measurement* is bad
        assert result.normality is not None
        assert not result.normality.normal
        assert result.normality.label == "disconnected_electrode"
        assert result.metrics is None  # no wave to characterise

    def test_under_filled_cell_flagged(self, ice, trained_classifier):
        # fill only 1 mL: quarter immersion of the 4 mL-depth electrode
        settings = CVWorkflowSettings(fill_volume_ml=1.0)
        result = run_cv_workflow(ice, settings=settings, classifier=trained_classifier)
        assert result.succeeded
        assert result.normality is not None
        # shrunken wave: must not be classified as a healthy run
        assert not result.normality.normal

    def test_pump_fault_fails_workflow(self, ice):
        # the fault hits the first pump command, which is task B's
        # Set_Rate_SyringePump; everything downstream is skipped
        ice.workstation.syringe_pump.inject_fault("plunger jam")
        result = run_cv_workflow(ice)
        assert not result.succeeded
        assert result.workflow.tasks["B_configure_jkem"].state is TaskState.FAILED
        assert result.workflow.tasks["C_fill_cell"].state is TaskState.SKIPPED
        assert result.workflow.tasks["D_run_cv"].state is TaskState.SKIPPED

    def test_summary_names_failed_task(self, ice):
        ice.workstation.syringe_pump.inject_fault("plunger jam")
        result = run_cv_workflow(ice)
        assert "B_configure_jkem" in result.summary()


class TestRoundTrips:
    def test_session_workflow_sends_44_frames_and_no_hello(self, ice, monkeypatch):
        """Counted at the codec, where every frame is encoded once by
        whichever side sends it: 21 calls and the task-A ping, each a
        request and a reply. No HELLO (type 9) exchange opens a
        connection, and a verified mount read is one call."""
        import sys
        from collections import Counter

        import repro
        import repro.rpc.protocol as protocol
        from repro.rpc.protocol import MessageType

        real = protocol.encode_message
        frames: Counter = Counter()

        def counting(msg):
            frame = real(msg)
            frames[frame[5]] += 1  # the header's message-type byte
            return frame

        settings = CVWorkflowSettings()
        session = repro.connect(ice)
        try:
            session.run_workflow(settings=settings)  # dials the channels
            for name, module in list(sys.modules.items()):
                if name.startswith("repro") and getattr(
                    module, "encode_message", None
                ) is real:
                    monkeypatch.setattr(module, "encode_message", counting)
            ice.workstation.cell.drain()
            result = session.run_workflow(settings=settings)
        finally:
            session.close()
        assert result.succeeded
        assert frames == {
            MessageType.REQUEST: 21,
            MessageType.RESPONSE: 21,
            MessageType.PING: 1,
            MessageType.PONG: 1,
        }
        assert sum(frames.values()) == 44
        assert 9 not in frames
