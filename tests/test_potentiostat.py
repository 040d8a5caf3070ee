"""SP200 device, firmware, techniques."""

import numpy as np
import pytest

from repro.chemistry.cell import ElectrochemicalCell
from repro.chemistry.cv_engine import CVEngine
from repro.chemistry.faults import FaultKind, apply_fault
from repro.chemistry.species import ferrocene_solution
from repro.errors import (
    ChannelBusyError,
    FirmwareError,
    InstrumentStateError,
    TechniqueError,
)
from repro.instruments.potentiostat import (
    CATechnique,
    CVTechnique,
    ChannelState,
    DPVTechnique,
    KERNEL4,
    LSVTechnique,
    OCVTechnique,
    SP200,
)
from repro.instruments.potentiostat.firmware import (
    CV_TECHNIQUE_ECC,
    FirmwareImage,
    technique_firmware,
)


@pytest.fixture
def filled_cell():
    cell = ElectrochemicalCell()
    cell.add_liquid(10.0, ferrocene_solution(2.0))
    return cell


@pytest.fixture
def device(filled_cell):
    return SP200(cell=filled_cell, noise=None)


def run_cv(device, channel=1, **params):
    device.connect()
    device.load_kernel(KERNEL4)
    device.connect_channel(channel)
    device.load_technique(channel, CVTechnique(**params))
    device.start_channel(channel)
    assert device.channel(channel).wait(timeout=30.0)
    return device.channel(channel).result


class TestFirmware:
    def test_kernel_identity(self):
        assert KERNEL4.name == "kernel4.bin"
        assert KERNEL4.kind == "kernel"
        KERNEL4.verify()

    def test_corrupt_image_detected(self):
        with pytest.raises(FirmwareError, match="checksum"):
            FirmwareImage(
                name="bad.bin",
                kind="kernel",
                payload=b"payload",
                checksum="0" * 64,
            )

    def test_unknown_kind(self):
        with pytest.raises(FirmwareError):
            FirmwareImage(name="x", kind="bootloader", payload=b"p")

    def test_technique_firmware_lookup(self):
        assert technique_firmware("CV") is CV_TECHNIQUE_ECC
        with pytest.raises(FirmwareError):
            technique_firmware("EIS")

    def test_technique_firmware_must_name_technique(self):
        with pytest.raises(FirmwareError):
            FirmwareImage(name="x.ecc", kind="technique", payload=b"p")


class TestLifecycleOrdering:
    def test_full_pipeline(self, device):
        trace = run_cv(device)
        assert trace is not None
        assert len(trace) == 1200
        assert device.channel(1).state is ChannelState.FINISHED

    def test_kernel_requires_connection(self, device):
        with pytest.raises(InstrumentStateError):
            device.load_kernel(KERNEL4)

    def test_channel_requires_kernel(self, device):
        device.connect()
        with pytest.raises(FirmwareError):
            device.connect_channel(1)

    def test_technique_requires_channel_connected(self, device):
        device.connect()
        device.load_kernel(KERNEL4)
        with pytest.raises(InstrumentStateError):
            device.load_technique(1, CVTechnique())

    def test_start_requires_technique(self, device):
        device.connect()
        device.load_kernel(KERNEL4)
        device.connect_channel(1)
        with pytest.raises(TechniqueError):
            device.start_channel(1)

    def test_double_connect_rejected(self, device):
        device.connect()
        with pytest.raises(InstrumentStateError):
            device.connect()

    def test_wrong_firmware_kind(self, device):
        device.connect()
        with pytest.raises(FirmwareError):
            device.load_kernel(CV_TECHNIQUE_ECC)

    def test_unknown_channel(self, device):
        device.connect()
        device.load_kernel(KERNEL4)
        with pytest.raises(InstrumentStateError):
            device.connect_channel(99)

    def test_busy_channel_rejects_restart(self, filled_cell):
        device = SP200(cell=filled_cell, noise=None, time_scale=0.02)
        device.connect()
        device.load_kernel(KERNEL4)
        device.connect_channel(1)
        device.load_technique(1, CVTechnique())
        device.start_channel(1)
        with pytest.raises(ChannelBusyError):
            device.start_channel(1)
        device.channel(1).wait(timeout=30.0)

    def test_channel_auto_disconnects_after_acquisition(self, device):
        run_cv(device)
        status = device.channel_status(1)
        assert status["state"] == "finished"
        assert status["samples_acquired"] == 1200

    def test_start_without_cell(self):
        device = SP200(cell=None)
        device.connect()
        device.load_kernel(KERNEL4)
        device.connect_channel(1)
        device.load_technique(1, CVTechnique())
        with pytest.raises(InstrumentStateError):
            device.start_channel(1)

    def test_disconnect_resets_state(self, device):
        run_cv(device)
        device.disconnect()
        assert not device.usb_connected
        assert device.channel(1).state is ChannelState.DISCONNECTED
        # full pipeline works again after reconnect
        trace = run_cv(device)
        assert trace is not None

    def test_progressive_visibility(self, filled_cell):
        device = SP200(
            cell=filled_cell, noise=None, time_scale=0.01, reveal_chunks=5
        )
        device.connect()
        device.load_kernel(KERNEL4)
        device.connect_channel(1)
        device.load_technique(1, CVTechnique())
        device.start_channel(1)
        partial = device.channel(1).visible_data()
        device.channel(1).wait(timeout=30.0)
        final = device.channel(1).visible_data()
        assert partial is None or len(partial) <= len(final)
        assert len(final) == 1200


class TestTechniques:
    def test_cv_respects_cell_area(self, device, filled_cell):
        full = run_cv(device)
        device.disconnect()
        # drain to 1 mL: quarter immersion, quarter the current
        filled_cell.withdraw_liquid(9.0)
        partial = run_cv(device)
        ratio = partial.peak_anodic()[1] / full.peak_anodic()[1]
        assert ratio == pytest.approx(0.25, rel=0.15)

    def test_cv_open_circuit_gives_noise_trace(self, device, filled_cell):
        filled_cell.set_electrode_connected("working", False)
        trace = run_cv(device)
        assert np.abs(trace.current_a).max() < 1e-6

    @pytest.mark.parametrize(
        "technique",
        [CVTechnique(e_step_v=0.002), LSVTechnique(), DPVTechnique()],
        ids=lambda technique: technique.technique_id,
    )
    def test_open_circuit_runs_no_solve(self, technique, filled_cell, monkeypatch):
        # the closed-circuit trace with the open circuit's noise as its current
        expected = apply_fault(
            technique.execute(filled_cell, seed=11),
            FaultKind.DISCONNECTED_ELECTRODE,
            severity=0.8,
            seed=11,
        )
        filled_cell.set_electrode_connected("working", False)
        solved = []
        solve = CVEngine._solve

        def counting_solve(engine, *args):
            solved.append(engine)
            return solve(engine, *args)

        monkeypatch.setattr(CVEngine, "_solve", counting_solve)
        trace = technique.execute(filled_cell, seed=11)
        assert solved == []
        for name in ("time_s", "potential_v", "current_a", "cycle_index"):
            assert np.array_equal(getattr(trace, name), getattr(expected, name)), name
        assert trace.metadata == expected.metadata

    def test_cv_parameter_validation(self):
        with pytest.raises(TechniqueError):
            CVTechnique(scan_rate_v_s=-1.0)
        with pytest.raises(TechniqueError):
            CVTechnique(e_begin_v=50.0)

    def test_cv_ecc_params(self):
        params = CVTechnique(scan_rate_v_s=0.2).ecc_params()
        assert params["technique"] == "CV"
        assert params["scan_rate"] == 0.2

    def test_ca_cottrell_decay(self, filled_cell):
        technique = CATechnique(e_step_to_v=0.8, duration=5.0, dt_s=0.01)
        trace = technique.execute(filled_cell)
        # Cottrell: i ~ t^-1/2, so i(t) * sqrt(t) constant in the tail
        tail = slice(200, 500)
        product = trace.current_a[tail] * np.sqrt(trace.time_s[tail])
        assert product.std() / product.mean() < 0.05

    def test_ca_validation(self):
        with pytest.raises(TechniqueError):
            CATechnique(duration=-1.0)
        with pytest.raises(TechniqueError):
            CATechnique(duration=1.0, dt_s=2.0)

    def test_ocv_zero_current_near_rest(self, filled_cell):
        technique = OCVTechnique(duration=5.0, dt_s=0.1)
        trace = technique.execute(filled_cell)
        assert np.all(trace.current_a == 0.0)
        # rest potential below E0 for an all-reduced analyte
        assert trace.potential_v.mean() < 0.40

    def test_ocv_blank_cell_drifts(self):
        cell = ElectrochemicalCell()
        trace = OCVTechnique(duration=2.0, dt_s=0.1).execute(cell)
        assert len(trace) == 20

    def test_durations(self):
        assert CVTechnique().duration_s() == pytest.approx(12.0)
        assert CATechnique(duration=7.0).duration_s() == 7.0
        assert OCVTechnique(duration=3.0).duration_s() == 3.0
