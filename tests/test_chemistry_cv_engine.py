"""The CV physics engine: waveform, validation against theory, stability."""

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.chemistry.cv_engine import (
    CVEngine,
    CVParameters,
    MESH_RATIO,
    potential_waveform,
)
from repro.chemistry.species import FERROCENE, RedoxSpecies, ferrocene_solution
from repro.errors import SimulationError
from repro.units import FARADAY, GAS_CONSTANT, celsius_to_kelvin
from tests.cv_reference import bisection_solve

AREA = 0.0707
CONC = ferrocene_solution(2.0).concentration(FERROCENE)


def randles_sevcik(scan_rate: float, concentration: float = CONC) -> float:
    f_term = FARADAY / (GAS_CONSTANT * celsius_to_kelvin(25.0))
    return (
        0.4463
        * FARADAY
        * AREA
        * concentration
        * np.sqrt(f_term * scan_rate * FERROCENE.diffusion_cm2_s)
    )


class TestCVParameters:
    def test_defaults_match_paper(self):
        params = CVParameters()
        assert params.e_begin_v == 0.2
        assert params.e_vertex_v == 0.8
        assert params.scan_rate_v_s == 0.1

    def test_derived_quantities(self):
        params = CVParameters(e_begin_v=0.0, e_vertex_v=0.5, e_step_v=0.001)
        assert params.window_v == pytest.approx(0.5)
        assert params.samples_per_cycle == 1000
        assert params.dt_s == pytest.approx(0.01)
        assert params.duration_s == pytest.approx(10.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"scan_rate_v_s": 0.0},
            {"scan_rate_v_s": -0.1},
            {"n_cycles": 0},
            {"e_step_v": 0.0},
            {"e_begin_v": 0.4, "e_vertex_v": 0.4},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            CVParameters(**kwargs)


class TestWaveform:
    def test_triangular_shape(self):
        time, potential, cycles = potential_waveform(CVParameters())
        assert len(time) == len(potential) == len(cycles) == 1200
        assert potential.max() == pytest.approx(0.8)
        # returns one step above e_begin at the end of the cycle
        assert potential[-1] == pytest.approx(0.2, abs=1e-9)
        assert np.argmax(potential) == 599

    def test_time_monotone(self):
        time, _, _ = potential_waveform(CVParameters())
        assert np.all(np.diff(time) > 0)

    def test_downward_sweep(self):
        params = CVParameters(e_begin_v=0.8, e_vertex_v=0.2)
        _, potential, _ = potential_waveform(params)
        assert potential.min() == pytest.approx(0.2)
        assert potential[0] < 0.8

    def test_multi_cycle_index(self):
        _, _, cycles = potential_waveform(CVParameters(n_cycles=3))
        assert set(cycles) == {0, 1, 2}
        assert np.all(np.diff(cycles) >= 0)


class TestPhysicsValidation:
    def test_randles_sevcik_peak_current(self):
        engine = CVEngine(FERROCENE, CONC, AREA, double_layer_f_cm2=0.0)
        trace = engine.run(CVParameters())
        _, peak = trace.peak_anodic()
        assert peak == pytest.approx(randles_sevcik(0.1), rel=0.02)

    def test_reversible_peak_separation(self):
        engine = CVEngine(FERROCENE, CONC, AREA, double_layer_f_cm2=0.0)
        trace = engine.run(CVParameters())
        e_anodic, _ = trace.peak_anodic()
        e_cathodic, _ = trace.peak_cathodic()
        # theory: 2.218 RT/F = 57 mV; accept 55-62 at this resolution
        assert 0.055 <= e_anodic - e_cathodic <= 0.062

    def test_e_half_matches_formal_potential(self):
        engine = CVEngine(FERROCENE, CONC, AREA, double_layer_f_cm2=0.0)
        trace = engine.run(CVParameters())
        e_anodic, _ = trace.peak_anodic()
        e_cathodic, _ = trace.peak_cathodic()
        assert 0.5 * (e_anodic + e_cathodic) == pytest.approx(0.40, abs=0.003)

    def test_sqrt_scan_rate_scaling(self):
        peaks = []
        for scan_rate in (0.05, 0.2):
            engine = CVEngine(FERROCENE, CONC, AREA, double_layer_f_cm2=0.0)
            trace = engine.run(CVParameters(scan_rate_v_s=scan_rate))
            peaks.append(trace.peak_anodic()[1])
        assert peaks[1] / peaks[0] == pytest.approx(2.0, rel=0.03)

    def test_peak_scales_linearly_with_concentration(self):
        peaks = []
        for factor in (1.0, 2.0):
            engine = CVEngine(FERROCENE, CONC * factor, AREA, double_layer_f_cm2=0.0)
            peaks.append(engine.run(CVParameters()).peak_anodic()[1])
        assert peaks[1] / peaks[0] == pytest.approx(2.0, rel=0.02)

    def test_peak_scales_linearly_with_area(self):
        peaks = []
        for factor in (1.0, 0.5):
            engine = CVEngine(
                FERROCENE, CONC, AREA * factor, double_layer_f_cm2=0.0
            )
            peaks.append(engine.run(CVParameters()).peak_anodic()[1])
        assert peaks[1] / peaks[0] == pytest.approx(0.5, rel=0.02)

    def test_zero_concentration_gives_capacitive_only(self):
        engine = CVEngine(FERROCENE, 0.0, AREA, double_layer_f_cm2=20e-6)
        trace = engine.run(CVParameters())
        # pure double-layer: |i| = Cdl * A * v
        expected = 20e-6 * AREA * 0.1
        assert np.abs(trace.current_a).max() == pytest.approx(expected, rel=0.1)

    def test_slow_kinetics_widen_separation(self):
        sluggish = RedoxSpecies(
            name="slow",
            formal_potential_v=0.40,
            diffusion_cm2_s=2.4e-5,
            k0_cm_s=1e-4,
        )
        engine = CVEngine(sluggish, CONC, AREA, double_layer_f_cm2=0.0)
        trace = engine.run(CVParameters())
        e_anodic, _ = trace.peak_anodic()
        e_cathodic, _ = trace.peak_cathodic()
        assert e_anodic - e_cathodic > 0.1  # quasi-reversible

    def test_ohmic_drop_widens_separation(self):
        no_ru = CVEngine(FERROCENE, CONC, AREA, double_layer_f_cm2=0.0)
        with_ru = CVEngine(
            FERROCENE, CONC, AREA, double_layer_f_cm2=0.0, resistance_ohm=200.0
        )
        sep_free = np.subtract(
            no_ru.run(CVParameters()).peak_anodic()[0],
            no_ru.run(CVParameters()).peak_cathodic()[0],
        )
        trace = with_ru.run(CVParameters())
        sep_ru = trace.peak_anodic()[0] - trace.peak_cathodic()[0]
        assert sep_ru > sep_free + 0.005

    def test_oxidised_initial_condition_sweeps_cathodic_first(self):
        engine = CVEngine(
            FERROCENE, CONC, AREA, double_layer_f_cm2=0.0, reduced_initially=False
        )
        params = CVParameters(e_begin_v=0.8, e_vertex_v=0.2)
        trace = engine.run(params)
        # reduction first: the cathodic peak precedes the anodic one
        _, i_cathodic = trace.peak_cathodic()
        assert i_cathodic < 0
        idx_cath = int(np.argmin(trace.current_a))
        idx_anod = int(np.argmax(trace.current_a))
        assert idx_cath < idx_anod


class TestNumericalBehaviour:
    def test_stability_across_scan_rates_with_ru(self):
        for scan_rate in (0.02, 0.1, 0.5, 1.0):
            engine = CVEngine(FERROCENE, CONC, AREA, resistance_ohm=100.0)
            trace = engine.run(CVParameters(scan_rate_v_s=scan_rate))
            assert np.all(np.isfinite(trace.current_a))
            # bounded by ~3x the theoretical peak
            assert np.abs(trace.current_a).max() < 3 * randles_sevcik(scan_rate)

    def test_substep_refinement_converges(self):
        results = []
        for substeps in (1, 4):
            engine = CVEngine(
                FERROCENE, CONC, AREA, double_layer_f_cm2=0.0, substeps=substeps
            )
            results.append(engine.run(CVParameters()).peak_anodic()[1])
        # refinement changes the answer by well under a percent
        assert results[1] == pytest.approx(results[0], rel=0.01)

    def test_charge_balance_physics(self):
        # A single CV cycle is NOT charge balanced: diffusion carries part
        # of the oxidised product away before the return sweep. The
        # correct invariants: net charge is positive (net oxidation of the
        # initially reduced analyte), smaller than the forward charge
        # (some product IS recovered), and it shrinks as more cycles
        # deplete the diffusion layer towards a pseudo-steady state.
        engine = CVEngine(FERROCENE, CONC, AREA, double_layer_f_cm2=0.0)
        one = engine.run(CVParameters())
        dt = np.diff(one.time_s, prepend=0.0)
        net_one = float(np.sum(one.current_a * dt))
        forward_charge = float(
            np.sum(np.clip(one.current_a, 0.0, None) * dt)
        )
        assert 0.0 < net_one < forward_charge

        three = engine.run(CVParameters(n_cycles=3))
        dt3 = np.diff(three.time_s, prepend=0.0)
        per_cycle_net = [
            float(
                np.sum(
                    three.current_a[three.cycle_index == c]
                    * dt3[three.cycle_index == c]
                )
            )
            for c in range(3)
        ]
        assert per_cycle_net[2] < per_cycle_net[0]

    def test_invalid_inputs(self):
        with pytest.raises(SimulationError):
            CVEngine(FERROCENE, -1.0, AREA)
        with pytest.raises(SimulationError):
            CVEngine(FERROCENE, CONC, -1.0)
        with pytest.raises(SimulationError):
            CVEngine(FERROCENE, CONC, AREA, substeps=0)

    def test_mesh_ratio_is_stable_choice(self):
        assert MESH_RATIO < 0.5

    @given(
        st.floats(min_value=0.02, max_value=0.5),
        st.floats(min_value=0.5, max_value=5.0),
    )
    @settings(max_examples=10, deadline=None)
    def test_property_finite_and_peak_ordering(self, scan_rate, conc_mm):
        concentration = conc_mm * 1e-6
        engine = CVEngine(
            FERROCENE,
            concentration,
            AREA,
            double_layer_f_cm2=0.0,
            substeps=1,
        )
        trace = engine.run(
            CVParameters(scan_rate_v_s=scan_rate, e_step_v=0.002)
        )
        assert np.all(np.isfinite(trace.current_a))
        e_anodic, i_anodic = trace.peak_anodic()
        e_cathodic, i_cathodic = trace.peak_cathodic()
        assert i_anodic > 0 > i_cathodic
        assert e_anodic > e_cathodic


def _ml_corpus_params(scan_rate: float) -> CVParameters:
    """The sweep ``generate_dataset`` simulates: 2 cycles at 2 mV."""
    return CVParameters(
        e_begin_v=0.2,
        e_vertex_v=0.8,
        scan_rate_v_s=scan_rate,
        n_cycles=2,
        e_step_v=0.002,
    )


def _lsv_waveform() -> tuple[np.ndarray, np.ndarray]:
    """One 0.2 -> 0.8 V ramp at 0.1 V/s, sampled as ``LSVTechnique`` does."""
    steps = np.arange(1, 601, dtype=np.float64)
    return steps * 0.01, 0.2 + steps * 0.001


def _dpv_waveform() -> tuple[np.ndarray, np.ndarray]:
    """The default ``DPVTechnique`` program: 50 mV pulses on a 5 mV staircase."""
    samples_per_period, pulse_samples, n_steps = 32, 8, 120
    base = 0.2 + 0.005 * np.arange(n_steps, dtype=np.float64)
    in_pulse = np.arange(samples_per_period) >= samples_per_period - pulse_samples
    potential = np.repeat(base, samples_per_period) + 0.05 * np.tile(in_pulse, n_steps)
    time = np.arange(1, len(potential) + 1, dtype=np.float64) * (0.2 / samples_per_period)
    return time, potential


#: (engine kwargs, CVParameters or a function returning (time, potential)) per case
REFERENCE_CASES = {
    "paper-cv-tbaotf": (
        {"resistance_ohm": ferrocene_solution(2.0).resistance_ohm, "substeps": 2},
        CVParameters(),
    ),
    **{
        f"ml-corpus-{ru:g}ohm-{rate:g}v_s": (
            {"resistance_ohm": ru, "substeps": 1},
            _ml_corpus_params(rate),
        )
        for ru in (50.0, 200.0, 1000.0, 3000.0)
        for rate in (0.05, 0.4)
    },
    "no-ru": ({"resistance_ohm": 0.0}, CVParameters()),
    "oxidised-start-ec": (
        {
            "resistance_ohm": 100.0,
            "reduced_initially": False,
            "following_reaction_per_s": 0.5,
        },
        CVParameters(e_begin_v=0.8, e_vertex_v=0.2),
    ),
    **{
        f"{name}-{ru:g}ohm": ({"resistance_ohm": ru}, build)
        for name, build in (("lsv", _lsv_waveform), ("dpv", _dpv_waveform))
        for ru in (100.0, 3000.0)
    },
}


def _max_deviation(engine: CVEngine, program) -> float:
    """max |I - I_ref| over max |I_ref| against the bisection reference."""
    if isinstance(program, CVParameters):
        time, potential, _ = potential_waveform(program)
        current = engine.run(program).current_a
        dt = program.dt_s
    else:
        time, potential = program()
        current = engine.run_waveform(time, potential).current_a
        dt = float(np.diff(time)[0])
    reference = bisection_solve(engine, time, potential, dt)
    return float(np.abs(current - reference).max() / np.abs(reference).max())


class TestOhmicDropAgainstBisection:
    """The Newton ohmic-drop solve against the bisection it replaced.

    The bisection stopped at a 1e-9 V bracket, so the two agree to about
    dI/dE x 1e-9 V; 1e-6 of the peak current leaves room for that and
    still catches a wrong root or a lost substep.
    """

    TOLERANCE = 1e-6

    @pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
    def test_case_table(self, case):
        kwargs, program = REFERENCE_CASES[case]
        engine = CVEngine(FERROCENE, CONC, AREA, **kwargs)
        assert _max_deviation(engine, program) <= self.TOLERANCE

    @seed(15)
    @given(
        st.floats(min_value=0.0, max_value=3000.0),
        st.floats(min_value=0.02, max_value=0.5),
        st.floats(min_value=0.5, max_value=5.0),
    )
    @settings(max_examples=10, deadline=None)
    def test_property_sweep(self, resistance, scan_rate, conc_mm):
        engine = CVEngine(
            FERROCENE, conc_mm * 1e-6, AREA, resistance_ohm=resistance, substeps=1
        )
        assert _max_deviation(engine, _ml_corpus_params(scan_rate)) <= self.TOLERANCE


class TestFromCellConditions:
    def test_blank_cell_zero_concentration(self):
        from repro.chemistry.cell import ElectrochemicalCell

        cell = ElectrochemicalCell()
        engine = CVEngine.from_cell_conditions(cell.measurement_conditions())
        assert engine.bulk_concentration == 0.0
        assert engine.area_cm2 == 0.0

    def test_filled_cell_passes_through(self):
        from repro.chemistry.cell import ElectrochemicalCell

        cell = ElectrochemicalCell()
        cell.add_liquid(10.0, ferrocene_solution(2.0))
        engine = CVEngine.from_cell_conditions(cell.measurement_conditions())
        assert engine.bulk_concentration == pytest.approx(2e-6)
        assert engine.area_cm2 == pytest.approx(cell.working.area_cm2)
        assert engine.resistance_ohm > 0
