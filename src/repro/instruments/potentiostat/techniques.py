"""Electrochemical techniques the SP200 can run.

Each technique validates its parameters the way EC-Lab does when a
technique is initialised (Fig 6a step 4), and knows how to execute
against the cell:

- **CV** — delegates to the finite-difference engine, honouring the cell's
  wetted electrode area, circuit state and temperature; an open circuit
  yields the disconnected-electrode trace the ML method must flag.
- **CA** (chronoamperometry) — Cottrell decay after a potential step plus
  exponential double-layer charging.
- **OCV** — open-circuit potential vs time: the Nernst potential of the
  cell contents with sensor noise, zero current.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.errors import TechniqueError
from repro.units import FARADAY, GAS_CONSTANT, celsius_to_kelvin
from repro.chemistry.cell import ElectrochemicalCell
from repro.chemistry.cv_engine import CVEngine, CVParameters
from repro.chemistry.faults import FaultKind, apply_fault
from repro.chemistry.noise import NoiseModel
from repro.chemistry.species import RedoxSpecies, Solution
from repro.chemistry.voltammogram import Voltammogram


def _dominant_species(solution: Solution | None) -> RedoxSpecies | None:
    if solution is None or not solution.species:
        return None
    return max(solution.species, key=lambda s: solution.species[s])


class Technique:
    """Base class: id, ECC parameter record, validation, execution."""

    technique_id = "?"

    def ecc_params(self) -> dict[str, Any]:
        """EC-Lab-style parameter record (what load_technique sends)."""
        raise NotImplementedError

    def duration_s(self) -> float:
        """Nominal acquisition duration."""
        raise NotImplementedError

    def execute(
        self,
        cell: ElectrochemicalCell,
        noise: NoiseModel | None = None,
        seed: int = 0,
    ) -> Voltammogram:
        """Run against the cell, returning the measured trace."""
        raise NotImplementedError


@dataclass
class CVTechnique(Technique):
    """Cyclic voltammetry (paper §2.2).

    Attributes mirror EC-Lab's CV parameter sheet.
    """

    e_begin_v: float = 0.2
    e_vertex_v: float = 0.8
    scan_rate_v_s: float = 0.1
    n_cycles: int = 1
    e_step_v: float = 0.001
    technique_id = "CV"

    def __post_init__(self) -> None:
        try:
            self._params = CVParameters(
                e_begin_v=self.e_begin_v,
                e_vertex_v=self.e_vertex_v,
                scan_rate_v_s=self.scan_rate_v_s,
                n_cycles=self.n_cycles,
                e_step_v=self.e_step_v,
            )
        except ValueError as exc:
            raise TechniqueError(f"invalid CV parameters: {exc}") from exc
        if not -10.0 <= self.e_begin_v <= 10.0 or not -10.0 <= self.e_vertex_v <= 10.0:
            raise TechniqueError("potentials outside the SP200 +/-10 V range")

    @property
    def params(self) -> CVParameters:
        return self._params

    def ecc_params(self) -> dict[str, Any]:
        return {
            "technique": "CV",
            "Ei": self.e_begin_v,
            "E1": self.e_vertex_v,
            "dE": self.e_step_v,
            "scan_rate": self.scan_rate_v_s,
            "nc_cycles": self.n_cycles,
        }

    def duration_s(self) -> float:
        return self._params.duration_s

    def execute(
        self,
        cell: ElectrochemicalCell,
        noise: NoiseModel | None = None,
        seed: int = 0,
    ) -> Voltammogram:
        conditions = cell.measurement_conditions()
        engine = CVEngine.from_cell_conditions(conditions)
        wetted = conditions.get("wetted_fraction", 1.0)
        if wetted < 1.0:
            # under-filled cell: besides the smaller wetted area (already
            # in conditions["area_cm2"]), ionic contact worsens — same
            # physical model the ML training corpus uses
            engine.resistance_ohm *= 1.0 + 15.0 * (1.0 - wetted)
        # an open circuit carries no current, so nothing is solved
        solve = engine.run if conditions["circuit_closed"] else engine.disconnected
        trace = solve(self._params)
        if not conditions["circuit_closed"]:
            trace = apply_fault(
                trace, FaultKind.DISCONNECTED_ELECTRODE, severity=0.8, seed=seed
            )
        elif wetted < 1.0:
            # meniscus flutter across the partially wetted electrode
            trace = apply_fault(
                trace,
                FaultKind.LOW_VOLUME,
                severity=1.0 - wetted,
                seed=seed,
                scale_current=False,
            )
        if noise is not None:
            trace = noise.apply(trace)
        trace.metadata["cell_volume_ml"] = conditions["volume_ml"]
        return trace


@dataclass
class CATechnique(Technique):
    """Chronoamperometry: step to ``e_step_v`` and record i(t)."""

    e_step_to_v: float = 0.8
    duration: float = 10.0
    dt_s: float = 0.01
    technique_id = "CA"

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise TechniqueError("CA duration must be > 0")
        if self.dt_s <= 0 or self.dt_s > self.duration:
            raise TechniqueError("CA sample interval must be in (0, duration]")

    def ecc_params(self) -> dict[str, Any]:
        return {
            "technique": "CA",
            "E_step": self.e_step_to_v,
            "duration": self.duration,
            "dt": self.dt_s,
        }

    def duration_s(self) -> float:
        return self.duration

    def execute(
        self,
        cell: ElectrochemicalCell,
        noise: NoiseModel | None = None,
        seed: int = 0,
    ) -> Voltammogram:
        conditions = cell.measurement_conditions()
        solution: Solution | None = conditions["solution"]
        species = _dominant_species(solution)
        time = np.arange(1, int(round(self.duration / self.dt_s)) + 1) * self.dt_s
        potential = np.full_like(time, self.e_step_to_v)
        area = conditions["area_cm2"]
        if species is None or area <= 0:
            current = np.zeros_like(time)
        else:
            concentration = solution.concentration(species)
            n = species.n_electrons
            diffusion = species.diffusion_cm2_s
            # Cottrell decay for a diffusion-limited step (oxidising a
            # reduced analyte), sign matching the CV convention.
            current = (
                n
                * FARADAY
                * area
                * concentration
                * np.sqrt(diffusion / (np.pi * time))
            )
            # double-layer transient, tau = Ru * Cdl
            if solution is not None:
                tau = max(solution.resistance_ohm * 20e-6 * area, 1e-6)
                e_span = abs(self.e_step_to_v)
                current += (
                    e_span / max(solution.resistance_ohm, 1.0)
                ) * np.exp(-time / tau)
        trace = Voltammogram(
            time_s=time,
            potential_v=potential,
            current_a=current,
            cycle_index=np.zeros(len(time), dtype=np.int64),
            metadata={
                "technique": "CA",
                "e_step_to_v": self.e_step_to_v,
                "duration_s": self.duration,
                "area_cm2": area,
            },
        )
        if not conditions["circuit_closed"]:
            trace = apply_fault(
                trace, FaultKind.DISCONNECTED_ELECTRODE, severity=0.8, seed=seed
            )
        if noise is not None:
            trace = noise.apply(trace)
        return trace


@dataclass
class OCVTechnique(Technique):
    """Open-circuit voltage vs time."""

    duration: float = 10.0
    dt_s: float = 0.1
    technique_id = "OCV"

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise TechniqueError("OCV duration must be > 0")
        if self.dt_s <= 0 or self.dt_s > self.duration:
            raise TechniqueError("OCV sample interval must be in (0, duration]")

    def ecc_params(self) -> dict[str, Any]:
        return {"technique": "OCV", "duration": self.duration, "dt": self.dt_s}

    def duration_s(self) -> float:
        return self.duration

    def execute(
        self,
        cell: ElectrochemicalCell,
        noise: NoiseModel | None = None,
        seed: int = 0,
    ) -> Voltammogram:
        conditions = cell.measurement_conditions()
        solution: Solution | None = conditions["solution"]
        species = _dominant_species(solution)
        time = np.arange(1, int(round(self.duration / self.dt_s)) + 1) * self.dt_s
        rng = np.random.default_rng(seed)
        if species is None:
            # floating input: slow drift around zero
            potential = 0.05 * np.cumsum(rng.normal(0, 0.01, len(time)))
        else:
            # all-reduced analyte never truly reaches the formal potential;
            # a mostly-reduced mixture rests a Nernstian offset below E0'.
            rt_nf = (
                GAS_CONSTANT
                * celsius_to_kelvin(conditions["temperature_c"])
                / (species.n_electrons * FARADAY)
            )
            rest = species.formal_potential_v + rt_nf * math.log(0.01 / 0.99)
            potential = rest + rng.normal(0, 0.001, len(time))
        trace = Voltammogram(
            time_s=time,
            potential_v=potential,
            current_a=np.zeros_like(time),
            cycle_index=np.zeros(len(time), dtype=np.int64),
            metadata={"technique": "OCV", "duration_s": self.duration},
        )
        if noise is not None:
            trace = noise.apply(trace)
        return trace


@dataclass
class LSVTechnique(Technique):
    """Linear sweep voltammetry: one unidirectional ramp.

    The forward half of a CV — used for quick screens of where a wave
    sits before committing to full cycling (the window-centering campaign
    could run on this).
    """

    e_begin_v: float = 0.2
    e_end_v: float = 0.8
    scan_rate_v_s: float = 0.1
    e_step_v: float = 0.001
    technique_id = "LSV"

    def __post_init__(self) -> None:
        if self.scan_rate_v_s <= 0:
            raise TechniqueError("LSV scan rate must be > 0")
        if self.e_step_v <= 0:
            raise TechniqueError("LSV e_step must be > 0")
        if abs(self.e_end_v - self.e_begin_v) < 2 * self.e_step_v:
            raise TechniqueError("LSV window narrower than two steps")

    def ecc_params(self) -> dict[str, Any]:
        return {
            "technique": "LSV",
            "Ei": self.e_begin_v,
            "Ef": self.e_end_v,
            "dE": self.e_step_v,
            "scan_rate": self.scan_rate_v_s,
        }

    def duration_s(self) -> float:
        return abs(self.e_end_v - self.e_begin_v) / self.scan_rate_v_s

    def execute(
        self,
        cell: ElectrochemicalCell,
        noise: NoiseModel | None = None,
        seed: int = 0,
    ) -> Voltammogram:
        from repro.chemistry.cv_engine import CVEngine

        conditions = cell.measurement_conditions()
        engine = CVEngine.from_cell_conditions(conditions)
        direction = 1.0 if self.e_end_v >= self.e_begin_v else -1.0
        n_samples = int(round(abs(self.e_end_v - self.e_begin_v) / self.e_step_v))
        steps = np.arange(1, n_samples + 1, dtype=np.float64)
        potential = self.e_begin_v + direction * steps * self.e_step_v
        dt = self.e_step_v / self.scan_rate_v_s
        time = steps * dt
        # an open circuit carries no current, so nothing is solved
        solve = (
            engine.run_waveform
            if conditions["circuit_closed"]
            else engine.disconnected_waveform
        )
        trace = solve(
            time,
            potential,
            metadata={
                "technique": "LSV",
                "scan_rate_v_s": self.scan_rate_v_s,
                "e_step_v": self.e_step_v,
            },
        )
        if not conditions["circuit_closed"]:
            trace = apply_fault(
                trace, FaultKind.DISCONNECTED_ELECTRODE, severity=0.8, seed=seed
            )
        if noise is not None:
            trace = noise.apply(trace)
        return trace


@dataclass
class DPVTechnique(Technique):
    """Differential pulse voltammetry.

    A staircase base potential with a superimposed pulse each period; the
    reported signal is i(end of pulse) - i(just before pulse), which
    cancels most capacitive background and yields a peak centred near
    E1/2 - dE_pulse/2. Far better detection limits than CV — the kind of
    technique the paper's future work ("other electrochemical testing
    techniques supported by the potentiostat") points to.
    """

    e_begin_v: float = 0.2
    e_end_v: float = 0.8
    step_e_v: float = 0.005
    pulse_amplitude_v: float = 0.05
    pulse_width_s: float = 0.05
    period_s: float = 0.2
    technique_id = "DPV"

    def __post_init__(self) -> None:
        if self.step_e_v <= 0:
            raise TechniqueError("DPV staircase step must be > 0")
        if not 0 < self.pulse_width_s < self.period_s:
            raise TechniqueError("DPV pulse width must be inside the period")
        if self.pulse_amplitude_v <= 0:
            raise TechniqueError("DPV pulse amplitude must be > 0")
        if abs(self.e_end_v - self.e_begin_v) < 2 * self.step_e_v:
            raise TechniqueError("DPV window narrower than two steps")

    @property
    def n_steps(self) -> int:
        return int(round(abs(self.e_end_v - self.e_begin_v) / self.step_e_v))

    def ecc_params(self) -> dict[str, Any]:
        return {
            "technique": "DPV",
            "Ei": self.e_begin_v,
            "Ef": self.e_end_v,
            "dE_step": self.step_e_v,
            "pulse_amplitude": self.pulse_amplitude_v,
            "pulse_width": self.pulse_width_s,
            "period": self.period_s,
        }

    def duration_s(self) -> float:
        return self.n_steps * self.period_s

    def execute(
        self,
        cell: ElectrochemicalCell,
        noise: NoiseModel | None = None,
        seed: int = 0,
    ) -> Voltammogram:
        from repro.chemistry.cv_engine import CVEngine

        conditions = cell.measurement_conditions()
        engine = CVEngine.from_cell_conditions(conditions)
        direction = 1.0 if self.e_end_v >= self.e_begin_v else -1.0

        # internal sampling: resolve the pulse with >= 8 points
        dt = self.pulse_width_s / 8.0
        samples_per_period = max(int(round(self.period_s / dt)), 2)
        dt = self.period_s / samples_per_period
        pulse_samples = max(int(round(self.pulse_width_s / dt)), 1)
        n_steps = self.n_steps

        base = (
            self.e_begin_v
            + direction * self.step_e_v * np.arange(n_steps, dtype=np.float64)
        )
        waveform = np.repeat(base, samples_per_period)
        # pulse occupies the tail of each period
        in_pulse = (
            np.arange(samples_per_period) >= samples_per_period - pulse_samples
        )
        waveform += direction * self.pulse_amplitude_v * np.tile(in_pulse, n_steps)
        time = np.arange(1, len(waveform) + 1, dtype=np.float64) * dt

        solve = (
            engine.run_waveform
            if conditions["circuit_closed"]
            else engine.disconnected_waveform
        )
        full = solve(time, waveform)
        current = full.current_a.reshape(n_steps, samples_per_period)
        i_before = current[:, samples_per_period - pulse_samples - 1]
        i_pulse_end = current[:, -1]
        differential = i_pulse_end - i_before

        trace = Voltammogram(
            time_s=(np.arange(n_steps, dtype=np.float64) + 1.0) * self.period_s,
            potential_v=base,
            current_a=differential,
            cycle_index=np.zeros(n_steps, dtype=np.int64),
            metadata={
                "technique": "DPV",
                "step_e_v": self.step_e_v,
                "pulse_amplitude_v": self.pulse_amplitude_v,
                "pulse_width_s": self.pulse_width_s,
                "period_s": self.period_s,
                "area_cm2": conditions["area_cm2"],
            },
        )
        if not conditions["circuit_closed"]:
            trace = apply_fault(
                trace, FaultKind.DISCONNECTED_ELECTRODE, severity=0.8, seed=seed
            )
        if noise is not None:
            trace = noise.apply(trace)
        return trace
