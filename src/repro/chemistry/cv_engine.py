"""Cyclic-voltammetry physics: 1-D diffusion + Butler-Volmer kinetics.

Model (Bard & Faulkner, ch. 6 and appendix B):

- semi-infinite linear diffusion of the oxidised (O) and reduced (R) forms
  towards a planar electrode, explicit FTCS scheme on a uniform grid with
  the mesh ratio fixed at a stable value (lambda = D dt / dx^2 = 0.40);
- Butler-Volmer surface kinetics: kf = k0 exp(-alpha f eta),
  kb = k0 exp((1-alpha) f eta) with eta = E - E0' and f = nF/RT; surface
  concentrations solve the 2x2 flux-balance system each step;
- anodic current positive: I = n F A (kb C_R(0) - kf C_O(0));
- uncompensated resistance Ru is solved implicitly per step — the root of
  E_eff = E_applied - I(E_eff) Ru found by Newton's method on the analytic
  dI/dE, kept inside a sign-checked bracket that it bisects whenever a
  step would leave it (3-4 current evaluations per step), which stays
  stable where an explicit lag oscillates — and double-layer charging
  adds Cdl A dE_eff/dt.

The interior update is one contiguous vectorised stencil over both
species per step, in place on the flattened (2, n_x) array. On one core
of a 2-vCPU Intel Xeon host the 1,200-sample paper CV (2 substeps,
Ru = 100 ohm) takes ~25 ms.

Validation targets (tested): Randles-Sevcik peak current within ~2 %,
peak separation within a few mV of 2.218 RT/nF for a reversible couple,
sqrt(scan rate) peak scaling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import SimulationError
from repro.units import FARADAY, GAS_CONSTANT, celsius_to_kelvin
from repro.chemistry.species import RedoxSpecies, Solution
from repro.chemistry.voltammogram import Voltammogram

#: FTCS mesh ratio; stability requires < 0.5, 0.40 leaves headroom.
MESH_RATIO = 0.40
#: Diffusion-layer multiple defining the simulation domain depth.
DOMAIN_SIGMAS = 6.0


@dataclass(frozen=True)
class CVParameters:
    """Technique settings as the potentiostat exposes them.

    Attributes:
        e_begin_v: initial (and final) potential of each cycle.
        e_vertex_v: turnaround potential.
        scan_rate_v_s: sweep speed in V/s.
        n_cycles: number of full cycles.
        e_step_v: sampling interval in potential (sets dt = e_step/v).
    """

    e_begin_v: float = 0.2
    e_vertex_v: float = 0.8
    scan_rate_v_s: float = 0.1
    n_cycles: int = 1
    e_step_v: float = 0.001

    def __post_init__(self) -> None:
        if self.scan_rate_v_s <= 0:
            raise ValueError(f"scan rate must be > 0, got {self.scan_rate_v_s}")
        if self.n_cycles < 1:
            raise ValueError(f"n_cycles must be >= 1, got {self.n_cycles}")
        if self.e_step_v <= 0:
            raise ValueError(f"e_step must be > 0, got {self.e_step_v}")
        if abs(self.e_vertex_v - self.e_begin_v) < 2 * self.e_step_v:
            raise ValueError("potential window is narrower than two steps")

    @property
    def window_v(self) -> float:
        return abs(self.e_vertex_v - self.e_begin_v)

    @property
    def samples_per_cycle(self) -> int:
        return 2 * int(round(self.window_v / self.e_step_v))

    @property
    def dt_s(self) -> float:
        return self.e_step_v / self.scan_rate_v_s

    @property
    def duration_s(self) -> float:
        return self.n_cycles * 2 * self.window_v / self.scan_rate_v_s


def potential_waveform(
    params: CVParameters,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Build the triangular sweep.

    Returns ``(time_s, potential_v, cycle_index)``; the first sample sits
    one step past ``e_begin`` (the potentiostat reports samples at the end
    of each step interval).
    """
    half = int(round(params.window_v / params.e_step_v))
    direction = 1.0 if params.e_vertex_v >= params.e_begin_v else -1.0
    steps = np.arange(1, half + 1, dtype=np.float64)
    forward = params.e_begin_v + direction * steps * params.e_step_v
    backward = params.e_vertex_v - direction * steps * params.e_step_v
    one_cycle = np.concatenate([forward, backward])
    potential = np.tile(one_cycle, params.n_cycles)
    n_total = len(potential)
    time = np.arange(1, n_total + 1, dtype=np.float64) * params.dt_s
    cycle_index = np.repeat(np.arange(params.n_cycles, dtype=np.int64), len(one_cycle))
    return time, potential, cycle_index


class CVEngine:
    """Finite-difference CV simulator for one analyte in a cell.

    Args:
        species: the redox couple.
        bulk_concentration: analyte bulk concentration (mol/cm^3).
        area_cm2: effective (wetted) working-electrode area.
        temperature_c: cell temperature.
        resistance_ohm: uncompensated solution resistance Ru.
        double_layer_f_cm2: specific double-layer capacitance (F/cm^2);
            20 µF/cm^2 is typical of glassy carbon.
        reduced_initially: True when the analyte starts in its reduced
            form (ferrocene does; the first sweep is then anodic).
        substeps: physics steps per recorded sample. The FTCS grid spacing
            is tied to the time step (dx = sqrt(D dt / lambda)), so finer
            substepping shrinks the spatial error too. With the second-
            order surface stencil even substeps=1 lands within ~0.3 % of
            the Randles-Sevcik peak and ~1 mV of the reversible dEp at
            default settings; the Fig 7 benchmark ablates this knob.
    """

    def __init__(
        self,
        species: RedoxSpecies,
        bulk_concentration: float,
        area_cm2: float,
        temperature_c: float = 25.0,
        resistance_ohm: float = 0.0,
        double_layer_f_cm2: float = 20e-6,
        reduced_initially: bool = True,
        substeps: int = 2,
        following_reaction_per_s: float = 0.0,
    ):
        if bulk_concentration < 0:
            raise SimulationError("bulk concentration must be >= 0")
        if area_cm2 < 0:
            raise SimulationError("electrode area must be >= 0")
        self.species = species
        self.bulk_concentration = bulk_concentration
        self.area_cm2 = area_cm2
        self.temperature_c = temperature_c
        self.resistance_ohm = resistance_ohm
        self.double_layer_f_cm2 = double_layer_f_cm2
        self.reduced_initially = reduced_initially
        if substeps < 1:
            raise SimulationError(f"substeps must be >= 1, got {substeps}")
        self.substeps = substeps
        if following_reaction_per_s < 0:
            raise SimulationError("following-reaction rate must be >= 0")
        # EC mechanism: the electro-generated form decays chemically with
        # this first-order rate (O -> inert for an initially reduced
        # analyte). Non-zero values model an unstable oxidation product —
        # the "electrolyte stability" studies of paper §4.2. Diagnostics:
        # |ipa/ipc| moves away from 1 as k/v grows.
        self.following_reaction_per_s = following_reaction_per_s

    @classmethod
    def from_cell_conditions(
        cls, conditions: dict, species: RedoxSpecies | None = None
    ) -> "CVEngine":
        """Build an engine from :meth:`ElectrochemicalCell.measurement_conditions`."""
        solution: Solution | None = conditions.get("solution")
        if species is None:
            if solution is not None and solution.species:
                # the dominant analyte carries the wave; trace amounts of
                # its oxidation product (from bulk electrolysis) are below
                # the solver's resolution anyway
                species = max(solution.species, key=solution.species.get)
            else:
                species = None
        if species is None:
            # Blank cell: zero concentration of a placeholder couple gives a
            # capacitive-only trace, which is physically what a blank shows.
            from repro.chemistry.species import FERROCENE

            species = FERROCENE
            concentration = 0.0
        else:
            concentration = solution.concentration(species) if solution else 0.0
        return cls(
            species=species,
            bulk_concentration=concentration,
            area_cm2=conditions.get("area_cm2", 0.0),
            temperature_c=conditions.get("temperature_c", 25.0),
            resistance_ohm=solution.resistance_ohm if solution else 1e9,
        )

    # -- core solver -------------------------------------------------------
    def run(self, params: CVParameters) -> Voltammogram:
        """Simulate the full technique; returns the ideal (noise-free) trace."""
        time, potential, cycle_index = potential_waveform(params)
        current = self._solve(time, potential, params.dt_s)
        return self._cv_trace(params, time, potential, cycle_index, current)

    def disconnected(self, params: CVParameters) -> Voltammogram:
        """The technique with the working-electrode lead off, before noise.

        No current flows through an open circuit, so nothing is solved:
        the trace carries :meth:`run`'s samples and metadata with zero
        current, ready for :func:`~repro.chemistry.faults.apply_fault`
        to add the input-stage noise a disconnected electrode records.
        """
        time, potential, cycle_index = potential_waveform(params)
        return self._cv_trace(
            params, time, potential, cycle_index, np.zeros_like(potential)
        )

    def _cv_trace(
        self,
        params: CVParameters,
        time: np.ndarray,
        potential: np.ndarray,
        cycle_index: np.ndarray,
        current: np.ndarray,
    ) -> Voltammogram:
        return Voltammogram(
            time_s=time,
            potential_v=potential,
            current_a=current,
            cycle_index=cycle_index,
            metadata={
                "technique": "CV",
                "species": self.species.name,
                "e_begin_v": params.e_begin_v,
                "e_vertex_v": params.e_vertex_v,
                "scan_rate_v_s": params.scan_rate_v_s,
                "n_cycles": params.n_cycles,
                "e_step_v": params.e_step_v,
                "area_cm2": self.area_cm2,
                "bulk_concentration_mol_cm3": self.bulk_concentration,
                "temperature_c": self.temperature_c,
            },
        )

    def run_waveform(
        self,
        time: np.ndarray,
        potential: np.ndarray,
        cycle_index: np.ndarray | None = None,
        metadata: dict | None = None,
    ) -> Voltammogram:
        """Simulate an arbitrary applied-potential program.

        This is how the non-CV techniques (LSV, staircase, DPV) reuse the
        same diffusion/kinetics solver: they supply their own waveform.
        Samples must be uniformly spaced in time.

        Raises:
            SimulationError: fewer than 2 samples or non-uniform spacing.
        """
        return self._waveform_trace(time, potential, cycle_index, metadata, solve=True)

    def disconnected_waveform(
        self,
        time: np.ndarray,
        potential: np.ndarray,
        cycle_index: np.ndarray | None = None,
        metadata: dict | None = None,
    ) -> Voltammogram:
        """:meth:`run_waveform` with the working-electrode lead off.

        As :meth:`disconnected` is to :meth:`run`: the same checks, samples
        and metadata with zero current, and nothing solved.
        """
        return self._waveform_trace(time, potential, cycle_index, metadata, solve=False)

    def _waveform_trace(
        self,
        time: np.ndarray,
        potential: np.ndarray,
        cycle_index: np.ndarray | None,
        metadata: dict | None,
        solve: bool,
    ) -> Voltammogram:
        time = np.asarray(time, dtype=np.float64)
        potential = np.asarray(potential, dtype=np.float64)
        if len(time) != len(potential) or len(time) < 2:
            raise SimulationError("waveform needs >= 2 matched samples")
        steps = np.diff(time)
        dt = float(steps[0])
        if dt <= 0 or not np.allclose(steps, dt, rtol=1e-6, atol=1e-12):
            raise SimulationError("waveform must be uniformly sampled in time")
        current = (
            self._solve(time, potential, dt) if solve else np.zeros_like(potential)
        )
        if cycle_index is None:
            cycle_index = np.zeros(len(time), dtype=np.int64)
        base = {
            "species": self.species.name,
            "area_cm2": self.area_cm2,
            "bulk_concentration_mol_cm3": self.bulk_concentration,
            "temperature_c": self.temperature_c,
        }
        base.update(metadata or {})
        return Voltammogram(
            time_s=time,
            potential_v=potential,
            current_a=current,
            cycle_index=cycle_index,
            metadata=base,
        )

    def _solve(
        self, time: np.ndarray, potential: np.ndarray, sample_dt: float
    ) -> np.ndarray:
        n = self.species.n_electrons
        diffusion = self.species.diffusion_cm2_s
        k0 = self.species.k0_cm_s
        alpha = self.species.alpha
        f_volt = n * FARADAY / (GAS_CONSTANT * celsius_to_kelvin(self.temperature_c))

        substeps = self.substeps
        dt = sample_dt / substeps
        dx = math.sqrt(diffusion * dt / MESH_RATIO)
        depth = DOMAIN_SIGMAS * np.sqrt(diffusion * time[-1])
        n_x = max(int(np.ceil(depth / dx)) + 1, 10)
        if n_x > 2_000_000:
            raise SimulationError(
                f"grid of {n_x} points is unreasonable; check dt/scan rate"
            )

        # rows O and R share one contiguous stencil update over the
        # flattened array; the far column holds the bulk values. The update
        # also runs across the seam between the rows: it moves O's far node,
        # which is re-pinned to its bulk value, and R's surface node, which
        # the kinetic solve overwrites on the same substep
        conc = np.zeros((2, n_x))
        conc[1 if self.reduced_initially else 0] = self.bulk_concentration
        flat = conc.reshape(-1)
        inner, left, right = flat[1:-1], flat[:-2], flat[2:]
        o_far, o_bulk = n_x - 1, float(conc[0, -1])
        # O and R at the first two grid points off the electrode
        near = np.array([1, 2, n_x + 1, n_x + 2])
        # the electro-generated form: O for a reduced-start analyte
        product = conc[0] if self.reduced_initially else conc[1]

        area = self.area_cm2
        nfa = n * FARADAY * area
        cdl = self.double_layer_f_cm2 * area
        ru = self.resistance_ohm
        # second-order one-sided surface gradient:
        #   dC/dx|_0 = (-3 C0 + 4 C1 - C2) / (2 dx)
        b_coeff = 3.0 * diffusion / (2.0 * dx)
        g_scale = diffusion / (2.0 * dx)
        e0 = self.species.formal_potential_v

        applied = potential.tolist()
        current = np.empty_like(potential)
        e_eff_prev = e_eff_older = applied[0]
        lam = MESH_RATIO  # = D dt / dx^2 by construction

        # Substep potentials interpolate linearly between recorded samples,
        # which is exact for the staircase-free triangular sweep.
        e_previous_sample = (
            applied[0] - (applied[1] - applied[0]) if len(applied) > 1 else applied[0]
        )

        # EC mechanism: per-substep survival factor of the electro-
        # generated species (exact integration of first-order decay)
        k_follow = self.following_reaction_per_s
        survival = math.exp(-k_follow * dt) if k_follow > 0.0 else 1.0

        def evaluate(e_eff: float) -> tuple[float, float, float, float, float]:
            """Residual R, dR/dE, total current and surface concentrations.

            R(e) = e - e_applied + Ru I(e); the faradaic current is the
            closed form of nFA (kb C_R(0) - kf C_O(0)).
            """
            eta = e_eff - e0
            # clamp: |eta| beyond ~1.5 V is transport-limited anyway (the
            # slope below ignores the clamp: there it is ~0 either way)
            kf = k0 * math.exp(min(max(-alpha * f_volt * eta, -60.0), 60.0))
            kb = k0 * math.exp(min(max((1.0 - alpha) * f_volt * eta, -60.0), 60.0))
            denom = b_coeff + kf + kb
            co0 = ((b_coeff + kb) * g_o + kb * g_r) / (b_coeff * denom)
            cr0 = ((b_coeff + kf) * g_r + kf * g_o) / (b_coeff * denom)
            i_total = nfa * (kb * g_r - kf * g_o) / denom
            slope = nfa * f_volt * (
                (1.0 - alpha) * b_coeff * kb * g_r
                + alpha * b_coeff * kf * g_o
                + kf * kb * (g_o + g_r)
            ) / (denom * denom)
            if not first:
                i_total += cdl * (e_eff - e_eff_prev) / dt
                slope += cdl / dt
            return e_eff - e_applied + ru * i_total, 1.0 + ru * slope, i_total, co0, cr0

        for step, e_target in enumerate(applied):
            e_start = e_previous_sample
            for sub in range(substeps):
                # interior diffusion update, vectorised stencil (in place)
                inner += lam * (right - 2.0 * inner + left)
                flat[o_far] = o_bulk
                if survival != 1.0:
                    product *= survival

                e_applied = e_start + (e_target - e_start) * (sub + 1) / substeps
                # per-substep diffusive supply to the surface (fixed while
                # the ohmic drop is iterated)
                o_1, o_2, r_1, r_2 = flat.take(near).tolist()
                g_o = g_scale * (4.0 * o_1 - o_2)
                g_r = g_scale * (4.0 * r_1 - r_2)
                first = step + sub == 0

                if ru > 0.0:
                    # Implicit ohmic drop: Newton on R from the linear
                    # extrapolation of the last two e_eff (an explicit lag
                    # or plain fixed point oscillates once Ru dI/dE > 1).
                    # With g_o, g_r >= 0, dR/dE >= 1, so the root lies
                    # within |R(e)| of e and e - R(e) is the far end of a
                    # bracket; the one-sided stencil can make g slightly
                    # negative, so that end's sign is evaluated (widening
                    # until it flips). Newton steps that would leave the
                    # bracket bisect it instead.
                    e_eff = 2.0 * e_eff_prev - e_eff_older
                    resid, d_resid, i_total, co0, cr0 = evaluate(e_eff)
                    lo = hi = e_eff
                    reach, calls = resid, 1
                    while lo == hi and resid != 0.0 and calls < 88:
                        far = e_eff - reach
                        calls += 1
                        if (evaluate(far)[0] > 0.0) != (resid > 0.0):
                            lo, hi = (far, e_eff) if resid > 0.0 else (e_eff, far)
                        reach *= 2.0
                    while calls < 88:
                        # nan (no usable slope) fails both tests below
                        delta = resid / d_resid if d_resid > 0.0 else math.nan
                        if abs(delta) < 1e-12:
                            break
                        e_eff -= delta
                        if not lo < e_eff < hi:
                            e_eff = 0.5 * (lo + hi)
                        resid, d_resid, i_total, co0, cr0 = evaluate(e_eff)
                        calls += 1
                        if resid > 0.0:
                            hi = e_eff
                        else:
                            lo = e_eff
                else:
                    e_eff = e_applied
                    _, _, i_total, co0, cr0 = evaluate(e_eff)

                # clamp tiny negative overshoots from the one-sided stencil
                conc[0, 0] = co0 if co0 > 0.0 else 0.0
                conc[1, 0] = cr0 if cr0 > 0.0 else 0.0
                e_eff_older, e_eff_prev = e_eff_prev, e_eff
            current[step] = i_total
            e_previous_sample = e_target

        if not np.all(np.isfinite(current)):
            raise SimulationError("solver produced non-finite current (instability)")
        return current
