"""The ohmic-drop bisection solver that ``CVEngine._solve`` replaced.

Kept verbatim (``self`` renamed ``engine``) as the reference the Newton
solve is checked against in ``test_chemistry_cv_engine.py``: it brackets
the root of E_eff = E_applied - I(E_eff) Ru and halves the bracket down
to 1e-9 V on every physics substep, which is slow but plainly correct.
"""

from __future__ import annotations

import math

import numpy as np

from repro.chemistry.cv_engine import DOMAIN_SIGMAS, MESH_RATIO, CVEngine
from repro.errors import SimulationError
from repro.units import FARADAY, GAS_CONSTANT, celsius_to_kelvin


def bisection_solve(
    engine: CVEngine, time: np.ndarray, potential: np.ndarray, sample_dt: float
) -> np.ndarray:
    """Current at every sample of ``potential``, as ``CVEngine._solve`` gave it."""
    n = engine.species.n_electrons
    diffusion = engine.species.diffusion_cm2_s
    k0 = engine.species.k0_cm_s
    alpha = engine.species.alpha
    f_volt = n * FARADAY / (GAS_CONSTANT * celsius_to_kelvin(engine.temperature_c))

    substeps = engine.substeps
    dt = sample_dt / substeps
    dx = np.sqrt(diffusion * dt / MESH_RATIO)
    depth = DOMAIN_SIGMAS * np.sqrt(diffusion * time[-1])
    n_x = max(int(np.ceil(depth / dx)) + 1, 10)
    if n_x > 2_000_000:
        raise SimulationError(
            f"grid of {n_x} points is unreasonable; check dt/scan rate"
        )

    c_bulk = engine.bulk_concentration
    conc_o = np.zeros(n_x)
    conc_r = np.zeros(n_x)
    if engine.reduced_initially:
        conc_r[:] = c_bulk
    else:
        conc_o[:] = c_bulk

    area = engine.area_cm2
    nfa = n * FARADAY * area
    cdl = engine.double_layer_f_cm2 * area
    ru = engine.resistance_ohm
    # second-order one-sided surface gradient:
    #   dC/dx|_0 = (-3 C0 + 4 C1 - C2) / (2 dx)
    b_coeff = 3.0 * diffusion / (2.0 * dx)
    g_scale = diffusion / (2.0 * dx)
    e0 = engine.species.formal_potential_v

    current = np.empty_like(potential)
    i_prev = 0.0
    e_eff_prev = potential[0]
    lam = MESH_RATIO  # = D dt / dx^2 by construction

    # Substep potentials interpolate linearly between recorded samples,
    # which is exact for the staircase-free triangular sweep.
    e_previous_sample = (
        potential[0] - (potential[1] - potential[0])
        if len(potential) > 1
        else potential[0]
    )

    # EC mechanism: per-substep survival factor of the electro-
    # generated species (exact integration of first-order decay)
    k_follow = engine.following_reaction_per_s
    survival = math.exp(-k_follow * dt) if k_follow > 0.0 else 1.0

    for step in range(len(potential)):
        e_target = potential[step]
        e_start = e_previous_sample
        for sub in range(substeps):
            # interior diffusion update, vectorised stencil (in place)
            conc_o[1:-1] += lam * (conc_o[2:] - 2.0 * conc_o[1:-1] + conc_o[:-2])
            conc_r[1:-1] += lam * (conc_r[2:] - 2.0 * conc_r[1:-1] + conc_r[:-2])
            if survival != 1.0:
                # the product of the electrode reaction decays in
                # solution (O for a reduced-start analyte, R otherwise)
                if engine.reduced_initially:
                    conc_o *= survival
                else:
                    conc_r *= survival
            # far boundary pinned at bulk values
            conc_o[-1] = c_bulk if not engine.reduced_initially else 0.0
            conc_r[-1] = c_bulk if engine.reduced_initially else 0.0

            e_applied = e_start + (e_target - e_start) * (sub + 1) / substeps
            # per-substep diffusive supply to the surface (fixed while
            # the ohmic drop is iterated)
            g_o = g_scale * (4.0 * conc_o[1] - conc_o[2])
            g_r = g_scale * (4.0 * conc_r[1] - conc_r[2])
            first = step + sub == 0

            def evaluate(e_eff: float) -> tuple[float, float, float]:
                """Total current and surface concentrations at e_eff."""
                eta = e_eff - e0
                # clamp: |eta| beyond ~1.5 V is transport-limited anyway
                arg_f = -alpha * f_volt * eta
                arg_b = (1.0 - alpha) * f_volt * eta
                kf_ = k0 * math.exp(min(max(arg_f, -60.0), 60.0))
                kb_ = k0 * math.exp(min(max(arg_b, -60.0), 60.0))
                det = b_coeff * b_coeff + b_coeff * (kf_ + kb_)
                co0_ = ((b_coeff + kb_) * g_o + kb_ * g_r) / det
                cr0_ = ((b_coeff + kf_) * g_r + kf_ * g_o) / det
                i_far = nfa * (kb_ * cr0_ - kf_ * co0_)
                i_cap = 0.0 if first else cdl * (e_eff - e_eff_prev) / dt
                return i_far + i_cap, co0_, cr0_

            if ru > 0.0:
                # Implicit ohmic drop: solve R(e) = e - e_applied +
                # I(e) Ru = 0. I is strictly increasing in e (anodic
                # convention), so R is monotone and bisection always
                # converges — an explicit lag or plain fixed point
                # oscillates once Ru * dI/dE exceeds 1.
                half_width = 0.05
                lo = e_eff_prev - half_width
                hi = e_eff_prev + half_width
                for _ in range(40):  # expand until the root is bracketed
                    r_lo = lo - e_applied + evaluate(lo)[0] * ru
                    r_hi = hi - e_applied + evaluate(hi)[0] * ru
                    if r_lo <= 0.0 <= r_hi:
                        break
                    half_width *= 2.0
                    lo = e_eff_prev - half_width
                    hi = e_eff_prev + half_width
                for _ in range(48):
                    mid = 0.5 * (lo + hi)
                    if mid - e_applied + evaluate(mid)[0] * ru > 0.0:
                        hi = mid
                    else:
                        lo = mid
                    if hi - lo < 1e-9:
                        break
                e_eff = 0.5 * (lo + hi)
                i_total, co0, cr0 = evaluate(e_eff)
            else:
                e_eff = e_applied
                i_total, co0, cr0 = evaluate(e_eff)

            # clamp tiny negative overshoots from the one-sided stencil
            conc_o[0] = co0 if co0 > 0.0 else 0.0
            conc_r[0] = cr0 if cr0 > 0.0 else 0.0
            i_prev = i_total
            e_eff_prev = e_eff
        current[step] = i_prev
        e_previous_sample = e_target

    if not np.all(np.isfinite(current)):
        raise SimulationError("solver produced non-finite current (instability)")
    return current
