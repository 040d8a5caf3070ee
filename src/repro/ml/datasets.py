"""Labelled synthetic corpus for the normality classifier.

The simulator plays the role of the lab: healthy runs across a spread of
scan rates, concentrations and noise seeds, plus each fault class at a
range of severities. Labels are the :class:`~repro.chemistry.faults.FaultKind`
values. Generation is deterministic given the spec's seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.chemistry.cv_engine import CVEngine, CVParameters
from repro.chemistry.faults import FaultKind, apply_fault
from repro.chemistry.noise import NoiseModel
from repro.chemistry.species import FERROCENE, RedoxSpecies
from repro.chemistry.voltammogram import Voltammogram
from repro.units import mm_to_mol_per_cm3


@dataclass(frozen=True)
class DatasetSpec:
    """What to generate.

    Attributes:
        n_per_class: traces per class.
        classes: fault kinds to include (NONE = the normal class).
        scan_rates: sampled uniformly per trace.
        concentrations_mm: analyte concentration range (mM).
        severity_range: fault severity range for abnormal classes.
        species: redox couple used throughout.
        e_step_v: sweep sampling (coarser than the paper's default keeps
            generation fast; features are resolution tolerant).
        seed: master RNG seed.
    """

    n_per_class: int = 30
    classes: tuple[FaultKind, ...] = (
        FaultKind.NONE,
        FaultKind.DISCONNECTED_ELECTRODE,
        FaultKind.LOW_VOLUME,
    )
    scan_rates: tuple[float, float] = (0.05, 0.4)
    concentrations_mm: tuple[float, float] = (0.5, 5.0)
    severity_range: tuple[float, float] = (0.4, 0.95)
    species: RedoxSpecies = FERROCENE
    e_step_v: float = 0.002
    seed: int = 2023


def generate_dataset(
    spec: DatasetSpec | None = None,
) -> tuple[list[Voltammogram], list[str]]:
    """Build (traces, labels); labels are ``FaultKind.value`` strings."""
    spec = spec or DatasetSpec()
    rng = np.random.default_rng(spec.seed)
    traces: list[Voltammogram] = []
    labels: list[str] = []
    for fault in spec.classes:
        for index in range(spec.n_per_class):
            scan_rate = float(rng.uniform(*spec.scan_rates))
            concentration = float(rng.uniform(*spec.concentrations_mm))
            params = CVParameters(
                e_begin_v=spec.species.formal_potential_v - 0.2,
                e_vertex_v=spec.species.formal_potential_v + 0.4,
                scan_rate_v_s=scan_rate,
                n_cycles=2,
                e_step_v=spec.e_step_v,
            )
            seed = int(rng.integers(0, 2**31 - 1))
            severity = (
                float(rng.uniform(*spec.severity_range))
                if fault is not FaultKind.NONE
                else 0.0
            )
            area = 0.0707
            resistance = float(rng.uniform(50.0, 200.0))
            if fault is FaultKind.LOW_VOLUME:
                # the physical route: the under-filled cell wets less
                # electrode and has poorer ionic contact (higher Ru);
                # apply_fault then only adds the meniscus flutter
                area *= 1.0 - severity
                resistance *= 1.0 + 15.0 * severity
            engine = CVEngine(
                species=spec.species,
                bulk_concentration=mm_to_mol_per_cm3(concentration),
                area_cm2=area,
                resistance_ohm=resistance,
                substeps=1,
            )
            if fault is FaultKind.DISCONNECTED_ELECTRODE:
                # apply_fault replaces this class's current with noise and
                # the solve draws no random numbers, so skipping it leaves
                # the corpus unchanged
                trace = engine.disconnected(params)
            else:
                trace = engine.run(params)
            if fault is FaultKind.LOW_VOLUME:
                trace = apply_fault(
                    trace, fault, severity=severity, seed=seed, scale_current=False
                )
            elif fault is not FaultKind.NONE:
                trace = apply_fault(trace, fault, severity=severity, seed=seed)
            noise = NoiseModel(
                white_sigma_a=float(rng.uniform(2e-8, 2e-7)), seed=seed
            )
            trace = noise.apply(trace)
            traces.append(trace)
            labels.append(fault.value)
    return traces, labels


def train_test_split(
    features: np.ndarray,
    labels: list[str] | np.ndarray,
    test_fraction: float = 0.3,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Shuffled split; returns (x_train, y_train, x_test, y_test)."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must be in (0, 1)")
    labels = np.asarray(labels)
    n = len(labels)
    order = np.random.default_rng(seed).permutation(n)
    n_test = max(1, int(round(n * test_fraction)))
    test_idx = order[:n_test]
    train_idx = order[n_test:]
    return (
        features[train_idx],
        labels[train_idx],
        features[test_idx],
        labels[test_idx],
    )
