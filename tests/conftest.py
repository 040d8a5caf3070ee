"""Shared fixtures.

Conventions:

- anything that stands up threads or daemons is function-scoped and torn
  down explicitly;
- expensive artefacts that are read-only (the trained classifier, the
  reference voltammogram, the ML dataset) are session-scoped;
- CV runs in tests use a coarse ``e_step_v`` so the whole suite stays
  fast — resolution-sensitive assertions live in dedicated tests that
  set their own step;
- every daemon a test shuts down must come down quiescent: a shutdown
  that leaves a serving thread running fails the test.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.chemistry.cv_engine import CVEngine, CVParameters
from repro.chemistry.species import FERROCENE, ferrocene_solution
from repro.facility.ice import ElectrochemistryICE, ICEConfig
from repro.facility.workstation import (
    ElectrochemistryWorkstation,
    WorkstationConfig,
)
from repro.ml.datasets import DatasetSpec, generate_dataset
from repro.ml.features import extract_features_batch
from repro.ml.normality import NormalityClassifier
from repro.rpc.daemon import Daemon


@pytest.fixture(autouse=True)
def _daemon_shutdowns_are_quiescent(monkeypatch):
    """Fail the test if any ``Daemon.shutdown`` during it ended with
    ``quiescent=False`` (a serving thread outlived the join deadline)."""
    stragglers: list[str] = []
    shutdown = Daemon.shutdown

    def checked_shutdown(self, *args, **kwargs):
        shutdown(self, *args, **kwargs)
        if not self.quiescent:
            stragglers.append(f"{type(self).__name__} ({self.serving_mode})")

    monkeypatch.setattr(Daemon, "shutdown", checked_shutdown)
    yield
    if stragglers:
        pytest.fail(
            "daemon shutdown left serving threads running: "
            + ", ".join(stragglers)
        )


@pytest.fixture
def workstation(tmp_path):
    """A fully wired bench with instant device operations."""
    ws = ElectrochemistryWorkstation.build(
        WorkstationConfig(measurement_dir=tmp_path / "measurements")
    )
    yield ws
    ws.shutdown()


@pytest.fixture
def ice():
    """A running simulated ICE (separate channels, default bench)."""
    ecosystem = ElectrochemistryICE.build()
    yield ecosystem
    ecosystem.shutdown()


@pytest.fixture
def ice_tcp():
    """The same ecosystem over real loopback TCP."""
    ecosystem = ElectrochemistryICE.build(ICEConfig(transport="tcp"))
    yield ecosystem
    ecosystem.shutdown()


@pytest.fixture(scope="session")
def reference_voltammogram():
    """A clean 2 mM ferrocene CV at the paper's settings (no noise)."""
    solution = ferrocene_solution(2.0)
    engine = CVEngine(
        species=FERROCENE,
        bulk_concentration=solution.concentration(FERROCENE),
        area_cm2=0.0707,
        double_layer_f_cm2=0.0,
    )
    return engine.run(CVParameters())


@pytest.fixture(scope="session")
def ml_corpus():
    """A small labelled dataset plus its feature matrix."""
    traces, labels = generate_dataset(DatasetSpec(n_per_class=14, seed=7))
    features = extract_features_batch(traces)
    return traces, np.asarray(labels), features


@pytest.fixture(scope="session")
def trained_classifier(ml_corpus):
    """A normality classifier fitted on the session corpus."""
    _traces, labels, features = ml_corpus
    return NormalityClassifier().fit_features(features, labels)
