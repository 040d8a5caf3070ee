"""Feature extraction, dataset generation, and the normality method."""

import numpy as np
import pytest

from repro.chemistry.cv_engine import CVEngine, CVParameters
from repro.chemistry.faults import FaultKind, apply_fault
from repro.chemistry.species import FERROCENE
from repro.chemistry.voltammogram import Voltammogram
from repro.errors import FeatureExtractionError, NotFittedError
from repro.ml import (
    FEATURE_NAMES,
    NormalityClassifier,
    extract_features,
    generate_dataset,
)
from repro.ml.datasets import DatasetSpec, train_test_split
from repro.units import mm_to_mol_per_cm3

_ARRAYS = ("time_s", "potential_v", "current_a", "cycle_index")


def _assert_same_trace(a: Voltammogram, b: Voltammogram) -> None:
    for name in _ARRAYS:
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert a.metadata == b.metadata


class TestFeatures:
    def test_vector_matches_names(self, reference_voltammogram):
        features = extract_features(reference_voltammogram)
        assert features.shape == (len(FEATURE_NAMES),)
        assert np.all(np.isfinite(features))

    def test_deterministic(self, reference_voltammogram):
        a = extract_features(reference_voltammogram)
        b = extract_features(reference_voltammogram)
        np.testing.assert_allclose(a, b)

    def test_disconnected_collapses_magnitudes(self, reference_voltammogram):
        healthy = extract_features(reference_voltammogram)
        broken = extract_features(
            apply_fault(
                reference_voltammogram, FaultKind.DISCONNECTED_ELECTRODE, 0.8
            )
        )
        idx = FEATURE_NAMES.index("log10_current_range_a")
        assert broken[idx] < healthy[idx] - 2  # >2 decades down

    def test_low_volume_shrinks_peaks(self, reference_voltammogram):
        healthy = extract_features(reference_voltammogram)
        low = extract_features(
            apply_fault(reference_voltammogram, FaultKind.LOW_VOLUME, 0.7)
        )
        idx = FEATURE_NAMES.index("log10_peak_anodic_a")
        assert low[idx] < healthy[idx]

    def test_too_short_trace_rejected(self):
        trace = Voltammogram(
            time_s=np.arange(5.0),
            potential_v=np.arange(5.0),
            current_a=np.ones(5),
            cycle_index=np.zeros(5, dtype=int),
        )
        with pytest.raises(FeatureExtractionError):
            extract_features(trace)

    def test_flat_potential_rejected(self):
        trace = Voltammogram(
            time_s=np.arange(32.0),
            potential_v=np.full(32, 0.5),
            current_a=np.random.default_rng(0).normal(size=32),
            cycle_index=np.zeros(32, dtype=int),
        )
        with pytest.raises(FeatureExtractionError):
            extract_features(trace)

    def test_multi_cycle_uses_first_and_consistency(self):
        from repro.chemistry.cv_engine import CVEngine, CVParameters
        from repro.chemistry.species import FERROCENE

        engine = CVEngine(FERROCENE, 2e-6, 0.0707, double_layer_f_cm2=0.0)
        trace = engine.run(CVParameters(n_cycles=2))
        features = extract_features(trace)
        idx = FEATURE_NAMES.index("cycle_consistency")
        assert 0.0 <= features[idx] < 0.2  # repeatable cycles


class TestDataset:
    def test_shapes_and_labels(self, ml_corpus):
        traces, labels, features = ml_corpus
        assert len(traces) == len(labels) == features.shape[0]
        assert features.shape[1] == len(FEATURE_NAMES)
        assert set(labels) == {
            "normal",
            "disconnected_electrode",
            "low_volume",
        }

    def test_deterministic_given_seed(self):
        spec = DatasetSpec(n_per_class=2, seed=42)
        a_traces, a_labels = generate_dataset(spec)
        b_traces, b_labels = generate_dataset(spec)
        assert a_labels == b_labels
        np.testing.assert_allclose(
            a_traces[0].current_a, b_traces[0].current_a
        )

    def test_disconnected_trace_needs_no_solve(self):
        # apply_fault replaces a disconnected trace's current with noise,
        # so the unsolved trace gives the same result as the solved one
        engine = CVEngine(
            species=FERROCENE,
            bulk_concentration=mm_to_mol_per_cm3(2.0),
            area_cm2=0.0707,
            resistance_ohm=120.0,
            substeps=1,
        )
        params = CVParameters(scan_rate_v_s=0.2, n_cycles=2, e_step_v=0.002)
        fault = FaultKind.DISCONNECTED_ELECTRODE
        _assert_same_trace(
            apply_fault(engine.disconnected(params), fault, severity=0.6, seed=17),
            apply_fault(engine.run(params), fault, severity=0.6, seed=17),
        )

    def test_corpus_matches_solving_every_class(self, monkeypatch):
        spec = DatasetSpec(n_per_class=2, seed=42)
        traces, labels = generate_dataset(spec)
        monkeypatch.setattr(CVEngine, "disconnected", CVEngine.run)
        solved_traces, solved_labels = generate_dataset(spec)
        assert labels == solved_labels
        for trace, solved in zip(traces, solved_traces, strict=True):
            _assert_same_trace(trace, solved)

    def test_disconnected_class_runs_no_solve(self, monkeypatch):
        run = CVEngine.run
        solved = []

        def counting_run(engine, params):
            solved.append(params)
            return run(engine, params)

        monkeypatch.setattr(CVEngine, "run", counting_run)
        spec = DatasetSpec(n_per_class=3, seed=5)
        traces, labels = generate_dataset(spec)
        assert len(traces) == len(labels) == 3 * spec.n_per_class
        assert len(solved) == 2 * spec.n_per_class

    def test_split_partitions(self, ml_corpus):
        _, labels, features = ml_corpus
        x_train, y_train, x_test, y_test = train_test_split(
            features, labels, 0.25, seed=3
        )
        assert len(x_train) + len(x_test) == len(features)
        assert len(y_test) == len(x_test)

    def test_split_validation(self, ml_corpus):
        _, labels, features = ml_corpus
        with pytest.raises(ValueError):
            train_test_split(features, labels, 0.0)


class TestNormalityClassifier:
    def test_high_oob_accuracy(self, trained_classifier):
        assert trained_classifier.oob_score >= 0.8

    def test_classifies_held_out_correctly(self, trained_classifier):
        traces, labels = generate_dataset(DatasetSpec(n_per_class=5, seed=99))
        correct = 0
        for trace, label in zip(traces, labels):
            report = trained_classifier.classify(trace)
            correct += report.label == label
        assert correct / len(traces) >= 0.8

    def test_normal_flag_and_report(self, trained_classifier, reference_voltammogram):
        report = trained_classifier.classify(reference_voltammogram)
        assert report.normal == (report.label == "normal")
        assert 0.0 <= report.confidence <= 1.0
        assert abs(sum(report.probabilities.values()) - 1.0) < 1e-9
        assert "classified" in str(report)

    def test_disconnected_flagged_abnormal(self, trained_classifier, reference_voltammogram):
        broken = apply_fault(
            reference_voltammogram, FaultKind.DISCONNECTED_ELECTRODE, 0.8
        )
        report = trained_classifier.classify(broken)
        assert not report.normal
        assert report.label == "disconnected_electrode"

    def test_is_normal_wrapper(self, trained_classifier, reference_voltammogram):
        assert trained_classifier.is_normal(reference_voltammogram) in (
            True,
            False,
        )

    def test_unfitted_raises(self, reference_voltammogram):
        with pytest.raises(NotFittedError):
            NormalityClassifier().classify(reference_voltammogram)

    def test_fit_on_traces(self, ml_corpus):
        traces, labels, _ = ml_corpus
        classifier = NormalityClassifier().fit(
            traces[:30], list(labels[:30])
        )
        report = classifier.classify(traces[0])
        assert report.label in set(labels)
