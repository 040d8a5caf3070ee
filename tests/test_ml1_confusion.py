"""The seeded ML1 confusion matrix (paper §4.3.3), pinned exactly.

The ML1 bench (``benchmarks/test_bench_ml_normality.py``) trains on the
same corpus and split but only bounds the accuracy. A change to the
physics solve or the GPR fit that moves any held-out verdict shows here
as a changed matrix.
"""

import numpy as np

from repro.ml import NormalityClassifier, extract_features_batch, generate_dataset
from repro.ml.datasets import DatasetSpec

#: rows are the truth, columns the verdict, both in CLASSES order
CLASSES = ["disconnected_electrode", "low_volume", "normal"]
EXPECTED = [[12, 0, 0], [0, 10, 2], [0, 0, 4]]


def test_seeded_confusion_matrix():
    traces, labels = generate_dataset(DatasetSpec(n_per_class=30, seed=11))
    features, labels = extract_features_batch(traces), np.asarray(labels)
    order = np.random.default_rng(0).permutation(len(labels))
    train, test = np.split(order, [int(0.7 * len(labels))])
    classifier = NormalityClassifier().fit_features(features[train], labels[train])
    truth, predicted = labels[test], classifier.ensemble.predict(features[test])
    assert sorted(set(labels)) == CLASSES
    matrix = [
        [int(np.sum((truth == actual) & (predicted == verdict))) for verdict in CLASSES]
        for actual in CLASSES
    ]
    assert matrix == EXPECTED
