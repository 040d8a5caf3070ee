"""ML normality check for I-V measurements (paper §4.3.3, ref [11]).

Ref [11]'s architecture: extract a feature vector from the I-V trace with
Gaussian-process regression, classify with an ensemble-of-trees (EOT)
classifier. Classes: *normal*, *disconnected electrode*, *low analyte
volume* (we add *bubble* as an extension). Everything is implemented from
scratch on numpy/scipy; scipy is imported on the first GP fit, so
importing this package does not load it:

- :class:`GaussianProcessRegressor` — RBF + white kernel, Cholesky fit,
  marginal-likelihood hyperparameter optimisation (L-BFGS);
- :class:`DecisionTreeClassifier` / :class:`EnsembleOfTreesClassifier` —
  CART with Gini impurity, bagged with feature subsampling;
- :func:`extract_features` — GPR hyperparameters + residual statistics +
  electrochemical descriptors of the trace;
- :class:`NormalityClassifier` — the end-to-end method with
  ``fit``/``classify``/``is_normal``;
- :func:`generate_dataset` — labelled synthetic corpus from the
  chemistry simulator.
"""

from repro.ml.gpr import GaussianProcessRegressor, RBFKernel
from repro.ml.tree import DecisionTreeClassifier
from repro.ml.ensemble import EnsembleOfTreesClassifier
from repro.ml.features import extract_features, extract_features_batch, FEATURE_NAMES
from repro.ml.normality import NormalityClassifier, NormalityReport
from repro.ml.datasets import generate_dataset, DatasetSpec

__all__ = [
    "GaussianProcessRegressor",
    "RBFKernel",
    "DecisionTreeClassifier",
    "EnsembleOfTreesClassifier",
    "extract_features",
    "extract_features_batch",
    "FEATURE_NAMES",
    "NormalityClassifier",
    "NormalityReport",
    "generate_dataset",
    "DatasetSpec",
]
