"""Gaussian-process regression."""

import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.errors import MLError, NotFittedError
from repro.ml.gpr import GaussianProcessRegressor, RBFKernel


class TestKernel:
    def test_matrix_shape_and_diagonal(self):
        kernel = RBFKernel(length_scale=1.0, signal_std=2.0)
        x = np.linspace(0, 1, 5)
        k_matrix = kernel(x, x)
        assert k_matrix.shape == (5, 5)
        np.testing.assert_allclose(np.diag(k_matrix), 4.0)

    def test_decay_with_distance(self):
        kernel = RBFKernel(length_scale=0.5)
        k_matrix = kernel(np.array([0.0]), np.array([0.0, 0.5, 5.0]))
        assert k_matrix[0, 0] > k_matrix[0, 1] > k_matrix[0, 2]

    def test_theta_round_trip(self):
        kernel = RBFKernel(0.3, 1.5, 0.01)
        rebuilt = RBFKernel.from_theta(kernel.theta())
        assert rebuilt.length_scale == pytest.approx(0.3)
        assert rebuilt.noise_std == pytest.approx(0.01)

    @pytest.mark.parametrize(
        "kwargs",
        [{"length_scale": 0.0}, {"signal_std": -1.0}, {"noise_std": 0.0}],
    )
    def test_validation(self, kwargs):
        with pytest.raises(MLError):
            RBFKernel(**kwargs)


class TestGPRegression:
    def test_interpolates_smooth_function(self):
        x = np.linspace(0, 1, 40)
        y = np.sin(2 * np.pi * x)
        gp = GaussianProcessRegressor().fit(x, y)
        x_test = np.linspace(0.1, 0.9, 15)
        prediction = gp.predict(x_test)
        np.testing.assert_allclose(
            prediction, np.sin(2 * np.pi * x_test), atol=0.05
        )

    def test_noise_hyperparameter_tracks_actual_noise(self):
        rng = np.random.default_rng(0)
        x = np.linspace(0, 1, 80)
        clean = np.sin(2 * np.pi * x)
        noisy = clean + rng.normal(0, 0.2, len(x))
        gp = GaussianProcessRegressor().fit(x, noisy)
        # y is standardised inside; noise fraction ~ 0.2 / std(y) ~ 0.27
        assert 0.1 <= gp.kernel.noise_std <= 0.6

    def test_smooth_signal_gets_low_noise_estimate(self):
        x = np.linspace(0, 1, 60)
        gp = GaussianProcessRegressor().fit(x, np.sin(2 * np.pi * x))
        assert gp.kernel.noise_std < 0.05

    def test_predict_std_small_at_training_points(self):
        x = np.linspace(0, 1, 30)
        y = np.cos(3 * x)
        gp = GaussianProcessRegressor().fit(x, y)
        _, std_at_train = gp.predict(x, return_std=True)
        _, std_far = gp.predict(np.array([5.0]), return_std=True)
        assert std_at_train.mean() < std_far[0]

    def test_log_marginal_likelihood_finite(self):
        x = np.linspace(0, 1, 30)
        gp = GaussianProcessRegressor().fit(x, np.sin(x))
        assert np.isfinite(gp.log_marginal_likelihood_)

    def test_fixed_kernel_mode(self):
        kernel = RBFKernel(length_scale=0.2, signal_std=1.0, noise_std=0.1)
        x = np.linspace(0, 1, 20)
        gp = GaussianProcessRegressor(kernel=kernel)
        gp.fit(x, np.sin(x), optimize_hyperparameters=False)
        assert gp.kernel is kernel

    def test_unfitted_predict_raises(self):
        with pytest.raises(NotFittedError):
            GaussianProcessRegressor().predict(np.array([0.0]))

    def test_mismatched_lengths(self):
        with pytest.raises(MLError):
            GaussianProcessRegressor().fit(np.arange(5.0), np.arange(4.0))

    def test_too_few_points(self):
        with pytest.raises(MLError):
            GaussianProcessRegressor().fit(np.arange(2.0), np.arange(2.0))

    def test_normalization_handles_large_scales(self):
        x = np.linspace(0, 1, 40)
        y = 1e-5 * np.sin(2 * np.pi * x)  # current-magnitude scale
        gp = GaussianProcessRegressor().fit(x, y)
        prediction = gp.predict(x)
        np.testing.assert_allclose(prediction, y, atol=2e-6)

    def test_constant_target_does_not_crash(self):
        x = np.linspace(0, 1, 20)
        gp = GaussianProcessRegressor().fit(x, np.ones(20))
        assert np.all(np.isfinite(gp.predict(x)))

    def test_residual_std_reasonable(self):
        rng = np.random.default_rng(1)
        x = np.linspace(0, 1, 60)
        y = np.sin(2 * np.pi * x) + rng.normal(0, 0.1, 60)
        gp = GaussianProcessRegressor().fit(x, y)
        assert 0.01 <= gp.residual_std() <= 0.3


class TestObjectiveErrorPaths:
    def test_failed_factorisation_returns_sentinel(self):
        # a huge signal variance at a long length scale makes K + jitter
        # numerically singular; the corner lies inside the fit's bounds
        x = np.linspace(0, 1, 96)
        sq = (x[:, None] - x[None, :]) ** 2
        theta = np.log([10.0, 1e3, 1e-6])
        value, grad = GaussianProcessRegressor()._neg_log_marginal(theta, sq, np.sin(x))
        assert value == 1e25
        np.testing.assert_array_equal(grad, np.zeros(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nan_target_raises(self, bad):
        x = np.linspace(0, 1, 20)
        y = np.sin(x)
        y[7] = bad
        with pytest.raises(ValueError):
            GaussianProcessRegressor().fit(x, y)


def test_scipy_loads_on_the_first_fit():
    # a fresh interpreter, so that no earlier test has loaded scipy
    script = textwrap.dedent(
        """
        import sys

        import numpy as np
        import repro
        from repro.ml.gpr import GaussianProcessRegressor

        def scipy_loaded():
            return any(name.split(".")[0] == "scipy" for name in sys.modules)

        with repro.connect() as session:
            assert session.client.call_Status_JKem()
            assert not scipy_loaded()
        x = np.linspace(0.0, 1.0, 20)
        gp = GaussianProcessRegressor().fit(x, np.sin(6.0 * x))
        assert scipy_loaded()
        mean, std = gp.predict(x, return_std=True)
        assert mean.shape == std.shape == x.shape
        assert np.all(np.isfinite(std)) and np.all(std >= 0.0)
        """
    )
    subprocess.run([sys.executable, "-c", script], timeout=120, check=True)
