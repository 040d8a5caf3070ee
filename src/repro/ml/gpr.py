"""Gaussian-process regression, from scratch on numpy/scipy.

scipy is imported inside the methods that call it, so a process loads
it on its first GP fit; a control daemon or steering session, which
never fits one, never loads it.

Used as a *feature extractor*: fitting a GPR to an I-V curve and keeping
the optimised hyperparameters (length scale, signal variance, noise
variance) plus residual statistics summarises the curve's smoothness and
noise floor in a handful of numbers — the signature ref [11] classifies.

Implementation notes (numerics follow Rasmussen & Williams ch. 2/5):

- RBF kernel k(x,x') = s^2 exp(-(x-x')^2 / (2 l^2)) + sigma_n^2 I;
- fit = Cholesky of K + jitter; predictions and the log marginal
  likelihood reuse the factor;
- hyperparameters are optimised in log space with L-BFGS-B and analytic
  gradients, restarted from a small set of initial points for robustness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import MLError, NotFittedError


@dataclass
class RBFKernel:
    """Squared-exponential kernel with white noise.

    Attributes:
        length_scale: correlation length in x units.
        signal_std: prior standard deviation of the latent function.
        noise_std: white observation noise standard deviation.
    """

    length_scale: float = 1.0
    signal_std: float = 1.0
    noise_std: float = 0.1

    def __post_init__(self) -> None:
        for name in ("length_scale", "signal_std", "noise_std"):
            if getattr(self, name) <= 0:
                raise MLError(f"{name} must be > 0")

    def __call__(self, xa: np.ndarray, xb: np.ndarray) -> np.ndarray:
        """Kernel matrix K(xa, xb) without the noise term."""
        sq = (xa[:, None] - xb[None, :]) ** 2
        return self.signal_std**2 * np.exp(-0.5 * sq / self.length_scale**2)

    def theta(self) -> np.ndarray:
        """Log-hyperparameter vector."""
        return np.log([self.length_scale, self.signal_std, self.noise_std])

    @classmethod
    def from_theta(cls, theta: np.ndarray) -> "RBFKernel":
        length, signal, noise = np.exp(theta)
        return cls(length_scale=length, signal_std=signal, noise_std=noise)


class GaussianProcessRegressor:
    """GP regression with marginal-likelihood hyperparameter fitting.

    Args:
        kernel: initial kernel (also the fixed kernel when
            ``optimize=False`` at fit time).
        normalize_y: standardise targets before fitting (recommended —
            current magnitudes span decades across scan rates).
        jitter: diagonal stabiliser added to the Cholesky.
    """

    def __init__(
        self,
        kernel: RBFKernel | None = None,
        normalize_y: bool = True,
        jitter: float = 1e-10,
    ):
        self.kernel = kernel or RBFKernel()
        self.normalize_y = normalize_y
        self.jitter = jitter
        self._x: np.ndarray | None = None
        self._y_mean = 0.0
        self._y_std = 1.0
        self._alpha: np.ndarray | None = None
        self._chol: np.ndarray | None = None
        self.log_marginal_likelihood_: float = np.nan

    # -- internals -----------------------------------------------------------
    def _neg_log_marginal(self, theta: np.ndarray, sq: np.ndarray, y: np.ndarray):
        """Negative log marginal likelihood and its gradient in theta.

        ``sq`` holds the squared input distances and ``y`` the scaled
        targets. :meth:`fit` builds the one and checks the other is finite
        once, not on every evaluation.
        """
        from scipy.linalg import lapack

        length, signal, noise = np.exp(theta)
        n = len(y)
        signal_var, noise_var = signal**2, noise**2
        base = signal_var * np.exp(-0.5 * sq / length**2)
        k_noisy = base.copy()
        k_noisy.flat[:: n + 1] += noise_var + self.jitter
        chol, info = lapack.dpotrf(k_noisy, lower=True, clean=True, overwrite_a=True)
        if info != 0:
            return 1e25, np.zeros(3)
        alpha, _ = lapack.dpotrs(chol, y, lower=True)
        log_det = 2.0 * np.log(np.diag(chol)).sum()
        nll = 0.5 * (y @ alpha) + 0.5 * log_det + 0.5 * n * np.log(2 * np.pi)

        # gradient: dL/dtheta_i = -0.5 tr((aa^T - K^-1) dK/dtheta_i), with
        # dK/dlog(l) = base sq / l^2, dK/dlog(s) = 2 base and
        # dK/dlog(noise) = 2 noise^2 I. potri leaves K^-1 in the lower
        # triangle (the upper stays zero), so for symmetric M,
        # sum(K^-1 * M) = 2 sum(tril * M) - sum(diag(K^-1) diag(M)).
        k_inv, _ = lapack.dpotri(chol, lower=True, overwrite_c=True)
        inv_trace = np.trace(k_inv)
        d_length = base * sq / length**2  # zero diagonal
        grad_l = -0.5 * (alpha @ d_length @ alpha - 2.0 * np.vdot(k_inv, d_length))
        sum_base = 2.0 * np.vdot(k_inv, base) - signal_var * inv_trace
        grad_s = -(alpha @ base @ alpha - sum_base)
        grad_n = -noise_var * (alpha @ alpha - inv_trace)
        return float(nll), np.array([grad_l, grad_s, grad_n])

    # -- API -----------------------------------------------------------------
    def fit(
        self,
        x: np.ndarray,
        y: np.ndarray,
        optimize_hyperparameters: bool = True,
        n_restarts: int = 2,
    ) -> "GaussianProcessRegressor":
        """Fit to 1-D inputs ``x`` and targets ``y``."""
        from scipy import linalg, optimize

        x = np.asarray(x, dtype=np.float64).ravel()
        y = np.asarray(y, dtype=np.float64).ravel()
        if len(x) != len(y):
            raise MLError(f"x and y lengths differ: {len(x)} vs {len(y)}")
        if len(x) < 3:
            raise MLError("need at least 3 points to fit a GP")
        if not np.all(np.isfinite(y)):
            raise ValueError("targets must be finite (no nan or inf)")

        if self.normalize_y:
            self._y_mean = float(y.mean())
            self._y_std = float(y.std()) or 1.0
        else:
            self._y_mean, self._y_std = 0.0, 1.0
        y_scaled = (y - self._y_mean) / self._y_std

        if optimize_hyperparameters:
            sq = (x[:, None] - x[None, :]) ** 2
            span = float(x.max() - x.min()) or 1.0
            starts = [
                np.log([span / 10.0, 1.0, 0.1]),
                np.log([span / 3.0, 1.0, 0.3]),
                np.log([span / 30.0, 1.0, 0.03]),
            ][: max(1, n_restarts + 1)]
            best: tuple[float, np.ndarray] | None = None
            bounds = [
                (np.log(span * 1e-4), np.log(span * 10.0)),
                (np.log(1e-3), np.log(1e3)),
                (np.log(1e-6), np.log(1e1)),
            ]
            for theta0 in starts:
                result = optimize.minimize(
                    self._neg_log_marginal,
                    theta0,
                    args=(sq, y_scaled),
                    jac=True,
                    method="L-BFGS-B",
                    bounds=bounds,
                )
                if best is None or result.fun < best[0]:
                    best = (float(result.fun), result.x)
            assert best is not None
            self.kernel = RBFKernel.from_theta(best[1])

        n = len(x)
        k_noisy = self.kernel(x, x) + (
            self.kernel.noise_std**2 + self.jitter
        ) * np.eye(n)
        chol = linalg.cholesky(k_noisy, lower=True)
        self._chol = chol
        self._alpha = linalg.cho_solve((chol, True), y_scaled)
        self._x = x
        log_det = 2.0 * np.log(np.diag(chol)).sum()
        self.log_marginal_likelihood_ = float(
            -0.5 * (y_scaled @ self._alpha) - 0.5 * log_det - 0.5 * n * np.log(2 * np.pi)
        )
        return self

    def predict(
        self, x_new: np.ndarray, return_std: bool = False
    ) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
        """Posterior mean (and optionally standard deviation) at ``x_new``."""
        if self._x is None or self._alpha is None or self._chol is None:
            raise NotFittedError("fit() the GP before predicting")
        x_new = np.asarray(x_new, dtype=np.float64).ravel()
        k_star = self.kernel(x_new, self._x)
        mean = k_star @ self._alpha * self._y_std + self._y_mean
        if not return_std:
            return mean
        from scipy import linalg

        v = linalg.solve_triangular(self._chol, k_star.T, lower=True)
        var = self.kernel.signal_std**2 - np.einsum("ij,ij->j", v, v)
        var = np.maximum(var, 0.0) * self._y_std**2
        return mean, np.sqrt(var)

    def residual_std(self) -> float:
        """Std of training residuals (in original y units)."""
        if self._x is None or self._alpha is None:
            raise NotFittedError("fit() the GP first")
        # mean at training inputs, reusing the kernel matrix structure
        mean = self.predict(self._x)
        # reconstruct original-scale targets from alpha via the fit:
        # residual = y - mean; y is not stored, but K alpha = y_scaled.
        k_noisy = self.kernel(self._x, self._x) + (
            self.kernel.noise_std**2 + self.jitter
        ) * np.eye(len(self._x))
        y = (k_noisy @ self._alpha) * self._y_std + self._y_mean
        return float(np.std(y - mean))
