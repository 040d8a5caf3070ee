"""Extra numerical validation: GPR gradients, temperature physics, parity."""

import numpy as np
import pytest

from repro.chemistry.cv_engine import CVEngine, CVParameters
from repro.chemistry.species import FERROCENE
from repro.ml.gpr import GaussianProcessRegressor, RBFKernel


class TestGPRGradients:
    """The analytic marginal-likelihood gradient must match finite
    differences — a wrong gradient silently degrades every feature vector
    the normality method sees."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_gradient_matches_finite_difference(self, seed):
        rng = np.random.default_rng(seed)
        x = np.sort(rng.uniform(0, 1, 25))
        y = np.sin(4 * x) + rng.normal(0, 0.1, 25)
        sq = (x[:, None] - x[None, :]) ** 2
        gp = GaussianProcessRegressor()
        theta = np.log([0.3, 1.2, 0.2])
        _value, grad = gp._neg_log_marginal(theta, sq, y)
        eps = 1e-6
        for index in range(3):
            theta_hi = theta.copy()
            theta_hi[index] += eps
            theta_lo = theta.copy()
            theta_lo[index] -= eps
            value_hi, _ = gp._neg_log_marginal(theta_hi, sq, y)
            value_lo, _ = gp._neg_log_marginal(theta_lo, sq, y)
            numeric = (value_hi - value_lo) / (2 * eps)
            assert grad[index] == pytest.approx(numeric, rel=1e-4, abs=1e-6)


class TestTemperaturePhysics:
    def test_peak_separation_scales_with_rt(self):
        """dEp tracks 2.218 RT/nF: hotter cells have wider waves."""
        def separation(temperature_c):
            engine = CVEngine(
                FERROCENE,
                2e-6,
                0.0707,
                temperature_c=temperature_c,
                double_layer_f_cm2=0.0,
                substeps=2,
            )
            trace = engine.run(CVParameters(e_step_v=0.001))
            return trace.peak_anodic()[0] - trace.peak_cathodic()[0]

        cold = separation(5.0)
        hot = separation(60.0)
        assert hot > cold
        # ratio tracks the kelvin ratio within discretisation error
        expected = (273.15 + 60.0) / (273.15 + 5.0)
        assert hot / cold == pytest.approx(expected, rel=0.06)

    def test_peak_current_decreases_slightly_when_hot(self):
        """Randles-Sevcik: ip ~ sqrt(1/T) at fixed D."""
        def peak(temperature_c):
            engine = CVEngine(
                FERROCENE, 2e-6, 0.0707,
                temperature_c=temperature_c, double_layer_f_cm2=0.0,
            )
            return engine.run(CVParameters(e_step_v=0.002)).peak_anodic()[1]

        assert peak(60.0) < peak(5.0)


class TestTransportParity:
    """The same workflow over the simulated network and real TCP must
    produce physically identical measurements (transport must not leak
    into science)."""

    def test_sim_vs_tcp_same_metrics(self):
        from repro.core.cv_workflow import CVWorkflowSettings, run_cv_workflow
        from repro.facility.ice import ElectrochemistryICE, ICEConfig

        settings = CVWorkflowSettings(e_step_v=0.002)
        metrics = {}
        for transport in ("sim", "tcp"):
            with ElectrochemistryICE.build(ICEConfig(transport=transport)) as ice:
                result = run_cv_workflow(ice, settings=settings)
                assert result.succeeded
                metrics[transport] = result.metrics
        assert metrics["sim"].anodic_peak_a == pytest.approx(
            metrics["tcp"].anodic_peak_a, rel=0.02
        )
        assert metrics["sim"].e_half_v == pytest.approx(
            metrics["tcp"].e_half_v, abs=0.005
        )


class TestAutoCatalog:
    def test_arrivals_are_indexed(self, ice, tmp_path):
        import time

        from repro.core.cv_workflow import CVWorkflowSettings, run_cv_workflow
        from repro.datachannel import MeasurementWatcher
        from repro.datachannel.catalog import MeasurementCatalog
        from repro.datachannel.watcher import auto_catalog

        cache = tmp_path / "cache"
        cache.mkdir()
        mount = ice.mount(cache_dir=cache)
        watcher = MeasurementWatcher(mount, interval_s=0.05)
        catalog = MeasurementCatalog(cache)
        stop = auto_catalog(watcher, catalog)
        try:
            run_cv_workflow(ice, settings=CVWorkflowSettings(e_step_v=0.002))
            deadline = time.monotonic() + 10.0
            while len(catalog) == 0 and time.monotonic() < deadline:
                time.sleep(0.05)
        finally:
            stop()
            mount.unmount()
        assert len(catalog) == 1
        entry = next(iter(catalog))
        assert entry.technique == "CV"
        # stop() saved the catalog next to the cache
        assert (cache / "_catalog.json").exists()
