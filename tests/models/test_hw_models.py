"""Tests for repro.models.hw_models."""

import numpy as np
import pytest

from repro.hwsim.devices import GTX_1070, TEGRA_TX1
from repro.hwsim.profiler import HardwareProfiler
from repro.models.hw_models import MemoryModel, PowerModel, fit_hardware_models
from repro.models.profiling import run_profiling_campaign
from repro.space.presets import mnist_space


@pytest.fixture(scope="module")
def gtx_campaign():
    space = mnist_space()
    rng = np.random.default_rng(42)
    profiler = HardwareProfiler(GTX_1070, rng)
    return space, run_profiling_campaign(space, "mnist", profiler, 80, rng)


class TestPowerModel:
    def test_fit_records_cv_metrics(self, gtx_campaign):
        space, data = gtx_campaign
        model = PowerModel(space, fit_intercept=True)
        model.fit(data.Z, data.power_w, rng=np.random.default_rng(0))
        assert model.is_fitted
        assert model.cv_rmspe_ is not None and model.cv_rmspe_ > 0
        assert model.residual_std_ is not None and model.residual_std_ > 0
        assert model.weights_.shape == (space.structural_dimension,)

    def test_paper_accuracy_claim(self, gtx_campaign):
        # Table 1: RMSPE always below 7%.
        space, data = gtx_campaign
        model = PowerModel(space, fit_intercept=True)
        model.fit(data.Z, data.power_w, rng=np.random.default_rng(1))
        assert model.cv_rmspe_ < 7.0

    def test_predict_config_matches_predict_z(self, gtx_campaign):
        space, data = gtx_campaign
        model = PowerModel(space, fit_intercept=True)
        model.fit(data.Z, data.power_w, rng=np.random.default_rng(2))
        config = data.configs[0]
        z = space.structural_vector(config)
        assert model.predict_config(config) == pytest.approx(model.predict_z(z))

    def test_predictions_track_measurements(self, gtx_campaign):
        space, data = gtx_campaign
        model = PowerModel(space, fit_intercept=True)
        model.fit(data.Z, data.power_w, rng=np.random.default_rng(3))
        predictions = model.predict_batch(data.Z)
        correlation = np.corrcoef(predictions, data.power_w)[0, 1]
        assert correlation > 0.9

    def test_satisfaction_probability_monotone_in_budget(self, gtx_campaign):
        space, data = gtx_campaign
        model = PowerModel(space, fit_intercept=True)
        model.fit(data.Z, data.power_w, rng=np.random.default_rng(4))
        z = data.Z[0]
        prediction = model.predict_z(z)
        low = model.satisfaction_probability(z, prediction - 20.0)
        mid = model.satisfaction_probability(z, prediction)
        high = model.satisfaction_probability(z, prediction + 20.0)
        assert low < 0.05
        assert mid == pytest.approx(0.5, abs=0.01)
        assert high > 0.95

    def test_weights_before_fit_raise(self, gtx_campaign):
        space, _ = gtx_campaign
        with pytest.raises(RuntimeError):
            PowerModel(space).weights_
        with pytest.raises(RuntimeError):
            PowerModel(space).satisfaction_probability(np.zeros(4), 10.0)


class TestFitHardwareModels:
    def test_gtx_returns_both_models(self, gtx_campaign):
        space, data = gtx_campaign
        power, memory = fit_hardware_models(
            space, data, rng=np.random.default_rng(5), fit_intercept=True
        )
        assert isinstance(power, PowerModel)
        assert isinstance(memory, MemoryModel)
        assert memory.cv_rmspe_ < 7.0

    def test_tx1_memory_model_absent(self):
        space = mnist_space()
        rng = np.random.default_rng(6)
        profiler = HardwareProfiler(TEGRA_TX1, rng)
        data = run_profiling_campaign(space, "mnist", profiler, 60, rng)
        power, memory = fit_hardware_models(
            space, data, rng=np.random.default_rng(7), fit_intercept=True
        )
        assert memory is None
        assert power.cv_rmspe_ < 7.0

    def test_repr_mentions_state(self, gtx_campaign):
        space, data = gtx_campaign
        model = PowerModel(space)
        assert "unfitted" in repr(model)
        model.fit(data.Z, data.power_w, rng=np.random.default_rng(8))
        assert "cv_rmspe" in repr(model)
