"""Tests for the latency-budget extension (paper related work [14])."""

import numpy as np
import pytest

from repro.core.constraints import ConstraintSpec, ModelConstraintChecker
from repro.hwsim.devices import GTX_1070
from repro.hwsim.profiler import HardwareProfiler
from repro.models.hw_models import fit_latency_model
from repro.models.profiling import run_profiling_campaign
from repro.space.presets import mnist_space


@pytest.fixture(scope="module")
def fitted():
    space = mnist_space()
    rng = np.random.default_rng(0)
    profiler = HardwareProfiler(GTX_1070, rng)
    campaign = run_profiling_campaign(space, "mnist", profiler, 80, rng)
    latency_model = fit_latency_model(
        space, campaign, rng=np.random.default_rng(1)
    )
    return space, campaign, latency_model


class TestSpec:
    def test_latency_budget_validated(self):
        with pytest.raises(ValueError):
            ConstraintSpec(latency_budget_s=0.0)
        spec = ConstraintSpec(latency_budget_s=0.01)
        assert not spec.is_unconstrained

    def test_measured_feasible_with_latency(self):
        spec = ConstraintSpec(latency_budget_s=0.01)
        assert spec.measured_feasible(None, None, 0.005)
        assert not spec.measured_feasible(None, None, 0.02)
        # Missing measurement counts as satisfied.
        assert spec.measured_feasible(None, None, None)


class TestLatencyModel:
    def test_campaign_records_latency(self, fitted):
        _, campaign, _ = fitted
        assert campaign.latency_s is not None
        assert np.all(campaign.latency_s > 0)

    def test_cv_accuracy(self, fitted):
        _, _, model = fitted
        assert model.cv_rmspe_ < 10.0

    def test_predictions_track_measurements(self, fitted):
        _, campaign, model = fitted
        predictions = model.predict_batch(campaign.Z)
        r = np.corrcoef(predictions, campaign.latency_s)[0, 1]
        assert r > 0.9

    def test_requires_latency_column(self, fitted):
        from dataclasses import replace

        space, campaign, _ = fitted
        stripped = replace(campaign, latency_s=None)
        with pytest.raises(ValueError, match="no latency"):
            fit_latency_model(space, stripped)


class TestChecker:
    def test_budget_requires_model(self, fitted):
        spec = ConstraintSpec(latency_budget_s=0.01)
        with pytest.raises(ValueError, match="latency"):
            ModelConstraintChecker(spec, None, None)

    def test_indicator_gates_on_latency(self, fitted):
        space, campaign, model = fitted
        median = float(np.median(campaign.latency_s))
        spec = ConstraintSpec(latency_budget_s=median)
        checker = ModelConstraintChecker(
            spec, None, None, latency_model=model, margin_sigmas=0.0
        )
        verdicts = [checker.indicator(c) for c in campaign.configs]
        # The median budget splits the campaign roughly in half.
        assert 0.2 < np.mean(verdicts) < 0.8

    def test_satisfaction_probability_in_range(self, fitted):
        space, campaign, model = fitted
        spec = ConstraintSpec(latency_budget_s=float(np.median(campaign.latency_s)))
        checker = ModelConstraintChecker(spec, None, None, latency_model=model)
        for config in campaign.configs[:10]:
            assert 0.0 <= checker.satisfaction_probability(config) <= 1.0

    def test_predict_latency(self, fitted):
        space, campaign, model = fitted
        spec = ConstraintSpec(latency_budget_s=1.0)
        checker = ModelConstraintChecker(spec, None, None, latency_model=model)
        config = campaign.configs[0]
        assert checker.predict_latency(config) == pytest.approx(
            model.predict_config(config)
        )
        bare = ModelConstraintChecker(ConstraintSpec(), None, None)
        assert bare.predict_latency(config) is None
