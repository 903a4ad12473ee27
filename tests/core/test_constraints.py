"""Tests for repro.core.constraints."""

import numpy as np
import pytest

from repro.core.constraints import (
    GIB,
    ConstraintSpec,
    GPConstraintModel,
    ModelConstraintChecker,
)
from repro.hwsim.devices import GTX_1070
from repro.hwsim.profiler import HardwareProfiler
from repro.models.hw_models import fit_hardware_models
from repro.models.profiling import run_profiling_campaign
from repro.space.presets import mnist_space


@pytest.fixture(scope="module")
def fitted():
    space = mnist_space()
    rng = np.random.default_rng(0)
    profiler = HardwareProfiler(GTX_1070, rng)
    data = run_profiling_campaign(space, "mnist", profiler, 80, rng)
    power, memory = fit_hardware_models(
        space, data, rng=np.random.default_rng(1), fit_intercept=True
    )
    return space, power, memory, data


class TestConstraintSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            ConstraintSpec(power_budget_w=-5.0)
        with pytest.raises(ValueError):
            ConstraintSpec(memory_budget_bytes=0.0)

    @pytest.mark.parametrize(
        "budget, value",
        [
            ("power_budget_w", float("nan")),
            ("power_budget_w", float("-inf")),
            ("memory_budget_bytes", float("inf")),
            ("latency_budget_s", True),
            ("power_budget_w", "abc"),
        ],
    )
    def test_refuses_budgets_that_never_bind(self, budget, value):
        # A NaN or infinite budget would judge every measurement feasible.
        with pytest.raises(ValueError, match=budget):
            ConstraintSpec(**{budget: value})

    def test_accepts_numpy_budgets(self):
        spec = ConstraintSpec(power_budget_w=np.float64(85.0))
        assert not spec.measured_feasible(90.0, None)

    def test_unconstrained(self):
        assert ConstraintSpec().is_unconstrained
        assert not ConstraintSpec(power_budget_w=85.0).is_unconstrained

    def test_measured_feasible(self):
        spec = ConstraintSpec(power_budget_w=85.0, memory_budget_bytes=1.15 * GIB)
        assert spec.measured_feasible(80.0, 1.0 * GIB)
        assert not spec.measured_feasible(90.0, 1.0 * GIB)
        assert not spec.measured_feasible(80.0, 1.3 * GIB)

    def test_missing_measurement_counts_satisfied(self):
        # Tegra TX1: memory budget exists but cannot be measured -> the
        # paper drops the memory constraint there.
        spec = ConstraintSpec(power_budget_w=10.0, memory_budget_bytes=1.0 * GIB)
        assert spec.measured_feasible(8.0, None)
        assert not spec.measured_feasible(12.0, None)


class TestModelConstraintChecker:
    def test_requires_models_for_budgets(self, fitted):
        space, power, memory, _ = fitted
        spec = ConstraintSpec(power_budget_w=85.0)
        with pytest.raises(ValueError):
            ModelConstraintChecker(spec, None, None)
        ModelConstraintChecker(spec, power, None)  # OK

    def test_indicator_matches_predictions_without_margin(self, fitted):
        space, power, memory, data = fitted
        spec = ConstraintSpec(power_budget_w=85.0, memory_budget_bytes=1.15 * GIB)
        checker = ModelConstraintChecker(spec, power, memory, margin_sigmas=0.0)
        for config in data.configs[:20]:
            p, m = checker.predictions(config)
            expected = p <= 85.0 and m <= 1.15 * GIB
            assert checker.indicator(config) == expected

    def test_margin_makes_indicator_conservative(self, fitted):
        space, power, memory, data = fitted
        spec = ConstraintSpec(power_budget_w=85.0)
        loose = ModelConstraintChecker(spec, power, None, margin_sigmas=0.0)
        tight = ModelConstraintChecker(spec, power, None, margin_sigmas=2.0)
        accepted_loose = sum(loose.indicator(c) for c in data.configs)
        accepted_tight = sum(tight.indicator(c) for c in data.configs)
        assert accepted_tight <= accepted_loose

    def test_negative_margin_rejected(self, fitted):
        space, power, *_ = fitted
        with pytest.raises(ValueError):
            ModelConstraintChecker(
                ConstraintSpec(power_budget_w=85.0), power, None, margin_sigmas=-1.0
            )

    def test_probability_between_0_and_1(self, fitted):
        space, power, memory, data = fitted
        spec = ConstraintSpec(power_budget_w=85.0, memory_budget_bytes=1.15 * GIB)
        checker = ModelConstraintChecker(spec, power, memory)
        for config in data.configs[:20]:
            prob = checker.satisfaction_probability(config)
            assert 0.0 <= prob <= 1.0

    def test_probability_consistent_with_indicator(self, fitted):
        space, power, memory, data = fitted
        spec = ConstraintSpec(power_budget_w=85.0)
        checker = ModelConstraintChecker(spec, power, None)
        # Deep inside the feasible region the probability is near 1.
        probs_feasible = [
            checker.satisfaction_probability(c)
            for c in data.configs
            if checker.predictions(c)[0] < 80.0
        ]
        probs_infeasible = [
            checker.satisfaction_probability(c)
            for c in data.configs
            if checker.predictions(c)[0] > 95.0
        ]
        if probs_feasible and probs_infeasible:
            assert min(probs_feasible) > max(probs_infeasible)

    def test_unconstrained_always_feasible(self, fitted):
        space, power, memory, data = fitted
        checker = ModelConstraintChecker(ConstraintSpec(), None, None)
        assert checker.indicator(data.configs[0])
        assert checker.satisfaction_probability(data.configs[0]) == 1.0


class TestGPConstraintModel:
    def test_uninformative_before_observations(self, fitted):
        space, *_ = fitted
        spec = ConstraintSpec(power_budget_w=85.0)
        model = GPConstraintModel(space, spec)
        model.refit()
        config = space.sample(np.random.default_rng(2))
        assert model.satisfaction_probability(config) == 1.0
        assert model.indicator(config)

    def test_learns_power_landscape(self, fitted):
        space, power_model, _, data = fitted
        spec = ConstraintSpec(power_budget_w=85.0)
        model = GPConstraintModel(space, spec)
        for config, measured in zip(data.configs[:40], data.power_w[:40]):
            model.observe(config, measured, None)
        model.refit(np.random.default_rng(3))
        # Points whose measured power was far below / above budget should
        # receive high / low satisfaction probabilities.
        low_idx = int(np.argmin(data.power_w[:40]))
        high_idx = int(np.argmax(data.power_w[:40]))
        p_low = model.satisfaction_probability(data.configs[low_idx])
        p_high = model.satisfaction_probability(data.configs[high_idx])
        assert p_low > p_high

    def test_batch_matches_scalar_probabilities(self, fitted):
        space, _, _, data = fitted
        spec = ConstraintSpec(power_budget_w=85.0)
        model = GPConstraintModel(space, spec)
        for config, measured in zip(data.configs[:30], data.power_w[:30]):
            model.observe(config, measured, None)
        model.refit(np.random.default_rng(7))
        configs = data.configs[30:50]
        serial = np.array(
            [model.satisfaction_probability(c) for c in configs]
        )
        batch = np.asarray(model.satisfaction_probability_batch(configs))
        # The batch path evaluates the Gaussian CDF on the whole vector at
        # once; summation order inside erf differs from the scalar path by
        # a few ULP, amplified deep in the tails — hence 1e-8, not exact.
        np.testing.assert_allclose(batch, serial, rtol=1e-8)
        assert np.asarray(
            model.satisfaction_probability_batch([])
        ).shape == (0,)

    def test_nan_measurements_skipped(self, fitted):
        space, *_ = fitted
        spec = ConstraintSpec(power_budget_w=85.0)
        model = GPConstraintModel(space, spec)
        rng = np.random.default_rng(4)
        for _ in range(5):
            model.observe(space.sample(rng), None, None)
        model.refit()
        # All observations carried no power value -> still uninformative.
        assert model.satisfaction_probability(space.sample(rng)) == 1.0
