"""Tests for repro.core.acquisition."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.acquisition import (
    HWCWEI,
    HWIECI,
    ExpectedImprovement,
    expected_improvement,
)
from repro.gp.gp import GaussianProcess


class TestExpectedImprovementFormula:
    def test_zero_variance_below_incumbent(self):
        # Deterministic prediction 0.1 with incumbent 0.5: EI = 0.4.
        ei = expected_improvement(np.array([0.1]), np.array([1e-18]), 0.5)
        assert ei[0] == pytest.approx(0.4, abs=1e-6)

    def test_zero_variance_above_incumbent(self):
        ei = expected_improvement(np.array([0.9]), np.array([1e-18]), 0.5)
        assert ei[0] == pytest.approx(0.0, abs=1e-9)

    def test_uncertainty_creates_improvement_chance(self):
        # Mean above incumbent but high variance -> positive EI.
        ei = expected_improvement(np.array([0.6]), np.array([0.04]), 0.5)
        assert ei[0] > 0.0

    def test_nonnegative(self):
        rng = np.random.default_rng(0)
        ei = expected_improvement(
            rng.normal(size=100), rng.uniform(0.001, 1.0, size=100), 0.0
        )
        assert np.all(ei >= 0.0)

    @given(
        st.floats(min_value=-2, max_value=2),
        st.floats(min_value=0.01, max_value=1.0),
        st.floats(min_value=-2, max_value=2),
    )
    @settings(max_examples=30, deadline=None)
    def test_matches_monte_carlo(self, mean, sigma, incumbent):
        rng = np.random.default_rng(12)
        samples = rng.normal(mean, sigma, size=200_000)
        mc = np.mean(np.maximum(incumbent - samples, 0.0))
        analytic = expected_improvement(
            np.array([mean]), np.array([sigma**2]), incumbent
        )[0]
        assert analytic == pytest.approx(mc, abs=0.02)

    def test_monotone_in_incumbent(self):
        mean, var = np.array([0.5]), np.array([0.01])
        low = expected_improvement(mean, var, 0.4)[0]
        high = expected_improvement(mean, var, 0.8)[0]
        assert high > low

    def test_degenerate_mixed_with_regular_never_nan(self):
        # A zero-variance candidate amid regular ones must not poison the
        # batch with the 0/0 z-score (or an overflowing gamma).
        mean = np.array([0.1, 0.5, 0.9, 0.3])
        var = np.array([0.0, 0.04, 1e-30, 0.01])
        ei = expected_improvement(mean, var, 0.5)
        assert np.all(np.isfinite(ei))
        assert ei[0] == pytest.approx(0.4, abs=1e-9)  # max(y+ - mu, 0)
        assert ei[2] == pytest.approx(0.0, abs=1e-9)
        assert np.all(ei >= 0.0)

    def test_degenerate_huge_improvement_no_overflow(self):
        # Underflow (exp of a hugely negative z-score flushing to zero) is
        # the correct tail behaviour; only overflow/invalid/divide are bugs.
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            ei = expected_improvement(
                np.array([-1e6]), np.array([1e-24]), 0.0
            )
        assert np.isfinite(ei[0])
        assert ei[0] == pytest.approx(1e6)


class _StubChecker:
    """Feasibility by a simple threshold on config['x']."""

    def __init__(self, threshold=0.5):
        self.threshold = threshold

    def indicator(self, config):
        return config["x"] <= self.threshold

    def satisfaction_probability(self, config):
        return 1.0 if config["x"] <= self.threshold else 0.1

    def indicator_batch(self, configs):
        return np.array([self.indicator(c) for c in configs])

    def satisfaction_probability_batch(self, configs):
        return np.array([self.satisfaction_probability(c) for c in configs])


@pytest.fixture
def fitted_gp():
    rng = np.random.default_rng(1)
    X = rng.uniform(size=(25, 1))
    y = (X[:, 0] - 0.3) ** 2 + 0.01 * rng.normal(size=25)
    return GaussianProcess().fit(X, y, rng=rng)


class TestConstraintAwareAcquisitions:
    def _candidates(self, xs):
        configs = [{"x": float(x)} for x in xs]
        X = np.asarray(xs, dtype=float)[:, None]
        return configs, X

    def test_hwieci_zeroes_infeasible(self, fitted_gp):
        configs, X = self._candidates([0.2, 0.4, 0.6, 0.9])
        acq = HWIECI(_StubChecker(0.5))
        scores = acq.score(configs, X, fitted_gp, incumbent=0.2)
        assert scores[2] == 0.0 and scores[3] == 0.0
        assert scores[0] > 0.0

    def test_hwcwei_downweights_infeasible(self, fitted_gp):
        configs, X = self._candidates([0.2, 0.9])
        plain = ExpectedImprovement().score(configs, X, fitted_gp, 0.2)
        weighted = HWCWEI(_StubChecker(0.5)).score(configs, X, fitted_gp, 0.2)
        assert weighted[0] == pytest.approx(plain[0])
        assert weighted[1] == pytest.approx(plain[1] * 0.1)

    def test_ei_unchanged_by_constraints(self, fitted_gp):
        configs, X = self._candidates([0.1, 0.5, 0.8])
        scores = ExpectedImprovement().score(configs, X, fitted_gp, 0.2)
        assert scores.shape == (3,)
        assert np.all(scores >= 0.0)

    def test_checker_interface_enforced(self):
        class NoInterface:
            pass

        with pytest.raises(TypeError):
            HWIECI(NoInterface())
        with pytest.raises(TypeError):
            HWCWEI(NoInterface())

    def test_names(self):
        assert HWIECI(_StubChecker()).name == "HW-IECI"
        assert HWCWEI(_StubChecker()).name == "HW-CWEI"
        assert ExpectedImprovement().name == "EI"


class TestNormalFunctionsMatchScipyStats:
    """The acquisition and constraint paths evaluate the standard normal
    with ``scipy.special.ndtr`` and scipy's own pdf expression instead of
    importing ``scipy.stats``; every value must be bit-equal to
    ``scipy.stats.norm`` on a grid reaching the tails and infinities."""

    @pytest.fixture
    def grid(self):
        rng = np.random.default_rng(31)
        return np.concatenate((
            np.linspace(-45.0, 45.0, 901),
            rng.normal(scale=8.0, size=500),
            [-np.inf, np.inf, -40.5, 40.5, -1e3, 1e3, 0.0, -0.0, 1e-300],
        ))

    @staticmethod
    def _norm():
        from scipy.stats import norm

        return norm

    def test_cdf_and_pdf(self, grid):
        from repro.core.acquisition import norm_pdf
        from scipy.special import ndtr

        norm = self._norm()
        np.testing.assert_array_equal(ndtr(grid), norm.cdf(grid))
        np.testing.assert_array_equal(norm_pdf(grid), norm.pdf(grid))

    def test_expected_improvement(self, grid):
        norm = self._norm()
        mean = -grid
        variance = np.linspace(1e-4, 9.0, grid.size)
        sigma = np.sqrt(np.maximum(variance, 1e-18))
        gamma = (0.25 - mean) / sigma
        with np.errstate(invalid="ignore"):
            reference = np.maximum(
                sigma * (gamma * norm.cdf(gamma) + norm.pdf(gamma)), 0.0
            )
            got = expected_improvement(mean, variance, 0.25)
        np.testing.assert_array_equal(got, reference)

    def test_learned_constraint_probability(self, grid):
        from repro.core.constraints import ConstraintSpec, GPConstraintModel
        from repro.space import mnist_space

        norm = self._norm()
        budget = 80.0
        mean = budget - grid
        var = np.linspace(0.5, 4.0, grid.size)

        class _Stub:
            def __init__(self, mean, var):
                self.mean, self.var = mean, var

            def predict_noisy(self, X):
                return self.mean[: len(X)], self.var[: len(X)]

        space = mnist_space()
        model = GPConstraintModel(space, ConstraintSpec(power_budget_w=budget))
        sigma = np.maximum(np.sqrt(var), 1e-9)
        reference = norm.cdf((budget - mean) / sigma)
        scalar = [
            model._probability_one(
                _Stub(mean[i : i + 1], var[i : i + 1]), budget, np.zeros(1)
            )
            for i in range(grid.size)
        ]
        np.testing.assert_array_equal(scalar, reference)
        model._power_gp = _Stub(mean, var)
        config = space.sample(np.random.default_rng(0))
        batch = model.satisfaction_probability_batch([config] * grid.size)
        np.testing.assert_array_equal(batch, reference)

    def test_model_constraint_probability(self, grid):
        from repro.models.hw_models import PowerModel
        from repro.space import mnist_space

        norm = self._norm()
        budget = 80.0
        model = PowerModel(mnist_space())
        model.residual_std_ = 1.7
        model.predict_batch = lambda Z: budget - grid
        reference = norm.cdf((budget - (budget - grid)) / 1.7)
        np.testing.assert_array_equal(
            model.satisfaction_probability_batch(np.zeros((1, 1)), budget),
            reference,
        )
        for value, want in zip(budget - grid, reference):
            model.predict_z = lambda z, value=value: value
            assert model.satisfaction_probability(np.zeros(1), budget) == want
