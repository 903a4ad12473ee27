"""Tests for the sparse surrogate tiers (repro.gp.sparse).

The load-bearing properties:

* RFF / Nyström posteriors converge to the exact GP's (mean *and*
  variance) as the feature / inducing-point count grows — the hypothesis
  suites below pin this on random draws;
* appends are exact: an ``O(m^2)`` rank-1 update equals a from-scratch
  refit at the same hyper-parameters;
* the analytic weight-space NLML gradient matches finite differences;
* ``copy.copy`` + ``append`` never disturbs the original (the constant-
  liar fantasy contract);
* non-finite targets are rejected with the typed error;
* ``auto`` below its threshold is *the exact tier*, not an approximation
  of it, and crossing it is recorded and logged where the tier is chosen.
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

from repro.core.acquisition import ExpectedImprovement
from repro.core.methods import BayesianOptimizer, SearchState
from repro.gp import (
    GaussianProcess,
    Matern52,
    NonFiniteObservationError,
    NystromGP,
    RandomFourierGP,
    RBF,
    SurrogateProfile,
    make_surrogate,
)
from repro.gp.sparse import cholupdate, resolve_tier
from repro.space import mnist_space

pytestmark = pytest.mark.sparse_gp

DIM = 3


def _toy(n, seed=0, d=DIM, noise=0.05):
    rng = np.random.default_rng(seed)
    X = rng.uniform(size=(n, d))
    y = (
        np.sin(3.0 * X[:, 0])
        + 0.5 * np.cos(5.0 * X[:, 1])
        + noise * rng.standard_normal(n)
    )
    return X, y


def _posterior_error(approx, exact, Xq):
    """(max mean error, max variance error) between two fitted models."""
    mean_a, var_a = approx.predict(Xq)
    mean_e, var_e = exact.predict(Xq)
    return float(np.max(np.abs(mean_a - mean_e))), float(
        np.max(np.abs(var_a - var_e))
    )


def _kernel():
    return Matern52(DIM, variance=1.0, lengthscales=0.35)


class TestCholupdate:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 12))
    def test_matches_dense_refactorisation(self, seed, m):
        rng = np.random.default_rng(seed)
        B = rng.standard_normal((m, m))
        A = B @ B.T + m * np.eye(m)
        v = rng.standard_normal(m)
        L = np.linalg.cholesky(A)
        updated = cholupdate(L, v)
        expected = np.linalg.cholesky(A + np.outer(v, v))
        np.testing.assert_allclose(updated, expected, atol=1e-8)

    def test_input_factor_not_mutated(self):
        rng = np.random.default_rng(3)
        A = np.eye(4) + 0.1 * np.ones((4, 4))
        L = np.linalg.cholesky(A)
        before = L.copy()
        cholupdate(L, rng.standard_normal(4))
        np.testing.assert_array_equal(L, before)


class TestRFFConvergence:
    @settings(max_examples=8, deadline=None)
    @given(st.integers(0, 10_000))
    def test_posterior_converges_to_exact_gp(self, seed):
        X, y = _toy(40, seed=seed)
        Xq = np.random.default_rng(seed + 1).uniform(size=(25, DIM))
        exact = GaussianProcess(kernel=_kernel(), noise_variance=0.02)
        exact.fit(X, y, optimize_hypers=False)
        errors = []
        for m in (128, 8192):
            rff = RandomFourierGP(
                kernel=_kernel(), n_features=m, noise_variance=0.02,
                feature_seed=seed,
            )
            rff.fit(X, y, optimize_hypers=False)
            errors.append(_posterior_error(rff, exact, Xq))
        scale = float(np.std(y)) + 1e-12
        # More features → closer posterior; tight-ish at m=8192 (the RFF
        # error is O(1/sqrt(m)) with a draw-dependent constant).
        assert errors[1][0] <= errors[0][0] + 0.05 * scale
        assert errors[1][1] <= errors[0][1] + 0.05
        assert errors[1][0] <= 0.35 * scale
        assert errors[1][1] <= 0.12

    @pytest.mark.parametrize("kernel_cls", [Matern52, RBF])
    def test_feature_map_approximates_kernel(self, kernel_cls):
        kernel = kernel_cls(DIM, variance=1.4, lengthscales=0.5)
        rff = RandomFourierGP(kernel=kernel, n_features=20_000, feature_seed=2)
        X, y = _toy(25, seed=9)
        rff.fit(X, y, optimize_hypers=False)
        Phi = rff._features(X)
        np.testing.assert_allclose(Phi @ Phi.T, kernel(X, X), atol=0.1)


def _weight_space_reference(rff, X, y_std, Xq):
    """Mean, variance and log marginal likelihood of the explicit
    ``m x m`` Bayesian linear regression over ``rff``'s feature map."""
    Phi, Phi_q = rff._features(X), rff._features(Xq)
    noise = rff.noise_variance
    n, m = Phi.shape
    A = Phi.T @ Phi + noise * np.eye(m)
    b = Phi.T @ y_std
    beta = np.linalg.solve(A, b)
    var = noise * np.sum(Phi_q * np.linalg.solve(A, Phi_q.T).T, axis=1)
    _, logdet_a = np.linalg.slogdet(A)
    lml = -0.5 * (
        (y_std @ y_std - b @ beta) / noise
        + logdet_a
        + (n - m) * np.log(noise)
        + n * np.log(2.0 * np.pi)
    )
    return Phi_q @ beta, var, lml


class TestDualPosterior:
    """While ``n < m`` RFF holds the ``n x n`` dual posterior; it must be
    the weight-space posterior, and appends must hand over to the
    ``m x m`` factor once ``n`` reaches ``m``."""

    M = 40

    def _rff(self, noise=0.05):
        return RandomFourierGP(
            kernel=_kernel(), n_features=self.M, noise_variance=noise,
            normalize_y=False, feature_seed=3,
        )

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(0, 10_000),
        st.integers(1, M - 1),
        st.sampled_from([0.01, 0.05, 0.3]),
    )
    def test_matches_explicit_weight_space_formulas(self, seed, n, noise):
        X, y = _toy(n, seed=seed)
        Xq = np.random.default_rng(seed + 1).uniform(size=(15, DIM))
        rff = self._rff(noise).fit(X, y, optimize_hypers=False)
        assert rff._Phi is not None and rff._A_chol is None
        mean_ref, var_ref, lml_ref = _weight_space_reference(rff, X, y, Xq)
        mean, var = rff.predict(Xq)
        np.testing.assert_allclose(mean, mean_ref, rtol=1e-8, atol=1e-12)
        np.testing.assert_allclose(var, var_ref, rtol=1e-8)
        assert rff.log_marginal_likelihood() == pytest.approx(lml_ref, rel=1e-8)

    def test_appends_across_n_equals_m_match_a_fresh_fit(self):
        X, y = _toy(self.M + 4, seed=21)
        appended = self._rff().fit(X[: self.M - 3], y[: self.M - 3],
                                   optimize_hypers=False)
        for i in range(self.M - 3, self.M + 4):
            appended.append(X[i], y[i])
            assert (appended._Phi is None) == (i + 1 >= self.M)
        assert appended._A_chol.shape == (self.M, self.M)
        fresh = self._rff().fit(X, y, optimize_hypers=False)
        Xq = np.random.default_rng(22).uniform(size=(20, DIM))
        for got, want in zip(appended.predict(Xq), fresh.predict(Xq)):
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)
        assert appended.log_marginal_likelihood() == pytest.approx(
            fresh.log_marginal_likelihood(), rel=1e-9
        )
        assert appended.n_observations == fresh.n_observations == self.M + 4

    def test_copy_then_append_across_boundary_leaves_original_untouched(self):
        X, y = _toy(self.M - 1, seed=23)
        model = self._rff().fit(X, y, optimize_hypers=False)
        Xq = np.random.default_rng(24).uniform(size=(6, DIM))
        before = model.predict(Xq)
        fantasy = copy.copy(model)
        fantasy.append(Xq[0], 0.25)
        assert fantasy._Phi is None and model._Phi.shape == (self.M - 1, self.M)
        after = model.predict(Xq)
        np.testing.assert_array_equal(before[0], after[0])
        np.testing.assert_array_equal(before[1], after[1])
        assert fantasy.n_observations == model.n_observations + 1
        assert fantasy.predict(Xq[:1])[0][0] != before[0][0]


class TestNystromConvergence:
    @settings(max_examples=8, deadline=None)
    @given(st.integers(0, 10_000))
    def test_posterior_converges_to_exact_gp(self, seed):
        n = 40
        X, y = _toy(n, seed=seed)
        Xq = np.random.default_rng(seed + 1).uniform(size=(25, DIM))
        exact = GaussianProcess(kernel=_kernel(), noise_variance=0.02)
        exact.fit(X, y, optimize_hypers=False)
        errors = []
        for m in (10, n):
            nys = NystromGP(
                kernel=_kernel(), n_inducing=m, noise_variance=0.02,
                feature_seed=seed,
            )
            nys.fit(X, y, optimize_hypers=False)
            errors.append(_posterior_error(nys, exact, Xq))
        # Densifying the inducing set shrinks the error, and with Z equal
        # to the full training set the DTC posterior *is* the exact GP.
        assert errors[1][0] <= errors[0][0] + 1e-8
        assert errors[1][1] <= errors[0][1] + 1e-8
        assert errors[1][0] <= 1e-6
        assert errors[1][1] <= 1e-6

    def test_dtc_variance_never_collapses_below_floor(self):
        # SoR alone reports ~zero variance far from the inducing set; the
        # DTC correction restores the prior there.
        X, y = _toy(30, seed=4)
        nys = NystromGP(kernel=_kernel(), n_inducing=8, noise_variance=0.02)
        nys.fit(X, y, optimize_hypers=False)
        far = np.full((1, DIM), 50.0)
        _, var = nys.predict(far)
        prior_var = nys._standardizer.inverse_variance(
            np.array([nys.kernel.variance])
        )
        assert var[0] >= 0.5 * prior_var[0]


class TestAppendExactness:
    @pytest.mark.parametrize("tier", ["rff", "nystrom"])
    def test_append_matches_refit_at_fixed_basis(self, tier):
        X, y = _toy(60, seed=5)
        a = make_surrogate(tier, DIM, n_features=64)
        a.fit(X[:50], y[:50], optimize_hypers=False)
        for i in range(50, 60):
            a.append(X[i], y[i])
        # Reference: same basis + standardizer, posterior rebuilt densely.
        b = make_surrogate(tier, DIM, n_features=64)
        b.fit(X[:50], y[:50], optimize_hypers=False)
        b._recompute_posterior(X, b._standardizer.transform(y))
        Xq = np.random.default_rng(6).uniform(size=(20, DIM))
        mean_a, var_a = a.predict(Xq)
        mean_b, var_b = b.predict(Xq)
        np.testing.assert_allclose(mean_a, mean_b, atol=1e-9)
        np.testing.assert_allclose(var_a, var_b, atol=1e-9)
        assert a.n_observations == 60

    @pytest.mark.parametrize("tier", ["rff", "nystrom"])
    def test_copy_then_append_leaves_original_untouched(self, tier):
        X, y = _toy(30, seed=7)
        model = make_surrogate(tier, DIM, n_features=48)
        model.fit(X, y, optimize_hypers=False)
        Xq = np.random.default_rng(8).uniform(size=(5, DIM))
        before = model.predict(Xq)
        fantasy = copy.copy(model)
        fantasy.append(Xq[0], 0.25)
        after = model.predict(Xq)
        np.testing.assert_array_equal(before[0], after[0])
        np.testing.assert_array_equal(before[1], after[1])
        assert fantasy.n_observations == model.n_observations + 1
        # ... and the fantasy actually conditioned on the lie.
        mean_f, _ = fantasy.predict(Xq[:1])
        assert mean_f[0] != before[0][0]


class TestNonFiniteGuard:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: GaussianProcess(kernel=_kernel()),
            lambda: RandomFourierGP(kernel=_kernel(), n_features=32),
            lambda: NystromGP(kernel=_kernel(), n_inducing=16),
        ],
        ids=["exact", "rff", "nystrom"],
    )
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_append_rejects_non_finite_targets(self, factory, bad):
        X, y = _toy(10, seed=1)
        model = factory().fit(X, y, optimize_hypers=False)
        before = model.predict(X[:3])
        with pytest.raises(NonFiniteObservationError):
            model.append(X[0], bad)
        # The posterior survived intact (no corrupted factor).
        after = model.predict(X[:3])
        np.testing.assert_array_equal(before[0], after[0])
        assert np.all(np.isfinite(after[0]))

    def test_typed_error_is_a_value_error(self):
        assert issubclass(NonFiniteObservationError, ValueError)


class TestRFFGradients:
    @pytest.mark.parametrize("kernel_cls", [Matern52, RBF])
    def test_analytic_gradient_matches_finite_differences(self, kernel_cls):
        X, y = _toy(35, seed=11)
        rff = RandomFourierGP(
            kernel=kernel_cls(DIM, variance=1.3, lengthscales=0.4),
            n_features=96,
            noise_variance=0.05,
        )
        rff.fit(X, y, optimize_hypers=False)
        y_std = rff._standardizer.transform(y)
        packed = rff._pack()
        _, grad = rff._nlml_value_and_grad(packed, X, y_std)
        numeric = optimize.approx_fprime(
            packed, lambda p: rff._nlml_value(p, X, y_std), 1e-6
        )
        np.testing.assert_allclose(grad, numeric, rtol=5e-3, atol=1e-5)

    def test_hyperopt_improves_marginal_likelihood(self):
        X, y = _toy(40, seed=12)
        cold = RandomFourierGP(kernel=Matern52(DIM), n_features=64)
        cold.fit(X, y, optimize_hypers=False)
        lml_cold = cold.log_marginal_likelihood()
        fit = RandomFourierGP(kernel=Matern52(DIM), n_features=64)
        fit.fit(X, y, restarts=2, rng=np.random.default_rng(0))
        assert fit.log_marginal_likelihood() >= lml_cold - 1e-9

    def test_weight_space_lml_matches_dense_function_space(self):
        # The sufficient-statistic NLML must equal the dense marginal of
        # the Bayesian linear model  y ~ N(0, Phi Phi^T + noise I).
        X, y = _toy(20, seed=13)
        rff = RandomFourierGP(
            kernel=_kernel(), n_features=32, noise_variance=0.04
        )
        rff.fit(X, y, optimize_hypers=False)
        Phi = rff._features(X)
        y_std = rff._standardizer.transform(y)
        C = Phi @ Phi.T + rff.noise_variance * np.eye(len(y))
        sign, logdet = np.linalg.slogdet(C)
        dense = -0.5 * float(y_std @ np.linalg.solve(C, y_std)) - 0.5 * (
            logdet + len(y) * np.log(2.0 * np.pi)
        )
        assert rff.log_marginal_likelihood() == pytest.approx(dense, rel=1e-9)


class TestAutoSurrogate:
    def test_exact_below_threshold_is_the_exact_tier(self):
        X, y = _toy(30, seed=14)
        auto = make_surrogate("auto", DIM, switch_at=100, n_obs=len(y))
        auto.fit(X, y, restarts=2, rng=np.random.default_rng(5))
        assert auto.tier == "exact"
        assert isinstance(auto, GaussianProcess)
        plain = GaussianProcess(kernel=Matern52(DIM))
        plain.fit(X, y, restarts=2, rng=np.random.default_rng(5))
        Xq = np.random.default_rng(6).uniform(size=(10, DIM))
        np.testing.assert_array_equal(
            auto.predict(Xq)[0], plain.predict(Xq)[0]
        )
        np.testing.assert_array_equal(
            auto.predict(Xq)[1], plain.predict(Xq)[1]
        )

    def test_transition_is_recorded_on_profile_and_logged(self, caplog):
        space = mnist_space()
        opt = BayesianOptimizer(
            space, ExpectedImprovement(), gp_restarts=0, surrogate="auto",
            surrogate_switch_at=25, surrogate_features=48,
        )
        rng = np.random.default_rng(15)
        configs = [space.sample(rng) for _ in range(40)]
        errors = list(np.linspace(0.1, 0.9, 40))
        state = SearchState(
            trained_configs=configs[:20], trained_errors=errors[:20]
        )
        gp, _, _ = opt._surrogate(state, rng)
        assert gp.tier == "exact"
        assert opt.surrogate_profile.tier == "exact"
        state = SearchState(trained_configs=configs, trained_errors=errors)
        with caplog.at_level("INFO", logger="repro.core.methods"):
            gp, _, _ = opt._surrogate(state, rng)
        assert isinstance(gp, RandomFourierGP)
        assert opt.surrogate_profile.tier == "rff"
        assert opt.surrogate_profile.tier_transitions == [
            {"from": None, "to": "exact", "n_obs": 20},
            {"from": "exact", "to": "rff", "n_obs": 40},
        ]
        assert any("tier transition" in r.message for r in caplog.records)

    def test_size_rule(self):
        assert resolve_tier("auto", 24, switch_at=25) == "exact"
        assert resolve_tier("auto", 25, switch_at=25) == "rff"
        assert resolve_tier("nystrom", 10**6, switch_at=25) == "nystrom"
        with pytest.raises(ValueError):
            make_surrogate("auto", DIM, switch_at=0)


class TestFactoryAndProfile:
    def test_unknown_tier_rejected(self):
        with pytest.raises(ValueError):
            make_surrogate("dense", DIM)

    @pytest.mark.parametrize("tier,cls", [
        ("exact", GaussianProcess),
        ("rff", RandomFourierGP),
        ("nystrom", NystromGP),
        ("auto", GaussianProcess),
    ])
    def test_factory_builds_the_right_tier(self, tier, cls):
        assert isinstance(make_surrogate(tier, DIM), cls)

    def test_sparse_ops_and_tier_land_on_profile(self):
        profile = SurrogateProfile()
        X, y = _toy(20, seed=17)
        rff = RandomFourierGP(
            kernel=_kernel(), n_features=32, profile=profile
        )
        rff.fit(X[:18], y[:18], optimize_hypers=False)
        rff.append(X[18], y[18])
        rff.append(X[19], y[19])
        rff.predict(X[:4])
        report = profile.as_dict()
        assert report["ops"] == {"fits": 1, "appends": 2, "predicts": 1}
        assert report["tier"] == "rff"
        for stage in ("kernel", "cholesky", "append"):
            assert report["stages"][stage]["calls"] >= 1

    def test_profile_merge_carries_ops_and_tier(self):
        a, b = SurrogateProfile(), SurrogateProfile()
        a.count_op("fits")
        b.count_op("fits")
        b.count_op("appends", 3)
        b.record_tier("rff", 120)
        a.merge(b)
        assert a.ops == {"fits": 2, "appends": 3}
        assert a.tier == "rff"
        assert a.tier_transitions == [{"from": None, "to": "rff", "n_obs": 120}]

    @pytest.mark.parametrize("tier", ["rff", "nystrom"])
    def test_append_cost_independent_of_history(self, tier):
        """The O(m^2) contract: append cost must not grow with n."""
        import time

        model = make_surrogate(tier, DIM, n_features=64)
        X, y = _toy(3000, seed=18)
        model.fit(X[:200], y[:200], optimize_hypers=False)
        t0 = time.perf_counter()
        for i in range(200, 300):
            model.append(X[i], y[i])
        early = time.perf_counter() - t0
        for i in range(300, 2900):
            model.append(X[i], y[i])
        t0 = time.perf_counter()
        for i in range(2900, 3000):
            model.append(X[i], y[i])
        late = time.perf_counter() - t0
        # Same 100-append batch after 2600 more observations: flat cost
        # (generous 5x slack absorbs timer noise on busy CI boxes).
        assert late <= 5.0 * early + 0.05
