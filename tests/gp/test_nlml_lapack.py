"""The marginal likelihood calls LAPACK directly, bit for bit.

``_nlml_terms`` / ``_nlml_value_and_grad`` factor and solve with
``potrf`` / ``potrs`` instead of ``scipy.linalg.cholesky`` / ``cho_solve``.
These tests pin the value and gradient bytes to a reference built on the
scipy wrappers, and the wrappers' failure modes: a non-positive-definite
Gram matrix is an infeasible point, a non-finite one a ``ValueError``.
"""

import numpy as np
import pytest
from scipy import linalg

from repro.gp import gp as gp_module
from repro.gp.gp import _BAD_NLML, _JITTER, GaussianProcess
from repro.gp.kernels import RBF, Matern52


def _model(n, kernel_cls, seed):
    rng = np.random.default_rng(seed)
    X = rng.uniform(size=(n, 4))
    y = np.sin(3.0 * X[:, 0]) + X[:, 1] ** 2 + 0.05 * rng.normal(size=n)
    return GaussianProcess(kernel=kernel_cls(4)).fit(X, y, optimize_hypers=False)


def _reference_terms(model, K):
    """``_nlml_terms`` as written on the scipy wrappers."""
    K[np.diag_indices_from(K)] += model.noise_variance + _JITTER
    try:
        chol = linalg.cholesky(K, lower=True)
    except linalg.LinAlgError:
        return None
    alpha = linalg.cho_solve((chol, True), model._y_std)
    lml = (
        -0.5 * float(model._y_std @ alpha)
        - float(np.sum(np.log(np.diag(chol))))
        - 0.5 * K.shape[0] * np.log(2.0 * np.pi)
    )
    if not np.isfinite(lml):
        return None
    return chol, alpha, -lml


def _reference_value_and_grad(model, packed):
    """``_nlml_value_and_grad`` as written on the scipy wrappers."""
    model._unpack(packed)
    bad = (_BAD_NLML, np.zeros(packed.shape[0]))
    K, dK = model.kernel.value_and_grad(model._X)
    terms = _reference_terms(model, K)
    if terms is None:
        return bad
    chol, alpha, nlml = terms
    K_inv = linalg.cho_solve((chol, True), np.eye(K.shape[0]))
    A = np.outer(alpha, alpha) - K_inv
    grad = np.empty(packed.shape[0])
    grad[:-1] = -0.5 * np.einsum("ij,kij->k", A, dK)
    grad[-1] = -0.5 * model.noise_variance * float(np.trace(A))
    if not np.all(np.isfinite(grad)):
        return bad
    return nlml, grad


def _bytes(value):
    return np.float64(value).tobytes()


@pytest.mark.parametrize("kernel_cls", [Matern52, RBF])
@pytest.mark.parametrize("n", [3, 15, 60])
def test_value_and_gradient_bytes_match_the_scipy_wrappers(n, kernel_cls):
    model = _model(n, kernel_cls, seed=n)
    rng = np.random.default_rng(100 + n)
    start = model._pack()
    for _ in range(5):
        packed = start + rng.normal(scale=0.8, size=start.shape)
        value, grad = model._nlml_value_and_grad(packed.copy())
        want_value, want_grad = _reference_value_and_grad(model, packed.copy())
        assert _bytes(value) == _bytes(want_value)
        assert grad.tobytes() == want_grad.tobytes()
        # The value-only objective evaluates the kernel by its own route.
        model._unpack(packed)
        want = _reference_terms(model, model.kernel(model._X, model._X))
        assert _bytes(model._nlml_value(packed.copy())) == _bytes(want[2])


def test_non_positive_definite_gram_is_infeasible():
    model = _model(3, Matern52, seed=1)
    K = np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(linalg.LinAlgError):
        linalg.cholesky(K + 0.1 * np.eye(3), lower=True)
    assert model._nlml_terms(K) is None
    # Through the objective: test_gradients.py's
    # test_infeasible_theta_returns_flat_penalty.


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_gram_raises_what_check_finite_raises(bad):
    model = _model(3, Matern52, seed=2)
    K = np.eye(3)
    K[2, 0] = bad
    with pytest.raises(ValueError) as want:
        linalg.cholesky(K.copy(), lower=True)
    with pytest.raises(ValueError) as got:
        model._nlml_terms(K.copy())
    assert str(got.value) == str(want.value)


def test_non_finite_targets_raise_what_check_finite_raises():
    model = _model(5, Matern52, seed=3)
    model._y_std = model._y_std.copy()
    model._y_std[1] = np.nan
    with pytest.raises(ValueError) as want:
        linalg.cho_solve((np.eye(5), True), model._y_std)
    with pytest.raises(ValueError) as got:
        model._nlml_value_and_grad(model._pack())
    assert str(got.value) == str(want.value)


def test_fit_loop_makes_no_scipy_cholesky_call(monkeypatch):
    calls = {"cholesky": 0, "in_loop": 0, "objective": 0}
    real_cholesky = linalg.cholesky
    real_objective = GaussianProcess._nlml_value_and_grad
    real_optimize = GaussianProcess._optimize_hypers

    def cholesky(*args, **kwargs):
        calls["cholesky"] += 1
        return real_cholesky(*args, **kwargs)

    def objective(self, packed):
        calls["objective"] += 1
        return real_objective(self, packed)

    def optimize(self, *args):
        before = calls["cholesky"]
        real_optimize(self, *args)
        calls["in_loop"] += calls["cholesky"] - before

    monkeypatch.setattr(gp_module.linalg, "cholesky", cholesky)
    monkeypatch.setattr(GaussianProcess, "_nlml_value_and_grad", objective)
    monkeypatch.setattr(GaussianProcess, "_optimize_hypers", optimize)
    rng = np.random.default_rng(4)
    X = rng.uniform(size=(20, 3))
    GaussianProcess(kernel=Matern52(3)).fit(X, np.cos(4.0 * X[:, 0]), restarts=1)
    assert calls["objective"] > 10
    assert calls["in_loop"] == 0
    # The posterior's own factorisation, after the loop.
    assert calls["cholesky"] == 1
