"""Sparse surrogate tiers: scale BO proposals from hundreds to 10^5 trials.

The exact :class:`~repro.gp.gp.GaussianProcess` costs ``O(n^3)`` per refit
and ``O(n^2)`` per rank-1 append, which caps practical study length at a
few hundred trials.  This module adds two *weight-space* approximations
whose per-operation cost depends on a fixed basis size ``m`` instead of
the observation count ``n``:

* :class:`RandomFourierGP` — random Fourier features (Rahimi & Recht):
  ``phi(x) = sqrt(2 variance / m) cos((x / l) Omega^T + b)`` with
  ``Omega`` drawn from the kernel's spectral density (Matérn-5/2 is a
  multivariate Student-t with 5 degrees of freedom, RBF a Gaussian), so
  ``phi(x)^T phi(x') ~= k(x, x')``.
* :class:`NystromGP` — an inducing-point (Nyström / subset-of-regressors)
  variant: ``phi(x) = L_mm^{-1} k(Z, x)`` with ``K_mm = L_mm L_mm^T`` over
  ``m`` inducing points ``Z`` drawn from the training set, plus the DTC
  variance correction ``max(k(x,x) - phi^T phi, 0)`` so predictive
  variance converges to the exact GP's as ``Z`` densifies.

Both reduce to Bayesian linear regression over the feature map.  With
``Phi`` the ``(n, m)`` design matrix, the posterior is held in the
smaller of two equivalent forms:

* while ``n < m``, the **dual** form: an exact GP on the kernel
  ``Phi Phi^T`` — ``Phi``, ``y`` and the Cholesky factor of the ``n x n``
  matrix ``Phi Phi^T + noise I``, ``O(n m)`` memory.  It shares the exact
  GP's jitter ladder and ``O(n^2)`` bordered-Cholesky append, and
  predicts through ``Phi_train Phi_s^T``;
* from ``n = m`` on (the factor is built once, when an append or a fit
  reaches it), the **weight-space** form: the ``m x m`` sufficient
  statistics ``A = noise I + Phi^T Phi`` (held as a Cholesky factor),
  ``b = Phi^T y``, ``y^T y`` and ``n``.  An **append** is then
  ``O(m^2)`` — a rank-1 Cholesky update of ``A``, *independent of n* —
  and a **predict** ``O(k m^2)`` for ``k`` candidates.

Hyper-parameters are always fitted in the weight space: its negative log
marginal likelihood and **analytic gradients** (w.r.t. log variance, log
length scales, log noise) cost ``O(n m^2 + n m d)`` per optimiser step,
the fused value-and-gradient treatment of the exact tier.  A dual-form
objective is cheaper while ``n < m``, but its accurate gradients reach a
near-zero-noise interpolating optimum the primal form's never do, which
measurably worsened regret against the exact tier; so only the
posterior switches form.

Every class shares the exact GP's skeleton (:class:`~repro.gp.gp._GPCore`)
and its ``fit`` / ``append`` / ``predict`` / ``predict_noisy`` interface
(same signatures, same standardisation semantics, copy-then-append
fantasy safety), so :class:`~repro.core.methods.BayesianOptimizer`, the
constant-liar fantasy path and
:class:`~repro.core.constraints.GPConstraintModel` swap tiers without code
changes.  :func:`make_surrogate` builds a tier by name; ``auto`` is not a
model but a size rule (:func:`resolve_tier`) applied where a model is
built: the exact GP below ``switch_at`` observations, RFF from there on.
The Nyström tier is kept for its refits, which fit on ``m`` inducing
points and at 1,000 observations take about a third of the RFF tier's
time (the ``refit`` row of ``benchmarks/bench_sparse_gp.py``).
"""

from __future__ import annotations

import numpy as np
from scipy import linalg

from .gp import (
    _BAD_NLML,
    _JITTER,
    GaussianProcess,
    _GPCore,
    _nlml_cho_solve,
    _nlml_cholesky,
)
from .kernels import Kernel, Matern52
from .profile import SurrogateProfile

__all__ = [
    "RandomFourierGP",
    "NystromGP",
    "make_surrogate",
    "resolve_tier",
    "SURROGATE_TIERS",
]

#: Tier names accepted by :func:`make_surrogate` (and the CLI).
SURROGATE_TIERS = ("exact", "rff", "nystrom", "auto")

#: Default feature / inducing-point count for the sparse tiers.
DEFAULT_FEATURES = 256

#: Default observation count at which the ``auto`` tier goes sparse.
DEFAULT_SWITCH_AT = 1000


def cholupdate(L: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rank-1 update of a lower Cholesky factor: ``L' L'^T = L L^T + v v^T``.

    Returns a **new** factor (the input is not mutated), which is what
    keeps ``copy.copy(model); model.append(...)`` fantasy-safe.  ``O(m^2)``
    via Givens-style rotations; adding ``v v^T`` to a positive-definite
    matrix cannot lose definiteness, so the update never fails.
    """
    L = np.array(L, dtype=float)
    v = np.array(v, dtype=float).ravel()
    m = L.shape[0]
    for k in range(m):
        r = np.hypot(L[k, k], v[k])
        c = r / L[k, k]
        s = v[k] / L[k, k]
        L[k, k] = r
        if k + 1 < m:
            L[k + 1 :, k] = (L[k + 1 :, k] + s * v[k + 1 :]) / c
            v[k + 1 :] = c * v[k + 1 :] - s * L[k + 1 :, k]
    return L


class _WeightSpaceGP(_GPCore):
    """Shared Bayesian-linear-regression core of the sparse tiers.

    Subclasses provide the feature map (:meth:`_prepare_basis` /
    :meth:`_features`), the marginal-likelihood objectives (or their own
    ``_optimize_hypers``) and an optional additive variance correction;
    the posterior, appends and prediction live here.

    The posterior is held in whichever form is smaller.  While ``n < m``
    it is the dual one of :class:`~repro.gp.gp._GPCore`: an exact GP on
    the kernel ``Phi Phi^T`` with the training features ``_Phi`` kept,
    ``O(n m)`` memory and ``O(n^2 + n m)`` appends.  From ``n = m`` on
    (reached by an append or by a fit) it is the weight-space one: the
    ``m x m`` factor of ``A = noise I + Phi^T Phi``, ``b = Phi^T y`` and
    ``beta = A^{-1} b``, with ``O(m^2)`` appends independent of n.
    """

    #: Tier name recorded on the profile (subclasses override).
    tier = "sparse"

    # Both ``Phi Phi^T + noise I`` and ``A = noise I + Phi^T Phi`` are PD in
    # exact arithmetic; a failed factorisation is pure round-off, so the
    # jitter ladder starts at zero.
    _start_jitter = 0.0

    def __init__(
        self,
        kernel: Kernel | None = None,
        noise_variance: float = 1e-2,
        normalize_y: bool = True,
        profile: SurrogateProfile | None = None,
        feature_seed: int = 0,
    ):
        super().__init__(kernel, noise_variance, normalize_y, profile)
        #: Seed of the basis draws (kept separate from the proposal RNG so
        #: sparse tiers never perturb the caller's random stream).
        self.feature_seed = int(feature_seed)
        #: Dual posterior (``n < m``): training features, targets and the
        #: factor of ``Phi Phi^T + noise I``; ``_Phi`` is None otherwise.
        self._Phi: np.ndarray | None = None
        self._y_std: np.ndarray | None = None
        self._chol: np.ndarray | None = None
        self._alpha: np.ndarray | None = None
        #: Weight-space posterior (``n >= m``): lower Cholesky factor of
        #: ``A = noise I + Phi^T Phi``, ``b = Phi^T y``, ``A^{-1} b`` and
        #: ``y^T y``.
        self._A_chol: np.ndarray | None = None
        self._b: np.ndarray | None = None
        self._beta: np.ndarray | None = None
        self._yty = 0.0
        self._n = 0

    # -- subclass API ----------------------------------------------------------

    def _prepare_basis(self, X: np.ndarray) -> None:
        """Set up the feature basis for a fit on ``X``."""
        raise NotImplementedError

    def _features(self, X: np.ndarray) -> np.ndarray:
        """``(k, m)`` feature matrix at the current hyper-parameters."""
        raise NotImplementedError

    def _extra_variance(self, Xs: np.ndarray, Phi: np.ndarray) -> float:
        """Additive latent-variance correction (0 unless overridden)."""
        return 0.0

    # -- fitting ---------------------------------------------------------------

    @property
    def is_fitted(self) -> bool:
        """Whether the model holds a posterior."""
        return self._chol is not None or self._A_chol is not None

    @property
    def n_observations(self) -> int:
        """Number of observations conditioned on (fit + appends)."""
        return self._n

    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        optimize_hypers: bool = True,
        restarts: int = 3,
        rng: np.random.Generator | None = None,
        gradient: str = "analytic",
    ) -> "_WeightSpaceGP":
        """Condition on data, optionally re-fitting hyper-parameters.

        Same contract as :meth:`repro.gp.gp.GaussianProcess.fit`; cost is
        ``O(n m min(n, m))`` instead of ``O(n^3)``.
        """
        X, y_std = self._fit_data(X, y, gradient)
        self._prepare_basis(X)
        self._fit_hypers(
            X.shape[0], optimize_hypers, restarts, rng, gradient, (X, y_std)
        )
        self._recompute_posterior(X, y_std)
        return self

    def append(self, x: np.ndarray, y: float) -> "_WeightSpaceGP":
        """Condition on one new observation at fixed hyper-parameters.

        ``O(n^2 + n m)`` while ``n < m`` (a bordered Cholesky append of
        the dual factor), the ``m x m`` factor is built once at ``n = m``,
        and from there on ``O(m^2)`` — a rank-1 Cholesky update of ``A``,
        independent of how many observations came before.  All state is
        rebound (never mutated in place), so a ``copy.copy`` of the model
        can be appended to without disturbing the original — the contract
        the constant-liar fantasy path relies on.
        """
        x, y_std = self._append_data(x, y)
        with self._stage("append"):
            phi = self._features(x)[0]
            if self._Phi is None:
                self._A_chol = cholupdate(self._A_chol, phi)
                self._b = self._b + phi * y_std
                self._yty = self._yty + y_std * y_std
                self._n = self._n + 1
                self._beta = linalg.cho_solve((self._A_chol, True), self._b)
            elif self._n + 1 < phi.shape[0]:
                k = self._Phi @ phi
                self._Phi = np.vstack((self._Phi, phi))
                self._n = self._n + 1
                self._append_dual(k, float(phi @ phi), y_std)
            else:
                self._condition(
                    np.vstack((self._Phi, phi)),
                    np.concatenate((self._y_std, [y_std])),
                )
        return self

    def _recompute_posterior(self, X: np.ndarray, y_std: np.ndarray) -> None:
        with self._stage("kernel"):
            Phi = self._features(X)
        self._condition(Phi, y_std)

    def _condition(self, Phi: np.ndarray, y_std: np.ndarray) -> None:
        """Hold the posterior of features ``Phi`` and targets ``y_std``,
        dual while ``n < m`` and weight-space from there on."""
        n, m = Phi.shape
        self._n = n
        if n < m:
            self._Phi, self._y_std = Phi, y_std
            self._A_chol = self._b = self._beta = None
            self._factor_gram()
            return
        self._Phi = self._y_std = self._chol = self._alpha = None
        self._A_chol, _ = self._jittered_cholesky(
            Phi.T @ Phi,
            self.noise_variance,
            self._start_jitter,
            "sparse information matrix lost definiteness at m=%d",
            m,
        )
        self._b = Phi.T @ y_std
        self._yty = float(y_std @ y_std)
        self._beta = linalg.cho_solve((self._A_chol, True), self._b)

    def _gram(self) -> np.ndarray:
        return self._Phi @ self._Phi.T

    # -- prediction ------------------------------------------------------------

    def predict(self, Xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and variance of the *latent* function at ``Xs``.

        Returns a ``(mean, variance)`` pair in original target units;
        ``O(k m min(n, m))`` for ``k`` query points.
        """
        Xs = self._query(Xs)
        with self._stage("kernel"):
            Phi = self._features(Xs)
        if self._Phi is not None:
            mean_std, var_std = self._dual_moments(
                self._Phi @ Phi.T, np.sum(Phi**2, axis=1)
            )
        else:
            mean_std = Phi @ self._beta
            v = linalg.solve_triangular(self._A_chol, Phi.T, lower=True)
            var_std = self.noise_variance * np.sum(v**2, axis=0)
        return self._to_original(
            mean_std, var_std + self._extra_variance(Xs, Phi)
        )

    def log_marginal_likelihood(self) -> float:
        """Log marginal likelihood of ``y ~ N(0, Phi Phi^T + noise I)``.

        Computed from the held posterior alone (no pass over the data).
        In the dual form it is the exact GP's expression.  In the weight
        space, with ``A = noise I + Phi^T Phi``, the matrix determinant
        lemma gives ``log|Phi Phi^T + noise I_n| = log|A| +
        (n - m) log noise`` and the Woodbury identity gives
        ``y^T C^{-1} y = (y^T y - b^T beta) / noise``.
        """
        if not self.is_fitted:
            raise RuntimeError("log_marginal_likelihood() before fit()")
        if self._Phi is not None:
            quad = float(self._y_std @ self._alpha)
            logdet = 2.0 * float(np.sum(np.log(np.diag(self._chol))))
        else:
            m = self._A_chol.shape[0]
            quad = (self._yty - float(self._b @ self._beta)) / self.noise_variance
            logdet = 2.0 * float(np.sum(np.log(np.diag(self._A_chol)))) + (
                self._n - m
            ) * np.log(self.noise_variance)
        return -(0.5 * quad + 0.5 * logdet + 0.5 * self._n * np.log(2.0 * np.pi))


class RandomFourierGP(_WeightSpaceGP):
    """Random-Fourier-feature GP approximation (Rahimi & Recht 2007).

    The spectral basis (``Omega``, phases) is drawn **once** from
    ``feature_seed`` for the unit-length-scale kernel; length scales enter
    by rescaling inputs and the signal variance by rescaling amplitudes,
    so the weight-space marginal likelihood stays differentiable in every
    hyper-parameter through a *fixed* basis — which is what lets the
    analytic-gradient L-BFGS-B treatment of the exact tier carry over.
    """

    tier = "rff"

    def __init__(
        self,
        kernel: Kernel | None = None,
        n_features: int = DEFAULT_FEATURES,
        noise_variance: float = 1e-2,
        normalize_y: bool = True,
        profile: SurrogateProfile | None = None,
        feature_seed: int = 0,
    ):
        if n_features < 1:
            raise ValueError("n_features must be >= 1")
        super().__init__(kernel, noise_variance, normalize_y, profile, feature_seed)
        self.n_features = int(n_features)
        self._omega: np.ndarray | None = None
        self._phases: np.ndarray | None = None

    def _prepare_basis(self, X: np.ndarray) -> None:
        if self._omega is None:
            rng = np.random.default_rng(self.feature_seed)
            self._omega = self.kernel.spectral_weights(self.n_features, rng)
            self._phases = rng.uniform(0.0, 2.0 * np.pi, self.n_features)

    def _features(self, X: np.ndarray) -> np.ndarray:
        amp = np.sqrt(2.0 * self.kernel.variance / self.n_features)
        arg = (X / self.kernel.lengthscales) @ self._omega.T + self._phases
        return amp * np.cos(arg)

    # -- weight-space marginal likelihood --------------------------------------

    def _nlml_pieces(self, X: np.ndarray, y_std: np.ndarray, packed: np.ndarray):
        """Shared forward pass of the NLML value / gradient objectives."""
        self._unpack(packed)
        m = self.n_features
        n = X.shape[0]
        amp = np.sqrt(2.0 * self.kernel.variance / m)
        arg = (X / self.kernel.lengthscales) @ self._omega.T + self._phases
        Phi = amp * np.cos(arg)
        A = Phi.T @ Phi
        A[np.diag_indices_from(A)] += self.noise_variance
        L = _nlml_cholesky(A)
        if L is None:
            return None
        b = Phi.T @ y_std
        beta = _nlml_cho_solve(L, b)
        yty = float(y_std @ y_std)
        quad = (yty - float(b @ beta)) / self.noise_variance
        nlml = (
            0.5 * quad
            + float(np.sum(np.log(np.diag(L))))
            + 0.5 * (n - m) * np.log(self.noise_variance)
            + 0.5 * n * np.log(2.0 * np.pi)
        )
        if not np.isfinite(nlml):
            return None
        return nlml, arg, amp, Phi, L, beta

    def _nlml_value(self, packed, X, y_std) -> float:
        pieces = self._nlml_pieces(X, y_std, packed)
        return _BAD_NLML if pieces is None else pieces[0]

    def _nlml_value_and_grad(self, packed, X, y_std):
        """Fused weight-space NLML and analytic gradient.

        With ``alpha = (y - Phi beta) / noise`` and ``B = Phi A^{-1}``,
        the matrix derivative is ``dNLML/dPhi = B - alpha beta^T``; the
        chain rule through ``Phi = amp cos((X/l) Omega^T + phase)``
        contracts it against ``T = amp sin(arg)`` in one ``(n,m) @ (m,d)``
        product per step — ``O(n m (m + d))`` total, versus the ``p + 1``
        full passes of finite differencing.
        """
        bad = (_BAD_NLML, np.zeros(packed.shape[0]))
        pieces = self._nlml_pieces(X, y_std, packed)
        if pieces is None:
            return bad
        nlml, arg, amp, Phi, L, beta = pieces
        m = self.n_features
        n = X.shape[0]
        noise = self.noise_variance
        L_inv = linalg.solve_triangular(L, np.eye(m), lower=True)
        tr_a_inv = float(np.sum(L_inv**2))
        alpha = (y_std - Phi @ beta) / noise
        B = _nlml_cho_solve(L, Phi.T).T
        grad = np.empty(packed.shape[0])
        # d/d log variance: Phi scales with sqrt(variance), so
        # d(Phi Phi^T)/d log variance = Phi Phi^T.
        grad[0] = -0.5 * float(beta @ beta) + 0.5 * (m - noise * tr_a_inv)
        # d/d log lengthscale_j via the feature-map chain rule.
        T = amp * np.sin(arg)
        M = (B - np.outer(alpha, beta)) * T
        grad[1:-1] = (
            np.sum(X * (M @ self._omega), axis=0) / self.kernel.lengthscales
        )
        # d/d log noise.
        grad[-1] = 0.5 * (
            -noise * float(alpha @ alpha) + (n - m) + noise * tr_a_inv
        )
        if not np.all(np.isfinite(grad)):
            return bad
        return nlml, grad


class NystromGP(_WeightSpaceGP):
    """Inducing-point (Nyström / SoR) GP with the DTC variance correction.

    Inducing points ``Z`` are an ``m``-point subset of the training data
    (drawn deterministically from ``feature_seed``); features are
    ``phi(x) = L_mm^{-1} k(Z, x)`` so ``phi(x)^T phi(x')`` is the Nyström
    kernel.  Subset-of-regressors variance collapses far from ``Z``, so
    prediction adds the DTC correction ``max(k(x,x) - phi^T phi, 0)`` —
    with ``Z`` equal to the full training set the posterior matches the
    exact GP's.  Hyper-parameters are fitted by exact marginal likelihood
    on the inducing subset (subset-of-data), reusing the exact tier's
    analytic-gradient machinery through a shared kernel object.
    """

    tier = "nystrom"

    def __init__(
        self,
        kernel: Kernel | None = None,
        n_inducing: int = DEFAULT_FEATURES,
        noise_variance: float = 1e-2,
        normalize_y: bool = True,
        profile: SurrogateProfile | None = None,
        feature_seed: int = 0,
    ):
        if n_inducing < 1:
            raise ValueError("n_inducing must be >= 1")
        super().__init__(kernel, noise_variance, normalize_y, profile, feature_seed)
        self.n_inducing = int(n_inducing)
        self._Z: np.ndarray | None = None
        self._L_mm: np.ndarray | None = None
        self._subset_idx: np.ndarray | None = None

    def _prepare_basis(self, X: np.ndarray) -> None:
        n = X.shape[0]
        if n <= self.n_inducing:
            idx = np.arange(n)
        else:
            rng = np.random.default_rng(self.feature_seed)
            idx = np.sort(rng.choice(n, size=self.n_inducing, replace=False))
        self._subset_idx = idx
        self._Z = X[idx].copy()
        self._L_mm = None  # refreshed after hyper-parameters settle

    def _factor_inducing(self) -> None:
        self._L_mm, _ = self._jittered_cholesky(
            self.kernel(self._Z, self._Z),
            0.0,
            _JITTER,
            "inducing Gram factorisation failed at m=%d "
            "(near-duplicate inducing points?)",
            self._Z.shape[0],
        )

    def _features(self, X: np.ndarray) -> np.ndarray:
        if self._L_mm is None:
            self._factor_inducing()
        K_mx = self.kernel(self._Z, X)
        return linalg.solve_triangular(self._L_mm, K_mx, lower=True).T

    def _extra_variance(self, Xs: np.ndarray, Phi: np.ndarray) -> np.ndarray:
        # DTC correction: restore the prior variance the subset-of-
        # regressors approximation loses away from the inducing set.
        return np.maximum(self.kernel.diag(Xs) - np.sum(Phi**2, axis=1), 0.0)

    def _optimize_hypers(self, restarts, rng, gradient, args) -> None:
        # Subset-of-data: exact marginal likelihood on the inducing subset,
        # sharing this model's kernel object so theta is written back.
        X, y_std = args
        sub = GaussianProcess(
            kernel=self.kernel,
            noise_variance=self.noise_variance,
            normalize_y=False,
        )
        sub.fit(
            X[self._subset_idx],
            y_std[self._subset_idx],
            optimize_hypers=True,
            restarts=restarts,
            rng=rng,
            gradient=gradient,
        )
        self.noise_variance = sub.noise_variance
        self._L_mm = None  # kernel hypers moved; refactor on next use


def resolve_tier(
    tier: str, n_obs: int, switch_at: int = DEFAULT_SWITCH_AT
) -> str:
    """The concrete tier ``tier`` names for a fit on ``n_obs`` observations.

    ``auto`` is the exact GP below ``switch_at`` and RFF from there on;
    every other name is already concrete and returned unchanged.
    """
    if tier != "auto":
        return tier
    if switch_at < 1:
        raise ValueError("switch_at must be >= 1")
    return "exact" if n_obs < switch_at else "rff"


def make_surrogate(
    tier: str,
    input_dim: int,
    profile: SurrogateProfile | None = None,
    n_features: int = DEFAULT_FEATURES,
    switch_at: int = DEFAULT_SWITCH_AT,
    noise_variance: float = 1e-2,
    normalize_y: bool = True,
    feature_seed: int = 0,
    n_obs: int = 0,
):
    """Build a surrogate for ``tier`` (``exact|rff|nystrom|auto``).

    ``auto`` builds the tier :func:`resolve_tier` picks for a fit on
    ``n_obs`` observations.  The ``exact`` branch constructs the same
    ``GaussianProcess(kernel=Matern52(input_dim), profile=...)`` the
    optimizer always built, so the default tier is byte-identical to the
    pre-sparse code path.
    """
    tier = resolve_tier(tier, n_obs, switch_at)
    common = dict(
        kernel=Matern52(input_dim),
        noise_variance=noise_variance,
        normalize_y=normalize_y,
        profile=profile,
    )
    if tier == "exact":
        return GaussianProcess(**common)
    if tier == "rff":
        return RandomFourierGP(
            n_features=n_features, feature_seed=feature_seed, **common
        )
    if tier == "nystrom":
        return NystromGP(
            n_inducing=n_features, feature_seed=feature_seed, **common
        )
    raise ValueError(
        f"unknown surrogate tier {tier!r}; expected one of {SURROGATE_TIERS}"
    )
