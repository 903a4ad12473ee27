"""Gaussian-process regression (paper Section 3.1).

Implements the surrogate model ``M``: a GP prior ``f | X ~ N(m, K)`` with
noisy observations ``y | f, sigma^2 ~ N(f, sigma^2 I)``, refined by exact
Bayesian posterior updating after each new observation.  Hyper-parameters
(kernel variance, ARD length scales, noise variance) are point-estimated by
maximising the log marginal likelihood with multi-restart L-BFGS-B, the
standard Spearmint-style treatment.

Two hot-path optimisations keep the surrogate cheap inside the
optimization loop:

* the marginal-likelihood optimiser consumes **analytic gradients**
  (a fused value-and-gradient objective built from the kernels'
  ``dK/dtheta``), so each L-BFGS-B step costs one Cholesky factorisation
  instead of the ``p + 1`` factorisations of finite differencing, and
  calls LAPACK's ``potrf``/``potrs`` directly, bit for bit what
  ``scipy.linalg.cholesky``/``cho_solve`` compute, since at the ``n`` of
  a BO loop their argument handling costs more than the factorisation;
* :meth:`GaussianProcess.append` conditions on a new observation with the
  hyper-parameters held fixed via a **rank-1 Cholesky update** —
  ``O(n^2)`` instead of the ``O(n^3)`` full refactorisation, with the
  posterior agreeing with a from-scratch recompute to tight tolerance.

Inputs are expected in the unit hyper-cube; targets are standardised
internally and predictions returned in original units.

:class:`_GPCore` is the skeleton this exact GP shares with the
weight-space tiers of :mod:`repro.gp.sparse`: input validation, target
standardisation, hyper-parameter packing, the multi-restart L-BFGS-B
loop, the jitter-escalating Cholesky ladder and ``predict_noisy``.
"""

from __future__ import annotations

import logging
from contextlib import nullcontext

import numpy as np
from scipy import linalg

from .kernels import Kernel, Matern52
from .normalize import Standardizer
from .profile import SurrogateProfile

__all__ = ["GaussianProcess", "NonFiniteObservationError"]

_log = logging.getLogger(__name__)


class NonFiniteObservationError(ValueError):
    """Raised when a non-finite target would be conditioned on.

    Mirrors :meth:`repro.core.parallel.TrialCache.put`'s rejection of
    non-finite errors: a NaN/inf target silently corrupts the Cholesky
    factor (every subsequent prediction becomes NaN), so the surrogate
    refuses it at the door with a typed error the caller can handle.
    """

#: Diagonal jitter added to keep Cholesky factorisations stable.
_JITTER = 1e-8

#: Ceiling of the jitter escalation ladder: on a failed factorisation the
#: jitter is raised tenfold at a time up to this value before giving up
#: (near-duplicate rows in the candidate pool can make ``K`` numerically
#: singular at the base jitter).
_MAX_JITTER = 1e-4

#: Log-space bounds on the observation-noise variance (standardised units).
_NOISE_LOG_BOUNDS = (np.log(1e-8), np.log(1.0))

#: Objective value returned for numerically infeasible hyper-parameters.
_BAD_NLML = 1e25

#: LAPACK's double-precision Cholesky factorisation and solve, the very
#: functions ``scipy.linalg.cholesky`` and ``cho_solve`` call.
_POTRF, _POTRS = linalg.get_lapack_funcs(("potrf", "potrs"), dtype=np.float64)


def _require_finite(a: np.ndarray) -> None:
    """The ``ValueError`` of scipy's ``check_finite``, for a direct call."""
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")


def _nlml_cholesky(M: np.ndarray) -> np.ndarray | None:
    """``scipy.linalg.cholesky(M, lower=True)`` bit for bit, or ``None``
    where ``M`` is not positive definite (scipy's ``LinAlgError``)."""
    _require_finite(M)
    chol, info = _POTRF(M, lower=True, clean=True)
    if info > 0:
        return None
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of potrf")
    return chol


def _nlml_cho_solve(chol: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``scipy.linalg.cho_solve((chol, True), b)`` bit for bit."""
    _require_finite(b)
    x, info = _POTRS(chol, b, lower=True)
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of potrs")
    return x


class _GPCore:
    """Skeleton shared by the exact GP and the weight-space tiers.

    Everything here but the dual posterior is independent of how the
    posterior is held.  A subclass supplies the representation — its
    ``tier`` name, ``is_fitted``, the NLML objectives ``_nlml_value`` /
    ``_nlml_value_and_grad`` and its own ``fit`` / ``append`` /
    ``predict`` bodies, which stay thin calls into these pieces.

    The *dual* posterior is the function-space one: the lower Cholesky
    factor ``_chol`` of the noisy ``n x n`` Gram matrix ``K + noise I``
    of the training rows (``_gram``), the standardised targets ``_y_std``
    and ``_alpha = (K + noise I)^{-1} y``.  The exact GP always holds it;
    the weight-space tiers hold it while ``n < m``.  Factorisation
    (:meth:`_factor_gram`), the ``O(n^2)`` bordered-Cholesky append
    (:meth:`_append_dual`) and the predictive moments
    (:meth:`_dual_moments`) live here once.
    """

    #: Jitter the Gram factorisation starts its ladder from.
    _start_jitter = _JITTER

    def __init__(
        self,
        kernel: Kernel | None,
        noise_variance: float,
        normalize_y: bool,
        profile: SurrogateProfile | None,
    ):
        if noise_variance <= 0:
            raise ValueError("noise variance must be positive")
        self.kernel = kernel
        self.noise_variance = float(noise_variance)
        self.normalize_y = normalize_y
        self.profile = profile
        self._standardizer = Standardizer()

    def _stage(self, name: str):
        """Timing context for one profiled stage (no-op without profile)."""
        return self.profile.timeit(name) if self.profile is not None else nullcontext()

    def _count(self, op: str) -> None:
        """Count one interface-level op (no-op without profile)."""
        if self.profile is not None:
            self.profile.count_op(op)

    # -- validation and standardisation ----------------------------------------

    def _fit_data(
        self, X: np.ndarray, y: np.ndarray, gradient: str
    ) -> tuple[np.ndarray, np.ndarray]:
        """Validated inputs and standardised targets of one fit.

        Builds the default kernel on first use, counts the fit and records
        the tier on the profile.
        """
        if gradient not in ("analytic", "numeric"):
            raise ValueError(
                f"gradient must be 'analytic' or 'numeric', got {gradient!r}"
            )
        X = np.atleast_2d(np.asarray(X, dtype=float))
        y = np.asarray(y, dtype=float).ravel()
        if X.shape[0] != y.shape[0]:
            raise ValueError(
                f"X has {X.shape[0]} rows but y has {y.shape[0]} entries"
            )
        if X.shape[0] == 0:
            raise ValueError("need at least one observation")
        if self.kernel is None:
            self.kernel = Matern52(X.shape[1])
        if self.kernel.input_dim != X.shape[1]:
            raise ValueError(
                f"kernel dimension {self.kernel.input_dim} != data "
                f"dimension {X.shape[1]}"
            )

        self._count("fits")
        if self.profile is not None:
            self.profile.record_tier(self.tier, X.shape[0])
        if self.normalize_y:
            self._standardizer.fit(y)
            return X, self._standardizer.transform(y)
        self._standardizer = Standardizer.identity()
        return X, y.copy()

    def _append_data(self, x: np.ndarray, y: float) -> tuple[np.ndarray, float]:
        """Validated input and standardised target of one append (counted)."""
        if not self.is_fitted:
            raise RuntimeError("append() before fit()")
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape != (1, self.kernel.input_dim):
            raise ValueError(
                f"expected one {self.kernel.input_dim}-dimensional input, "
                f"got shape {x.shape}"
            )
        y = float(y)
        if not np.isfinite(y):
            raise NonFiniteObservationError(
                f"refusing to append non-finite observation {y!r} at "
                f"n={self.n_observations}"
            )
        y_std = float(self._standardizer.transform(np.array([y]))[0])
        self._count("appends")
        return x, y_std

    def _query(self, Xs: np.ndarray) -> np.ndarray:
        """Validated query points of one predict (counted)."""
        if not self.is_fitted:
            raise RuntimeError("predict() before fit()")
        self._count("predicts")
        return np.atleast_2d(np.asarray(Xs, dtype=float))

    def _to_original(
        self, mean_std: np.ndarray, var_std: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Standardised latent moments in target units (variance floored)."""
        var_std = np.maximum(var_std, 1e-12)
        mean = self._standardizer.inverse_mean(mean_std)
        var = self._standardizer.inverse_variance(var_std)
        return mean, var

    def predict_noisy(self, Xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and variance of a new *observation* at ``Xs``."""
        mean, var = self.predict(Xs)
        noise = self._standardizer.inverse_variance(
            np.full(var.shape, self.noise_variance)
        )
        return mean, var + noise

    # -- hyper-parameters --------------------------------------------------------

    def _pack(self) -> np.ndarray:
        return np.concatenate(
            (self.kernel.get_theta(), [np.log(self.noise_variance)])
        )

    def _unpack(self, packed: np.ndarray) -> None:
        self.kernel.set_theta(packed[:-1])
        self.noise_variance = float(np.exp(packed[-1]))

    def _fit_hypers(
        self,
        n: int,
        optimize_hypers: bool,
        restarts: int,
        rng: np.random.Generator | None,
        gradient: str,
        args: tuple = (),
    ) -> None:
        """Maximise the marginal likelihood (skipped below three points)."""
        if optimize_hypers and n >= 3:
            with self._stage("hyperopt"):
                self._optimize_hypers(
                    restarts, rng or np.random.default_rng(0), gradient, args
                )

    def _optimize_hypers(
        self,
        restarts: int,
        rng: np.random.Generator,
        gradient: str,
        args: tuple,
    ) -> None:
        """Multi-restart L-BFGS-B on the NLML objectives called with ``args``.

        The first start is the current setting (what warm-started refits
        build on); each restart is uniform within the bounds.
        """
        bounds = self.kernel.theta_bounds() + [_NOISE_LOG_BOUNDS]
        lows = np.array([b[0] for b in bounds])
        highs = np.array([b[1] for b in bounds])

        starts = [self._pack()]
        for _ in range(max(0, restarts)):
            starts.append(rng.uniform(lows, highs))

        if gradient == "analytic":
            objective, jac = self._nlml_value_and_grad, True
        else:
            objective, jac = self._nlml_value, None

        # Imported here: scipy.optimize adds ~17 MB to every process that
        # loads it, and the model-free solvers never fit a GP.
        from scipy import optimize

        best_packed = None
        best_value = np.inf
        for start in starts:
            start = np.clip(start, lows, highs)
            result = optimize.minimize(
                objective,
                start,
                args=args,
                method="L-BFGS-B",
                jac=jac,
                bounds=bounds,
            )
            if result.fun < best_value:
                best_value = float(result.fun)
                best_packed = result.x
        if best_packed is not None:
            self._unpack(best_packed)

    # -- factorisation -----------------------------------------------------------

    def _jittered_cholesky(
        self, base: np.ndarray, shift: float, jitter: float, failure: str, *args
    ) -> tuple[np.ndarray, float]:
        """Lower Cholesky factor of ``base + (shift + jitter) I``, and its jitter.

        A failed factorisation raises the jitter tenfold (from ``_JITTER``
        when it starts at zero), logging ``failure % args`` each time, up
        to ``_MAX_JITTER``; past that the error propagates.
        """
        while True:
            M = base.copy()
            M[np.diag_indices_from(M)] += shift + jitter
            try:
                with self._stage("cholesky"):
                    return linalg.cholesky(M, lower=True), jitter
            except linalg.LinAlgError:
                if jitter >= _MAX_JITTER:
                    raise
                jitter = _JITTER if jitter == 0.0 else jitter * 10.0
                _log.warning(
                    failure + "; escalating jitter to %.1e", *args, jitter
                )

    # -- dual posterior ----------------------------------------------------------

    def _gram(self) -> np.ndarray:
        """Noise-free ``n x n`` prior covariance of the training rows."""
        raise NotImplementedError

    def _factor_gram(self) -> None:
        """Factor ``_gram() + noise I`` from scratch (jitter-escalating)."""
        with self._stage("kernel"):
            K = self._gram()
        self._chol, self._jitter = self._jittered_cholesky(
            K,
            self.noise_variance,
            self._start_jitter,
            "Cholesky factorisation failed at n=%d (near-duplicate inputs?)",
            K.shape[0],
        )
        self._alpha = linalg.cho_solve((self._chol, True), self._y_std)

    def _append_dual(self, k: np.ndarray, k_self: float, y_std: float) -> None:
        """Border the dual factor by one observation at fixed hypers.

        The caller has already stacked the new input onto its training
        rows; ``k`` is its prior covariance with the earlier rows and
        ``k_self`` its prior variance.  Extends ``_chol`` by one row
        (``O(n^2)``) instead of refactorising (``O(n^3)``), and falls back
        to a full (jitter-escalating) refactorisation if the new row makes
        the extended matrix numerically non-positive-definite.  All state
        is rebound, never mutated in place, so a ``copy.copy`` of the
        model can be appended to without disturbing the original.
        """
        c = linalg.solve_triangular(self._chol, k, lower=True)
        d_sq = k_self + self.noise_variance + self._jitter - float(c @ c)
        self._y_std = np.concatenate((self._y_std, [y_std]))
        n = self._chol.shape[0]
        if d_sq <= 0.0:
            # The extended matrix lost positive-definiteness at this
            # jitter; rebuild from scratch (escalating as needed).
            _log.warning(
                "rank-1 Cholesky update failed (pivot %.3g <= 0 at "
                "n=%d); falling back to a full refactorisation",
                d_sq,
                n + 1,
            )
            self._factor_gram()
            return
        chol = np.zeros((n + 1, n + 1))
        chol[:n, :n] = self._chol
        chol[n, :n] = c
        chol[n, n] = np.sqrt(d_sq)
        self._chol = chol
        self._alpha = linalg.cho_solve((self._chol, True), self._y_std)

    def _dual_moments(
        self, Ks: np.ndarray, prior_var: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Standardised latent mean and variance at queries whose prior
        covariance with the training rows is ``Ks`` (``n x k``) and whose
        prior variance is ``prior_var``."""
        mean_std = Ks.T @ self._alpha
        v = linalg.solve_triangular(self._chol, Ks, lower=True)
        return mean_std, prior_var - np.sum(v**2, axis=0)


class GaussianProcess(_GPCore):
    """Exact GP regression with marginal-likelihood hyper-parameter fitting.

    Parameters
    ----------
    kernel:
        Covariance function; defaults to an ARD Matérn-5/2 when first
        fitted (built to match the data dimensionality).
    noise_variance:
        Initial observation-noise variance in *standardised* target units.
    normalize_y:
        Standardise targets before fitting (recommended).
    profile:
        Optional :class:`~repro.gp.profile.SurrogateProfile` accumulating
        per-stage wall-clock timings (kernel, Cholesky, hyper-opt, append).
    """

    #: Tier name recorded on the profile at each fit.
    tier = "exact"

    def __init__(
        self,
        kernel: Kernel | None = None,
        noise_variance: float = 1e-2,
        normalize_y: bool = True,
        profile: SurrogateProfile | None = None,
    ):
        super().__init__(kernel, noise_variance, normalize_y, profile)
        self._X: np.ndarray | None = None
        self._y_std: np.ndarray | None = None
        self._chol: np.ndarray | None = None
        self._alpha: np.ndarray | None = None
        #: Jitter backing the current factorisation (may have escalated).
        self._jitter = _JITTER

    # -- fitting -------------------------------------------------------------

    @property
    def is_fitted(self) -> bool:
        """Whether the model holds a posterior."""
        return self._chol is not None

    @property
    def n_observations(self) -> int:
        """Number of training observations."""
        return 0 if self._X is None else self._X.shape[0]

    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        optimize_hypers: bool = True,
        restarts: int = 3,
        rng: np.random.Generator | None = None,
        gradient: str = "analytic",
    ) -> "GaussianProcess":
        """Condition on data, optionally re-fitting hyper-parameters.

        Parameters
        ----------
        X:
            ``(n, d)`` inputs in the unit hyper-cube.
        y:
            ``(n,)`` targets.
        optimize_hypers:
            Maximise the log marginal likelihood over kernel and noise
            hyper-parameters.
        restarts:
            Extra random restarts of the optimiser (the first start is the
            current hyper-parameter setting, which is what refit scheduling
            warm-starts from).
        rng:
            Source of restart starting points.
        gradient:
            ``'analytic'`` (default) drives L-BFGS-B with the fused
            value-and-gradient marginal likelihood; ``'numeric'`` falls
            back to finite differencing (kept as the benchmark baseline).
        """
        self._X, self._y_std = self._fit_data(X, y, gradient)
        self._fit_hypers(
            self._X.shape[0], optimize_hypers, restarts, rng, gradient
        )
        self._factor_gram()
        return self

    def append(self, x: np.ndarray, y: float) -> "GaussianProcess":
        """Condition on one new observation at fixed hyper-parameters.

        Extends the Cholesky factor by one row (``O(n^2)``) instead of
        refactorising (``O(n^3)``); the target standardisation is the one
        of the last :meth:`fit`, so the posterior is exactly the one a full
        recompute at the current hyper-parameters would produce.  Falls
        back to a full (jitter-escalating) refactorisation if the new row
        makes the extended matrix numerically non-positive-definite.
        """
        x, y_std = self._append_data(x, y)
        with self._stage("append"):
            k = self.kernel(self._X, x)[:, 0]
            self._X = np.vstack((self._X, x))
            self._append_dual(k, float(self.kernel.diag(x)[0]), y_std)
        return self

    def _nlml_terms(self, K: np.ndarray):
        """``(chol, alpha, nlml)`` of the Gram matrix ``K`` (noise added in
        place), or ``None`` where it is numerically infeasible."""
        K[np.diag_indices_from(K)] += self.noise_variance + _JITTER
        chol = _nlml_cholesky(K)
        if chol is None:
            return None
        alpha = _nlml_cho_solve(chol, self._y_std)
        lml = (
            -0.5 * float(self._y_std @ alpha)
            - float(np.sum(np.log(np.diag(chol))))
            - 0.5 * K.shape[0] * np.log(2.0 * np.pi)
        )
        if not np.isfinite(lml):
            return None
        return chol, alpha, -lml

    def _nlml_value(self, packed: np.ndarray) -> float:
        """Negative log marginal likelihood at ``packed`` hyper-parameters."""
        self._unpack(packed)
        terms = self._nlml_terms(self.kernel(self._X, self._X))
        return _BAD_NLML if terms is None else terms[2]

    def _nlml_value_and_grad(
        self, packed: np.ndarray
    ) -> tuple[float, np.ndarray]:
        """Fused negative log marginal likelihood and its analytic gradient.

        One kernel evaluation and one Cholesky factorisation per call —
        the gradient reuses both via the standard identity
        ``d LML / d theta_j = 0.5 tr((alpha alpha^T - K^{-1}) dK/dtheta_j)``
        — where finite differencing would cost ``p + 1`` factorisations.
        """
        self._unpack(packed)
        bad = (_BAD_NLML, np.zeros(packed.shape[0]))
        K, dK = self.kernel.value_and_grad(self._X)
        terms = self._nlml_terms(K)
        if terms is None:
            return bad
        chol, alpha, nlml = terms
        # A = alpha alpha^T - K^{-1}; grad_j = -0.5 sum(A * dK_j).
        K_inv = _nlml_cho_solve(chol, np.eye(K.shape[0]))
        A = np.outer(alpha, alpha) - K_inv
        grad = np.empty(packed.shape[0])
        grad[:-1] = -0.5 * np.einsum("ij,kij->k", A, dK)
        # dK/d log noise_variance = noise_variance * I.
        grad[-1] = -0.5 * self.noise_variance * float(np.trace(A))
        if not np.all(np.isfinite(grad)):
            return bad
        return nlml, grad

    def _gram(self) -> np.ndarray:
        return self.kernel(self._X, self._X)

    # -- prediction ------------------------------------------------------------

    def predict(self, Xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and variance of the *latent* function at ``Xs``.

        Returns a ``(mean, variance)`` pair in original target units.
        """
        Xs = self._query(Xs)
        with self._stage("kernel"):
            Ks = self.kernel(self._X, Xs)
        return self._to_original(*self._dual_moments(Ks, self.kernel.diag(Xs)))

    def log_marginal_likelihood(self) -> float:
        """Log marginal likelihood at the current hyper-parameters."""
        if not self.is_fitted:
            raise RuntimeError("log_marginal_likelihood() before fit()")
        return -self._nlml_value(self._pack())
