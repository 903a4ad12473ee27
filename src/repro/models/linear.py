"""Linear regression for the power/memory predictors (Equations 1-2).

The paper models power and memory as functions *linear in both* the
structural hyper-parameter vector ``z`` and the weights:

``P(z) = sum_j w_j z_j``        ``M(z) = sum_j m_j z_j``

:class:`LinearModel` implements exactly that least-squares fit, with two
documented extensions used by the ablation benches:

* ``fit_intercept`` — adds a constant feature.  The paper's formulation has
  no intercept; it works because ``z`` never vanishes on the sampled
  ranges, so the constant platform power/overhead is absorbed into the
  feature weights.
* ``nonnegative`` — constrains weights to be >= 0 via NNLS, a physically
  sensible prior (more features can't reduce power).
"""

from __future__ import annotations

import numpy as np

__all__ = ["LinearModel"]


class LinearModel:
    """Least-squares linear regression ``y ~ X @ w (+ b)``."""

    def __init__(self, fit_intercept: bool = False, nonnegative: bool = False):
        self.fit_intercept = fit_intercept
        self.nonnegative = nonnegative
        self.weights_: np.ndarray | None = None
        self.intercept_: float = 0.0

    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` has run."""
        return self.weights_ is not None

    def _design(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if self.fit_intercept:
            ones = np.ones((X.shape[0], 1))
            return np.hstack([X, ones])
        return X

    def fit(self, X: np.ndarray, y: np.ndarray) -> "LinearModel":
        """Fit the model on design matrix ``X`` and targets ``y``."""
        y = np.asarray(y, dtype=float).ravel()
        design = self._design(X)
        if design.shape[0] != y.shape[0]:
            raise ValueError(
                f"X has {design.shape[0]} rows but y has {y.shape[0]} entries"
            )
        if design.shape[0] < design.shape[1]:
            raise ValueError(
                f"under-determined fit: {design.shape[0]} samples for "
                f"{design.shape[1]} coefficients"
            )
        if self.nonnegative:
            # Imported here: scipy.optimize adds ~17 MB to every process
            # that loads it, and only the NNLS ablation needs it.
            from scipy import optimize

            coef, _ = optimize.nnls(design, y)
        else:
            coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        if self.fit_intercept:
            self.weights_ = coef[:-1]
            self.intercept_ = float(coef[-1])
        else:
            self.weights_ = coef
            self.intercept_ = 0.0
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predict targets for design matrix ``X``."""
        if not self.is_fitted:
            raise RuntimeError("predict() before fit()")
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[1] != self.weights_.shape[0]:
            raise ValueError(
                f"model has {self.weights_.shape[0]} features, input has "
                f"{X.shape[1]}"
            )
        return X @ self.weights_ + self.intercept_

    def predict_one(self, z: np.ndarray) -> float:
        """Predict the target for a single feature vector."""
        return float(self.predict(np.atleast_2d(z))[0])
