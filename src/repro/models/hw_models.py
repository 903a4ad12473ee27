"""Power and memory predictor wrappers (Equations 1-2).

A :class:`HardwareModel` couples the linear regression of
:mod:`repro.models.linear` with the structural-feature extraction of the
search space, 10-fold cross-validated accuracy reporting (Table 1), and a
residual-scale estimate.  The residual scale is what the HW-CWEI
acquisition (paper Section 3.5) uses to turn a point prediction into a
constraint-satisfaction probability ``Pr(P(z) <= PB)``.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np
from scipy.special import ndtr

from ..space.space import SearchSpace
from .crossval import cross_validate, rmspe
from .linear import LinearModel
from .profiling import ProfilingDataset

__all__ = [
    "HardwareModel",
    "PowerModel",
    "MemoryModel",
    "LatencyModel",
    "fit_hardware_models",
    "fit_latency_model",
]


class HardwareModel:
    """A cross-validated linear predictor over structural features ``z``."""

    #: Human-readable quantity name, set by subclasses.
    quantity = "value"
    #: Unit string for reports, set by subclasses.
    unit = ""

    def __init__(
        self,
        space: SearchSpace,
        fit_intercept: bool = False,
        nonnegative: bool = False,
    ):
        self.space = space
        self.fit_intercept = fit_intercept
        self.nonnegative = nonnegative
        self._model = LinearModel(fit_intercept, nonnegative)
        #: RMSPE (%) from k-fold cross-validation, set by :meth:`fit`.
        self.cv_rmspe_: float | None = None
        #: Std of out-of-fold residuals, set by :meth:`fit` (same unit as y).
        self.residual_std_: float | None = None

    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` has run."""
        return self._model.is_fitted

    @property
    def weights_(self) -> np.ndarray:
        """The fitted weight vector ``w`` (one entry per structural HP)."""
        if not self.is_fitted:
            raise RuntimeError("weights unavailable before fit()")
        return self._model.weights_

    @property
    def intercept_(self) -> float:
        """The fitted intercept (0 in the paper's pure-linear form)."""
        return self._model.intercept_

    def fit(
        self,
        Z: np.ndarray,
        values: np.ndarray,
        cv_folds: int = 10,
        rng: np.random.Generator | None = None,
    ) -> "HardwareModel":
        """Fit on profiled data, recording 10-fold CV accuracy.

        The final model is trained on all ``L`` points; ``cv_rmspe_`` and
        ``residual_std_`` come from the pooled out-of-fold predictions.
        """
        Z = np.atleast_2d(np.asarray(Z, dtype=float))
        values = np.asarray(values, dtype=float).ravel()
        rng = rng or np.random.default_rng(0)
        score, oof_pred = cross_validate(
            lambda: LinearModel(self.fit_intercept, self.nonnegative),
            Z,
            values,
            k=cv_folds,
            rng=rng,
            metric=rmspe,
        )
        self.cv_rmspe_ = score
        self.residual_std_ = float(np.std(values - oof_pred))
        self._model.fit(Z, values)
        return self

    # -- prediction --------------------------------------------------------------

    def predict_z(self, z: np.ndarray) -> float:
        """Predict from a structural vector ``z``."""
        return self._model.predict_one(np.asarray(z, dtype=float))

    def predict_config(self, config: Mapping) -> float:
        """Predict from a full configuration (extracts ``z`` internally)."""
        return self.predict_z(self.space.structural_vector(config))

    def predict_batch(self, Z: np.ndarray) -> np.ndarray:
        """Batch prediction over an ``(n, J)`` design matrix of structural
        vectors — one NumPy call for a whole candidate set.

        This is the entry point the batch-parallel evaluation engine uses
        to screen thousands of candidates per call.  It computes the same
        ``Z @ w`` product as ``predict_z`` applied row by row; the BLAS
        batch kernel may round differently in the last ulp, which is many
        orders of magnitude below the residual margins screening applies.
        """
        return self._model.predict(Z)

    def satisfaction_probability(self, z: np.ndarray, budget: float) -> float:
        """``Pr(quantity(z) <= budget)`` under a Gaussian residual model.

        This is the latent-constraint evaluation HW-CWEI plugs into the
        Constraint-Weighted EI; with a perfectly confident model it reduces
        to the indicator function HW-IECI uses.
        """
        if self.residual_std_ is None:
            raise RuntimeError("satisfaction_probability() before fit()")
        prediction = self.predict_z(z)
        sigma = max(self.residual_std_, 1e-12)
        return float(ndtr((budget - prediction) / sigma))

    def satisfaction_probability_batch(
        self, Z: np.ndarray, budget: float
    ) -> np.ndarray:
        """Vectorised ``Pr(quantity(z) <= budget)`` over an ``(n, J)`` batch."""
        if self.residual_std_ is None:
            raise RuntimeError("satisfaction_probability_batch() before fit()")
        predictions = self.predict_batch(Z)
        sigma = max(self.residual_std_, 1e-12)
        return ndtr((budget - predictions) / sigma)

    def __repr__(self) -> str:
        state = "fitted" if self.is_fitted else "unfitted"
        rmspe_text = (
            f", cv_rmspe={self.cv_rmspe_:.2f}%" if self.cv_rmspe_ is not None else ""
        )
        return f"{type(self).__name__}({state}{rmspe_text})"


class PowerModel(HardwareModel):
    """Equation 1: ``P(z) = sum_j w_j z_j`` (watts)."""

    quantity = "power"
    unit = "W"


class MemoryModel(HardwareModel):
    """Equation 2: ``M(z) = sum_j m_j z_j`` (bytes)."""

    quantity = "memory"
    unit = "bytes"


class LatencyModel(HardwareModel):
    """Linear inference-latency predictor over ``z`` (seconds).

    Not part of the paper's Eq. 1-2, but the same recipe applied to the
    runtime constraint its related work optimizes under [14]; latency is
    a-priori for the same reason power is (structure-only).
    """

    quantity = "latency"
    unit = "s"


def fit_latency_model(
    space: SearchSpace,
    profiled: ProfilingDataset,
    cv_folds: int = 10,
    rng: np.random.Generator | None = None,
    fit_intercept: bool = True,
    nonnegative: bool = False,
) -> LatencyModel:
    """Fit the latency predictor from a profiling campaign."""
    if profiled.latency_s is None:
        raise ValueError("campaign carries no latency measurements")
    model = LatencyModel(space, fit_intercept, nonnegative)
    model.fit(profiled.Z, profiled.latency_s, cv_folds, rng or np.random.default_rng(0))
    return model


def fit_hardware_models(
    space: SearchSpace,
    profiled: ProfilingDataset,
    cv_folds: int = 10,
    rng: np.random.Generator | None = None,
    fit_intercept: bool = False,
    nonnegative: bool = False,
) -> tuple[PowerModel, MemoryModel | None]:
    """Fit the power model and, when measurements exist, the memory model.

    Returns ``(power_model, memory_model)`` with ``memory_model = None`` on
    platforms without a memory API (Tegra TX1, Table 1's missing cells).
    """
    rng = rng or np.random.default_rng(0)
    power_model = PowerModel(space, fit_intercept, nonnegative)
    power_model.fit(profiled.Z, profiled.power_w, cv_folds, rng)
    memory_model: MemoryModel | None = None
    if profiled.has_memory:
        memory_model = MemoryModel(space, fit_intercept, nonnegative)
        memory_model.fit(profiled.Z, profiled.memory_bytes, cv_folds, rng)
    return power_model, memory_model
