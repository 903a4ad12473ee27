"""Acquisition functions (paper Sections 3.1, 3.4, 3.5).

All acquisitions are built on the Expected Improvement criterion for
*minimisation* of the test error:

``EI(x) = E[max(y+ - y, 0)]`` under the surrogate's predictive marginal
``p_M(y | x)``, with the incumbent threshold ``y+`` set adaptively to the
best value over previous observations.

The two constraint-aware variants the paper proposes:

* **HW-IECI** (Equation 3) multiplies EI by the indicator functions
  ``I[P(z) <= PB] * I[M(z) <= MB]`` evaluated through the a-priori
  predictive models — improvement is impossible where constraints are
  violated, so those regions are never sampled.
* **HW-CWEI** multiplies EI by the probability of constraint satisfaction
  ``Pr(P(z) <= PB) * Pr(M(z) <= MB)`` — the Constraint-Weighted EI of
  Gelbart et al. [6] with HyperPower's models as the latent functions.

Both accept any checker object exposing ``indicator(config)`` /
``satisfaction_probability(config)``, so the same classes also serve the
*default* variants where the checker is a :class:`~repro.core.constraints.
GPConstraintModel` learned from observations [6, 17].
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Mapping, Sequence

import numpy as np
from scipy.special import ndtr

from ..gp.gp import GaussianProcess

__all__ = [
    "expected_improvement",
    "Acquisition",
    "ExpectedImprovement",
    "HWIECI",
    "HWCWEI",
]


def norm_pdf(x: np.ndarray) -> np.ndarray:
    """Standard normal density, the same expression ``scipy.stats.norm``
    evaluates (its cdf is ``scipy.special.ndtr``), so values are
    bit-identical without importing ``scipy.stats``."""
    return np.exp(-(x**2) / 2.0) / np.sqrt(2 * np.pi)


def expected_improvement(
    mean: np.ndarray, variance: np.ndarray, incumbent: float
) -> np.ndarray:
    """Closed-form EI for minimisation.

    ``EI = s * (gamma * Phi(gamma) + phi(gamma))`` with
    ``gamma = (y+ - mu) / s``.
    """
    mean = np.asarray(mean, dtype=float)
    variance = np.asarray(variance, dtype=float)
    sigma = np.sqrt(np.maximum(variance, 1e-18))
    improvement = incumbent - mean
    # Degenerate marginals (sigma -> 0, e.g. a candidate coinciding with an
    # observation under a near-noiseless GP) collapse to their mean: EI is
    # the deterministic improvement, not the 0/0 z-score that would turn
    # into NaN (or an overflowing gamma) under the closed form below.
    degenerate = sigma <= 1e-9
    gamma = improvement / np.where(degenerate, 1.0, sigma)
    ei = sigma * (gamma * ndtr(gamma) + norm_pdf(gamma))
    ei = np.where(degenerate, np.maximum(improvement, 0.0), ei)
    return np.maximum(ei, 0.0)


class Acquisition(ABC):
    """Scores candidate configurations; the maximiser is evaluated next."""

    #: Short name used in logs and reports.
    name = "acquisition"

    @abstractmethod
    def score(
        self,
        candidates: Sequence[Mapping],
        X_unit: np.ndarray,
        gp: GaussianProcess,
        incumbent: float,
    ) -> np.ndarray:
        """Acquisition value of each candidate.

        Parameters
        ----------
        candidates:
            Candidate configurations (needed by constraint checkers, which
            work on structural hyper-parameters).
        X_unit:
            Their unit-cube encodings, ``(n, d)``.
        gp:
            The fitted objective surrogate.
        incumbent:
            ``y+``, the best relevant observation so far.
        """


class ExpectedImprovement(Acquisition):
    """Plain constraint-unaware EI (the 'default' BO building block)."""

    name = "EI"

    def score(self, candidates, X_unit, gp, incumbent):
        mean, variance = gp.predict(X_unit)
        return expected_improvement(mean, variance, incumbent)


class HWIECI(Acquisition):
    """Equation 3: EI gated by hard constraint indicators.

    With a :class:`~repro.core.constraints.ModelConstraintChecker` this is
    HyperPower's flagship HW-IECI; with a learned
    :class:`~repro.core.constraints.GPConstraintModel` it degrades to the
    default IECI-style treatment of Gramacy & Lee [17].
    """

    name = "HW-IECI"

    def __init__(self, checker):
        if not hasattr(checker, "indicator_batch"):
            raise TypeError("checker must expose indicator_batch(configs)")
        self.checker = checker

    def score(self, candidates, X_unit, gp, incumbent):
        ei = expected_improvement(*gp.predict(X_unit), incumbent)
        # One vectorised screening call for the whole candidate pool.
        gate = self.checker.indicator_batch(candidates).astype(float)
        return ei * gate


class HWCWEI(Acquisition):
    """Constraint-Weighted EI: EI times satisfaction probability [6]."""

    name = "HW-CWEI"

    def __init__(self, checker):
        if not hasattr(checker, "satisfaction_probability_batch"):
            raise TypeError(
                "checker must expose satisfaction_probability_batch(configs)"
            )
        self.checker = checker

    def score(self, candidates, X_unit, gp, incumbent):
        ei = expected_improvement(*gp.predict(X_unit), incumbent)
        weights = np.asarray(
            self.checker.satisfaction_probability_batch(candidates),
            dtype=float,
        )
        return ei * weights
