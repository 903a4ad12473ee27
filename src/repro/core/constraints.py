"""Constraint specifications and checkers (paper Sections 3.3-3.5).

Three ways of answering "does configuration x satisfy the power/memory
budgets?" coexist in the framework:

* :class:`ModelConstraintChecker` — HyperPower's way: evaluate the linear
  predictive models (a-priori, milliseconds).  Drives the HW-IECI indicator
  and, with the models' residual uncertainty, the HW-CWEI probability.
* :class:`GPConstraintModel` — the *default* (constraint-unaware-a-priori)
  Bayesian treatment of prior art [6, 17]: constraints are latent functions
  learned by GPs from hardware measurements of already-evaluated points, so
  early iterations fly blind.
* measured feasibility — ground truth from the target platform, recorded on
  every deployed sample and used to count violations (Figure 4 center).
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from ..gp.gp import GaussianProcess
from ..gp.sparse import DEFAULT_FEATURES, DEFAULT_SWITCH_AT, make_surrogate
from ..models.hw_models import MemoryModel, PowerModel
from ..space.space import SearchSpace

__all__ = [
    "ConstraintSpec",
    "ModelConstraintChecker",
    "GPConstraintModel",
]

#: GiB in bytes, for convenient budget definitions.
GIB = float(2**30)


@dataclass(frozen=True)
class ConstraintSpec:
    """The budgets the ML practitioner provides (Figure 2)."""

    #: Power budget ``PB``, W — ``None`` disables the power constraint.
    power_budget_w: float | None = None
    #: Memory budget ``MB``, bytes — ``None`` disables it (always the case
    #: on the Tegra TX1, which cannot measure memory).
    memory_budget_bytes: float | None = None
    #: Batch-inference latency budget, s — ``None`` disables it.  Not one
    #: of the paper's budgets, but the runtime constraint its related
    #: work [14] optimizes under; supported by the same a-priori recipe.
    latency_budget_s: float | None = None

    def __post_init__(self) -> None:
        for name in ("power_budget_w", "memory_budget_bytes", "latency_budget_s"):
            value = getattr(self, name)
            # A NaN or infinite budget never binds, so every measurement
            # would read feasible: a silently disabled constraint.
            if value is not None and (
                isinstance(value, bool)
                or not isinstance(value, numbers.Real)
                or not (math.isfinite(value) and value > 0)
            ):
                raise ValueError(f"{name} must be a finite number > 0, got {value!r}")

    @property
    def is_unconstrained(self) -> bool:
        """Whether no budget is active."""
        return (
            self.power_budget_w is None
            and self.memory_budget_bytes is None
            and self.latency_budget_s is None
        )

    def measured_feasible(
        self,
        power_w: float | None,
        memory_bytes: float | None,
        latency_s: float | None = None,
    ) -> bool:
        """Ground-truth feasibility from hardware measurements.

        A budget with no corresponding measurement (TX1 memory) is treated
        as satisfied, matching the paper's "no memory constraints on Tegra".
        """
        if (
            self.power_budget_w is not None
            and power_w is not None
            and power_w > self.power_budget_w
        ):
            return False
        if (
            self.memory_budget_bytes is not None
            and memory_bytes is not None
            and memory_bytes > self.memory_budget_bytes
        ):
            return False
        if (
            self.latency_budget_s is not None
            and latency_s is not None
            and latency_s > self.latency_budget_s
        ):
            return False
        return True


class ModelConstraintChecker:
    """A-priori constraint evaluation through the predictive models.

    This is the object HyperPower puts inside its acquisition function:
    ``I[P(z) <= PB] * I[M(z) <= MB]`` for HW-IECI and
    ``Pr(P(z) <= PB) * Pr(M(z) <= MB)`` for HW-CWEI.
    """

    def __init__(
        self,
        spec: ConstraintSpec,
        power_model: PowerModel | None,
        memory_model: MemoryModel | None,
        margin_sigmas: float = 1.0,
        latency_model=None,
    ):
        """``margin_sigmas`` backs the indicator off the budget by that many
        out-of-fold residual standard deviations.  The EI maximiser is drawn
        to the best networks, which sit right at the power boundary; without
        a confidence margin roughly half of the boundary picks would violate
        on real hardware, while the paper observes *zero* violations under
        HW-IECI (Figure 4 center)."""
        if spec.power_budget_w is not None and power_model is None:
            raise ValueError("power budget set but no power model given")
        if spec.memory_budget_bytes is not None and memory_model is None:
            raise ValueError("memory budget set but no memory model given")
        if spec.latency_budget_s is not None and latency_model is None:
            raise ValueError("latency budget set but no latency model given")
        if margin_sigmas < 0:
            raise ValueError("margin_sigmas must be non-negative")
        self.spec = spec
        self.power_model = power_model
        self.memory_model = memory_model
        self.latency_model = latency_model
        self.margin_sigmas = margin_sigmas

    @property
    def space(self) -> SearchSpace | None:
        """The design space the predictive models were fitted on."""
        for model in (self.power_model, self.memory_model, self.latency_model):
            if model is not None:
                return model.space
        return None

    def predictions(
        self, config: Mapping
    ) -> tuple[float | None, float | None]:
        """Model predictions ``(power_w, memory_bytes)`` for ``config``."""
        power = (
            self.power_model.predict_config(config)
            if self.power_model is not None
            else None
        )
        memory = (
            self.memory_model.predict_config(config)
            if self.memory_model is not None
            else None
        )
        return power, memory

    def _margin(self, model) -> float:
        if self.margin_sigmas == 0 or model.residual_std_ is None:
            return 0.0
        return self.margin_sigmas * model.residual_std_

    def predict_latency(self, config: Mapping) -> float | None:
        """Predicted batch latency, s — ``None`` without a latency model."""
        if self.latency_model is None:
            return None
        return self.latency_model.predict_config(config)

    def indicator(self, config: Mapping) -> bool:
        """HW-IECI's hard indicator: every budget predicted satisfied,
        with a residual-uncertainty back-off from each boundary."""
        power, memory = self.predictions(config)
        spec = self.spec
        if spec.power_budget_w is not None and (
            power > spec.power_budget_w - self._margin(self.power_model)
        ):
            return False
        if spec.memory_budget_bytes is not None and (
            memory > spec.memory_budget_bytes - self._margin(self.memory_model)
        ):
            return False
        if spec.latency_budget_s is not None:
            latency = self.predict_latency(config)
            if latency > spec.latency_budget_s - self._margin(self.latency_model):
                return False
        return True

    def satisfaction_probability(self, config: Mapping) -> float:
        """HW-CWEI's soft probability under Gaussian residual models."""
        spec = self.spec
        probability = 1.0
        if spec.power_budget_w is not None:
            z = self.power_model.space.structural_vector(config)
            probability *= self.power_model.satisfaction_probability(
                z, spec.power_budget_w
            )
        if spec.memory_budget_bytes is not None:
            z = self.memory_model.space.structural_vector(config)
            probability *= self.memory_model.satisfaction_probability(
                z, spec.memory_budget_bytes
            )
        if spec.latency_budget_s is not None:
            z = self.latency_model.space.structural_vector(config)
            probability *= self.latency_model.satisfaction_probability(
                z, spec.latency_budget_s
            )
        return probability

    # -- batch evaluation (the vectorised screening path) ----------------------

    def _structural_batch(
        self, configs: Sequence[Mapping], validate: bool
    ) -> np.ndarray:
        space = self.space
        if space is None:
            raise RuntimeError("batch screening needs at least one model")
        return space.structural_matrix(configs, validate=validate)

    def screen_batch(
        self, configs: Sequence[Mapping], validate: bool = False
    ) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
        """Vectorised screening: ``(accept, power_pred, memory_pred)``.

        ``accept`` is a boolean array with the decisions :meth:`indicator`
        would make config by config: the same margin-backed-off thresholds
        and strict inequalities, applied to predictions that agree with the
        per-config path to the last floating-point ulp (the batch and
        per-row BLAS kernels may round differently, many orders of
        magnitude below the residual margins).
        """
        n = len(configs)
        # No models implies no budgets (the constructor enforces the
        # pairing), so a model-free checker accepts everything — the
        # service builds such checkers for studies it cannot profile.
        if self.space is None:
            return np.ones(n, dtype=bool), None, None
        Z = self._structural_batch(configs, validate)
        spec = self.spec
        accept = np.ones(n, dtype=bool)
        power = memory = None
        if self.power_model is not None:
            power = self.power_model.predict_batch(Z)
        if self.memory_model is not None:
            memory = self.memory_model.predict_batch(Z)
        if spec.power_budget_w is not None:
            threshold = spec.power_budget_w - self._margin(self.power_model)
            accept &= ~(power > threshold)
        if spec.memory_budget_bytes is not None:
            threshold = spec.memory_budget_bytes - self._margin(self.memory_model)
            accept &= ~(memory > threshold)
        if spec.latency_budget_s is not None:
            latency = self.latency_model.predict_batch(Z)
            threshold = spec.latency_budget_s - self._margin(self.latency_model)
            accept &= ~(latency > threshold)
        return accept, power, memory

    def indicator_batch(
        self, configs: Sequence[Mapping], validate: bool = False
    ) -> np.ndarray:
        """Vectorised :meth:`indicator` over a candidate set."""
        accept, _, _ = self.screen_batch(configs, validate=validate)
        return accept

    def satisfaction_probability_batch(
        self, configs: Sequence[Mapping], validate: bool = False
    ) -> np.ndarray:
        """Vectorised :meth:`satisfaction_probability` over a candidate set."""
        n = len(configs)
        if self.space is None:
            return np.ones(n, dtype=float)
        Z = self._structural_batch(configs, validate)
        spec = self.spec
        probability = np.ones(n, dtype=float)
        if spec.power_budget_w is not None:
            probability *= self.power_model.satisfaction_probability_batch(
                Z, spec.power_budget_w
            )
        if spec.memory_budget_bytes is not None:
            probability *= self.memory_model.satisfaction_probability_batch(
                Z, spec.memory_budget_bytes
            )
        if spec.latency_budget_s is not None:
            probability *= self.latency_model.satisfaction_probability_batch(
                Z, spec.latency_budget_s
            )
        return probability


class GPConstraintModel:
    """Constraints as Gaussian processes learned from observations [6, 17].

    The default (non-HyperPower) HW-CWEI/HW-IECI variants use this: each
    constraint gets a GP over the unit-cube encoding, trained on hardware
    measurements of the points evaluated so far.  Until enough points are
    observed the model is uninformative (probability 1 everywhere), which
    is exactly why the default variants waste early full trainings on
    infeasible samples.
    """

    #: Observations needed before the GPs say anything.
    MIN_OBSERVATIONS = 3

    def __init__(
        self,
        space: SearchSpace,
        spec: ConstraintSpec,
        surrogate: str = "exact",
        surrogate_features: int = DEFAULT_FEATURES,
        surrogate_switch_at: int = DEFAULT_SWITCH_AT,
    ):
        self.space = space
        self.spec = spec
        #: Surrogate tier of the constraint GPs (same knobs as the
        #: objective surrogate; ``exact`` reproduces the seed path).
        self.surrogate = surrogate
        self.surrogate_features = surrogate_features
        self.surrogate_switch_at = surrogate_switch_at
        self._X: list[np.ndarray] = []
        self._power: list[float] = []
        self._memory: list[float] = []
        self._latency: list[float] = []
        self._power_gp: GaussianProcess | None = None
        self._memory_gp: GaussianProcess | None = None
        self._latency_gp: GaussianProcess | None = None

    @property
    def n_observations(self) -> int:
        """Constraint observations recorded so far."""
        return len(self._X)

    def observe(
        self,
        config: Mapping,
        power_w: float | None,
        memory_bytes: float | None,
        latency_s: float | None = None,
    ) -> None:
        """Record the hardware measurement of an evaluated point."""
        self._X.append(self.space.encode(config))
        self._power.append(np.nan if power_w is None else float(power_w))
        self._memory.append(
            np.nan if memory_bytes is None else float(memory_bytes)
        )
        self._latency.append(
            np.nan if latency_s is None else float(latency_s)
        )

    def refit(self, rng: np.random.Generator | None = None) -> None:
        """Refit the constraint GPs on everything observed so far."""
        rng = rng or np.random.default_rng(0)
        X = np.asarray(self._X)
        self._power_gp = self._fit_one(
            X, np.asarray(self._power), self.spec.power_budget_w, rng
        )
        self._memory_gp = self._fit_one(
            X, np.asarray(self._memory), self.spec.memory_budget_bytes, rng
        )
        self._latency_gp = self._fit_one(
            X, np.asarray(self._latency), self.spec.latency_budget_s, rng
        )

    def _fit_one(
        self,
        X: np.ndarray,
        values: np.ndarray,
        budget: float | None,
        rng: np.random.Generator,
    ) -> GaussianProcess | None:
        if budget is None:
            return None
        mask = ~np.isnan(values)
        if mask.sum() < self.MIN_OBSERVATIONS:
            return None
        gp = make_surrogate(
            self.surrogate,
            self.space.dimension,
            n_features=self.surrogate_features,
            switch_at=self.surrogate_switch_at,
            n_obs=int(mask.sum()),
        )
        gp.fit(X[mask], values[mask], restarts=1, rng=rng)
        return gp

    def _probability_one(
        self,
        gp: GaussianProcess | None,
        budget: float | None,
        x: np.ndarray,
    ) -> float:
        if budget is None:
            return 1.0
        if gp is None:
            # Uninformative until enough observations exist.
            return 1.0
        mean, var = gp.predict_noisy(x[None, :])
        sigma = max(float(np.sqrt(var[0])), 1e-9)
        return float(ndtr((budget - float(mean[0])) / sigma))

    def satisfaction_probability(self, config: Mapping) -> float:
        """``Pr(constraints satisfied at config)`` under the learned GPs."""
        x = self.space.encode(config)
        probability = self._probability_one(
            self._power_gp, self.spec.power_budget_w, x
        )
        probability *= self._probability_one(
            self._memory_gp, self.spec.memory_budget_bytes, x
        )
        probability *= self._probability_one(
            self._latency_gp, self.spec.latency_budget_s, x
        )
        return probability

    def indicator(self, config: Mapping, threshold: float = 0.5) -> bool:
        """Probabilistic indicator: satisfied with probability > threshold."""
        return self.satisfaction_probability(config) > threshold

    # -- batch evaluation ------------------------------------------------------

    def satisfaction_probability_batch(
        self, configs: Sequence[Mapping]
    ) -> np.ndarray:
        """:meth:`satisfaction_probability` over a candidate set.

        One GP posterior solve per *constraint* instead of one per config:
        the candidate encodings are stacked and pushed through
        ``predict_noisy`` in a single call, and the Gaussian tail
        probabilities multiply across constraints as vectors.  The
        linear-algebra kernels agree with the per-point path to the last
        ulp (same triangular solves, batched over columns), so callers may
        mix scalar and batch scoring freely.
        """
        n = len(configs)
        probability = np.ones(n, dtype=float)
        if n == 0:
            return probability
        X = self.space.encode_many(configs)
        for gp, budget in (
            (self._power_gp, self.spec.power_budget_w),
            (self._memory_gp, self.spec.memory_budget_bytes),
            (self._latency_gp, self.spec.latency_budget_s),
        ):
            if budget is None or gp is None:
                # Inactive or not-yet-informative constraint: factor 1.
                continue
            mean, var = gp.predict_noisy(X)
            sigma = np.maximum(np.sqrt(var), 1e-9)
            probability *= ndtr((budget - mean) / sigma)
        return probability

    def indicator_batch(
        self, configs: Sequence[Mapping], threshold: float = 0.5
    ) -> np.ndarray:
        """:meth:`indicator` over a candidate set."""
        return self.satisfaction_probability_batch(configs) > threshold
