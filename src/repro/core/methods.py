"""Search methods (paper Sections 3.1, 3.5).

Four solvers, each usable in two variants:

* **Rand** — uniform random search [5].  The HyperPower variant screens
  every proposal through the predictive models and discards violating ones
  at millisecond cost (each discarded proposal still counts as a queried
  sample, which is the accounting behind Tables 3-4).
* **Rand-Walk** — Gaussian random walk around the incumbent [8],
  ``x_{n+1} ~ N(x+, sigma0^2)``.  The default variant's incumbent is the
  best *observed* objective regardless of feasibility — which is why it
  can hover in an infeasible basin forever (the '--' rows of Table 2);
  the HyperPower variant walks around the best *feasible* point and
  screens proposals through the models.
* **HW-CWEI / HW-IECI** — GP-based Bayesian optimization with the
  constraint-weighted / indicator-gated EI acquisitions.  The HyperPower
  variants evaluate constraints through the a-priori models; the default
  variants learn them with constraint GPs from hardware measurements of
  already-evaluated points [6, 17].

A method never trains anything itself: it returns a :class:`Proposal` and
the driver (:mod:`repro.core.hyperpower`) evaluates it, charges the clock,
and records trials.
"""

from __future__ import annotations

import copy
import logging
from abc import ABC, abstractmethod
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from ..gp.gp import GaussianProcess
from ..gp.profile import SurrogateProfile
from ..gp.sparse import (
    DEFAULT_FEATURES,
    DEFAULT_SWITCH_AT,
    SURROGATE_TIERS,
    make_surrogate,
    resolve_tier,
)
from ..space.space import Configuration, SearchSpace
from ..telemetry.tracer import NOOP_TRACER
from .acquisition import Acquisition
from .constraints import GPConstraintModel, ModelConstraintChecker
from .result import Trial

__all__ = [
    "SearchState",
    "RejectedProposal",
    "Proposal",
    "PendingTrial",
    "SearchMethod",
    "RandomSearch",
    "RandomWalk",
    "GridSearch",
    "BayesianOptimizer",
]

_log = logging.getLogger(__name__)


@dataclass
class SearchState:
    """Everything a method may condition on, maintained by the driver."""

    #: All queried samples so far (including model-rejected ones).
    trials: list[Trial] = field(default_factory=list)
    #: Configurations on which training epochs were spent, in order.
    trained_configs: list[Configuration] = field(default_factory=list)
    #: Their best observed test errors.
    trained_errors: list[float] = field(default_factory=list)
    #: Their measured feasibility.
    trained_feasible: list[bool] = field(default_factory=list)

    @property
    def n_trained(self) -> int:
        """Number of trained evaluations so far."""
        return len(self.trained_configs)

    def best_feasible(self) -> tuple[Configuration, float] | None:
        """Best (config, error) among measured-feasible evaluations."""
        best = None
        for config, error, feasible in zip(
            self.trained_configs, self.trained_errors, self.trained_feasible
        ):
            if not feasible:
                continue
            if best is None or error < best[1]:
                best = (config, error)
        return best

    def best_any(self) -> tuple[Configuration, float] | None:
        """Best (config, error) regardless of feasibility."""
        best = None
        for config, error in zip(self.trained_configs, self.trained_errors):
            if best is None or error < best[1]:
                best = (config, error)
        return best

    def incumbent_error(self) -> float | None:
        """The adaptive EI threshold ``y+``: best feasible error, falling
        back to the best observed error before anything feasible exists."""
        feasible = self.best_feasible()
        if feasible is not None:
            return feasible[1]
        any_best = self.best_any()
        return None if any_best is None else any_best[1]


@dataclass(frozen=True)
class RejectedProposal:
    """A proposal discarded by the predictive models before training."""

    config: Configuration
    power_pred_w: float | None
    memory_pred_bytes: float | None

    #: Rejected by the models, so predicted infeasible by definition.
    feasible_pred = False


@dataclass(frozen=True)
class Proposal:
    """What a method wants evaluated next, plus its bookkeeping."""

    #: The configuration to train and measure.
    config: Configuration
    #: Model-rejected proposals to record as queried samples.
    rejected: tuple[RejectedProposal, ...] = ()
    #: Model evaluations performed but *not* recorded as samples (e.g. BO
    #: filtering its initial design or its candidate pool).
    silent_model_checks: int = 0
    #: Number of GP fits performed while proposing (clock cost).
    gp_fits: int = 0
    #: Number of rank-1 posterior appends performed instead of full fits
    #: (refit scheduling; charged at the much cheaper append cost).
    gp_appends: int = 0
    #: Number of constant-liar fantasy observations appended onto a *copy*
    #: of the surrogate for in-flight trials (async scheduling; charged at
    #: the append cost).
    gp_fantasies: int = 0
    #: Predictions for the chosen config (None without models).
    power_pred_w: float | None = None
    memory_pred_bytes: float | None = None
    #: Model feasibility of the chosen config (None when unchecked).
    feasible_pred: bool | None = None


@dataclass(frozen=True)
class PendingTrial:
    """An in-flight trial with a *partial* observation attached.

    The multi-fidelity driver passes these (instead of plain configs) for
    trials paused at a rung: ``error`` is the best error observed at
    ``epochs`` cumulative epochs.  Pending-aware methods treat them like
    any pending configuration for exclusion; the Bayesian optimizer
    additionally lies at the observed error instead of the generic
    constant-liar value — the rung already told us roughly where this
    trial lands.
    """

    config: Configuration
    error: float = float("nan")
    epochs: int = 0


def _config_key(config) -> tuple:
    """Hashable identity of a configuration (pending-set membership).

    Accepts plain mappings and :class:`PendingTrial`-like wrappers.
    """
    config = getattr(config, "config", config)
    return tuple(sorted(config.items()))


def _pending_keys(pending: Sequence) -> frozenset:
    return frozenset(_config_key(c) for c in pending)


def _predictions(checker, config) -> tuple[float | None, float | None]:
    if checker is None:
        return None, None
    return checker.predictions(config)


def _pred_at(values, i) -> float | None:
    """The ``i``-th prediction of a batch, tolerating None entries."""
    if values is None:
        return None
    value = values[i]
    return None if value is None else float(value)


class SearchMethod(ABC):
    """Base class for solvers."""

    #: Paper name of the solver (``'Rand'``, ``'HW-IECI'``, ...).
    name = "method"

    #: Rebound by the driver when telemetry is on; proposing never
    #: advances the simulated clock, so method-side spans (``gp_fit``,
    #: ``acquisition``) have zero simulated duration and carry their
    #: real cost in ``wall_ms``.
    tracer = NOOP_TRACER

    def __init__(self, space: SearchSpace):
        self.space = space

    @abstractmethod
    def propose(
        self,
        state: SearchState,
        rng: np.random.Generator,
        pending: Sequence[Configuration] = (),
    ) -> Proposal:
        """Choose the next configuration to evaluate.

        ``pending`` lists configurations currently in flight on the
        asynchronous scheduler.  Methods must not re-propose a pending
        configuration (it would collapse to a cache hit on completion);
        the Bayesian optimizer additionally conditions its surrogate on
        fantasized outcomes for them (constant liar).  The synchronous
        driver never passes it, so duck-typed two-argument methods keep
        working there.
        """


class _ModelScreeningMixin:
    """Shared batch-screening loop for the model-free HyperPower methods.

    Screening is chunked: candidates are drawn ``screen_chunk`` at a time
    and pushed through :meth:`~repro.core.constraints.ModelConstraintChecker.
    screen_batch` in one vectorised call, instead of one model evaluation
    per draw.  Decisions are identical to per-config screening; only the
    number of RNG draws consumed per proposal changes (candidates drawn
    after the first acceptance in a chunk are discarded — harmless for the
    i.i.d. Rand and Rand-Walk proposal distributions).
    """

    #: Rejected proposals allowed before giving up and accepting anyway.
    max_rejects = 5000

    #: Candidates drawn and screened per vectorised model call.
    screen_chunk = 64

    def _screen(
        self,
        draw_many,
        checker: ModelConstraintChecker | None,
        pending_keys: frozenset = frozenset(),
    ) -> tuple[Configuration, list[RejectedProposal], float | None, float | None, bool | None]:
        """Draw chunks from ``draw_many(n)`` until the models accept one.

        Candidates matching an in-flight configuration (``pending_keys``)
        are skipped without being recorded — they were already counted as
        queried samples when first dispatched.
        """
        if checker is None:
            config = draw_many(1)[0]
            if pending_keys:
                for _ in range(self.max_rejects):
                    if _config_key(config) not in pending_keys:
                        break
                    config = draw_many(1)[0]
            return config, [], None, None, None
        rejected: list[RejectedProposal] = []
        remaining = self.max_rejects + 1
        while remaining > 0:
            chunk = min(self.screen_chunk, remaining)
            configs = draw_many(chunk)
            remaining -= chunk
            accept, power, memory = checker.screen_batch(configs)
            for i, config in enumerate(configs):
                p = _pred_at(power, i)
                m = _pred_at(memory, i)
                if accept[i]:
                    if pending_keys and _config_key(config) in pending_keys:
                        continue
                    return config, rejected, p, m, True
                rejected.append(RejectedProposal(config, p, m))
        # Budget exhausted: evaluate the last draw anyway (flagged invalid).
        if rejected:
            last = rejected.pop()
            return last.config, rejected, last.power_pred_w, last.memory_pred_bytes, False
        # Degenerate space where every accepted draw is already in flight:
        # duplicate the last one rather than loop forever.
        return config, [], p, m, True


class RandomSearch(_ModelScreeningMixin, SearchMethod):
    """Uniform random search; model-screened in the HyperPower variant."""

    name = "Rand"

    def __init__(
        self,
        space: SearchSpace,
        checker: ModelConstraintChecker | None = None,
    ):
        super().__init__(space)
        self.checker = checker

    def propose(self, state, rng, pending=()):
        config, rejected, power, memory, feasible = self._screen(
            lambda n: self.space.sample_many(n, rng),
            self.checker,
            _pending_keys(pending),
        )
        return Proposal(
            config=config,
            rejected=tuple(rejected),
            power_pred_w=power,
            memory_pred_bytes=memory,
            feasible_pred=feasible,
        )


class RandomWalk(_ModelScreeningMixin, SearchMethod):
    """Gaussian random walk around the incumbent (paper Section 3.5).

    ``feasible_incumbent`` selects the variant: the HyperPower version
    recentres on the best *feasible* observation, the default version on
    the best observation full stop (constraint-unaware, as published [8]).
    """

    name = "Rand-Walk"

    def __init__(
        self,
        space: SearchSpace,
        sigma: float = 0.1,
        checker: ModelConstraintChecker | None = None,
        feasible_incumbent: bool | None = None,
    ):
        super().__init__(space)
        if sigma <= 0:
            raise ValueError("sigma must be positive")
        self.sigma = sigma
        self.checker = checker
        if feasible_incumbent is None:
            feasible_incumbent = checker is not None
        self.feasible_incumbent = feasible_incumbent

    def _incumbent(self, state: SearchState) -> Configuration | None:
        if self.feasible_incumbent:
            best = state.best_feasible()
        else:
            best = state.best_any()
        return None if best is None else best[0]

    def propose(self, state, rng, pending=()):
        incumbent = self._incumbent(state)
        if incumbent is None:
            draw_many = lambda n: self.space.sample_many(n, rng)  # noqa: E731
        else:
            draw_many = lambda n: self.space.neighbors(  # noqa: E731
                incumbent, self.sigma, n, rng
            )
        config, rejected, power, memory, feasible = self._screen(
            draw_many, self.checker, _pending_keys(pending)
        )
        return Proposal(
            config=config,
            rejected=tuple(rejected),
            power_pred_w=power,
            memory_pred_bytes=memory,
            feasible_pred=feasible,
        )


class GridSearch(_ModelScreeningMixin, SearchMethod):
    """Classic grid search — the traditional technique the paper's intro
    dismisses ("grid search yields poor results in terms of performance
    and training time" [2]).

    Enumerates the Cartesian product of per-parameter grids in
    lexicographic order; once exhausted it restarts with a finer grid.
    The optional checker gives it the same HyperPower screening as the
    other model-free methods.  Unlike the other solvers this method is
    stateful (it carries its enumeration cursor), so use a fresh instance
    per run.
    """

    name = "Grid"

    def __init__(
        self,
        space: SearchSpace,
        resolution: int = 3,
        checker: ModelConstraintChecker | None = None,
    ):
        super().__init__(space)
        if resolution < 2:
            raise ValueError("resolution must be >= 2")
        self.checker = checker
        self._resolution = resolution
        #: Grid points already batch-screened but not yet proposed, as
        #: ``(config, accept, power_pred, memory_pred)`` tuples.  Unlike the
        #: i.i.d. methods, grid search cannot discard drawn-but-unused
        #: candidates (it would skip grid points), so screened chunks are
        #: buffered across ``propose`` calls.
        self._pending: list[tuple[Configuration, bool, float | None, float | None]] = []
        self._reset_grid(resolution)

    def _reset_grid(self, resolution: int) -> None:
        self._axes = [p.grid(resolution) for p in self.space.parameters]
        self._cursor = [0] * len(self._axes)
        self._exhausted = False

    @property
    def grid_size(self) -> int:
        """Points in the current grid."""
        size = 1
        for axis in self._axes:
            size *= len(axis)
        return size

    def _advance(self) -> Configuration:
        if self._exhausted:
            # Refine and start over — the only move grid search has left.
            self._resolution += 1
            self._reset_grid(self._resolution)
        config = {
            p.name: axis[i]
            for p, axis, i in zip(self.space.parameters, self._axes, self._cursor)
        }
        # Lexicographic increment.
        for dim in reversed(range(len(self._cursor))):
            self._cursor[dim] += 1
            if self._cursor[dim] < len(self._axes[dim]):
                break
            self._cursor[dim] = 0
        else:
            self._exhausted = True
        return config

    def _refill_pending(self) -> None:
        batch = [self._advance() for _ in range(self.screen_chunk)]
        accept, power, memory = self.checker.screen_batch(batch)
        for i, config in enumerate(batch):
            self._pending.append(
                (config, bool(accept[i]), _pred_at(power, i), _pred_at(memory, i))
            )

    def propose(self, state, rng, pending=()):
        pending_keys = _pending_keys(pending)
        if self.checker is None:
            config = self._advance()
            if pending_keys:
                # Skip grid points currently in flight (bounded: a finite
                # pending set cannot cover the ever-refining grid).
                for _ in range(self.max_rejects):
                    if _config_key(config) not in pending_keys:
                        break
                    config = self._advance()
            return Proposal(config=config)
        rejected: list[RejectedProposal] = []
        for _ in range(self.max_rejects + 1):
            if not self._pending:
                self._refill_pending()
            config, ok, power, memory = self._pending.pop(0)
            if ok:
                if pending_keys and _config_key(config) in pending_keys:
                    continue
                return Proposal(
                    config=config,
                    rejected=tuple(rejected),
                    power_pred_w=power,
                    memory_pred_bytes=memory,
                    feasible_pred=True,
                )
            rejected.append(RejectedProposal(config, power, memory))
        # Budget exhausted: evaluate the last grid point anyway.
        if not rejected:
            # Every accepted point was in flight: duplicate the last one.
            return Proposal(config=config, feasible_pred=True)
        last = rejected.pop()
        return Proposal(
            config=last.config,
            rejected=tuple(rejected),
            power_pred_w=last.power_pred_w,
            memory_pred_bytes=last.memory_pred_bytes,
            feasible_pred=False,
        )


class BayesianOptimizer(SearchMethod):
    """GP-based sequential model-based optimization (Figure 2's loop).

    Parameters
    ----------
    space:
        The design space.
    acquisition:
        Scoring rule for candidates (HW-IECI, HW-CWEI, or plain EI).
    model_checker:
        The a-priori predictive-model checker — present only in HyperPower
        variants, where it also screens the initial design and provides the
        predictions recorded on every chosen sample.
    learned_constraints:
        The observation-driven constraint GPs — present only in *default*
        constrained variants; refitted from the state before each proposal.
    n_init:
        Random designs evaluated before the surrogate takes over.
    pool_size:
        Random candidates scored per iteration ("each sampled grid point of
        the hyper-parameter space", Section 3.3).
    n_local:
        Extra candidates perturbed around the incumbent (exploitation).
    gp_restarts:
        Random restarts of the marginal-likelihood optimiser per refit.
    refit_every:
        Re-optimize the surrogate's hyper-parameters only once every this
        many *new trained observations*; rounds in between condition on the
        new data with a rank-1 Cholesky append at fixed hyper-parameters
        (``O(n^2)`` instead of ``O(n^3)`` plus the optimiser).  The default
        of 1 refits every round — the paper's (and the seed's) behaviour.
    warm_start:
        Start the refit's L-BFGS-B from the previous fit's
        hyper-parameters instead of the kernel defaults, and decay the
        restart count to 1 once ``burn_in`` trained observations have
        accumulated past the initial design (by then the marginal
        likelihood's basin is stable and extra cold restarts are wasted
        work).  Off by default: the cold path reproduces the seed
        trajectories exactly.
    burn_in:
        Trained observations past ``n_init`` after which a warm-started
        refit drops to a single restart.
    surrogate:
        Surrogate tier for the objective model: ``"exact"`` (the default —
        the exact GP, byte-identical to the seed path), ``"rff"`` (random
        Fourier features), ``"nystrom"`` (inducing points), or ``"auto"``
        (exact below ``surrogate_switch_at`` observations, sparse above,
        with a logged tier-transition event).  Sparse tiers keep fits at
        ``O(n m^2)``, appends/fantasies at ``O(m^2)`` and predictions flat
        in ``n``, which is what holds proposal latency flat on 10^4-10^5
        trial studies.
    surrogate_features:
        Feature / inducing-point count ``m`` of the sparse tiers.
    surrogate_switch_at:
        Observation count at which the ``auto`` tier goes sparse.
    """

    name = "BO"

    def __init__(
        self,
        space: SearchSpace,
        acquisition: Acquisition,
        model_checker: ModelConstraintChecker | None = None,
        learned_constraints: GPConstraintModel | None = None,
        n_init: int = 5,
        pool_size: int = 1000,
        n_local: int = 20,
        local_sigma: float = 0.08,
        gp_restarts: int = 2,
        refit_every: int = 1,
        warm_start: bool = False,
        burn_in: int = 15,
        surrogate: str = "exact",
        surrogate_features: int = DEFAULT_FEATURES,
        surrogate_switch_at: int = DEFAULT_SWITCH_AT,
        scatter_init: int = 0,
    ):
        super().__init__(space)
        if model_checker is not None and learned_constraints is not None:
            raise ValueError(
                "a variant uses either a-priori models or learned "
                "constraint GPs, not both"
            )
        if n_init < 1 or pool_size < 1:
            raise ValueError("n_init and pool_size must be >= 1")
        if refit_every < 1:
            raise ValueError("refit_every must be >= 1")
        if gp_restarts < 0 or burn_in < 0:
            raise ValueError("gp_restarts and burn_in must be >= 0")
        if surrogate not in SURROGATE_TIERS:
            raise ValueError(
                f"surrogate must be one of {SURROGATE_TIERS}, got {surrogate!r}"
            )
        if surrogate_features < 1 or surrogate_switch_at < 1:
            raise ValueError(
                "surrogate_features and surrogate_switch_at must be >= 1"
            )
        if scatter_init < 0:
            raise ValueError("scatter_init must be >= 0")
        self.acquisition = acquisition
        self.model_checker = model_checker
        self.learned_constraints = learned_constraints
        self.n_init = n_init
        self.pool_size = pool_size
        self.n_local = n_local
        self.local_sigma = local_sigma
        self.gp_restarts = gp_restarts
        self.refit_every = refit_every
        self.warm_start = warm_start
        self.burn_in = burn_in
        self.surrogate = surrogate
        self.surrogate_features = surrogate_features
        self.surrogate_switch_at = surrogate_switch_at
        #: Widened initial design under rung scheduling: cheap low-fidelity
        #: scatter trials before the surrogate takes over (0 = classic
        #: ``n_init`` behaviour).
        self.scatter_init = scatter_init
        self.name = acquisition.name
        #: Per-stage wall-clock timings of the surrogate hot path.
        self.surrogate_profile = SurrogateProfile()
        #: The persistent surrogate and what it has been conditioned on.
        self._gp: GaussianProcess | None = None
        self._gp_n = 0
        self._last_refit_n = 0

    # -- helpers ------------------------------------------------------------------

    #: Candidates drawn and screened per vectorised model call.
    screen_chunk = 64

    def _screened_random(
        self,
        rng: np.random.Generator,
        limit: int = 5000,
        pending_keys: frozenset = frozenset(),
    ) -> tuple[Configuration, int]:
        """A uniform config passing the a-priori models, and checks spent.

        Draws are screened chunk-wise through ``indicator_batch``; the
        returned check count is the number of candidates *examined* (what a
        serial loop would have charged the clock for), not the number drawn.
        Accepted candidates already in flight (``pending_keys``) are
        passed over.
        """
        if self.model_checker is None:
            config = self.space.sample(rng)
            if pending_keys:
                for _ in range(limit):
                    if _config_key(config) not in pending_keys:
                        break
                    config = self.space.sample(rng)
            return config, 0
        checks = 0
        config = None
        while checks < limit:
            chunk = min(self.screen_chunk, limit - checks)
            configs = self.space.sample_many(chunk, rng)
            accept = self.model_checker.indicator_batch(configs)
            for i, config in enumerate(configs):
                checks += 1
                if accept[i]:
                    if pending_keys and _config_key(config) in pending_keys:
                        continue
                    return config, checks
        return config, checks

    def _candidate_pool(
        self, state: SearchState, rng: np.random.Generator
    ) -> list[Configuration]:
        pool = self.space.sample_many(self.pool_size, rng)
        incumbent = state.best_feasible() or state.best_any()
        if incumbent is not None:
            pool.extend(
                self.space.neighbors(incumbent[0], self.local_sigma, self.n_local, rng)
            )
        return pool

    def _surrogate(
        self, state: SearchState, rng: np.random.Generator
    ) -> tuple[GaussianProcess, int, int]:
        """The objective surrogate for this round, via the refit schedule.

        Returns ``(gp, fits, appends)``.  A full hyper-parameter refit runs
        when the GP does not exist yet or ``refit_every`` new trained
        observations have arrived since the last one; otherwise the new
        observations are folded in with rank-1 Cholesky appends at fixed
        hyper-parameters.  Without ``warm_start`` a refit rebuilds the GP
        from the default kernel, making the ``refit_every=1`` schedule
        byte-identical to fitting a fresh GP every round (the seed path).
        A refit also rebuilds when the tier the ``auto`` size rule picks
        for ``n`` differs from the current model's, logging the switch.
        """
        n = state.n_trained
        X = self.space.encode_many(state.trained_configs)
        y = np.asarray(state.trained_errors, dtype=float)
        # Tier labels ride on the surrogate spans for non-default tiers
        # only; the default tier's span stream stays byte-identical to the
        # golden trace fixtures.
        tier_attrs = (
            {} if self.surrogate == "exact" else {"surrogate": self.surrogate}
        )
        refit_due = (
            self._gp is None
            or n < self._gp_n  # state reset under us: start over
            or n - self._last_refit_n >= self.refit_every
        )
        if refit_due:
            tier = resolve_tier(self.surrogate, n, self.surrogate_switch_at)
            if self._gp is not None and self._gp.tier != tier:
                _log.info(
                    "surrogate tier transition: %s -> %s at n=%d "
                    "(switch_at=%d)",
                    self._gp.tier,
                    tier,
                    n,
                    self.surrogate_switch_at,
                )
            if self._gp is None or not self.warm_start or self._gp.tier != tier:
                gp = self._make_surrogate(n)
            else:
                gp = self._gp  # warm start: theta of the previous fit
            restarts = self.gp_restarts
            if self.warm_start and n >= self.n_init + self.burn_in:
                restarts = min(restarts, 1)
            with self.tracer.span(
                "gp_fit", n_obs=n, restarts=restarts, **tier_attrs
            ):
                gp.fit(X, y, restarts=restarts, rng=rng)
            self._gp = gp
            self._gp_n = n
            self._last_refit_n = n
            return gp, 1, 0
        appends = n - self._gp_n
        if appends:
            with self.tracer.span(
                "gp_append", n_obs=n, appends=appends, **tier_attrs
            ):
                for i in range(self._gp_n, n):
                    self._gp.append(X[i], y[i])
            self._gp_n = n
        return self._gp, 0, appends

    def _make_surrogate(self, n_obs: int = 0):
        """A fresh objective surrogate for the tier ``n_obs`` points call for.

        The ``exact`` branch constructs the same
        ``GaussianProcess(kernel=Matern52(dim), profile=...)`` this
        optimizer always built, so default-tier runs (and ``auto`` runs
        that stay below the switch threshold) are byte-identical to the
        pre-tier code path.
        """
        return make_surrogate(
            self.surrogate,
            self.space.dimension,
            profile=self.surrogate_profile,
            n_features=self.surrogate_features,
            switch_at=self.surrogate_switch_at,
            n_obs=n_obs,
        )

    def _refit_learned_constraints(self, state: SearchState) -> int:
        """Refit constraint GPs from measured trials; returns fits done."""
        model = self.learned_constraints
        if model is None:
            return 0
        model._X.clear()
        model._power.clear()
        model._memory.clear()
        model._latency.clear()
        for trial in state.trials:
            if not trial.was_trained:
                continue
            model.observe(
                trial.config,
                trial.power_meas_w,
                trial.memory_meas_bytes,
                trial.latency_meas_s,
            )
        model.refit()
        active = (
            (model.spec.power_budget_w is not None)
            + (model.spec.memory_budget_bytes is not None)
            + (model.spec.latency_budget_s is not None)
        )
        return active

    # -- proposal -------------------------------------------------------------------

    def _fantasize(
        self, gp: GaussianProcess, state: SearchState, pending
    ) -> tuple[GaussianProcess, int]:
        """Condition a *copy* of the surrogate on lies for pending trials.

        Constant-liar batch BO (``cl-min``): each in-flight configuration
        is appended with a fantasy observation at the incumbent error,
        deflating EI around points whose outcome is already being bought.
        Fantasies are rank-1 appends; ``append`` rebinds the posterior
        arrays rather than mutating them, so a shallow copy leaves the
        persistent surrogate, the synchronous path and the refit schedule
        untouched.
        """
        if not pending:
            return gp, 0
        lie = state.incumbent_error()
        if lie is None or not np.isfinite(lie):
            # Degraded measurements can leave NaN in the error history; the
            # surrogate refuses non-finite appends, so fall back to the
            # finite mean — or skip fantasizing when nothing finite exists.
            errors = np.asarray(state.trained_errors, dtype=float)
            finite = errors[np.isfinite(errors)]
            if finite.size == 0:
                return gp, 0
            lie = float(np.mean(finite))
        gp_f = copy.copy(gp)
        with self.tracer.span("fantasy", pending=len(pending), lie=lie):
            for config in pending:
                # Fidelity-aware lie: a trial paused at a rung carries a
                # real partial observation — condition on it instead of
                # the generic constant-liar value.
                observed = getattr(config, "error", None)
                value = (
                    float(observed)
                    if observed is not None and np.isfinite(observed)
                    else lie
                )
                gp_f.append(
                    self.space.encode(getattr(config, "config", config)),
                    value,
                )
        return gp_f, len(pending)

    def propose(self, state, rng, pending=()):
        pending_keys = _pending_keys(pending)
        # Initial design: random (model-screened in HyperPower variants).
        # Under rung scheduling, `scatter_init` widens it: the extra
        # designs are cheap low-fidelity scatter trials that seed the rung
        # ladder before the surrogate takes over.
        if state.n_trained < max(self.n_init, self.scatter_init):
            config, checks = self._screened_random(
                rng, pending_keys=pending_keys
            )
            power, memory = _predictions(self.model_checker, config)
            feasible = (
                self.model_checker.indicator(config)
                if self.model_checker is not None
                else None
            )
            return Proposal(
                config=config,
                silent_model_checks=checks,
                power_pred_w=power,
                memory_pred_bytes=memory,
                feasible_pred=feasible,
            )

        gp_fits = self._refit_learned_constraints(state)
        gp, fits, appends = self._surrogate(state, rng)
        gp_fits += fits
        gp, fantasies = self._fantasize(gp, state, pending)

        incumbent = state.incumbent_error()
        candidates = self._candidate_pool(state, rng)
        X_cand = self.space.encode_many(candidates)
        with self.tracer.span("acquisition", candidates=len(candidates)):
            with self.surrogate_profile.timeit("acquisition"):
                scores = self.acquisition.score(
                    candidates, X_cand, gp, incumbent
                )
        if pending_keys:
            # Never re-propose an in-flight point: zero its score.
            dup = np.fromiter(
                (_config_key(c) in pending_keys for c in candidates),
                dtype=bool,
                count=len(candidates),
            )
            scores = np.where(dup, 0.0, scores)

        if np.max(scores) > 0:
            config = candidates[int(np.argmax(scores))]
            checks = 0
        else:
            # Acquisition saturated (all candidates gated out or EI = 0):
            # fall back to a screened random draw to keep exploring.
            config, checks = self._screened_random(
                rng, pending_keys=pending_keys
            )

        power, memory = _predictions(self.model_checker, config)
        feasible = (
            self.model_checker.indicator(config)
            if self.model_checker is not None
            else None
        )
        return Proposal(
            config=config,
            silent_model_checks=checks,
            gp_fits=gp_fits,
            gp_appends=appends,
            gp_fantasies=fantasies,
            power_pred_w=power,
            memory_pred_bytes=memory,
            feasible_pred=feasible,
        )
