"""Edge-case and failure-path tests for the core framework."""

import numpy as np
import pytest

from repro.core.acquisition import HWIECI
from repro.core.constraints import ConstraintSpec
from repro.core.hyperpower import HyperPower, build_method
from repro.core.methods import BayesianOptimizer, RandomSearch, SearchState
from repro.core.result import TrialStatus
from repro.experiments.setup import quick_setup
from repro.space.presets import mnist_space


class _ConstantChecker:
    """A checker giving every config the same verdict and prediction."""

    accept = True
    power_w = 1.0

    def indicator(self, config):
        return self.accept

    def predictions(self, config):
        return self.power_w, None

    def screen_batch(self, configs):
        n = len(configs)
        return np.full(n, self.accept), [self.power_w] * n, None

    def indicator_batch(self, configs):
        return np.full(len(configs), self.accept)

    def satisfaction_probability_batch(self, configs):
        return np.full(len(configs), float(self.accept))


class _RejectEverything(_ConstantChecker):
    """A checker whose indicator never passes (degenerate budgets)."""

    accept = False
    power_w = 999.0


class _AcceptEverything(_ConstantChecker):
    pass


class TestScreeningExhaustion:
    def test_random_search_gives_up_gracefully(self):
        space = mnist_space()
        method = RandomSearch(space, _RejectEverything())
        method.max_rejects = 50  # keep the test fast
        proposal = method.propose(SearchState(), np.random.default_rng(0))
        # The last draw is evaluated anyway, flagged infeasible.
        assert proposal.feasible_pred is False
        assert len(proposal.rejected) == method.max_rejects

    def test_bo_fallback_when_pool_fully_gated(self):
        space = mnist_space()
        checker = _RejectEverything()
        method = BayesianOptimizer(
            space, HWIECI(checker), model_checker=checker, n_init=2, pool_size=50
        )
        rng = np.random.default_rng(1)
        state = SearchState()
        # Fabricate two trained observations so the GP phase engages.
        from repro.core.result import Trial

        for i in range(3):
            config = space.sample(rng)
            state.trials.append(
                Trial(
                    index=i,
                    config=config,
                    status=TrialStatus.COMPLETED,
                    timestamp_s=float(i),
                    cost_s=1.0,
                    error=0.1 + 0.1 * i,
                    feasible_meas=True,
                )
            )
            state.trained_configs.append(config)
            state.trained_errors.append(0.1 + 0.1 * i)
            state.trained_feasible.append(True)
        proposal = method.propose(state, rng)
        # Every candidate was gated out -> the screened-random fallback
        # ran (and itself exhausted, since nothing passes).
        assert proposal.silent_model_checks > 0
        assert space.contains(proposal.config)


class TestDriverCaps:
    def test_max_samples_cap_stops_runaway_rejection(self):
        setup = quick_setup(
            "mnist", "tx1", power_budget_w=10.0, seed=0, profiling_samples=40
        )
        method = RandomSearch(setup.space, _RejectEverything())
        method.max_rejects = 200
        objective = setup.new_objective(0)
        driver = HyperPower(objective, method, "hyperpower")
        driver.MAX_SAMPLES = 150  # instance attribute shadows the class cap
        result = driver.run(np.random.default_rng(0), max_time_s=1e9)
        assert result.n_samples <= 150 + method.max_rejects + 1


class TestBuildMethodLatency:
    def test_latency_budget_flows_through(self):
        from repro.hwsim import GTX_1070, HardwareProfiler
        from repro.models import fit_latency_model, run_profiling_campaign

        space = mnist_space()
        rng = np.random.default_rng(2)
        profiler = HardwareProfiler(GTX_1070, rng)
        campaign = run_profiling_campaign(space, "mnist", profiler, 40, rng)
        latency_model = fit_latency_model(space, campaign)
        spec = ConstraintSpec(latency_budget_s=float(np.median(campaign.latency_s)))
        method = build_method(
            "Rand", "hyperpower", space, spec, latency_model=latency_model
        )
        proposal = method.propose(SearchState(), rng)
        assert method.checker.latency_model is latency_model
        assert space.contains(proposal.config)

    def test_missing_latency_model_rejected(self):
        space = mnist_space()
        spec = ConstraintSpec(latency_budget_s=0.01)
        with pytest.raises(ValueError, match="latency"):
            build_method("Rand", "hyperpower", space, spec)


class TestAcceptEverythingChecker:
    def test_no_rejections_when_space_fully_feasible(self):
        space = mnist_space()
        method = RandomSearch(space, _AcceptEverything())
        proposal = method.propose(SearchState(), np.random.default_rng(3))
        assert proposal.rejected == ()
        assert proposal.feasible_pred is True
