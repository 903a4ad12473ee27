"""Integration tests for repro.core.hyperpower (the Figure 2 driver)."""

import numpy as np
import pytest

from repro.core.hyperpower import SOLVERS, VARIANTS, build_method
from repro.core.result import TrialStatus
from repro.experiments.setup import quick_setup
from repro.telemetry import Telemetry


@pytest.fixture(scope="module")
def setup():
    # 100 profiling samples (the production default): on this tightest
    # pair (~9% feasible) the linear model needs the full campaign for its
    # low-power tail to clear the 1-sigma indicator margin.
    return quick_setup(
        "mnist", "gtx1070", power_budget_w=85.0, memory_budget_gb=1.15,
        seed=0, profiling_samples=100,
    )


class TestBuildMethod:
    def test_all_eight_variants_construct(self, setup):
        for solver in SOLVERS:
            for variant in VARIANTS:
                method = build_method(
                    solver,
                    variant,
                    setup.space,
                    setup.spec,
                    power_model=setup.power_model,
                    memory_model=setup.memory_model,
                )
                assert method.name in (solver, "Rand", "Rand-Walk")

    def test_unknown_solver(self, setup):
        with pytest.raises(ValueError, match="unknown solver"):
            build_method("Grid", "default", setup.space, setup.spec)

    def test_unknown_variant(self, setup):
        with pytest.raises(ValueError, match="unknown variant"):
            build_method("Rand", "exhaustive", setup.space, setup.spec)


class TestIterationBudget:
    def test_counts_trained_evaluations(self, setup):
        result = setup.run("Rand", "hyperpower", run_seed=1, max_evaluations=4)
        assert result.n_trained == 4
        # Queried samples include the model rejections.
        assert result.n_samples >= 4

    def test_default_variant_trains_everything(self, setup):
        result = setup.run("Rand", "default", run_seed=2, max_evaluations=3)
        assert result.n_trained == 3
        assert result.n_samples == 3  # no screening, no rejections

    def test_requires_some_budget(self, setup):
        from repro.core.hyperpower import HyperPower

        method = build_method(
            "Rand", "default", setup.space, setup.spec,
            power_model=setup.power_model, memory_model=setup.memory_model,
        )
        driver = HyperPower(setup.new_objective(0), method, "default")
        with pytest.raises(ValueError):
            driver.run(np.random.default_rng(0))


class TestTimeBudget:
    def test_overshoot_is_one_sample(self, setup):
        budget = 1800.0
        result = setup.run("Rand", "default", run_seed=3, max_time_s=budget)
        # The last sample may complete past the deadline (paper behaviour),
        # but the run never starts a new one after it.
        assert result.wall_time_s >= budget
        last_cost = result.trials[-1].cost_s
        assert result.wall_time_s < budget + last_cost + 60.0

    def test_hyperpower_queries_more_samples(self, setup):
        default = setup.run("Rand", "default", run_seed=4, max_time_s=1800.0)
        hyper = setup.run("Rand", "hyperpower", run_seed=4, max_time_s=1800.0)
        assert hyper.n_samples > 3 * default.n_samples


#: The dispatch modes of the run loop: the paper's sequential loop, the
#: round barrier over a pool, the asynchronous scheduler and SHA rungs.
DISPATCH_MODES = {
    "sequential": {},
    "sync-pool": {"backend": "serial", "workers": 3},
    "async": {"backend": "serial", "workers": 3, "scheduler": "async"},
    "rungs": {
        "backend": "serial", "workers": 3, "scheduler": "async", "rungs": 3,
    },
}


@pytest.mark.parametrize("mode", sorted(DISPATCH_MODES))
class TestBudgetGuarantee:
    def test_never_trains_past_max_evaluations(self, setup, mode):
        for budget in (1, 2, 5):
            result = setup.run(
                "Rand", "hyperpower", run_seed=11, max_evaluations=budget,
                **DISPATCH_MODES[mode],
            )
            assert 1 <= result.n_trained <= budget

    def test_no_trial_starts_after_the_time_budget(self, setup, mode):
        budget = 1800.0
        telemetry = Telemetry()
        result = setup.run(
            "Rand", "default", run_seed=12, max_time_s=budget,
            telemetry=telemetry, **DISPATCH_MODES[mode],
        )
        starts = [s.t0_s for s in telemetry.tracer.spans if s.name == "trial"]
        assert len(starts) == result.n_samples
        assert max(starts) < budget <= result.wall_time_s


class TestConstraintBehaviour:
    def test_hyperpower_essentially_never_violates(self, setup):
        # The paper's headline: "while never considering invalid
        # configurations" under HW-IECI.  Residual model uncertainty allows
        # at most a stray near-boundary miss.
        result = setup.run("HW-IECI", "hyperpower", run_seed=5, max_evaluations=8)
        assert result.n_violations <= 1

    def test_screened_random_rarely_violates(self, setup):
        result = setup.run("Rand", "hyperpower", run_seed=6, max_evaluations=6)
        assert result.n_violations <= 1

    def test_default_random_violates_often(self, setup):
        # ~92% of the space violates the 85 W budget.
        result = setup.run("Rand", "default", run_seed=7, max_evaluations=8)
        assert result.n_violations >= 4

    def test_rejected_trials_carry_predictions(self, setup):
        result = setup.run("Rand", "hyperpower", run_seed=8, max_evaluations=3)
        rejected = [
            t for t in result.trials if t.status is TrialStatus.REJECTED_MODEL
        ]
        assert rejected, "tight budgets should produce rejections"
        for trial in rejected:
            assert trial.power_pred_w is not None
            assert trial.feasible_pred is False
            assert np.isnan(trial.error)


class TestEarlyTermination:
    def test_hyperpower_terminates_divergers(self, setup):
        result = setup.run("Rand", "hyperpower", run_seed=9, max_evaluations=12)
        statuses = {t.status for t in result.trials}
        # Over 12 trainings, some diverging configs should have been cut.
        if any(t.diverged for t in result.trials if t.was_trained):
            assert TrialStatus.EARLY_TERMINATED in statuses

    def test_default_never_terminates(self, setup):
        result = setup.run("Rand", "default", run_seed=10, max_evaluations=6)
        assert all(
            t.status is TrialStatus.COMPLETED for t in result.trials
        )


class TestResultMetadata:
    def test_labels(self, setup):
        result = setup.run("HW-CWEI", "hyperpower", run_seed=11, max_evaluations=3)
        assert result.method == "HW-CWEI"
        assert result.variant == "hyperpower"
        assert result.dataset == "mnist"
        assert result.device == "GTX 1070"

    def test_best_configuration_is_feasible(self, setup):
        from repro.core.hyperpower import HyperPower

        method = build_method(
            "Rand", "hyperpower", setup.space, setup.spec,
            power_model=setup.power_model, memory_model=setup.memory_model,
        )
        objective = setup.new_objective(12)
        driver = HyperPower(objective, method, "hyperpower")
        result = driver.run(np.random.default_rng(12), max_evaluations=5)
        best = result.best_trial()
        assert best is not None
        assert best.counts_for_best and best.feasible_meas is not False
        assert best.error == result.best_feasible_error
        assert setup.space.contains(best.config)

    def test_timestamps_monotone(self, setup):
        result = setup.run("Rand", "hyperpower", run_seed=13, max_evaluations=4)
        times = [t.timestamp_s for t in result.trials]
        assert all(a <= b for a, b in zip(times, times[1:]))
