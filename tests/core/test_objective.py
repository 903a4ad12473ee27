"""Tests for repro.core.objective."""

import numpy as np
import pytest

from repro.core.clock import SimClock
from repro.core.constraints import ConstraintSpec
from repro.core.objective import NNObjective
from repro.hwsim.devices import GTX_1070, TEGRA_TX1
from repro.hwsim.profiler import HardwareProfiler
from repro.nn.metrics import NetworkProfile
from repro.nn.network import NetworkSpec
from repro.trainsim.dataset import MNIST
from repro.trainsim.surface import ErrorSurface
from repro.trainsim.trainer import TrainingSimulator


def make_objective(device=GTX_1070, power_budget=85.0, seed=0):
    clock = SimClock()
    trainer = TrainingSimulator(MNIST, ErrorSurface(MNIST, seed=2018), GTX_1070)
    profiler = HardwareProfiler(device, np.random.default_rng(seed))
    spec = ConstraintSpec(power_budget_w=power_budget)
    from repro.space.presets import mnist_space

    return NNObjective(
        space=mnist_space(),
        trainer=trainer,
        profiler=profiler,
        spec=spec,
        clock=clock,
        rng=np.random.default_rng(seed + 1),
    )


def config(**overrides):
    base = {
        "conv1_features": 30,
        "conv1_kernel": 3,
        "conv2_features": 30,
        "fc1_units": 250,
        "learning_rate": 0.008,
        "momentum": 0.9,
    }
    base.update(overrides)
    return base


class TestEvaluate:
    def test_advances_clock_by_cost(self):
        objective = make_objective()
        outcome = objective.evaluate(config())
        assert objective.clock.now_s == pytest.approx(outcome.cost_s)
        assert outcome.cost_s > 60.0  # a real training, not a stub

    def test_outcome_fields(self):
        objective = make_objective()
        outcome = objective.evaluate(config())
        assert 0.0 < outcome.error < 1.0
        assert outcome.epochs_run == MNIST.default_epochs
        assert not outcome.stopped_early
        assert outcome.measurement.power_w > 0

    def test_feasibility_against_budget(self):
        generous = make_objective(power_budget=500.0)
        assert generous.evaluate(config()).feasible_meas
        stingy = make_objective(power_budget=1.0)
        assert not stingy.evaluate(config()).feasible_meas

    def test_early_termination_cuts_cost(self):
        diverging = config(learning_rate=0.1, momentum=0.95)
        full = make_objective(seed=3)
        outcome_full = full.evaluate(diverging, early_term=False)
        short = make_objective(seed=3)
        outcome_short = short.evaluate(diverging, early_term=True)
        assert outcome_full.diverged and outcome_short.diverged
        assert outcome_short.stopped_early
        assert outcome_short.cost_s < outcome_full.cost_s / 3

    def test_converging_config_not_terminated(self):
        objective = make_objective(seed=4)
        outcome = objective.evaluate(config(), early_term=True)
        assert not outcome.stopped_early
        assert outcome.epochs_run == MNIST.default_epochs

    def test_tx1_memory_is_none_and_ignored(self):
        objective = make_objective(device=TEGRA_TX1, power_budget=500.0)
        outcome = objective.evaluate(config())
        assert outcome.measurement.memory_bytes is None
        assert outcome.feasible_meas  # power budget generous, memory absent

    def test_invalid_config_rejected(self):
        objective = make_objective()
        with pytest.raises(ValueError):
            objective.evaluate({"conv1_features": 30})

    def test_names(self):
        objective = make_objective()
        assert objective.dataset_name == "mnist"
        assert objective.device_name == "GTX 1070"



@pytest.fixture
def count_work(monkeypatch):
    """Run a thunk; count the networks, profiles and hardware profilers
    it constructs."""
    counts = dict.fromkeys(("builds", "profiles", "profilers"), 0)
    for cls, key in (
        (NetworkSpec, "builds"),
        (NetworkProfile, "profiles"),
        (HardwareProfiler, "profilers"),
    ):

        def init(self, *args, _key=key, _original=cls.__init__, **kwargs):
            counts[_key] += 1
            _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", init)

    def count(thunk):
        counts.update(dict.fromkeys(counts, 0))
        thunk()
        return dict(counts)

    return count


class TestWorkDoneOnce:
    """One evaluation builds its network once and profiles it once."""

    def test_evaluate_seeded_rung0(self, count_work):
        objective = make_objective()
        counts = count_work(lambda: objective.evaluate_seeded(config(), seed=3))
        assert counts == {"builds": 1, "profiles": 1, "profilers": 1}

    def test_continuation_builds_no_profiler(self, count_work):
        objective = make_objective()
        counts = count_work(
            lambda: objective.evaluate_seeded(config(), seed=3, start_epoch=10)
        )
        assert counts == {"builds": 1, "profiles": 1, "profilers": 0}

    def test_sequential_evaluate(self, count_work):
        objective = make_objective()
        counts = count_work(lambda: objective.evaluate(config()))
        assert counts == {"builds": 1, "profiles": 1, "profilers": 0}
