"""Tests for repro.trainsim.surface."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.space.presets import cifar10_space, imagenet_space, mnist_space
from repro.trainsim.dataset import CIFAR10, IMAGENET, MNIST
from repro.trainsim.surface import ErrorSurface

_BENCHMARKS = {
    "mnist": (MNIST, mnist_space()),
    "cifar10": (CIFAR10, cifar10_space()),
    "imagenet": (IMAGENET, imagenet_space()),
}


@pytest.fixture
def mnist_surface():
    return ErrorSurface(MNIST, seed=2018)


@pytest.fixture
def cifar_surface():
    return ErrorSurface(CIFAR10, seed=2018)


def mnist_config(**overrides):
    config = {
        "conv1_features": 50,
        "conv1_kernel": 4,
        "conv2_features": 50,
        "fc1_units": 450,
        "learning_rate": 0.01,
        "momentum": 0.9,
    }
    config.update(overrides)
    return config


class TestDeterminism:
    def test_same_config_same_result(self, mnist_surface):
        a = mnist_surface.evaluate(mnist_config())
        b = mnist_surface.evaluate(mnist_config())
        assert a.final_error == b.final_error
        assert a.diverges == b.diverges

    def test_different_seed_different_world(self):
        a = ErrorSurface(MNIST, seed=1).evaluate(mnist_config())
        b = ErrorSurface(MNIST, seed=2).evaluate(mnist_config())
        assert a.final_error != b.final_error

    def test_jitter_varies_across_configs(self, mnist_surface):
        a = mnist_surface.structural_error(mnist_config(conv1_features=50))
        b = mnist_surface.structural_error(mnist_config(conv1_features=51))
        assert a != b


class TestCapacityEffect:
    def test_capacity_in_unit_interval(self, mnist_surface):
        rng = np.random.default_rng(0)
        for config in mnist_space().sample_many(50, rng):
            assert 0.0 <= mnist_surface.capacity(config) <= 1.0

    def test_bigger_nets_have_more_capacity(self, mnist_surface):
        small = mnist_surface.capacity(
            mnist_config(conv1_features=20, conv2_features=20, fc1_units=200)
        )
        large = mnist_surface.capacity(
            mnist_config(conv1_features=80, conv2_features=80, fc1_units=700)
        )
        assert large > small

    def test_capacity_lowers_error_on_average(self, mnist_surface):
        rng = np.random.default_rng(1)
        small_errors, large_errors = [], []
        for _ in range(40):
            base = mnist_space().sample(rng)
            small = dict(base, conv1_features=20, conv2_features=20, fc1_units=200)
            large = dict(base, conv1_features=80, conv2_features=80, fc1_units=700)
            small_errors.append(mnist_surface.structural_error(small))
            large_errors.append(mnist_surface.structural_error(large))
        assert np.mean(large_errors) < np.mean(small_errors)

    def test_error_bounded(self, mnist_surface):
        rng = np.random.default_rng(2)
        for config in mnist_space().sample_many(100, rng):
            evaluation = mnist_surface.evaluate(config)
            assert MNIST.floor_error * 0.9 <= evaluation.final_error
            assert evaluation.final_error <= MNIST.chance_error


class TestSolverEffects:
    def test_huge_step_diverges(self, mnist_surface):
        config = mnist_config(learning_rate=0.1, momentum=0.95)  # step = 2.0
        assert mnist_surface.diverges(config)

    def test_small_step_converges(self, mnist_surface):
        config = mnist_config(learning_rate=0.002, momentum=0.8)  # step = 0.01
        assert not mnist_surface.diverges(config)

    def test_divergence_rate_plausible(self, mnist_surface, cifar_surface):
        rng = np.random.default_rng(3)
        mnist_rate = np.mean(
            [mnist_surface.diverges(c) for c in mnist_space().sample_many(300, rng)]
        )
        cifar_rate = np.mean(
            [cifar_surface.diverges(c) for c in cifar10_space().sample_many(300, rng)]
        )
        assert 0.05 < mnist_rate < 0.35
        # CIFAR-10 nets are more fragile (lower divergence threshold).
        assert cifar_rate > mnist_rate

    def test_off_optimum_step_hurts(self, mnist_surface):
        good = mnist_surface.evaluate(mnist_config(learning_rate=0.006, momentum=0.9))
        slow = mnist_surface.evaluate(mnist_config(learning_rate=0.001, momentum=0.8))
        assert not good.diverges and not slow.diverges
        assert slow.final_error > good.final_error

    def test_near_divergence_degrades(self, mnist_surface):
        config = mnist_config(learning_rate=0.02, momentum=0.93)
        evaluation = mnist_surface.evaluate(config)
        threshold = mnist_surface.divergence_threshold(config)
        # Within half a decade of the cliff the error should be inflated.
        if not evaluation.diverges and evaluation.effective_step > threshold / 2:
            assert evaluation.final_error > evaluation.structural_error

    def test_slow_steps_converge_slowly(self, mnist_surface):
        slow = mnist_surface.evaluate(mnist_config(learning_rate=0.001, momentum=0.8))
        fast = mnist_surface.evaluate(mnist_config(learning_rate=0.006, momentum=0.9))
        assert slow.tau_epochs > fast.tau_epochs

    def test_bad_momentum_rejected(self, mnist_surface):
        with pytest.raises(ValueError):
            mnist_surface.effective_step(mnist_config(momentum=1.0))


class TestWeightDecay:
    def test_mismatch_penalised_on_cifar(self, cifar_surface):
        rng = np.random.default_rng(4)
        base = cifar10_space().sample(rng)
        base.update(learning_rate=0.004, momentum=0.85)
        good = dict(base, weight_decay=0.0015)
        bad = dict(base, weight_decay=0.0001)
        good_eval = cifar_surface.evaluate(good)
        bad_eval = cifar_surface.evaluate(bad)
        if not good_eval.diverges and not bad_eval.diverges:
            assert bad_eval.final_error > good_eval.final_error


class TestUnknownDataset:
    def test_requires_params(self):
        from dataclasses import replace

        exotic = replace(MNIST, name="exotic")
        with pytest.raises(ValueError, match="surface parameters"):
            ErrorSurface(exotic)


class TestEvaluateSharesComponents:
    """``evaluate`` computes capacity and jitters once; every field must
    equal the standalone component computed from the config alone."""

    @settings(max_examples=60, deadline=None)
    @given(
        name=st.sampled_from(sorted(_BENCHMARKS)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_fields_equal_standalone_components(self, name, seed):
        dataset, space = _BENCHMARKS[name]
        surface = ErrorSurface(dataset, seed=2018)
        config = space.sample(np.random.default_rng(seed))
        evaluation = surface.evaluate(config)
        assert evaluation.capacity == surface.capacity(config)
        assert evaluation.structural_error == surface.structural_error(config)
        assert evaluation.effective_step == surface.effective_step(config)
        assert evaluation.step_optimum == surface.step_optimum(config)
        threshold = surface.divergence_threshold(config)
        assert evaluation.diverges == (evaluation.effective_step > threshold)
        assert evaluation.diverges == surface.diverges(config)

    @settings(max_examples=30, deadline=None)
    @given(
        name=st.sampled_from(sorted(_BENCHMARKS)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_threshold_skips_the_structural_draw(self, name, seed):
        dataset, space = _BENCHMARKS[name]
        surface = ErrorSurface(dataset, seed=2018)
        config = space.sample(np.random.default_rng(seed))
        rng = surface._config_rng(config)
        rng.normal()
        jitter_dex = rng.normal(0.0, surface.params.divergence_jitter_dex)
        capacity = surface.capacity(config)
        assert surface.divergence_threshold(config) == (
            surface.divergence_threshold(config, capacity, jitter_dex)
        )
