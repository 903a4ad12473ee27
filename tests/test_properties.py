"""Cross-module property-based tests (hypothesis).

These complement the per-module suites with invariants that must hold for
*arbitrary* inputs: round-trips, clipping, monotonicity, conservation.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.result import RunResult, Trial, TrialStatus
from repro.gp.gp import GaussianProcess
from repro.gp.kernels import Matern52
from repro.io import run_from_dict, run_to_dict
from repro.space.params import ContinuousParameter, IntegerParameter
from repro.space.space import SearchSpace


# -- strategy helpers ------------------------------------------------------------

@st.composite
def spaces(draw):
    """Random small search spaces mixing integer and continuous axes."""
    n_int = draw(st.integers(1, 3))
    n_cont = draw(st.integers(0, 2))
    params = []
    for i in range(n_int):
        low = draw(st.integers(0, 50))
        high = low + draw(st.integers(1, 100))
        params.append(IntegerParameter(f"i{i}", low, high))
    for i in range(n_cont):
        low = draw(st.floats(0.001, 10.0))
        width = draw(st.floats(0.5, 100.0))
        log = draw(st.booleans())
        params.append(
            ContinuousParameter(f"c{i}", low, low + width, log=log)
        )
    return SearchSpace(params)


@st.composite
def trials(draw, index):
    status = draw(st.sampled_from(list(TrialStatus)))
    trained = status is not TrialStatus.REJECTED_MODEL
    error = (
        draw(st.floats(0.001, 0.99)) if trained else math.nan
    )
    return Trial(
        index=index,
        config={"x": draw(st.integers(0, 100))},
        status=status,
        timestamp_s=float(index * 10 + draw(st.integers(0, 9))),
        cost_s=draw(st.floats(0.1, 100.0)),
        error=error,
        epochs_run=draw(st.integers(0, 30)) if trained else 0,
        feasible_meas=draw(st.booleans()) if trained else None,
        feasible_pred=draw(st.sampled_from([None, True, False])),
    )


@st.composite
def runs(draw):
    n = draw(st.integers(0, 8))
    run = RunResult(
        method=draw(st.sampled_from(["Rand", "HW-IECI"])),
        variant=draw(st.sampled_from(["default", "hyperpower"])),
        dataset="mnist",
        device="GTX 1070",
        wall_time_s=draw(st.floats(0.0, 1e5)),
    )
    run.trials = [draw(trials(index=i)) for i in range(n)]
    return run


# -- space round-trips --------------------------------------------------------------

class TestSpaceProperties:
    @given(spaces(), st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_sample_encode_decode_roundtrip(self, space, seed):
        rng = np.random.default_rng(seed)
        config = space.sample(rng)
        decoded = space.decode(space.encode(config))
        for parameter in space.parameters:
            if isinstance(parameter, IntegerParameter):
                assert decoded[parameter.name] == config[parameter.name]
            else:
                assert decoded[parameter.name] == pytest.approx(
                    config[parameter.name], rel=1e-6
                )

    @given(spaces(), st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_lhs_fills_every_stratum_on_each_axis(self, space, seed):
        rng = np.random.default_rng(seed)
        n = 8
        configs = space.sample_lhs(n, rng)
        assert len(configs) == n
        for config in configs:
            assert space.contains(config)

    @given(spaces(), st.integers(0, 2**31 - 1), st.floats(0.0, 2.0))
    @settings(max_examples=40, deadline=None)
    def test_neighbor_always_valid(self, space, seed, sigma):
        rng = np.random.default_rng(seed)
        center = space.sample(rng)
        assert space.contains(space.neighbor(center, sigma, rng))


# -- run/trial serialization ----------------------------------------------------------

class TestIoProperties:
    @given(runs())
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_preserves_derived_metrics(self, run):
        clone = run_from_dict(run_to_dict(run))
        assert clone.n_samples == run.n_samples
        assert clone.n_trained == run.n_trained
        assert clone.n_violations == run.n_violations
        assert clone.best_feasible_error == pytest.approx(
            run.best_feasible_error
        )
        np.testing.assert_array_equal(
            clone.violation_counts(), run.violation_counts()
        )

    @given(runs())
    @settings(max_examples=40, deadline=None)
    def test_best_error_curve_is_monotone(self, run):
        curve = run.best_error_vs_samples()
        assert np.all(np.diff(curve) <= 1e-12)


# -- GP posterior contraction ------------------------------------------------------------

class TestGPProperties:
    @given(st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_observing_a_point_shrinks_its_variance(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.uniform(size=(8, 2))
        y = rng.normal(size=8)
        gp = GaussianProcess(kernel=Matern52(2), noise_variance=1e-4)
        gp.fit(X, y, optimize_hypers=False)
        probe = rng.uniform(size=(1, 2))
        _, var_before = gp.predict(probe)
        X2 = np.vstack([X, probe])
        y2 = np.concatenate([y, [0.0]])
        gp.fit(X2, y2, optimize_hypers=False)
        _, var_after = gp.predict(probe)
        assert var_after[0] <= var_before[0] + 1e-9


# -- LHS stratification (deterministic check) -------------------------------------------

class TestLhsStratification:
    def test_each_axis_hits_every_stratum(self):
        space = SearchSpace(
            [
                IntegerParameter("a", 0, 999),
                ContinuousParameter("b", 0.0, 1.0),
            ]
        )
        n = 10
        configs = space.sample_lhs(n, np.random.default_rng(0))
        b_strata = {int(c["b"] * n) for c in configs}
        # Continuous axis: one point per stratum (modulo boundary clips).
        assert len(b_strata) >= n - 1


# -- physical bounds over arbitrary configurations ----------------------------------

class TestPhysicalBounds:
    @given(st.integers(0, 2**31 - 1), st.sampled_from(["mnist", "cifar10"]))
    @settings(max_examples=25, deadline=None)
    def test_power_within_device_envelope(self, seed, dataset):
        from repro.hwsim import DEVICES, inference_power
        from repro.nn import build_network
        from repro.space import cifar10_space, mnist_space

        space = mnist_space() if dataset == "mnist" else cifar10_space()
        config = space.sample(np.random.default_rng(seed))
        network = build_network(dataset, config)
        for device in DEVICES.values():
            power = inference_power(network, device)
            assert device.idle_power_w < power < device.max_power_w

    @given(st.integers(0, 2**31 - 1), st.sampled_from(["mnist", "cifar10"]))
    @settings(max_examples=25, deadline=None)
    def test_memory_within_vram(self, seed, dataset):
        from repro.hwsim import GTX_1070, inference_memory
        from repro.nn import build_network
        from repro.space import cifar10_space, mnist_space

        space = mnist_space() if dataset == "mnist" else cifar10_space()
        config = space.sample(np.random.default_rng(seed))
        network = build_network(dataset, config)
        footprint = inference_memory(network, GTX_1070)
        assert GTX_1070.runtime_overhead_bytes * 0.5 < footprint
        assert footprint < GTX_1070.vram_bytes

    @given(st.integers(0, 2**31 - 1), st.sampled_from(["mnist", "cifar10"]))
    @settings(max_examples=25, deadline=None)
    def test_surface_error_bounded(self, seed, dataset):
        from repro.space import cifar10_space, mnist_space
        from repro.trainsim import CIFAR10, MNIST, ErrorSurface

        if dataset == "mnist":
            space, spec = mnist_space(), MNIST
        else:
            space, spec = cifar10_space(), CIFAR10
        surface = ErrorSurface(spec)
        config = space.sample(np.random.default_rng(seed))
        evaluation = surface.evaluate(config)
        assert spec.floor_error * 0.9 <= evaluation.final_error
        assert evaluation.final_error <= spec.chance_error
        assert 0.0 <= evaluation.capacity <= 1.0
