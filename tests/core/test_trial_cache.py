"""Tests for the config-hash trial cache (repro.core.parallel.TrialCache)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.parallel import TrialCache, canonical_config_key
from repro.core.result import TrialStatus
from repro.experiments.reporting import cache_text, run_summary
from repro.experiments.setup import quick_setup


@pytest.fixture(scope="module")
def setup():
    return quick_setup(
        "mnist", "gtx1070", power_budget_w=85.0, memory_budget_gb=1.15,
        seed=0, profiling_samples=100,
    )


# -- canonical hashing -----------------------------------------------------------


class TestCanonicalKey:
    def test_stable_across_dict_ordering(self):
        a = {"alpha": 1, "beta": 2.5, "gamma": "x"}
        b = {"gamma": "x", "alpha": 1, "beta": 2.5}
        assert canonical_config_key(a) == canonical_config_key(b)

    def test_numpy_scalars_hash_like_python_numbers(self):
        a = {"units": 64, "lr": 0.1, "wide": True}
        b = {"units": np.int64(64), "lr": np.float64(0.1), "wide": np.True_}
        assert canonical_config_key(a) == canonical_config_key(b)

    def test_distinct_values_hash_differently(self):
        assert canonical_config_key({"x": 1}) != canonical_config_key({"x": 2})
        assert canonical_config_key({"x": 1}) != canonical_config_key({"y": 1})

    def test_unhashable_value_raises(self):
        with pytest.raises(TypeError, match="unhashable"):
            canonical_config_key({"x": [1, 2]})

    @settings(max_examples=50, deadline=None)
    @given(
        config=st.dictionaries(
            st.text(min_size=1, max_size=8),
            st.one_of(
                st.integers(-(2**31), 2**31),
                st.floats(allow_nan=False, allow_infinity=False),
                st.booleans(),
                st.text(max_size=8),
            ),
            min_size=1,
            max_size=6,
        ),
        permutation_seed=st.integers(0, 2**32 - 1),
    )
    def test_order_invariance_property(self, config, permutation_seed):
        items = list(config.items())
        rng = np.random.default_rng(permutation_seed)
        shuffled = dict(items[i] for i in rng.permutation(len(items)))
        assert canonical_config_key(config) == canonical_config_key(shuffled)

    @settings(max_examples=50, deadline=None)
    @given(
        ivalue=st.integers(-(2**31), 2**31),
        fvalue=st.floats(allow_nan=False, allow_infinity=False),
        bvalue=st.booleans(),
    )
    def test_numpy_representation_invariance_property(
        self, ivalue, fvalue, bvalue
    ):
        """Value-equal configs hash equal whatever scalar type carries them.

        Covers the exact situation the pool produces: NumPy scalars coming
        out of samplers versus native numbers coming out of JSON replays.
        """
        native = {"i": ivalue, "f": fvalue, "b": bvalue}
        numpy_typed = {
            "i": np.int64(ivalue),
            "f": np.float64(fvalue),
            "b": np.bool_(bvalue),
        }
        assert canonical_config_key(native) == canonical_config_key(
            numpy_typed
        )

    @settings(max_examples=50, deadline=None)
    @given(
        value=st.floats(allow_nan=False, allow_infinity=False),
        delta=st.floats(min_value=1e-12, max_value=1e6),
    )
    def test_distinct_floats_hash_differently_property(self, value, delta):
        """Floats hash by shortest round-trip repr, so any two *different*
        float values — however close — get different keys."""
        other = value + delta
        if other == value:  # delta vanished in rounding: same value
            assert canonical_config_key({"x": value}) == canonical_config_key(
                {"x": other}
            )
        else:
            assert canonical_config_key({"x": value}) != canonical_config_key(
                {"x": other}
            )


# -- hit/miss accounting ---------------------------------------------------------


class _FakeOutcome:
    def __init__(self, tag, error=0.1, measurement="m", measurement_failed=False):
        self.tag = tag
        self.error = error
        self.measurement = measurement
        self.measurement_failed = measurement_failed


class TestTrialCacheAccounting:
    def test_miss_then_hit(self):
        cache = TrialCache()
        config = {"a": 1, "b": 2.0}
        assert cache.get(cache.key(config)) is None
        cache.put(cache.key(config), _FakeOutcome("x"))
        hit = cache.get(cache.key({"b": 2.0, "a": 1}))  # reordered dict hits
        assert hit.tag == "x"
        assert cache.hits == 1
        assert cache.misses == 1
        assert cache.lookups == 2
        assert cache.hit_rate == pytest.approx(0.5)

    def test_hit_rate_zero_before_lookups(self):
        assert TrialCache().hit_rate == 0.0

    def test_clear_resets_everything(self):
        cache = TrialCache()
        cache.put(cache.key({"a": 1}), _FakeOutcome("x"))
        cache.get(cache.key({"a": 1}))
        cache.clear()
        assert len(cache) == 0
        assert cache.hits == 0 and cache.misses == 0

    def test_fifo_eviction_at_max_size(self):
        cache = TrialCache(max_size=2)
        for i in range(3):
            cache.put(cache.key({"a": i}), _FakeOutcome(i))
        assert len(cache) == 2
        assert cache.get(cache.key({"a": 0})) is None  # evicted
        assert cache.get(cache.key({"a": 2})).tag == 2

    def test_max_size_validation(self):
        with pytest.raises(ValueError, match="max_size"):
            TrialCache(max_size=0)

    def test_rejects_non_finite_errors(self):
        """A NaN/inf observation must never enter the cache: warm-cache
        runs would replay the poisoned result forever."""
        cache = TrialCache()
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="non-finite"):
                cache.put(cache.key({"a": 1}), _FakeOutcome("x", error=bad))
        assert len(cache) == 0

    def test_rejects_degraded_outcomes(self):
        cache = TrialCache()
        with pytest.raises(ValueError, match="degraded"):
            cache.put(cache.key({"a": 1}), _FakeOutcome("x", measurement=None))
        with pytest.raises(ValueError, match="degraded"):
            cache.put(
                cache.key({"a": 1}), _FakeOutcome("x", measurement_failed=True)
            )
        assert len(cache) == 0


# -- clock accounting of cached trials -------------------------------------------


class TestCachedTrialsAreCheap:
    def test_warm_cache_run_replays_at_lookup_cost(self, setup):
        """A second identically-seeded run against a shared cache replays
        every training as a CACHED trial at the (near-zero) lookup cost."""
        cache = TrialCache()
        kwargs = dict(
            run_seed=3, max_evaluations=6, backend="serial", cache=cache
        )
        cold = setup.run("Rand-Walk", "hyperpower", **kwargs)
        warm = setup.run("Rand-Walk", "hyperpower", **kwargs)

        assert cold.cache_hits == 0 and cold.cache_misses == 6
        assert warm.cache_misses == 0 and warm.cache_hits == 6
        assert warm.cache_hit_rate == 1.0
        assert warm.n_cached == 6

        lookup_s = setup.cost_model.cache_lookup_s
        cached = [
            t for t in warm.trials if t.status is TrialStatus.CACHED
        ]
        assert len(cached) == 6
        for trial in cached:
            assert trial.cost_s == pytest.approx(lookup_s)
            assert trial.epochs_run == 0
            assert trial.was_trained  # replays a usable observation
            assert not math.isnan(trial.error)

        # The warm run pays hash probes where the cold run paid trainings
        # (proposal/screening charges are identical in both runs).
        cold_training_s = sum(
            t.cost_s for t in cold.trials if t.was_trained
        )
        warm_replay_s = sum(
            t.cost_s for t in warm.trials if t.was_trained
        )
        assert warm_replay_s < cold_training_s / 100.0
        assert warm.wall_time_s == pytest.approx(
            cold.wall_time_s - cold_training_s + warm_replay_s
        )

        # Replay preserves the result: same best error, same configs.
        assert warm.best_feasible_error == cold.best_feasible_error

    def test_warm_rand_walk_hit_rate_is_reported_in_run_summary(self, setup):
        cache = TrialCache()
        kwargs = dict(
            run_seed=3, max_evaluations=4, backend="serial", cache=cache
        )
        setup.run("Rand-Walk", "hyperpower", **kwargs)
        warm = setup.run("Rand-Walk", "hyperpower", **kwargs)
        summary = run_summary(warm)
        assert "cache:" in summary
        assert "hit_rate=100.00%" in summary
        assert warm.cache_hit_rate > 0

    def test_sequential_run_reports_no_cache_line(self, setup):
        result = setup.run("Rand", "hyperpower", run_seed=0, max_evaluations=3)
        assert cache_text(result) == "--"
        assert "cache:" not in run_summary(result)
