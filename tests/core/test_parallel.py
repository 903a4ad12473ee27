"""Tests for repro.core.parallel (the batch-parallel evaluation engine).

Two invariant families guard the engine:

* *screening soundness* — the vectorised ``screen_batch`` accepts exactly
  the configurations the per-config ``indicator`` loop accepts, for
  arbitrary candidate sets and budgets (property-based);
* *pool mechanics* — seeding, caching, duplicate sharing and the
  q-parallel wall-time charge of the in-process pool, whose workers are
  simulated, so a pooled run replays identically.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.constraints import GIB, ConstraintSpec, ModelConstraintChecker
from repro.core.parallel import EvaluationPool, TrialCache
from repro.core.result import TrialStatus
from repro.core.spec import RunSpec
from repro.experiments.setup import quick_setup
from repro.io import run_to_dict
from repro.telemetry import Telemetry


@pytest.fixture(scope="module")
def setup():
    return quick_setup(
        "mnist", "gtx1070", power_budget_w=85.0, memory_budget_gb=1.15,
        seed=0, profiling_samples=100,
    )


def _round(pool, configs):
    """Submit ``configs`` at one instant and drain them: one round."""
    for config in configs:
        pool.submit(config, 0.0)
    return pool.drain()


# -- screening soundness ---------------------------------------------------------


class TestBatchScreeningMatchesSerial:
    @settings(max_examples=25, deadline=None)
    @given(
        sample_seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 64),
        power_budget=st.floats(70.0, 120.0),
        memory_budget_gib=st.floats(0.5, 2.0),
    )
    def test_accepts_exactly_what_serial_accepts(
        self, setup, sample_seed, n, power_budget, memory_budget_gib
    ):
        spec = ConstraintSpec(
            power_budget_w=power_budget,
            memory_budget_bytes=memory_budget_gib * GIB,
        )
        checker = ModelConstraintChecker(
            spec, setup.power_model, setup.memory_model
        )
        configs = setup.space.sample_many(
            n, np.random.default_rng(sample_seed)
        )
        serial = np.array([checker.indicator(c) for c in configs])
        accept, power, memory = checker.screen_batch(configs)
        np.testing.assert_array_equal(accept, serial)
        assert accept.shape == (n,)
        assert power.shape == (n,)
        assert memory.shape == (n,)

    @settings(max_examples=10, deadline=None)
    @given(sample_seed=st.integers(0, 2**32 - 1), n=st.integers(1, 64))
    def test_power_only_spec(self, setup, sample_seed, n):
        spec = ConstraintSpec(power_budget_w=85.0)
        checker = ModelConstraintChecker(spec, setup.power_model, None)
        configs = setup.space.sample_many(n, np.random.default_rng(sample_seed))
        serial = np.array([checker.indicator(c) for c in configs])
        accept, power, memory = checker.screen_batch(configs)
        np.testing.assert_array_equal(accept, serial)
        assert memory is None

    @settings(max_examples=10, deadline=None)
    @given(sample_seed=st.integers(0, 2**32 - 1), n=st.integers(1, 32))
    def test_satisfaction_probability_batch(self, setup, sample_seed, n):
        spec = ConstraintSpec(
            power_budget_w=85.0, memory_budget_bytes=1.15 * GIB
        )
        checker = ModelConstraintChecker(
            spec, setup.power_model, setup.memory_model
        )
        configs = setup.space.sample_many(n, np.random.default_rng(sample_seed))
        serial = np.array(
            [checker.satisfaction_probability(c) for c in configs]
        )
        batch = checker.satisfaction_probability_batch(configs)
        np.testing.assert_allclose(batch, serial, rtol=1e-12)


# -- pool mechanics --------------------------------------------------------------


class TestEvaluationPool:
    def test_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown backend 'thread'"):
            RunSpec("Rand", "default", backend="thread")

    def test_rejects_nonpositive_workers(self, setup):
        objective = setup.new_objective(0)
        with pytest.raises(ValueError, match="workers"):
            EvaluationPool(objective, workers=0)

    def test_evaluation_does_not_touch_clock_or_shared_rng(self, setup):
        objective = setup.new_objective(0)
        state_before = objective._rng.bit_generator.state
        pool = EvaluationPool(objective, workers=2, seed=5)
        _round(pool, setup.space.sample_many(2, np.random.default_rng(0)))
        assert objective.clock.now_s == 0.0
        assert objective._rng.bit_generator.state == state_before

    def test_within_batch_duplicates_share_one_evaluation(self, setup):
        # One round: the repeats wait for the in-flight original.
        objective = setup.new_objective(0)
        config = setup.space.sample(np.random.default_rng(1))
        pool = EvaluationPool(objective, workers=3, cache=TrialCache(), seed=2)
        outcomes = _round(pool, [config, dict(config), config])
        assert [po.cached for po in outcomes] == [False, True, True]
        assert pool.hits == 2 and pool.misses == 1
        # All three slots carry the one fresh outcome.
        assert len({id(po.outcome) for po in outcomes}) == 1

    def test_later_round_duplicates_are_cache_hits(self, setup):
        objective = setup.new_objective(0)
        config = setup.space.sample(np.random.default_rng(1))
        pool = EvaluationPool(objective, cache=TrialCache(), seed=2)
        outcomes = [
            po for c in (config, dict(config), config)
            for po in _round(pool, [c])
        ]
        assert [po.cached for po in outcomes] == [False, True, True]
        assert pool.hits == 2 and pool.misses == 1
        assert len({id(po.outcome) for po in outcomes}) == 1

    def test_cache_hit_does_not_advance_the_fresh_seed(self, setup):
        # Seeds number fresh dispatches only: the trial after a hit gets
        # the seed it gets when the hit never happened.
        a, b = setup.space.sample_many(2, np.random.default_rng(5))

        def seeds(configs):
            pool = EvaluationPool(
                setup.new_objective(0), cache=TrialCache(), seed=2
            )
            return [po.seed for c in configs for po in _round(pool, [c])]

        with_hit = seeds([a, dict(a), b])
        assert with_hit[1] is None
        assert [with_hit[0], with_hit[2]] == seeds([a, b]) == [
            int(np.random.SeedSequence([2, i]).generate_state(1)[0])
            for i in (0, 1)
        ]

    def test_drain_returns_ticket_order_and_empties_the_pool(self, setup):
        objective = setup.new_objective(0)
        configs = setup.space.sample_many(3, np.random.default_rng(4))
        pool = EvaluationPool(objective, workers=3, seed=6)
        tickets = [pool.submit(c, 0.0) for c in configs]
        outcomes = pool.drain()
        assert pool.n_inflight == 0
        # Ticket order is submission order: seeds come from the
        # submission counter whatever order the trainings finish in.
        assert [po.seed for po in outcomes] == [
            int(np.random.SeedSequence([6, t]).generate_state(1)[0])
            for t in tickets
        ]
        assert pool.drain() == []

    # A drained round of a synchronous pooled run advances the clock by
    # its q-parallel wall time, ``n_cached * lookup + max(fresh)``.

    @staticmethod
    def _rounds(setup, **kwargs):
        """``(end, start, trials)`` of every round of a traced sync run."""
        telemetry = Telemetry()
        result = setup.run(
            "Rand-Walk", "hyperpower", run_seed=1, max_evaluations=9,
            backend="serial", workers=3, telemetry=telemetry, **kwargs,
        )
        spans = telemetry.tracer.spans
        rounds = []
        for rnd in (s for s in spans if s.name == "round"):
            trial_spans = [
                s for s in spans
                if s.name == "trial" and s.parent_id == rnd.span_id
            ]
            trials = [result.trials[s.attrs["index"]] for s in trial_spans]
            rounds.append((rnd.t1_s, trial_spans[0].t0_s, trials))
        lookup_s = setup.cost_model.cache_lookup_s
        for end_s, start_s, trials in rounds:
            n_cached = sum(t.status is TrialStatus.CACHED for t in trials)
            fresh = [
                t.cost_s for t in trials if t.status is not TrialStatus.CACHED
            ]
            assert end_s == start_s + (
                n_cached * lookup_s + max(fresh, default=0.0)
            )
            assert all(t.timestamp_s == end_s for t in trials)
        return rounds

    def test_batch_wall_time_is_max_not_sum(self, setup):
        rounds = self._rounds(setup, use_cache=False)
        walls = [
            (end_s - start_s, sum(t.cost_s for t in trials))
            for end_s, start_s, trials in rounds
            if len(trials) > 1
        ]
        assert walls and all(wall < total for wall, total in walls)

    def test_batch_wall_time_all_cached(self, setup):
        cache = TrialCache()
        self._rounds(setup, cache=cache)
        warm = self._rounds(setup, cache=cache)
        lookup_s = setup.cost_model.cache_lookup_s
        for end_s, start_s, trials in warm:
            assert all(t.status is TrialStatus.CACHED for t in trials)
            assert end_s == start_s + len(trials) * lookup_s


# -- pooled runs, end to end ----------------------------------------------------


class TestBackendDeterminism:
    def test_pooled_serial_single_worker_matches_itself(self, setup):
        a = setup.run(
            "Rand", "hyperpower", run_seed=2, max_evaluations=5,
            backend="serial",
        )
        b = setup.run(
            "Rand", "hyperpower", run_seed=2, max_evaluations=5,
            backend="serial",
        )
        assert json.dumps(run_to_dict(a)) == json.dumps(run_to_dict(b))

    def test_worker_count_caps_at_remaining_budget(self, setup):
        result = setup.run(
            "Rand", "hyperpower", run_seed=0, max_evaluations=5,
            backend="serial", workers=4,
        )
        assert result.n_trained == 5
