"""Tests for the event-driven asynchronous scheduler.

Three invariant families guard the async path:

* *event-queue soundness* — completions pop in nondecreasing simulated
  time for any interleaving of submits and pops (property-based), and
  simultaneous finishes break ties deterministically by submission ticket;
* *sync equivalence* — with one worker the dispatch→complete alternation
  reproduces the synchronous round loop trial for trial, byte for byte;
* *crash safety* — an async run killed mid-flight resumes bit-identically
  from its journal (completion-ordered rounds, seed-keyed substitution),
  including under fault injection with retry/backoff waves.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.faults import FaultRates, RetryPolicy
from repro.core.methods import BayesianOptimizer, RandomSearch
from repro.core.parallel import EvaluationPool, TrialCache
from repro.core.spec import RunSpec
from repro.experiments.setup import quick_setup
from repro.io import run_to_dict
from repro.telemetry import Telemetry

pytestmark = pytest.mark.async_sched


@pytest.fixture(scope="module")
def setup():
    return quick_setup(
        "mnist", "gtx1070", power_budget_w=85.0, memory_budget_gb=1.15,
        seed=0, profiling_samples=100,
    )


# -- event-queue soundness -------------------------------------------------------


class TestEventQueue:
    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        workers=st.integers(1, 4),
        n_trials=st.integers(1, 12),
    )
    def test_completions_nondecreasing_in_time(
        self, setup, seed, workers, n_trials
    ):
        """Any submit/pop interleaving yields time-ordered completions."""
        rng = np.random.default_rng(seed)
        objective = setup.new_objective(int(seed) % 1000)
        configs = setup.space.sample_many(n_trials, rng)
        pool = EvaluationPool(
            objective, workers=workers,
            cache=TrialCache(), seed=int(seed) % 97,
        )
        now = 0.0
        submitted = 0
        last_finish = -np.inf
        last_ticket = -1
        while submitted < n_trials or pool.n_inflight:
            free = pool.n_inflight < workers and submitted < n_trials
            if free and (not pool.n_inflight or rng.random() < 0.6):
                pool.submit(
                    configs[submitted], now, cache_lookup_s=0.01
                )
                submitted += 1
                continue
            done = pool.next_completion()
            assert done.finish_s >= last_finish
            if done.finish_s == last_finish:
                # Simultaneous finishes pop in submission order.
                assert done.ticket > last_ticket
            assert done.finish_s >= now
            last_finish, last_ticket = done.finish_s, done.ticket
            now = max(now, done.finish_s)

    def test_ties_break_by_ticket(self, setup):
        """Identical finish times pop in submission-ticket order."""
        objective = setup.new_objective(0)
        rng = np.random.default_rng(0)
        config = setup.space.sample(rng)
        pool = EvaluationPool(objective, workers=4, cache=TrialCache())
        first = pool.submit(config, 0.0, cache_lookup_s=0.01)
        done = pool.next_completion()
        assert done.ticket == first and not done.outcome.cached
        # Three cache hits of the now-cached config, all submitted at
        # the same instant: identical finish_s, tickets 1 < 2 < 3.
        t = done.finish_s
        tickets = [
            pool.submit(config, t, cache_lookup_s=0.01)
            for _ in range(3)
        ]
        pops = [pool.next_completion() for _ in range(3)]
        assert [p.ticket for p in pops] == tickets
        assert len({p.finish_s for p in pops}) == 1
        assert all(p.outcome.cached for p in pops)

    def test_duplicate_of_inflight_waits_for_original(self, setup):
        """A duplicate submit shares the in-flight result, after it."""
        objective = setup.new_objective(1)
        config = setup.space.sample(np.random.default_rng(1))
        pool = EvaluationPool(objective, workers=2, cache=TrialCache())
        pool.submit(config, 0.0, cache_lookup_s=0.01)
        pool.submit(config, 0.0, cache_lookup_s=0.01)
        original = pool.next_completion()
        dup = pool.next_completion()
        assert not original.outcome.cached
        assert dup.outcome.cached
        assert dup.finish_s == pytest.approx(original.finish_s + 0.01)
        assert dup.outcome.outcome.error == original.outcome.outcome.error
        assert pool.hits == 1 and pool.misses == 1

    def test_worker_limit_enforced(self, setup):
        objective = setup.new_objective(2)
        rng = np.random.default_rng(2)
        pool = EvaluationPool(objective, workers=2, cache=TrialCache())
        pool.submit(setup.space.sample(rng), 0.0)
        pool.submit(setup.space.sample(rng), 0.0)
        with pytest.raises(RuntimeError, match="workers are busy"):
            pool.submit(setup.space.sample(rng), 0.0)
        pool.next_completion()
        pool.submit(setup.space.sample(rng), 0.0)
        with pytest.raises(RuntimeError, match="no trials in flight"):
            EvaluationPool(objective).next_completion()


# -- pending-aware proposals -----------------------------------------------------


class TestPendingAwareProposals:
    def test_random_search_excludes_pending(self, setup):
        method = RandomSearch(setup.space, checker=None)
        # Build the pending list from the method's own next draw, so the
        # first sample *is* the in-flight config and must be redrawn.
        pending = [method.propose(None, np.random.default_rng(0)).config]
        proposal = method.propose(None, np.random.default_rng(0), pending)
        assert proposal.config != pending[0]

    def test_bo_fantasizes_pending(self, setup):
        from repro.core.acquisition import ExpectedImprovement

        method = BayesianOptimizer(
            setup.space, ExpectedImprovement(), n_init=2, pool_size=50,
        )
        rng = np.random.default_rng(3)
        state = _trained_state(setup, n=4)
        pending = setup.space.sample_many(3, np.random.default_rng(11))
        proposal = method.propose(state, rng, pending)
        assert proposal.gp_fantasies == 3
        from repro.core.methods import _config_key

        assert _config_key(proposal.config) not in {
            _config_key(c) for c in pending
        }
        # The persistent surrogate must not have absorbed the lies.
        assert method._gp.n_observations == 4

    def test_bo_rejects_unknown_fantasy(self, setup):
        # The constant liar at the incumbent (cl-min) is the only fantasy:
        # the option is gone from the optimizer and from the run spec.
        from repro.core.acquisition import ExpectedImprovement

        with pytest.raises(TypeError, match="fantasy"):
            BayesianOptimizer(
                setup.space, ExpectedImprovement(), fantasy="cl-mean"
            )
        with pytest.raises(ValueError, match="fantasy is not a method option"):
            RunSpec.for_method("HW-IECI", "hyperpower", {"fantasy": "cl-min"})


def _trained_state(setup, n):
    from repro.core.methods import SearchState

    state = SearchState()
    rng = np.random.default_rng(42)
    configs = setup.space.sample_many(n, rng)
    for i, config in enumerate(configs):
        state.trained_configs.append(config)
        state.trained_errors.append(0.1 + 0.01 * i)
        state.trained_feasible.append(True)
    return state


# -- sync equivalence ------------------------------------------------------------


class TestSyncEquivalence:
    @pytest.mark.parametrize(
        "solver,variant",
        [("HW-IECI", "hyperpower"), ("Rand", "default")],
    )
    def test_one_worker_matches_sync_trial_for_trial(
        self, setup, solver, variant
    ):
        kw = dict(backend="serial", workers=1, max_evaluations=6)
        sync = setup.run(solver, variant, **kw)
        asynchronous = setup.run(solver, variant, scheduler="async", **kw)
        assert run_to_dict(sync) == run_to_dict(asynchronous)

    def test_async_multiworker_hits_eval_budget(self, setup):
        result = setup.run(
            "HW-IECI", "hyperpower", backend="serial", workers=4,
            max_evaluations=10, scheduler="async",
        )
        assert result.n_trained == 10

    def test_async_requires_pool(self, setup):
        with pytest.raises(ValueError, match="requires a pool backend"):
            setup.run(
                "Rand", "default", max_evaluations=2, scheduler="async"
            )
        with pytest.raises(ValueError, match="unknown scheduler"):
            setup.run(
                "Rand", "default", backend="serial", max_evaluations=2,
                scheduler="fifo",
            )
        for bad in (float("nan"), float("inf"), 0.0, -60.0):
            with pytest.raises(ValueError, match="max_time_s"):
                setup.run(
                    "Rand", "default", backend="serial", max_time_s=bad,
                    scheduler="async",
                )


# -- crash safety ----------------------------------------------------------------


def _truncate_rounds(path, out, keep_rounds):
    """Copy header + ``keep_rounds`` journal rounds, then a torn tail."""
    lines = path.read_bytes().splitlines(keepends=True)
    with open(out, "wb") as fh:
        fh.writelines(lines[: 1 + keep_rounds])
        fh.write(b'{"round": 99, "tor')


class TestAsyncResume:
    @pytest.mark.parametrize("keep_rounds", [0, 3, 7])
    def test_kill_and_resume_bit_exact(self, setup, tmp_path, keep_rounds):
        kw = dict(
            backend="serial", workers=4, max_evaluations=10,
            scheduler="async",
        )
        full_path = tmp_path / "full.jsonl"
        full = setup.run("HW-IECI", "hyperpower", journal=full_path, **kw)
        part_path = tmp_path / "part.jsonl"
        _truncate_rounds(full_path, part_path, keep_rounds)
        resumed = setup.run(
            "HW-IECI", "hyperpower", resume_from=part_path, **kw
        )
        assert run_to_dict(resumed) == run_to_dict(full)
        assert part_path.read_bytes() == full_path.read_bytes()

    def test_kill_and_resume_with_faults(self, setup, tmp_path):
        """Retry waves and backoff charges journal and resume exactly."""
        kw = dict(
            backend="serial", workers=3, max_evaluations=8,
            scheduler="async",
            faults=FaultRates(crash=0.15, hang=0.05, nan_loss=0.1, nvml=0.1),
            retry=RetryPolicy(max_attempts=3, timeout_s=4000.0),
        )
        full_path = tmp_path / "full.jsonl"
        full = setup.run("Rand", "hyperpower", journal=full_path, **kw)
        assert full.n_attempts > full.n_trained  # faults actually fired
        part_path = tmp_path / "part.jsonl"
        _truncate_rounds(full_path, part_path, 4)
        resumed = setup.run("Rand", "hyperpower", resume_from=part_path, **kw)
        assert run_to_dict(resumed) == run_to_dict(full)
        assert part_path.read_bytes() == full_path.read_bytes()

    def test_resume_rejects_scheduler_mismatch(self, setup, tmp_path):
        kw = dict(backend="serial", workers=2, max_evaluations=4)
        path = tmp_path / "sync.jsonl"
        setup.run("Rand", "default", journal=path, **kw)
        with pytest.raises(ValueError, match="different .*parameters"):
            setup.run(
                "Rand", "default", resume_from=path, scheduler="async", **kw
            )


# -- occupancy accounting --------------------------------------------------------


class TestOccupancyAccounting:
    def test_backoff_lands_on_retry_wait_not_occupancy(self, setup):
        telemetry = Telemetry()
        result = setup.run(
            "Rand", "hyperpower", backend="serial", workers=2,
            max_evaluations=6, scheduler="async", telemetry=telemetry,
            faults=FaultRates(crash=0.3),
            retry=RetryPolicy(max_attempts=4, backoff_base_s=120.0),
        )
        snap = telemetry.metrics.snapshot()
        assert result.n_attempts > result.n_trained
        # Backoff sleeps are charged to their own counter...
        assert snap["pool.retry_wait_s"]["value"] > 0.0
        # ...and excluded from the occupancy numerator, which therefore
        # stays a valid fraction of real work.
        occupancy = snap["schedule.occupancy"]["value"]
        assert 0.0 < occupancy <= 1.0

    def test_retry_wait_absent_without_faults(self, setup):
        telemetry = Telemetry()
        setup.run(
            "Rand", "default", backend="serial", workers=2,
            max_evaluations=4, scheduler="async", telemetry=telemetry,
        )
        snap = telemetry.metrics.snapshot()
        assert "pool.retry_wait_s" not in snap
        assert "schedule.occupancy" in snap

    def test_backoff_recorded_on_outcome(self, setup):
        """PoolOutcome.backoff_s is the waiting subset of retry_s."""
        from repro.core.faults import FaultInjector

        objective = setup.new_objective(7)
        injector = FaultInjector(FaultRates(crash=0.5), seed=123)
        retry = RetryPolicy(max_attempts=4, backoff_base_s=60.0)
        rng = np.random.default_rng(5)
        pool = EvaluationPool(
            objective, workers=1, injector=injector,
            retry=retry,
        )
        outcomes = []
        for config in setup.space.sample_many(12, rng):
            pool.submit(config, 0.0)
            outcomes.extend(pool.drain())
        retried = [o for o in outcomes if o.attempts > 1 or o.failed]
        assert retried, "expected at least one retry wave at crash=0.5"
        for outcome in outcomes:
            assert 0.0 <= outcome.backoff_s <= outcome.retry_s
        assert any(o.backoff_s > 0 for o in retried)
