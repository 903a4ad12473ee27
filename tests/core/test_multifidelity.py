"""End-to-end tests for multi-fidelity rung scheduling.

Four invariant families guard the rung path:

* *seed purity* — a trial promoted through every rung reproduces the
  full-fidelity evaluation of the same seed bit-exactly (same curve,
  same best error), paying only incremental epochs per segment;
* *determinism* — repeated runs are byte-identical, and promotion
  decisions never depend on completion arrival order;
* *crash safety* — a run killed mid-rung (trials paused, continuations in
  flight) resumes bit-identically from its journal, including under
  fault injection;
* *byte-identity of the classic paths* — ``rungs=0`` runs are untouched
  (the golden suite pins this globally; here we spot-check the knob).
"""

import numpy as np
import pytest

from repro.core.faults import FaultRates, RetryPolicy, retry_seed
from repro.core.fidelity import FidelitySchedule
from repro.core.parallel import EvaluationPool, TrialCache
from repro.core.result import TrialStatus
from repro.experiments.setup import quick_setup
from repro.io import run_to_dict
from repro.telemetry import Telemetry

pytestmark = pytest.mark.multifidelity


@pytest.fixture(scope="module")
def setup():
    return quick_setup(
        "mnist", "gtx1070", power_budget_w=85.0, memory_budget_gb=1.15,
        seed=0, profiling_samples=100,
    )


RUN_KW = dict(scheduler="async", rungs=3, eta=3, workers=3)


# -- seed purity -------------------------------------------------------------------


class TestSeedPurity:
    def test_promoted_chain_matches_full_fidelity(self, setup):
        """Segments 0→1, 1→3, 3→n reproduce the one-shot evaluation."""
        objective = setup.new_objective(0)
        config = setup.space.sample(np.random.default_rng(5))
        seed = 424242
        full = objective.evaluate_seeded(config, seed)
        sched = FidelitySchedule.geometric(
            objective.trainer.dataset.default_epochs, eta=3
        )
        outcome = None
        total_cost = 0.0
        for stage in range(sched.num_rungs):
            outcome = objective.evaluate_segment(
                config,
                seed,
                start_epoch=sched.start_epoch(0, stage),
                epochs=sched.target_epochs(0, stage),
            )
            total_cost += outcome.cost_s
        assert outcome.error == full.error
        assert outcome.final_error == full.final_error
        assert outcome.epochs_run == full.epochs_run
        assert outcome.diverged == full.diverged
        # Continuations charge no setup and no measurement, so the chain
        # costs exactly the one-shot run.
        assert total_cost == pytest.approx(full.cost_s)

    def test_segment_zero_is_evaluate_seeded_prefix(self, setup):
        """A rung-0 segment is the classic evaluation truncated — same
        profiling charge, same measurement, same curve prefix."""
        objective = setup.new_objective(1)
        config = setup.space.sample(np.random.default_rng(6))
        full = objective.evaluate_seeded(config, 99)
        objective2 = setup.new_objective(1)
        head = objective2.evaluate_segment(config, 99, epochs=3)
        assert head.epochs_run <= 3
        assert head.measurement.power_w == full.measurement.power_w
        assert head.measurement.memory_bytes == full.measurement.memory_bytes
        assert head.measurement.latency_s == full.measurement.latency_s
        assert head.feasible_meas == full.feasible_meas


# -- scheduling behaviour ----------------------------------------------------------


class TestRungScheduling:
    def test_run_promotes_and_culls(self, setup):
        telemetry = Telemetry()
        result = setup.run(
            "HW-IECI", "hyperpower", backend="serial",
            max_evaluations=27, telemetry=telemetry, **RUN_KW,
        )
        statuses = {t.status for t in result.trials}
        assert TrialStatus.CULLED in statuses
        assert TrialStatus.COMPLETED in statuses
        snap = telemetry.metrics.snapshot()
        assert snap["rung.promotions"]["value"] > 0
        assert snap["rung.culls"]["value"] > 0
        # Every trained trial records the rung it terminated at.
        for t in result.trials:
            if t.status in (TrialStatus.CULLED, TrialStatus.COMPLETED):
                assert t.rung is not None
        # Culled trials carry real low-fidelity observations.
        culled = [t for t in result.trials if t.status is TrialStatus.CULLED]
        assert all(np.isfinite(t.error) for t in culled)
        assert all(t.epochs_run > 0 for t in culled)

    def test_full_ladder_trains_full_schedule(self, setup):
        result = setup.run(
            "Rand", "default", backend="serial",
            max_evaluations=27, **RUN_KW,
        )
        completed = [
            t for t in result.trials if t.status is TrialStatus.COMPLETED
        ]
        full_epochs = setup.dataset.default_epochs
        assert completed
        assert all(t.epochs_run == full_epochs for t in completed)

    def test_rungs_require_async_pool(self, setup):
        with pytest.raises(ValueError, match="asynchronous pool"):
            setup.run("Rand", "default", max_evaluations=4, rungs=3)
        with pytest.raises(ValueError, match="asynchronous pool"):
            setup.run(
                "Rand", "default", backend="serial", scheduler="sync",
                max_evaluations=4, rungs=3,
            )

    def test_rungs_off_is_byte_identical_knob(self, setup):
        """rungs=0 must route through the untouched classic async path."""
        kw = dict(
            backend="serial", workers=3, max_evaluations=8,
            scheduler="async",
        )
        classic = setup.run("HW-IECI", "hyperpower", **kw)
        with_knob = setup.run("HW-IECI", "hyperpower", rungs=0, **kw)
        assert run_to_dict(classic) == run_to_dict(with_knob)

    def test_hyperband_brackets_round_robin(self, setup):
        result = setup.run(
            "Rand", "default", backend="serial",
            scheduler="async", rungs=4, eta=3, brackets=2, workers=3,
            max_evaluations=30,
        )
        rungs_seen = {t.rung for t in result.trials if t.rung is not None}
        assert rungs_seen  # trials terminated at recorded stages
        assert result.n_samples == 30

    def test_worker_occupancy_stays_high(self, setup):
        telemetry = Telemetry()
        setup.run(
            "HW-IECI", "hyperpower", backend="serial",
            max_time_s=3600.0, telemetry=telemetry, **RUN_KW,
        )
        snap = telemetry.metrics.snapshot()
        assert snap["schedule.occupancy"]["value"] >= 0.9


# -- determinism -------------------------------------------------------------------


class TestDeterminism:
    def test_repeat_runs_identical(self, setup):
        kw = dict(backend="serial", max_evaluations=18, **RUN_KW)
        a = setup.run("HW-IECI", "hyperpower", **kw)
        b = setup.run("HW-IECI", "hyperpower", **kw)
        assert run_to_dict(a) == run_to_dict(b)

    def test_fidelity_cache_keys_are_separate(self, setup):
        """Rung segments and classic trials never share cache entries."""
        cache = TrialCache()
        objective = setup.new_objective(3)
        config = setup.space.sample(np.random.default_rng(9))
        pool = EvaluationPool(objective, workers=1, cache=cache)
        pool.submit(config, 0.0, cache_lookup_s=0.01)
        classic = pool.next_completion()
        pool.submit_segment(config, classic.finish_s, epochs=3)
        rung = pool.next_completion()
        assert not classic.outcome.cached
        assert not rung.outcome.cached  # distinct key: no false hit
        assert pool.misses == 2
        # The fidelity-tagged entry remembers its effective curve seed,
        # so a later promotion of a cache-hit rung can resume the curve.
        key = cache.key(config, epochs=3)
        seed = cache.seed_for(key)
        assert seed is not None
        assert seed == retry_seed(rung.outcome.seed, 0)


class TestHashedOnce:
    @pytest.mark.parametrize("scheduler", ["async", "sync"])
    def test_one_config_hash_per_suggestion(self, setup, monkeypatch, scheduler):
        """The pool keys its cache on ``Suggestion.key``; it never re-hashes."""
        from repro.core import parallel, study

        calls = {"study": 0, "parallel": 0}
        suggested = []
        original_hash = parallel.canonical_config_key
        original_suggest = study.Study.suggest

        def counting(where):
            def count(config):
                calls[where] += 1
                return original_hash(config)

            return count

        def suggest(self, *args, **kwargs):
            out = original_suggest(self, *args, **kwargs)
            suggested.extend(out)
            return out

        monkeypatch.setattr(study, "canonical_config_key", counting("study"))
        monkeypatch.setattr(parallel, "canonical_config_key", counting("parallel"))
        monkeypatch.setattr(study.Study, "suggest", suggest)
        kw = dict(RUN_KW, scheduler=scheduler, backend="serial")
        if scheduler == "sync":
            kw.pop("rungs"), kw.pop("eta")
        result = setup.run("Rand", "hyperpower", max_evaluations=12, **kw)
        assert result.n_trained > 0 and suggested
        assert calls == {"study": len(suggested), "parallel": 0}


# -- crash safety ------------------------------------------------------------------


def _truncate_rounds(path, out, keep_rounds):
    """Copy header + ``keep_rounds`` journal rounds, then a torn tail."""
    lines = path.read_bytes().splitlines(keepends=True)
    with open(out, "wb") as fh:
        fh.writelines(lines[: 1 + keep_rounds])
        fh.write(b'{"round": 99, "tor')


class TestMidRungResume:
    @pytest.mark.parametrize("keep_rounds", [0, 5, 13])
    def test_kill_and_resume_bit_exact(self, setup, tmp_path, keep_rounds):
        """Killing with trials paused at rungs and continuations in
        flight resumes bit-identically: same promotions, same culls."""
        kw = dict(backend="serial", max_evaluations=18, **RUN_KW)
        full_path = tmp_path / "full.jsonl"
        full = setup.run(
            "HW-IECI", "hyperpower", journal=full_path, **kw
        )
        part_path = tmp_path / "part.jsonl"
        _truncate_rounds(full_path, part_path, keep_rounds)
        resumed = setup.run(
            "HW-IECI", "hyperpower", resume_from=part_path, **kw
        )
        assert run_to_dict(resumed) == run_to_dict(full)
        assert part_path.read_bytes() == full_path.read_bytes()

    def test_kill_and_resume_with_faults(self, setup, tmp_path):
        """Continuation retries re-roll fault luck only — the curve seed
        is pinned — and the whole run still resumes bit-exactly."""
        kw = dict(
            backend="serial", max_evaluations=15,
            faults=FaultRates(crash=0.1, hang=0.05, nan_loss=0.05, nvml=0.1),
            retry=RetryPolicy(max_attempts=3, timeout_s=4000.0),
            **RUN_KW,
        )
        full_path = tmp_path / "full.jsonl"
        full = setup.run("Rand", "hyperpower", journal=full_path, **kw)
        assert full.n_attempts > full.n_trained  # faults actually fired
        part_path = tmp_path / "part.jsonl"
        _truncate_rounds(full_path, part_path, 7)
        resumed = setup.run("Rand", "hyperpower", resume_from=part_path, **kw)
        assert run_to_dict(resumed) == run_to_dict(full)
        assert part_path.read_bytes() == full_path.read_bytes()

    def test_resume_rejects_fidelity_mismatch(self, setup, tmp_path):
        """A journal written under different rung parameters is refused."""
        path = tmp_path / "rungs.jsonl"
        kw = dict(backend="serial", max_evaluations=6)
        setup.run(
            "Rand", "default", journal=path, scheduler="async",
            rungs=3, eta=3, workers=3, **kw,
        )
        with pytest.raises(ValueError, match="different .*parameters"):
            setup.run(
                "Rand", "default", resume_from=path, scheduler="async",
                rungs=2, eta=3, workers=3, **kw,
            )
