"""Tests for repro.io (run serialization)."""

import dataclasses
import json
import math

import numpy as np
import pytest

from repro.core.faults import CRASH, NAN_LOSS, TIMEOUT
from repro.core.objective import EvaluationOutcome
from repro.core.parallel import PoolOutcome
from repro.core.result import RunResult, Trial, TrialStatus
from repro.hwsim.nvml import PowerTrace
from repro.hwsim.profiler import HardwareMeasurement
from repro.io import (
    JournalReplay,
    RunJournal,
    load_runs,
    measurement_from_dict,
    measurement_to_dict,
    outcome_from_dict,
    outcome_to_dict,
    run_from_dict,
    run_to_dict,
    save_runs,
)


def sample_run():
    run = RunResult(
        method="HW-IECI",
        variant="hyperpower",
        dataset="mnist",
        device="GTX 1070",
        wall_time_s=1234.5,
        chance_error=0.9,
    )
    run.trials = [
        Trial(
            index=0,
            config={"conv1_features": 30, "learning_rate": 0.01},
            status=TrialStatus.REJECTED_MODEL,
            timestamp_s=1.0,
            cost_s=1.5,
            power_pred_w=95.0,
            feasible_pred=False,
        ),
        Trial(
            index=1,
            config={"conv1_features": 25, "learning_rate": 0.02},
            status=TrialStatus.COMPLETED,
            timestamp_s=600.0,
            cost_s=599.0,
            error=0.012,
            epochs_run=30,
            diverged=False,
            power_pred_w=80.0,
            power_meas_w=81.5,
            memory_meas_bytes=1.0e9,
            feasible_pred=True,
            feasible_meas=True,
            attempts=1,
        ),
        Trial(
            index=2,
            config={"conv1_features": 10, "learning_rate": 0.3},
            status=TrialStatus.FAILED,
            timestamp_s=1500.0,
            cost_s=420.0,
            power_pred_w=70.0,
            feasible_pred=True,
            attempts=3,
            faults=(CRASH, TIMEOUT, NAN_LOSS),
            failure_kind=NAN_LOSS,
            retry_s=420.0,
        ),
        Trial(
            index=3,
            config={"conv1_features": 12, "learning_rate": 0.05},
            status=TrialStatus.COMPLETED,
            timestamp_s=2200.0,
            cost_s=700.0,
            error=0.02,
            epochs_run=30,
            diverged=False,
            power_pred_w=75.0,
            power_meas_w=75.0,
            feasible_pred=True,
            feasible_meas=True,
            attempts=2,
            faults=(CRASH,),
            retry_s=95.0,
            measurement_degraded=True,
        ),
    ]
    return run


class TestRoundtrip:
    def test_dict_roundtrip(self):
        run = sample_run()
        clone = run_from_dict(run_to_dict(run))
        assert clone.method == run.method
        assert clone.variant == run.variant
        assert clone.wall_time_s == run.wall_time_s
        assert clone.n_samples == run.n_samples
        assert clone.best_feasible_error == run.best_feasible_error

    def test_nan_error_becomes_null_and_back(self):
        run = sample_run()
        data = run_to_dict(run)
        assert data["trials"][0]["error"] is None
        clone = run_from_dict(data)
        assert math.isnan(clone.trials[0].error)

    def test_status_preserved(self):
        clone = run_from_dict(run_to_dict(sample_run()))
        assert clone.trials[0].status is TrialStatus.REJECTED_MODEL
        assert clone.trials[1].status is TrialStatus.COMPLETED

    def test_derived_metrics_survive(self):
        run = sample_run()
        clone = run_from_dict(run_to_dict(run))
        assert clone.n_trained == run.n_trained
        assert clone.n_violations == run.n_violations
        assert clone.time_to_reach_samples(2) == run.time_to_reach_samples(2)

    def test_failure_fields_roundtrip(self):
        """Regression: FAILED status, fault kinds, retry counters and the
        degradation flag must all survive serialisation."""
        clone = run_from_dict(run_to_dict(sample_run()))
        failed = clone.trials[2]
        assert failed.status is TrialStatus.FAILED
        assert not failed.was_trained
        assert math.isnan(failed.error)
        assert failed.attempts == 3
        assert failed.faults == (CRASH, TIMEOUT, NAN_LOSS)
        assert failed.failure_kind == NAN_LOSS
        assert failed.retry_s == 420.0
        recovered = clone.trials[3]
        assert recovered.attempts == 2
        assert recovered.faults == (CRASH,)
        assert recovered.failure_kind is None
        assert recovered.measurement_degraded
        assert clone.n_failed == 1
        assert clone.n_degraded == 1
        assert clone.n_attempts == sum(t.attempts for t in sample_run().trials)
        assert clone.retry_time_s == 515.0

    def test_second_roundtrip_is_byte_stable(self):
        once = run_to_dict(sample_run())
        twice = run_to_dict(run_from_dict(once))
        assert json.dumps(once, sort_keys=True) == json.dumps(
            twice, sort_keys=True
        )


def sample_measurement():
    return HardwareMeasurement(
        device_name="GTX 1070",
        power_w=81.25,
        memory_bytes=1.1e9,
        latency_s=0.004,
        duration_s=5.0,
        power_trace=PowerTrace(
            samples_w=np.array([80.5, 81.0, 82.25]), sample_hz=10.0
        ),
    )


class TestOutcomeRoundtrip:
    def test_measurement_roundtrip_is_exact(self):
        m = sample_measurement()
        clone = measurement_from_dict(
            json.loads(json.dumps(measurement_to_dict(m)))
        )
        assert clone.device_name == m.device_name
        assert clone.power_w == m.power_w
        assert clone.memory_bytes == m.memory_bytes
        assert clone.latency_s == m.latency_s
        assert (clone.power_trace.samples_w == m.power_trace.samples_w).all()
        assert clone.power_trace.sample_hz == m.power_trace.sample_hz

    def test_outcome_roundtrip(self):
        outcome = EvaluationOutcome(
            error=0.015,
            final_error=0.017,
            epochs_run=30,
            stopped_early=False,
            diverged=False,
            measurement=sample_measurement(),
            feasible_meas=True,
            cost_s=612.5,
        )
        clone = outcome_from_dict(
            json.loads(json.dumps(outcome_to_dict(outcome)))
        )
        assert clone.error == outcome.error
        assert clone.cost_s == outcome.cost_s
        assert clone.measurement.power_w == outcome.measurement.power_w
        assert not clone.measurement_failed

    def test_degraded_outcome_roundtrip(self):
        outcome = EvaluationOutcome(
            error=0.03,
            final_error=0.03,
            epochs_run=30,
            stopped_early=False,
            diverged=False,
            measurement=None,
            feasible_meas=None,
            cost_s=500.0,
            measurement_failed=True,
        )
        clone = outcome_from_dict(
            json.loads(json.dumps(outcome_to_dict(outcome)))
        )
        assert clone.measurement is None
        assert clone.feasible_meas is None
        assert clone.measurement_failed


def sample_outcome(epochs_run=30):
    return EvaluationOutcome(
        error=0.015,
        final_error=0.017,
        epochs_run=epochs_run,
        stopped_early=False,
        diverged=False,
        measurement=sample_measurement(),
        feasible_meas=True,
        cost_s=612.5,
    )


class TestJournalFreshResults:
    """A resumed pool reads back exactly the pool outcomes the run wrote."""

    @pytest.mark.parametrize(
        "written",
        [
            pytest.param(
                PoolOutcome(sample_outcome(), cached=False, seed=11),
                id="success",
            ),
            pytest.param(
                PoolOutcome(
                    None, cached=False, seed=12, attempts=3,
                    faults=(CRASH, NAN_LOSS, TIMEOUT), failure_kind=TIMEOUT,
                    retry_s=2101.25, backoff_s=180.0,
                ),
                id="failed",
            ),
            pytest.param(
                PoolOutcome(
                    sample_outcome(), cached=False, seed=13, attempts=2,
                    faults=(CRASH,), retry_s=95.5, backoff_s=60.0,
                ),
                id="retried",
            ),
            pytest.param(
                PoolOutcome(
                    sample_outcome(epochs_run=6), cached=False, seed=14,
                    epochs=9, start_epoch=3,
                ),
                id="rung-segment",
            ),
        ],
    )
    def test_fresh_results_are_the_written_pool_outcomes(self, tmp_path, written):
        path = tmp_path / "run.jsonl"
        with RunJournal(path, meta={}) as journal:
            journal.append_round([], [written])
        table = JournalReplay.load(path).fresh_results()
        assert list(table) == [(written.seed, written.start_epoch)]
        replayed = table[(written.seed, written.start_epoch)]
        assert type(replayed) is PoolOutcome
        assert dataclasses.replace(replayed, outcome=None) == dataclasses.replace(
            written, outcome=None
        )
        if written.outcome is None:
            assert replayed.outcome is None
        else:
            assert outcome_to_dict(replayed.outcome) == outcome_to_dict(
                written.outcome
            )


class TestFiles:
    def test_save_and_load(self, tmp_path):
        runs = [sample_run(), sample_run()]
        path = save_runs(runs, tmp_path / "runs.json")
        loaded = load_runs(path)
        assert len(loaded) == 2
        assert loaded[0].best_feasible_error == runs[0].best_feasible_error

    def test_format_guard(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text('{"something": "else"}')
        with pytest.raises(ValueError, match="not a repro runs file"):
            load_runs(path)

    def test_real_run_roundtrips(self, tmp_path):
        from repro.experiments.setup import quick_setup

        setup = quick_setup(
            "mnist", "tx1", power_budget_w=10.0, seed=0, profiling_samples=40
        )
        run = setup.run("Rand", "hyperpower", run_seed=1, max_evaluations=3)
        path = save_runs([run], tmp_path / "real.json")
        clone = load_runs(path)[0]
        assert clone.n_samples == run.n_samples
        assert clone.best_feasible_error == pytest.approx(run.best_feasible_error)
