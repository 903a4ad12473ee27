"""JSON serialization of runs, studies and crash-safe run journals.

Optimization runs are the expensive artifact of this package; these
helpers persist them (and reload them) so tables and figures can be
re-rendered — or re-analysed — without re-running anything.  The format is
plain JSON: one object per :class:`~repro.core.result.RunResult` with its
trials inlined, NaNs encoded as ``null``.

The journal half (:class:`RunJournal` / :class:`JournalReplay`) protects
runs *while they execute*: every completed round of trials is appended to
a JSONL file and fsynced before the next round starts, so a killed
process loses at most the round in flight.  Resuming re-runs the driver
— proposals, RNG streams and clock charges recompute identically, the
journal verifies each recomputed round and the pool looks the journaled
evaluation results up instead of training — and the run continues
bit-identically to an uninterrupted one.
The per-line durability and torn-tail recovery come from
:mod:`repro.telemetry.jsonl`, the same machinery behind span-trace export.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .core.objective import EvaluationOutcome
from .core.parallel import PoolOutcome
from .core.result import RunResult, Trial, TrialStatus
from .core.spec import STREAM_VERSION, check_stream_version
from .hwsim.nvml import PowerTrace
from .hwsim.profiler import HardwareMeasurement
from .telemetry.jsonl import JsonlWriter, scan_jsonl

__all__ = [
    "trial_to_dict",
    "trial_from_dict",
    "measurement_to_dict",
    "measurement_from_dict",
    "outcome_to_dict",
    "outcome_from_dict",
    "run_to_dict",
    "run_from_dict",
    "save_runs",
    "load_runs",
    "JOURNAL_FORMAT",
    "RunJournal",
    "JournalReplay",
]


def _none_if_nan(value):
    if value is None:
        return None
    if isinstance(value, float) and math.isnan(value):
        return None
    return value


def trial_to_dict(trial: Trial) -> dict:
    """JSON-ready dictionary for one trial.

    The ``rung`` key appears only on multi-fidelity trials, so classic
    runs serialise byte-identically to the pre-rung format.
    """
    data = {
        "index": trial.index,
        "config": trial.config,
        "status": trial.status.value,
        "timestamp_s": trial.timestamp_s,
        "cost_s": trial.cost_s,
        "error": _none_if_nan(trial.error),
        "epochs_run": trial.epochs_run,
        "diverged": trial.diverged,
        "power_pred_w": _none_if_nan(trial.power_pred_w),
        "memory_pred_bytes": _none_if_nan(trial.memory_pred_bytes),
        "power_meas_w": _none_if_nan(trial.power_meas_w),
        "memory_meas_bytes": _none_if_nan(trial.memory_meas_bytes),
        "latency_meas_s": _none_if_nan(trial.latency_meas_s),
        "feasible_pred": trial.feasible_pred,
        "feasible_meas": trial.feasible_meas,
        "attempts": trial.attempts,
        "faults": list(trial.faults),
        "failure_kind": trial.failure_kind,
        "retry_s": trial.retry_s,
        "measurement_degraded": trial.measurement_degraded,
    }
    if trial.rung is not None:
        data["rung"] = trial.rung
    return data


def trial_from_dict(data: dict) -> Trial:
    """Inverse of :func:`trial_to_dict`."""
    error = data.get("error")
    rung = data.get("rung")
    return Trial(
        index=int(data["index"]),
        config=dict(data["config"]),
        status=TrialStatus(data["status"]),
        timestamp_s=float(data["timestamp_s"]),
        cost_s=float(data["cost_s"]),
        error=math.nan if error is None else float(error),
        epochs_run=int(data.get("epochs_run", 0)),
        diverged=data.get("diverged"),
        power_pred_w=data.get("power_pred_w"),
        memory_pred_bytes=data.get("memory_pred_bytes"),
        power_meas_w=data.get("power_meas_w"),
        memory_meas_bytes=data.get("memory_meas_bytes"),
        latency_meas_s=data.get("latency_meas_s"),
        feasible_pred=data.get("feasible_pred"),
        feasible_meas=data.get("feasible_meas"),
        attempts=int(data.get("attempts", 0)),
        faults=tuple(data.get("faults", ())),
        failure_kind=data.get("failure_kind"),
        retry_s=float(data.get("retry_s", 0.0)),
        measurement_degraded=bool(data.get("measurement_degraded", False)),
        rung=None if rung is None else int(rung),
    )


def measurement_to_dict(measurement: HardwareMeasurement) -> dict:
    """JSON-ready dictionary for one hardware measurement.

    The raw power-sensor trace is included in full, so a journaled
    outcome reconstructs bit-identically (floats round-trip exactly
    through JSON's shortest-repr encoding).
    """
    return {
        "device_name": measurement.device_name,
        "power_w": measurement.power_w,
        "memory_bytes": measurement.memory_bytes,
        "latency_s": measurement.latency_s,
        "duration_s": measurement.duration_s,
        "samples_w": [float(s) for s in measurement.power_trace.samples_w],
        "sample_hz": measurement.power_trace.sample_hz,
    }


def measurement_from_dict(data: dict) -> HardwareMeasurement:
    """Inverse of :func:`measurement_to_dict`."""
    return HardwareMeasurement(
        device_name=data["device_name"],
        power_w=float(data["power_w"]),
        memory_bytes=data.get("memory_bytes"),
        latency_s=float(data["latency_s"]),
        duration_s=float(data["duration_s"]),
        power_trace=PowerTrace(
            samples_w=np.asarray(data["samples_w"], dtype=float),
            sample_hz=float(data["sample_hz"]),
        ),
    )


def outcome_to_dict(outcome: EvaluationOutcome) -> dict:
    """JSON-ready dictionary for one evaluation outcome."""
    return {
        "error": outcome.error,
        "final_error": outcome.final_error,
        "epochs_run": outcome.epochs_run,
        "stopped_early": outcome.stopped_early,
        "diverged": outcome.diverged,
        "measurement": (
            None
            if outcome.measurement is None
            else measurement_to_dict(outcome.measurement)
        ),
        "feasible_meas": outcome.feasible_meas,
        "cost_s": outcome.cost_s,
        "measurement_failed": outcome.measurement_failed,
    }


def outcome_from_dict(data: dict) -> EvaluationOutcome:
    """Inverse of :func:`outcome_to_dict`."""
    measurement = data.get("measurement")
    return EvaluationOutcome(
        error=float(data["error"]),
        final_error=float(data["final_error"]),
        epochs_run=int(data["epochs_run"]),
        stopped_early=bool(data["stopped_early"]),
        diverged=bool(data["diverged"]),
        measurement=(
            None if measurement is None else measurement_from_dict(measurement)
        ),
        feasible_meas=data.get("feasible_meas"),
        cost_s=float(data["cost_s"]),
        measurement_failed=bool(data.get("measurement_failed", False)),
    )


def run_to_dict(run: RunResult) -> dict:
    """JSON-ready dictionary for one run."""
    return {
        "method": run.method,
        "variant": run.variant,
        "dataset": run.dataset,
        "device": run.device,
        "wall_time_s": run.wall_time_s,
        "chance_error": run.chance_error,
        "cache_hits": run.cache_hits,
        "cache_misses": run.cache_misses,
        "trials": [trial_to_dict(t) for t in run.trials],
    }


def run_from_dict(data: dict) -> RunResult:
    """Inverse of :func:`run_to_dict`."""
    run = RunResult(
        method=data["method"],
        variant=data["variant"],
        dataset=data["dataset"],
        device=data["device"],
        wall_time_s=float(data.get("wall_time_s", 0.0)),
        chance_error=float(data.get("chance_error", 0.9)),
        cache_hits=int(data.get("cache_hits", 0)),
        cache_misses=int(data.get("cache_misses", 0)),
    )
    run.trials = [trial_from_dict(t) for t in data.get("trials", [])]
    return run


def save_runs(runs: list[RunResult], path: str | Path) -> Path:
    """Write runs to a JSON file; returns the path."""
    path = Path(path)
    payload = {"format": "repro-runs/1", "runs": [run_to_dict(r) for r in runs]}
    path.write_text(json.dumps(payload, indent=1), encoding="utf-8")
    return path


def load_runs(path: str | Path) -> list[RunResult]:
    """Load runs written by :func:`save_runs`."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if payload.get("format") != "repro-runs/1":
        raise ValueError(f"{path}: not a repro runs file")
    return [run_from_dict(r) for r in payload["runs"]]


# -- crash-safe run journaling ------------------------------------------------

#: Format tag of the journal header line.
JOURNAL_FORMAT = "repro-journal/1"


def _scan_journal(path: Path) -> tuple[dict, list[dict], dict | None, int]:
    """Parse a journal file, tolerating a corrupt tail.

    Returns ``(header, rounds, end, keep_bytes)`` where ``keep_bytes`` is
    the byte length of the valid *round* prefix — the offset a resuming
    writer truncates to (the end marker, if any, is dropped too: the run
    is about to continue past it).  A torn or corrupt line (the crash
    landed mid-write) invalidates itself and everything after it
    (:func:`~repro.telemetry.jsonl.scan_jsonl` handles that layer; this
    function adds the journal's header/round-ordering rules).
    """
    header: dict | None = None
    rounds: list[dict] = []
    end: dict | None = None
    keep = 0
    for record, line_end in scan_jsonl(path.read_bytes()):
        if header is None:
            if record.get("format") != JOURNAL_FORMAT:
                raise ValueError(f"{path}: not a repro journal file")
            check_stream_version(record, path)
            header = record
            keep = line_end
        elif "round" in record:
            if end is not None or int(record["round"]) != len(rounds):
                break  # out-of-order round: corrupt
            rounds.append(record)
            keep = line_end
        elif "end" in record:
            end = record
        else:
            break
    if header is None:
        raise ValueError(f"{path}: not a repro journal file")
    return header, rounds, end, keep


def _eval_entry(pool_outcome: PoolOutcome) -> dict:
    """Journal entry for one fresh (dispatched) pool evaluation.

    Rung segments add ``start_epoch``/``epochs`` keys; the classic paths
    (where ``epochs`` is None) keep the pre-rung entry format exactly.
    """
    entry = {
        "seed": pool_outcome.seed,
        "attempts": pool_outcome.attempts,
        "faults": list(pool_outcome.faults),
        "failure_kind": pool_outcome.failure_kind,
        "retry_s": pool_outcome.retry_s,
        "backoff_s": pool_outcome.backoff_s,
        "outcome": (
            None
            if pool_outcome.outcome is None
            else outcome_to_dict(pool_outcome.outcome)
        ),
    }
    if pool_outcome.epochs is not None:
        entry["start_epoch"] = pool_outcome.start_epoch
        entry["epochs"] = pool_outcome.epochs
    return entry


class RunJournal:
    """Append-only JSONL journal of a run in progress.

    Line 1 is a header (``{"format": "repro-journal/1",
    "stream_version": 1, "meta": ...}``);
    each subsequent line records one completed driver round — the trials
    it produced plus, on the pool path, the fresh evaluation results
    needed to replay the round without re-training.  Every line is
    flushed and fsynced before :meth:`append_round` returns, so a crash
    loses at most the round in flight; :func:`JournalReplay.load`
    tolerates (and a resuming :meth:`reopen` truncates) a torn tail.

    Reopening or loading a journal written under another
    :data:`~repro.core.spec.STREAM_VERSION` raises
    :class:`~repro.core.spec.StreamVersionError`.

    A resumed run re-runs from its first round.  :meth:`append_round`
    checks each round against :attr:`recorded`, in order, and skips the
    write of a round already in this file.
    """

    def __init__(self, path: str | Path, meta: dict | None = None, *,
                 chaos=None):
        self.path = Path(path)
        self.meta = {} if meta is None else dict(meta)
        #: The interrupted run's rounds (a :class:`JournalReplay`) that a
        #: resumed run must reproduce; ``None`` for a fresh run.
        self.recorded: JournalReplay | None = None
        self.finished = False
        self._round = 0
        #: Rounds already in this file (the prefix :meth:`reopen` kept).
        self._on_disk = 0
        self._writer = JsonlWriter(self.path, chaos=chaos)
        self._write_line(
            {"format": JOURNAL_FORMAT, "stream_version": STREAM_VERSION,
             "meta": self.meta}
        )

    @classmethod
    def reopen(cls, path: str | Path, *, chaos=None) -> "RunJournal":
        """Reopen an interrupted journal for a resumed run.

        Recovers the valid round prefix (truncating any torn tail and any
        end marker) as :attr:`recorded`, then appends the resumed run's
        rounds after it.
        """
        path = Path(path)
        header, rounds, end, keep = _scan_journal(path)
        journal = cls.__new__(cls)
        journal.path = path
        journal.meta = dict(header.get("meta", {}))
        journal.recorded = JournalReplay(journal.meta, rounds, end is not None)
        journal.finished = False
        journal._round = 0
        journal._on_disk = len(rounds)
        with open(path, "r+b") as fh:
            fh.truncate(keep)
        journal._writer = JsonlWriter(path, append=True, chaos=chaos)
        return journal

    def _write_line(self, record: dict) -> None:
        if self._writer is None:
            raise ValueError("journal is closed")
        self._writer.write(record)

    def append_round(self, trials, pool_outcomes=None) -> None:
        """Record one completed driver round, durably.

        ``pool_outcomes`` is the round's full :class:`~repro.core.
        parallel.PoolOutcome` list (``None`` on the sequential path);
        only the fresh dispatches — the results a resumed pool looks up —
        are journaled, since cache hits and within-batch duplicates
        reconstruct themselves from the earlier rounds' outcomes.

        Raises
        ------
        ValueError
            When a resumed run's round differs from the recorded one.
        """
        if self.recorded is not None and self._round < self.recorded.n_rounds:
            self.recorded.verify_round(self._round, trials)
        if self._round < self._on_disk:
            self._round += 1
            return
        record = {
            "round": self._round,
            "trials": [trial_to_dict(t) for t in trials],
            "evals": (
                None
                if pool_outcomes is None
                else [
                    _eval_entry(po)
                    for po in pool_outcomes
                    if not po.cached and po.seed is not None
                ]
            ),
        }
        self._write_line(record)
        self._round += 1

    def finish(self, result: RunResult) -> None:
        """Mark the run complete (a resumed run without an end marker
        replays every round, then keeps running until its budget)."""
        self._write_line(
            {
                "end": True,
                "wall_time_s": result.wall_time_s,
                "n_samples": result.n_samples,
                "n_failed": result.n_failed,
            }
        )
        self.finished = True
        self.close()

    def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            self._writer = None

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class JournalReplay:
    """A recovered journal: its meta, recorded rounds and fresh results."""

    def __init__(self, meta: dict, rounds: list[dict], finished: bool):
        self.meta = meta
        self._rounds = rounds
        #: Whether the journal carries the run's end marker — nothing was
        #: lost, the resumed run will replay to completion and stop.
        self.finished = finished

    @classmethod
    def load(cls, path: str | Path) -> "JournalReplay":
        """Recover a journal from disk, dropping any torn tail."""
        header, rounds, end, _ = _scan_journal(Path(path))
        return cls(
            meta=dict(header.get("meta", {})),
            rounds=rounds,
            finished=end is not None,
        )

    @property
    def n_rounds(self) -> int:
        """Journaled (replayable) rounds."""
        return len(self._rounds)

    def fresh_results(self) -> dict[tuple[int, int], PoolOutcome]:
        """Every journaled fresh evaluation, keyed by ``(trial seed,
        start_epoch)`` — the table a resumed pool looks dispatches up in
        (sequential-path rounds journal none: they re-execute)."""
        table = {}
        for record in self._rounds:
            for e in record["evals"] or ():
                outcome = PoolOutcome(
                    None
                    if e["outcome"] is None
                    else outcome_from_dict(e["outcome"]),
                    cached=False,
                    seed=int(e["seed"]),
                    attempts=int(e["attempts"]),
                    faults=tuple(e["faults"]),
                    failure_kind=e["failure_kind"],
                    retry_s=float(e["retry_s"]),
                    backoff_s=float(e.get("backoff_s", 0.0)),
                    epochs=None if e.get("epochs") is None else int(e["epochs"]),
                    start_epoch=int(e.get("start_epoch", 0)),
                )
                table[(outcome.seed, outcome.start_epoch)] = outcome
        return table

    def verify_round(self, round_index: int, trials) -> None:
        """Check a recomputed round against the journal, field by field.

        The resume contract is bit-identity: every recomputed trial must
        serialise exactly as the original run journaled it.  A mismatch
        means the run was resumed under different parameters (or the
        journal belongs to a different run) and continuing would silently
        fork history.
        """
        recorded = self._rounds[round_index]["trials"]
        recomputed = [trial_to_dict(t) for t in trials]
        if recomputed != recorded:
            raise ValueError(
                f"journal replay mismatch in round {round_index}: the "
                "recomputed trials differ from the journaled ones (was the "
                "run resumed with different parameters?)"
            )
