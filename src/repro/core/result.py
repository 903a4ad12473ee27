"""Trial and run records, plus the derived series the tables/figures need.

A :class:`Trial` is one *sample queried* by a search method.  Following the
paper's accounting (Tables 3-4 count model-rejected proposals as queried
samples — that is how HyperPower random search reaches hundreds of samples
per hour), a trial can be:

* ``REJECTED_MODEL`` — discarded by the predictive power/memory models
  before any training (HyperPower variants only; costs milliseconds);
* ``EARLY_TERMINATED`` — training started but stopped after a few epochs by
  the divergence detector (Section 3.2);
* ``COMPLETED`` — trained to the full schedule;
* ``CACHED`` — replayed from the trial cache at lookup cost;
* ``FAILED`` — the evaluation exhausted its retry budget (crashes, hangs,
  NaN losses, OOMs); its failed attempts and backoff waits were still
  charged to the clock.

:class:`RunResult` wraps one optimization run and computes everything the
evaluation section reports: best-feasible-error trajectories over samples
and over time (Figures 4, 6), violation counts (Figure 4 center), time to
reach a sample count (Table 3) or an error level (Table 5).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["TrialStatus", "Trial", "RunResult"]


class TrialStatus(enum.Enum):
    """How a queried sample was handled."""

    REJECTED_MODEL = "rejected-by-model"
    EARLY_TERMINATED = "early-terminated"
    COMPLETED = "completed"
    #: Accepted proposal whose outcome was replayed from the trial cache
    #: (a duplicate of an earlier training) at near-zero clock cost.
    CACHED = "cached"
    #: Accepted proposal whose evaluation exhausted its retry budget
    #: (worker crashes, hangs, NaN losses, OOMs); no observation exists,
    #: but the failed attempts and backoff waits were charged to the
    #: clock and the sample still counts as queried.
    FAILED = "failed"
    #: Trained at a partial fidelity and terminated by rank when its rung
    #: cell filled (multi-fidelity scheduling); its low-fidelity error is
    #: a real observation, only the remaining epochs were never spent.
    CULLED = "culled"


@dataclass(frozen=True)
class Trial:
    """One queried sample of an optimization run."""

    #: 0-based query order.
    index: int
    #: The queried configuration.
    config: dict
    #: How the sample was handled.
    status: TrialStatus
    #: Simulated time when the sample finished processing, s.
    timestamp_s: float
    #: Wall-clock cost of this sample, s.
    cost_s: float
    #: Best observed test error of the training run (NaN when rejected).
    error: float = math.nan
    #: Epochs actually trained (0 when rejected).
    epochs_run: int = 0
    #: Ground truth: did training diverge (None when rejected/unknown)?
    diverged: bool | None = None
    #: Model-predicted power, W (None when the method has no models).
    power_pred_w: float | None = None
    #: Model-predicted memory, bytes (None when unavailable).
    memory_pred_bytes: float | None = None
    #: Measured power, W (None when the sample was never deployed).
    power_meas_w: float | None = None
    #: Measured memory, bytes (None when unavailable).
    memory_meas_bytes: float | None = None
    #: Measured batch latency, s (None when the sample was never deployed).
    latency_meas_s: float | None = None
    #: Feasibility according to the predictive models (None when unchecked).
    feasible_pred: bool | None = None
    #: Feasibility according to hardware measurements (None when unmeasured).
    feasible_meas: bool | None = None
    #: Evaluation attempts consumed (0 for rejected/cached samples).
    attempts: int = 0
    #: Fault kinds hit across the attempts, in order (empty when clean).
    faults: tuple[str, ...] = ()
    #: Fault kind that exhausted the retry budget (FAILED samples only).
    failure_kind: str | None = None
    #: Simulated time charged to failed attempts plus backoff waits, s
    #: (included in ``cost_s``).
    retry_s: float = 0.0
    #: Whether the hardware measurement failed and the recorded
    #: power/memory fell back to the predictive models' estimates.
    measurement_degraded: bool = False
    #: Rung stage the trial terminated at under multi-fidelity scheduling
    #: (None on classic full-fidelity paths).
    rung: int | None = None

    @property
    def was_trained(self) -> bool:
        """Whether this sample carries a training outcome (a cached sample
        replays one, so it counts — its error is a usable observation; a
        FAILED sample carries none)."""
        return self.status not in (
            TrialStatus.REJECTED_MODEL,
            TrialStatus.FAILED,
        )

    @property
    def counts_for_best(self) -> bool:
        """Whether this sample's error competes for the best feasible
        error: trained, with a real error, and not measured infeasible
        (an unmeasured sample counts)."""
        return (
            self.was_trained
            and not math.isnan(self.error)
            and self.feasible_meas is not False
        )

    @property
    def is_violation(self) -> bool:
        """Whether the sample was deployed and violated measured constraints."""
        return self.feasible_meas is False


@dataclass
class RunResult:
    """One optimization run of one method variant."""

    #: Solver name (``'Rand'``, ``'Rand-Walk'``, ``'HW-CWEI'``, ``'HW-IECI'``).
    method: str
    #: ``'default'`` (constraint-unaware/exhaustive) or ``'hyperpower'``.
    variant: str
    #: Benchmark and platform identifiers.
    dataset: str
    device: str
    #: All queried samples, in order.
    trials: list[Trial] = field(default_factory=list)
    #: Total simulated wall time of the run, s.
    wall_time_s: float = 0.0
    #: Chance-level error used when a run finds no feasible point.
    chance_error: float = 0.9
    #: Trial-cache lookup counters (0/0 when the run had no cache).
    cache_hits: int = 0
    cache_misses: int = 0
    #: Real (not simulated) per-stage wall-clock timings of the GP
    #: surrogate hot path, as ``{stage: {"seconds": ..., "calls": ...}}``
    #: (see :class:`~repro.gp.profile.SurrogateProfile`); empty for
    #: solvers without a surrogate.  Diagnostics only — deliberately
    #: excluded from :func:`~repro.io.run_to_dict`, whose output must stay
    #: byte-identical across identically-seeded re-runs.
    surrogate_timings: dict = field(default_factory=dict)
    #: Telemetry summary of a traced run (the metrics snapshot plus span
    #: buffer counts — see :meth:`repro.telemetry.Telemetry.snapshot`);
    #: empty for untraced runs.  Every value is simulated-deterministic,
    #: but the field is still excluded from :func:`~repro.io.run_to_dict`
    #: so traced and untraced runs serialise identically.
    telemetry: dict = field(default_factory=dict)

    # -- counting ----------------------------------------------------------------

    @property
    def n_samples(self) -> int:
        """Samples queried, counting model-rejected proposals (Table 4)."""
        return len(self.trials)

    @property
    def n_trained(self) -> int:
        """Samples on which training epochs were spent."""
        return sum(1 for t in self.trials if t.was_trained)

    @property
    def n_completed(self) -> int:
        """Samples trained to the full schedule."""
        return sum(1 for t in self.trials if t.status is TrialStatus.COMPLETED)

    @property
    def n_violations(self) -> int:
        """Deployed samples that violated the measured constraints."""
        return sum(1 for t in self.trials if t.is_violation)

    @property
    def n_cached(self) -> int:
        """Samples whose outcome was replayed from the trial cache."""
        return sum(1 for t in self.trials if t.status is TrialStatus.CACHED)

    # -- failure accounting ------------------------------------------------------

    @property
    def n_failed(self) -> int:
        """Samples whose evaluation exhausted its retry budget."""
        return sum(1 for t in self.trials if t.status is TrialStatus.FAILED)

    @property
    def n_degraded(self) -> int:
        """Trained samples whose hardware measurement degraded to the
        predictive models (transient NVML read failures)."""
        return sum(1 for t in self.trials if t.measurement_degraded)

    @property
    def n_attempts(self) -> int:
        """Total evaluation attempts dispatched across all samples."""
        return sum(t.attempts for t in self.trials)

    @property
    def n_faults(self) -> int:
        """Total faulted attempts absorbed across all samples (recovered
        retries plus terminal failures)."""
        return sum(len(t.faults) for t in self.trials)

    @property
    def retry_time_s(self) -> float:
        """Simulated time spent on failed attempts and backoff waits, s."""
        return sum(t.retry_s for t in self.trials)

    @property
    def cache_lookups(self) -> int:
        """Total trial-cache lookups performed during the run."""
        return self.cache_hits + self.cache_misses

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of cache lookups that hit; 0.0 without a cache."""
        if self.cache_lookups == 0:
            return 0.0
        return self.cache_hits / self.cache_lookups

    def violation_counts(self) -> np.ndarray:
        """Cumulative violations after each queried sample (Figure 4 center).

        Always integer-typed — ``np.cumsum`` of an empty list would
        otherwise silently switch to float64 for empty runs.
        """
        return np.cumsum(
            [1 if t.is_violation else 0 for t in self.trials], dtype=np.int64
        )

    # -- best-error trajectories ----------------------------------------------

    def best_trial(self) -> Trial | None:
        """``x*``: the first sample with the lowest error among those that
        :attr:`Trial.counts_for_best`; ``None`` when there is none."""
        best = None
        for t in self.trials:
            if t.counts_for_best and (best is None or t.error < best.error):
                best = t
        return best

    @property
    def best_feasible_error(self) -> float:
        """Lowest feasible error found; chance error when none was found."""
        best = self.best_trial()
        return self.chance_error if best is None else best.error

    def best_error_vs_samples(self) -> np.ndarray:
        """Best feasible error after each queried sample (Figure 4 left).

        Entries before the first feasible observation hold the chance error.
        """
        best = self.chance_error
        out = np.empty(len(self.trials))
        for i, t in enumerate(self.trials):
            if t.counts_for_best:
                best = min(best, t.error)
            out[i] = best
        return out

    def best_error_vs_time(self) -> tuple[np.ndarray, np.ndarray]:
        """Step series ``(timestamps_s, best_feasible_error)`` (Figure 6)."""
        times, values = [], []
        best = self.chance_error
        for t in self.trials:
            if t.counts_for_best:
                best = min(best, t.error)
            times.append(t.timestamp_s)
            values.append(best)
        return np.asarray(times), np.asarray(values)

    # -- table queries -------------------------------------------------------------

    def time_to_reach_samples(self, n: int) -> float:
        """Simulated time at which the ``n``-th sample finished, s (Table 3).

        ``inf`` when the run queried fewer than ``n`` samples.
        """
        if n < 1:
            raise ValueError("n must be >= 1")
        if n > len(self.trials):
            return math.inf
        return self.trials[n - 1].timestamp_s

    def time_to_reach_error(self, target_error: float) -> float:
        """Simulated time at which the best feasible error first reached
        ``target_error``, s (Table 5).  ``inf`` when never reached."""
        best = math.inf
        for t in self.trials:
            if t.counts_for_best:
                best = min(best, t.error)
                if best <= target_error:
                    return t.timestamp_s
        return math.inf

    @property
    def found_feasible(self) -> bool:
        """Whether any feasible trained sample was found (Table 2's '--'
        entries are runs where default Rand-Walk never did)."""
        return self.best_trial() is not None
