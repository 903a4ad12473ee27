"""Deterministic fault injection and the trial retry policy.

The paper's economics make trainings the expensive, flaky part of
constrained HPO (Section 3, Figure 2: minutes per training vs milliseconds
per constraint check), and real training fleets fail in mundane ways: a
worker process dies, a job hangs, a loss goes NaN, an allocation OOMs, an
NVML read times out.  A production search loop must absorb those failures
— retry what is transient, record what is not, and never lose the trials
already paid for.

This module supplies the two pieces the evaluation engine needs:

* :class:`FaultInjector` — a *deterministic* fault source.  Whether (and
  how) attempt ``a`` of the trial seeded ``s`` fails is a pure function of
  ``(injector seed, s, a)``, independent of worker scheduling and
  wall-clock time.  That makes every failure mode reproducible in tests:
  re-runs see byte-identical fault sequences, and a resumed run replays
  the exact failures of the original.
* :class:`RetryPolicy` — per-trial simulated timeouts and bounded retries
  with exponential backoff, all charged to the simulated clock so the
  fixed-runtime protocol prices failure handling like everything else.

Faults are drawn *per attempt*, so a crashed trial can succeed on retry
(transient faults) and a config can exhaust its attempts and be recorded
as a ``FAILED`` trial instead of aborting the run.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "FAULT_KINDS",
    "CRASH",
    "HANG",
    "NAN_LOSS",
    "OOM",
    "NVML",
    "TIMEOUT",
    "STORAGE_FAULT_KINDS",
    "TrialFault",
    "FaultPlan",
    "FaultRates",
    "FaultInjector",
    "StorageFaultRates",
    "StorageChaos",
    "RetryPolicy",
    "retry_seed",
]

#: A worker process died mid-training (segfault, eviction, node loss).
CRASH = "crash"
#: The trial stopped making progress; the pool's timeout reaps it.
HANG = "hang"
#: Training completed but the loss went NaN/inf (bad config + bad luck).
NAN_LOSS = "nan-loss"
#: The training allocation exceeded device memory.
OOM = "oom"
#: A transient NVML/tegrastats read failure: training succeeded but the
#: hardware measurement is unusable.  Not retried — the trial degrades to
#: the model-predicted power/memory instead (see the driver).
NVML = "nvml"
#: A natural per-trial timeout: the evaluation's simulated cost exceeded
#: :attr:`RetryPolicy.timeout_s`.  Synthesised by the pool, never drawn.
TIMEOUT = "timeout"

#: Injectable fault kinds, in the order the injector's draw consumes them.
FAULT_KINDS = (CRASH, HANG, NAN_LOSS, OOM, NVML)


class TrialFault(RuntimeError):
    """An injected failure of one evaluation attempt.

    Raised from inside
    :meth:`~repro.core.objective.NNObjective.evaluate_seeded` — for
    full-fidelity trials and rung segments alike — so the failure travels
    the same path a real worker exception would; the pool catches it and
    charges the attempt (see :meth:`~repro.core.parallel.EvaluationPool.
    _run_fresh`).
    """

    def __init__(self, kind: str, cost_s: float):
        super().__init__(f"injected fault: {kind}")
        self.kind = kind
        #: Simulated time the failed attempt consumed before dying, s.  For
        #: hangs this is the *nominal* cost; the pool substitutes the
        #: timeout charge, since only it knows when it would reap the worker.
        self.cost_s = float(cost_s)


@dataclass(frozen=True)
class FaultPlan:
    """What the injector decided for one attempt: which fault, and when."""

    #: One of :data:`FAULT_KINDS`.
    kind: str
    #: Fraction of the attempt's nominal cost consumed before the fault
    #: strikes (crashes and OOMs die partway through a training).
    fraction: float


@dataclass(frozen=True)
class FaultRates:
    """Per-attempt probabilities of each injectable fault kind."""

    crash: float = 0.0
    hang: float = 0.0
    nan_loss: float = 0.0
    oom: float = 0.0
    nvml: float = 0.0

    def __post_init__(self) -> None:
        total = 0.0
        for kind, rate in self.as_tuple():
            if not (0.0 <= rate <= 1.0) or rate != rate:
                raise ValueError(f"{kind} rate must be in [0, 1]")
            total += rate
        if total > 1.0:
            raise ValueError("fault rates must sum to at most 1")

    def as_tuple(self) -> tuple[tuple[str, float], ...]:
        """(kind, rate) pairs in the injector's draw order."""
        return (
            (CRASH, self.crash),
            (HANG, self.hang),
            (NAN_LOSS, self.nan_loss),
            (OOM, self.oom),
            (NVML, self.nvml),
        )

    @property
    def any_active(self) -> bool:
        """Whether any fault can ever fire."""
        return any(rate > 0.0 for _, rate in self.as_tuple())


@dataclass(frozen=True)
class FaultInjector:
    """Deterministic per-attempt fault source.

    The decision for ``(trial_seed, attempt)`` derives from a private
    ``SeedSequence([seed, trial_seed, attempt])`` stream — no shared RNG is
    consumed, so an injector with all rates zero (or none at all) leaves
    every other random stream untouched and the run byte-identical to a
    fault-free one.
    """

    rates: FaultRates
    #: Root of the fault stream; independent of every other seed in a run.
    seed: int = 0
    #: Simulated time a hung trial wastes before being reaped when the
    #: retry policy sets no explicit timeout, s.
    hang_s: float = 1800.0

    def __post_init__(self) -> None:
        if self.hang_s <= 0:
            raise ValueError("hang_s must be positive")

    def draw(self, trial_seed: int, attempt: int) -> FaultPlan | None:
        """The fault plan for one attempt, or None for a clean run."""
        if not self.rates.any_active:
            return None
        rng = np.random.default_rng(
            np.random.SeedSequence([self.seed, int(trial_seed), int(attempt)])
        )
        u = float(rng.random())
        fraction = float(rng.random())
        cumulative = 0.0
        for kind, rate in self.rates.as_tuple():
            cumulative += rate
            if u < cumulative:
                return FaultPlan(kind=kind, fraction=fraction)
        return None


#: Injectable storage fault kinds, in the order the chaos draw consumes
#: them.  ``fsync``/``enospc``/``torn`` fail the append (typed, repaired,
#: retryable); ``delay`` acknowledges but defers visibility/durability to
#: the next write, flush or close.
STORAGE_FAULT_KINDS = ("fsync", "enospc", "torn", "delay")


@dataclass(frozen=True)
class StorageFaultRates:
    """Per-append probabilities of each injectable storage fault kind."""

    fsync: float = 0.0
    enospc: float = 0.0
    torn: float = 0.0
    delay: float = 0.0

    def __post_init__(self) -> None:
        total = 0.0
        for kind, rate in self.as_tuple():
            if not (0.0 <= rate <= 1.0) or rate != rate:
                raise ValueError(f"{kind} rate must be in [0, 1]")
            total += rate
        if total > 1.0:
            raise ValueError("storage fault rates must sum to at most 1")

    def as_tuple(self) -> tuple[tuple[str, float], ...]:
        """(kind, rate) pairs in the chaos draw order."""
        return (
            ("fsync", self.fsync),
            ("enospc", self.enospc),
            ("torn", self.torn),
            ("delay", self.delay),
        )

    @property
    def any_active(self) -> bool:
        """Whether any storage fault can ever fire."""
        return any(rate > 0.0 for _, rate in self.as_tuple())


@dataclass(frozen=True)
class StorageChaos:
    """Deterministic storage-fault source for :class:`~repro.telemetry.
    jsonl.JsonlWriter`.

    Whether (and how) the ``op_index``-th append to a journal fails is a
    pure function of ``(seed, path, op_index)`` — the path enters through
    the crc32 of its last two components (``<study>/study.jsonl``), so
    the decision is independent of the temp directory the store happens
    to be rooted in.  A chaos source with all rates zero draws nothing
    and is a strict no-op, like :class:`FaultInjector`.
    """

    rates: StorageFaultRates
    #: Root of the storage-fault stream; independent of every other seed.
    seed: int = 0

    def path_tag(self, path) -> int:
        """The stable per-file stream tag (crc32 of the trailing path)."""
        parts = Path(path).parts[-2:]
        return zlib.crc32("/".join(parts).encode("utf-8"))

    def plan(self, path, op_index: int) -> str | None:
        """The fault for one append, or ``None`` for a clean write."""
        if not self.rates.any_active:
            return None
        rng = np.random.default_rng(
            np.random.SeedSequence(
                [int(self.seed), self.path_tag(path), int(op_index)]
            )
        )
        u = float(rng.random())
        cumulative = 0.0
        for kind, rate in self.rates.as_tuple():
            cumulative += rate
            if u < cumulative:
                return kind
        return None


@dataclass(frozen=True)
class RetryPolicy:
    """Per-trial timeouts and bounded retries with exponential backoff.

    All charges land on the *simulated* clock: a failed attempt costs what
    it consumed before dying (the timeout charge for hangs), and each
    retry waits ``backoff_s`` — ``base * factor**(k-1)``, capped at
    ``backoff_max_s`` — before redispatching, exactly like a production
    scheduler draining a flaky node.
    """

    #: Total attempts per trial (first try included).  When the last
    #: attempt fails, the trial is recorded as FAILED instead of raising.
    max_attempts: int = 3
    #: Per-trial simulated timeout, s; ``None`` disables the natural
    #: timeout (injected hangs then charge the injector's ``hang_s``).
    timeout_s: float | None = None
    #: Backoff before retry ``k`` (1-based): ``base * factor**(k-1)``, s.
    backoff_base_s: float = 60.0
    backoff_factor: float = 2.0
    #: Upper bound on a single backoff wait, s.
    backoff_max_s: float = 3600.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.timeout_s is not None and not (self.timeout_s > 0):
            raise ValueError("timeout_s must be positive (or None)")
        if not (self.backoff_base_s >= 0):
            raise ValueError("backoff_base_s must be >= 0")
        if not (self.backoff_factor >= 1):
            raise ValueError("backoff_factor must be >= 1")
        if not (self.backoff_max_s >= 0):
            raise ValueError("backoff_max_s must be >= 0")

    def backoff_s(self, retry: int) -> float:
        """Backoff before the ``retry``-th redispatch (1-based), s."""
        if retry < 1:
            raise ValueError("retry must be >= 1")
        return float(
            min(
                self.backoff_max_s,
                self.backoff_base_s * self.backoff_factor ** (retry - 1),
            )
        )


#: Seed-stream tag decorrelating retry attempts from first attempts
#: (``b'RETR'`` — arbitrary but fixed forever for reproducibility).
RETRY_SEED_TAG = 0x52455452


def retry_seed(trial_seed: int, attempt: int) -> int:
    """The evaluation seed for retry ``attempt`` (>= 1) of a trial.

    Attempt 0 always runs under the trial's original seed so the fault
    layer is a strict no-op when disabled; retries draw fresh training
    luck from a tagged substream.
    """
    if attempt == 0:
        return int(trial_seed)
    return int(
        np.random.SeedSequence(
            [int(trial_seed), RETRY_SEED_TAG, int(attempt)]
        ).generate_state(1)[0]
    )
