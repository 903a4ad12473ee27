"""The batch-parallel evaluation engine.

HyperPower's economics (paper Section 3, Figure 2) put constraint checks
at milliseconds and trainings at minutes; once screening is vectorised the
remaining bottleneck is the trainings themselves.  This module parallelises
them without giving up the framework's determinism guarantees:

* :class:`EvaluationPool` dispatches accepted proposals to a configurable
  worker backend — ``serial`` (in-process loop), ``thread``
  (:class:`~concurrent.futures.ThreadPoolExecutor`) or ``process``
  (:class:`~concurrent.futures.ProcessPoolExecutor`).  Every trial gets a
  deterministic seed derived from the pool seed and a submission counter,
  and is evaluated through
  :meth:`~repro.core.objective.NNObjective.evaluate_seeded`, so all three
  backends produce bit-identical outcomes in submission order.
  :meth:`EvaluationPool.submit` is the one dispatch path: it resolves a
  trial segment (cache hit, duplicate of an in-flight segment, or fresh
  evaluation under the retry ladder) and queues its completion.  The
  round-barrier driver's :meth:`EvaluationPool.evaluate_batch` is a round
  of ``submit`` calls made at one instant and then drained.
* :class:`TrialCache` memoises outcomes under a canonical configuration
  hash, so duplicate proposals — common under Rand-Walk (which hovers
  around its incumbent) and grid search (which revisits coarse grids) —
  cost a hash probe instead of a training.
* Simulated-clock accounting models *q-parallel wall time*: a batch of
  fresh trainings advances the clock by the ``max`` of their costs (they
  run concurrently), not the sum; cache hits advance it by the near-zero
  lookup cost.  The driver (:class:`~repro.core.hyperpower.HyperPower`)
  applies this via :meth:`EvaluationPool.batch_wall_time_s`.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import math
from collections.abc import Mapping, Sequence
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from ..telemetry.metrics import NOOP_METRICS
from .faults import (
    HANG,
    TIMEOUT,
    FaultEvent,
    FaultInjector,
    RetryPolicy,
    TrialFault,
    retry_seed,
)
from .fidelity import segment_seed
from .objective import EvaluationOutcome, NNObjective

__all__ = [
    "BACKENDS",
    "canonical_config_key",
    "TrialCache",
    "PoolOutcome",
    "AsyncCompletion",
    "EvaluationPool",
]

#: Supported worker backends, in increasing isolation order.
BACKENDS = ("serial", "thread", "process")


def _canonical_value(value):
    """Normalise a configuration value for hashing (NumPy scalars included)."""
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    if isinstance(value, str):
        return value
    raise TypeError(
        f"unhashable configuration value {value!r} of type {type(value).__name__}"
    )


def canonical_config_key(config: Mapping) -> str:
    """A canonical hash of a configuration.

    Stable under dict ordering (keys are sorted) and NumPy scalar types
    (values are normalised to native Python numbers before serialisation);
    floats serialise via their shortest round-trip repr, so two configs
    hash equal exactly when they are value-equal.
    """
    payload = json.dumps(
        {str(k): _canonical_value(v) for k, v in config.items()},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class TrialCache:
    """Memoised evaluation outcomes keyed by canonical configuration hash."""

    def __init__(self, max_size: int | None = None):
        if max_size is not None and max_size < 1:
            raise ValueError("max_size must be >= 1 (or None for unbounded)")
        self.max_size = max_size
        self._store: dict[str, EvaluationOutcome] = {}
        #: Effective curve seed per key (rung scheduling resumes a cached
        #: partial result by regenerating its curve from this seed).
        self._seeds: dict[str, int] = {}
        #: Lookup counters, surfaced in run results and reports.
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._store)

    @property
    def lookups(self) -> int:
        """Total lookups performed."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups that hit; 0.0 before any lookup."""
        return 0.0 if self.lookups == 0 else self.hits / self.lookups

    @staticmethod
    def key(
        config: Mapping,
        epochs: int | None = None,
        *,
        config_key: str | None = None,
    ) -> str:
        """The canonical hash this cache keys on.

        ``epochs`` tags the key with a fidelity (the cumulative epoch
        budget a rung segment trained to), so partial results never
        masquerade as full-schedule outcomes — or vice versa.
        ``config_key`` is ``canonical_config_key(config)`` when the caller
        already holds it (a :class:`~repro.core.study.Suggestion`'s
        ``key``), so the configuration is not hashed again.
        """
        base = canonical_config_key(config) if config_key is None else config_key
        return base if epochs is None else f"{base}#e{int(epochs)}"

    def get(self, key: str) -> EvaluationOutcome | None:
        """Look a key up, counting the hit or miss."""
        outcome = self._store.get(key)
        if outcome is None:
            self.misses += 1
        else:
            self.hits += 1
        return outcome

    def put(self, key: str, outcome: EvaluationOutcome) -> None:
        """Store an outcome, evicting the oldest entry when full (FIFO).

        Raises
        ------
        ValueError
            When the outcome's error is non-finite or its measurement is
            missing.  A NaN/inf error (or a degraded, measurement-less
            outcome) must never enter the cache: warm-cache runs would
            replay the poisoned observation forever.
        """
        if not math.isfinite(outcome.error):
            raise ValueError(
                f"refusing to cache non-finite error {outcome.error!r}"
            )
        if outcome.measurement is None or outcome.measurement_failed:
            raise ValueError(
                "refusing to cache a degraded outcome (failed measurement)"
            )
        if self.max_size is not None and key not in self._store:
            while len(self._store) >= self.max_size:
                evicted = next(iter(self._store))
                self._store.pop(evicted)
                self._seeds.pop(evicted, None)
        self._store[key] = outcome

    def note_seed(self, key: str, seed: int) -> None:
        """Record the effective curve seed a cached outcome ran under.

        A rung scheduler resuming a *cached* partial result must regenerate
        the same curve; the seed travels with the cache entry rather than
        the outcome, so cached outcomes stay plain evaluation results.
        """
        self._seeds[key] = int(seed)

    def seed_for(self, key: str) -> int | None:
        """The noted effective curve seed for ``key`` (None if unknown)."""
        return self._seeds.get(key)

    def clear(self) -> None:
        """Drop all entries and reset the counters."""
        self._store.clear()
        self._seeds.clear()
        self.hits = 0
        self.misses = 0


@dataclass(frozen=True)
class PoolOutcome:
    """One batch slot's result: the outcome plus its provenance."""

    #: The evaluation outcome (fresh or replayed from the cache); ``None``
    #: when the trial exhausted its retry budget and FAILED.
    outcome: EvaluationOutcome | None
    #: Whether the result came from the trial cache.
    cached: bool
    #: The deterministic seed the trial ran under (None for cache hits and
    #: for within-batch duplicates of a failed evaluation).
    seed: int | None
    #: Evaluation attempts consumed (0 for cache hits and duplicates).
    attempts: int = 1
    #: Fault kinds hit across the attempts, in order.
    faults: tuple[str, ...] = ()
    #: Fault kind that exhausted the retry budget (None unless FAILED).
    failure_kind: str | None = None
    #: Simulated time charged to failed attempts plus backoff waits, s.
    retry_s: float = 0.0
    #: The backoff-wait portion of ``retry_s`` — simulated seconds the
    #: worker slot sat *idle* between attempts, not doing real work.
    backoff_s: float = 0.0
    #: Cumulative epoch budget this slot trained to (None on the classic
    #: full-fidelity paths, which leave the journal format untouched).
    epochs: int | None = None
    #: Epoch a rung continuation resumed from (0 = trained from scratch).
    start_epoch: int = 0
    #: Rung stage the trial terminated at (None off the rung path).
    rung: int | None = None
    #: Whether rank-based rung scheduling culled this trial.
    culled: bool = False

    @property
    def failed(self) -> bool:
        """Whether this slot is a FAILED trial (retry budget exhausted)."""
        return self.outcome is None and not self.cached

    @property
    def total_cost_s(self) -> float:
        """Full simulated cost of this slot: final attempt + retries, s."""
        base = 0.0 if self.outcome is None else self.outcome.cost_s
        return base + self.retry_s


@dataclass
class _FreshResult:
    """Internal per-task accounting of the retry loop."""

    outcome: EvaluationOutcome | None = None
    attempts: int = 0
    faults: list[str] = field(default_factory=list)
    failure_kind: str | None = None
    retry_s: float = 0.0
    backoff_s: float = 0.0

    @classmethod
    def from_journal(cls, entry) -> "_FreshResult":
        """Rebuild a result from a journaled :class:`~repro.io.ReplayEval`."""
        return cls(
            outcome=entry.outcome,
            attempts=int(entry.attempts),
            faults=list(entry.faults),
            failure_kind=entry.failure_kind,
            retry_s=float(entry.retry_s),
            backoff_s=float(entry.backoff_s),
        )

    def pool_outcome(
        self, seed: int, epochs: int | None = None, start_epoch: int = 0
    ) -> PoolOutcome:
        """The slot result of the dispatch that paid for this evaluation."""
        return PoolOutcome(
            self.outcome,
            cached=False,
            seed=seed,
            attempts=self.attempts,
            faults=tuple(self.faults),
            failure_kind=self.failure_kind,
            retry_s=self.retry_s,
            backoff_s=self.backoff_s,
            epochs=epochs,
            start_epoch=start_epoch,
        )

    def shared_outcome(self, epochs: int | None = None) -> PoolOutcome:
        """The slot result of a duplicate that waited for this evaluation.

        A success reads as a cache hit; a failure is shared but carries no
        charge of its own (the original slot already paid every attempt).
        """
        if self.outcome is None:
            return PoolOutcome(
                None,
                cached=False,
                seed=None,
                attempts=0,
                faults=tuple(self.faults),
                failure_kind=self.failure_kind,
                retry_s=0.0,
                epochs=epochs,
            )
        return PoolOutcome(
            self.outcome, cached=True, seed=None, attempts=0, epochs=epochs
        )


def _cacheable(outcome: EvaluationOutcome | None) -> bool:
    """Whether an outcome may enter the cache.

    Failed, degraded (measurement-less) and non-finite outcomes never do:
    a warm-cache run must not replay a failure or a sensor fault.
    """
    return (
        outcome is not None
        and not outcome.measurement_failed
        and math.isfinite(outcome.error)
    )


@dataclass(frozen=True)
class _Task:
    """One fresh evaluation: a trial (or a rung segment of one) to run.

    ``epochs=None`` trains the full schedule — the classic trial, which
    is simply a chain of one segment.
    """

    config: Mapping
    seed: int
    start_epoch: int = 0
    epochs: int | None = None

    def attempt_seeds(self, attempt: int) -> tuple[int, int]:
        """``(evaluation seed, fault stream)`` of attempt ``attempt``.

        A from-scratch run retries under ``retry_seed(seed, a)`` with
        faults drawn from its own seed, so its fault luck is the same at
        any fidelity.  A continuation keeps the curve seed *fixed* (the
        checkpoint must replay exactly) and draws fault luck from the
        segment-tagged stream instead.
        """
        if self.start_epoch == 0:
            return retry_seed(self.seed, attempt), self.seed
        return self.seed, segment_seed(self.seed, self.start_epoch)


@dataclass(frozen=True)
class AsyncCompletion:
    """One finished asynchronous trial, popped in completion order."""

    #: Submission-order ticket returned by :meth:`EvaluationPool.submit`.
    ticket: int
    #: Simulated time at which the trial finished and freed its worker.
    finish_s: float
    #: The trial's result.
    outcome: PoolOutcome
    #: Worker-busy simulated seconds (backoff waits excluded), for
    #: occupancy accounting.
    busy_s: float


@dataclass
class _Inflight:
    """A cacheable asynchronous dispatch, until its completion is popped."""

    result: _FreshResult
    key: str
    finish_s: float
    #: Effective curve seed noted on the cache entry at pop time (None
    #: when the evaluation failed).
    seed: int | None = None


def _evaluate_task(
    objective: NNObjective,
    config: Mapping,
    seed: int,
    early_term: bool,
    fault=None,
    start_epoch: int = 0,
    epochs: int | None = None,
) -> EvaluationOutcome | FaultEvent:
    """Module-level task body so the process backend can pickle it.

    Injected faults raised by the objective are converted into plain
    :class:`~repro.core.faults.FaultEvent` records here, *inside* the
    worker, so no exception ever has to pickle across an executor
    boundary.
    """
    try:
        return objective.evaluate_seeded(
            config,
            seed,
            early_term=early_term,
            fault=fault,
            start_epoch=start_epoch,
            epochs=epochs,
        )
    except TrialFault as exc:
        return FaultEvent(kind=exc.kind, cost_s=exc.cost_s)


class EvaluationPool:
    """Dispatch accepted proposals to a worker backend, deterministically.

    Parameters
    ----------
    objective:
        The objective whose
        :meth:`~repro.core.objective.NNObjective.evaluate_seeded`
        evaluates each trial.  For the ``process`` backend it must be
        picklable (all simulator components are).
    backend:
        ``'serial'``, ``'thread'`` or ``'process'``.
    workers:
        ``q``, the number of concurrent trainings — both the executor's
        worker count and the batch size the driver proposes per round.
    cache:
        Optional :class:`TrialCache`; ``None`` disables caching.
    seed:
        Root of the per-trial seed stream.  Trial ``i`` (in submission
        order, cache hits excluded from the numbering's RNG use but not
        its count) runs under ``SeedSequence([seed, i])``, so results are
        independent of the backend and of worker scheduling.
    injector:
        Optional deterministic :class:`~repro.core.faults.FaultInjector`.
        ``None`` (or an injector with all rates zero) leaves every code
        path and random stream byte-identical to a fault-free pool.
    retry:
        The :class:`~repro.core.faults.RetryPolicy` governing per-trial
        timeouts, retry budgets and backoff charges; defaults to
        ``RetryPolicy()``.
    """

    def __init__(
        self,
        objective: NNObjective,
        backend: str = "serial",
        workers: int = 1,
        cache: TrialCache | None = None,
        seed: int = 0,
        injector: FaultInjector | None = None,
        retry: RetryPolicy | None = None,
    ):
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; expected one of {BACKENDS}"
            )
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.objective = objective
        self.backend = backend
        self.workers = int(workers)
        self.cache = cache
        self.seed = int(seed)
        self.injector = injector
        self.retry = RetryPolicy() if retry is None else retry
        #: This pool's own lookup counters.  They track the same events as
        #: the cache's, but only for lookups issued *through this pool* —
        #: the distinction matters when one cache is shared across runs.
        self.hits = 0
        self.misses = 0
        self._counter = 0
        self._executor: Executor | None = None
        #: Asynchronous-mode state: a completion-ordered event heap keyed
        #: ``(finish_s, ticket)`` plus the in-flight fresh dispatches by
        #: canonical key (for duplicate sharing and deferred cache puts).
        self._events: list = []
        self._inflight_by_key: dict[str, _Inflight] = {}
        self._ticket = 0
        #: Journaled fresh results of an interrupted run, keyed by
        #: ``(trial seed, start_epoch)`` (:meth:`repro.io.JournalReplay.
        #: fresh_results`); filled once when a run resumes.
        self.journaled: dict[tuple[int, int], object] = {}
        self.bind_metrics(NOOP_METRICS)

    def bind_metrics(self, metrics) -> None:
        """Attach a metrics registry (the driver calls this).

        Pool metrics record only deterministic quantities — lookup counts,
        dispatch waves, occupancy fractions — so snapshots are identical
        across the serial/thread/process backends.  The ``pool.
        retry_wait_s`` backoff counter is created lazily on the first
        backoff charge, so fault-free runs snapshot exactly the metrics
        they always did.
        """
        self._metrics = metrics
        self._m_cache_hits = metrics.counter("cache.hits")
        self._m_cache_misses = metrics.counter("cache.misses")
        self._m_waves = metrics.counter("pool.waves")
        self._m_dispatched = metrics.counter("pool.dispatched")
        self._m_occupancy = metrics.histogram(
            "pool.occupancy", bounds=(0.25, 0.5, 0.75, 1.0)
        )
        self._m_retry_wait = None

    def _charge_retry_wait(self, seconds: float) -> None:
        """Count backoff sleeps separately from real work.

        Backoff is *waiting*, not computing: charging it to the occupancy
        accounting would make a stalling pool look busy.  It lands on its
        own ``pool.retry_wait_s`` counter instead, registered on first use
        so it only appears in runs that actually backed off.
        """
        if seconds <= 0:
            return
        if self._m_retry_wait is None:
            self._m_retry_wait = self._metrics.counter("pool.retry_wait_s")
        self._m_retry_wait.inc(seconds)

    # -- lifecycle -------------------------------------------------------------

    def _get_executor(self) -> Executor:
        if self._executor is None:
            if self.backend == "thread":
                self._executor = ThreadPoolExecutor(max_workers=self.workers)
            else:
                self._executor = ProcessPoolExecutor(max_workers=self.workers)
        return self._executor

    def close(self) -> None:
        """Shut the executor down (no-op for the serial backend)."""
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None

    def __enter__(self) -> "EvaluationPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- evaluation ------------------------------------------------------------

    def _next_seed(self) -> int:
        """The next trial's deterministic seed (submission-order counter)."""
        seed = int(
            np.random.SeedSequence([self.seed, self._counter]).generate_state(1)[0]
        )
        self._counter += 1
        return seed

    def evaluate_batch(
        self,
        configs: Sequence[Mapping],
        early_term: bool = False,
        config_keys: Sequence[str] | None = None,
    ) -> list[PoolOutcome]:
        """Evaluate a round of accepted proposals; results in input order.

        The round is :meth:`submit` calls made at one instant and then
        drained, so every slot resolves as an event-queue dispatch does: a
        cache hit, a duplicate sharing an earlier slot's evaluation
        (counted as a cache hit), or a fresh evaluation under the next
        deterministic seed and the retry policy.  A slot that exhausts its
        retry budget comes back as a FAILED :class:`PoolOutcome` instead
        of raising.  More configs than ``workers`` run as consecutive
        rounds of ``workers`` slots.

        Each round counts its dispatch waves: wave ``k`` holds the fresh
        slots still running their ``k``-th attempt.  ``config_keys`` are
        the configs' canonical hashes, when the caller holds them.
        """
        outcomes: list[PoolOutcome] = []
        if config_keys is None:
            config_keys = [None] * len(configs)
        for start in range(0, len(configs), self.workers):
            chunk = configs[start : start + self.workers]
            for config, config_key in zip(chunk, config_keys[start:]):
                self.submit(config, 0.0, early_term, config_key=config_key)
            completions = sorted(
                (self.next_completion() for _ in chunk),
                key=lambda c: c.ticket,
            )
            round_outcomes = [c.outcome for c in completions]
            attempts = [
                po.attempts
                for po in round_outcomes
                if not po.cached and po.seed is not None
            ]
            for k in range(max(attempts, default=0)):
                self._m_waves.inc()
                self._m_occupancy.observe(
                    sum(a > k for a in attempts) / self.workers
                )
            outcomes.extend(round_outcomes)
        return outcomes

    def _share_hit(self) -> None:
        """Count a duplicate of an unfinished evaluation as a cache hit.

        The duplicate never probes the cache (the result is not in it
        yet), so the cache's own counter is bumped alongside the pool's.
        """
        self.cache.hits += 1
        self.hits += 1
        self._m_cache_hits.inc()

    def _lookup(self, key: str) -> EvaluationOutcome | None:
        """Probe the cache, counting the hit or miss on the pool too."""
        cached = self.cache.get(key)
        if cached is None:
            self.misses += 1
            self._m_cache_misses.inc()
        else:
            self.hits += 1
            self._m_cache_hits.inc()
        return cached

    # -- fresh dispatch under the retry policy ---------------------------------

    def _hang_charge_s(self) -> float:
        """Simulated time a hung attempt wastes before being reaped, s."""
        if self.retry.timeout_s is not None:
            return self.retry.timeout_s
        if self.injector is not None:
            return self.injector.hang_s
        # Hangs only arise from an injector; unreachable without one.
        return 1800.0  # pragma: no cover

    def _run_fresh(self, task: _Task, early_term: bool) -> _FreshResult:
        """Run one fresh task with deterministic fault injection and retries.

        Every attempt's evaluation seed and fault plan are pure functions
        of the task's seed (see :meth:`_Task.attempt_seeds`), so the
        outcome (including every failure) is identical on all three
        backends.
        """
        state = _FreshResult()
        while True:
            attempt = state.attempts
            eval_seed, fault_stream = task.attempt_seeds(attempt)
            fault = (
                self.injector.draw(fault_stream, attempt)
                if self.injector is not None
                else None
            )
            self._m_dispatched.inc()
            args = (
                self.objective, task.config, eval_seed, early_term, fault,
                task.start_epoch, task.epochs,
            )
            if self.backend == "serial":
                res = _evaluate_task(*args)
            else:
                future = self._get_executor().submit(_evaluate_task, *args)
                res = future.result()
            state.attempts += 1
            event = None
            if isinstance(res, FaultEvent):
                charge = (
                    self._hang_charge_s() if res.kind == HANG else res.cost_s
                )
                event = (res.kind, charge)
            elif (
                self.retry.timeout_s is not None
                and res.cost_s > self.retry.timeout_s
            ):
                # Natural timeout: the evaluation would have outlived the
                # per-trial deadline; the pool reaps it there.
                event = (TIMEOUT, self.retry.timeout_s)
            if event is None:
                state.outcome = res
                return state
            kind, charge = event
            state.faults.append(kind)
            if state.attempts >= self.retry.max_attempts:
                state.failure_kind = kind
                state.retry_s += charge
                return state
            backoff = self.retry.backoff_s(state.attempts)
            state.retry_s += charge + backoff
            state.backoff_s += backoff
            self._charge_retry_wait(backoff)

    def _journaled_result(self, entry) -> _FreshResult:
        """A journaled evaluation, charged to the metrics as it ran live."""
        self._m_dispatched.inc(entry.attempts)
        for retry in range(1, entry.attempts):
            self._charge_retry_wait(self.retry.backoff_s(retry))
        return _FreshResult.from_journal(entry)

    # -- asynchronous (event-driven) dispatch ----------------------------------

    @property
    def n_inflight(self) -> int:
        """Trials submitted but not yet popped via :meth:`next_completion`."""
        return len(self._events)

    def submit(
        self,
        config: Mapping,
        now_s: float,
        early_term: bool = False,
        cache_lookup_s: float = 0.0,
        *,
        epochs: int | None = None,
        start_epoch: int = 0,
        seed: int | None = None,
        config_key: str | None = None,
    ) -> int:
        """Dispatch one trial segment onto a worker slot at ``now_s``.

        The pool's one dispatch path: the segment's result (including its
        full retry/backoff history) is computed eagerly — it is a pure
        function of its seed — and an event is queued at the simulated
        time the segment will *finish*.
        :meth:`next_completion` pops events in completion order, freeing
        the slot the moment its segment ends instead of at a round
        barrier.  Returns the submission-order ticket.

        A segment trains from ``start_epoch`` to the cumulative budget
        ``epochs``; the defaults (``epochs=None``, ``start_epoch=0``) are
        a full-fidelity trial — a chain of one segment.  From-scratch
        segments draw a deterministic seed from the submission counter
        and are cached under a key tagged with ``epochs`` (untagged at full
        fidelity), so a partial result never masquerades as a final one.
        Continuations (``start_epoch > 0``) must pass the trial's pinned
        curve ``seed``; their results are checkpoint-specific, so they are
        never cached or shared.

        Cache hits finish after one ``cache_lookup_s``; a duplicate of an
        *in-flight* segment waits for the original dispatch and then reads
        its result at lookup cost (counted as a cache hit).  The cache
        itself is only populated when the original completion is popped,
        so a submission never observes a result from its simulated future.

        A fresh dispatch found in :attr:`journaled` (a resumed run) takes
        the recorded result instead of re-executing.  The lookup is by
        ``(trial seed, start_epoch)``, not position: completions journal
        out of submission order, and a trial appears once per segment.

        ``config_key``, the config's canonical hash when the caller holds
        it, spares :meth:`TrialCache.key` hashing the config again.
        """
        if self.n_inflight >= self.workers:
            raise RuntimeError(
                f"all {self.workers} workers are busy; pop a completion "
                "before submitting more work"
            )
        if start_epoch > 0 and seed is None:
            raise ValueError("continuations require the pinned trial seed")
        epochs = None if epochs is None else int(epochs)
        start_epoch = int(start_epoch)
        ticket = self._ticket
        self._ticket += 1
        key = None
        if self.cache is not None and start_epoch == 0:
            key = self.cache.key(config, epochs=epochs, config_key=config_key)
            origin = self._inflight_by_key.get(key)
            if origin is not None:
                # Duplicate of an in-flight segment: wait for it, then share.
                self._share_hit()
                self._push_event(
                    ticket,
                    max(origin.finish_s, now_s) + cache_lookup_s,
                    origin.result.shared_outcome(epochs),
                    busy_s=cache_lookup_s,
                )
                return ticket
            cached = self._lookup(key)
            if cached is not None:
                outcome = PoolOutcome(
                    cached, cached=True, seed=None, attempts=0, epochs=epochs
                )
                self._push_event(
                    ticket,
                    now_s + cache_lookup_s,
                    outcome,
                    busy_s=cache_lookup_s,
                )
                return ticket

        task = _Task(
            config,
            self._next_seed() if seed is None else int(seed),
            start_epoch,
            epochs,
        )
        recorded = self.journaled.get((task.seed, start_epoch))
        if recorded is not None:
            res = self._journaled_result(recorded)
        else:
            res = self._run_fresh(task, early_term)
        outcome = res.pool_outcome(task.seed, epochs, start_epoch)
        finish_s = now_s + outcome.total_cost_s
        entry = None
        if key is not None:
            entry = _Inflight(result=res, key=key, finish_s=finish_s)
            if res.outcome is not None:
                # The successful attempt's derived seed is what a resumed
                # continuation must regenerate the curve from.
                entry.seed = task.attempt_seeds(res.attempts - 1)[0]
            self._inflight_by_key[key] = entry
        self._push_event(
            ticket,
            finish_s,
            outcome,
            busy_s=outcome.total_cost_s - res.backoff_s,
            entry=entry,
        )
        return ticket

    #: The rung-segment spelling of :meth:`submit`.
    submit_segment = submit

    def _push_event(
        self, ticket, finish_s, outcome, busy_s, entry=None
    ) -> None:
        # (finish_s, ticket) is a unique sort key, so equal finish times
        # break deterministically by submission order (= trial id order)
        # and the payload is never compared.
        completion = AsyncCompletion(
            ticket=ticket, finish_s=finish_s, outcome=outcome, busy_s=busy_s
        )
        heapq.heappush(self._events, (finish_s, ticket, completion, entry))

    def next_completion(self) -> AsyncCompletion:
        """Pop the earliest in-flight completion, freeing its worker.

        Completions come back in nondecreasing ``finish_s`` order (ties by
        ticket).  Popping a fresh dispatch is the moment its result
        becomes observable: only then does its outcome enter the trial
        cache.
        """
        if not self._events:
            raise RuntimeError("no trials in flight")
        _, _, completion, entry = heapq.heappop(self._events)
        if entry is not None:
            if self._inflight_by_key.get(entry.key) is entry:
                del self._inflight_by_key[entry.key]
            if _cacheable(entry.result.outcome):
                self.cache.put(entry.key, entry.result.outcome)
                if entry.seed is not None:
                    self.cache.note_seed(entry.key, entry.seed)
        return completion

    # -- q-parallel time accounting --------------------------------------------

    @staticmethod
    def batch_wall_time_s(
        outcomes: Sequence[PoolOutcome], cache_lookup_s: float
    ) -> float:
        """Simulated wall time of one batch under q-parallel execution.

        Fresh trainings run concurrently on the workers, so they cost the
        ``max`` of their individual costs — not the sum the sequential
        driver would charge.  A trial's individual cost includes its
        failed attempts and backoff waits (retries occupy the same worker
        slot serially); FAILED trials cost exactly their retry charges.
        Cache hits are serial hash probes at ``cache_lookup_s`` each.
        """
        fresh = [
            po.total_cost_s
            for po in outcomes
            if not po.cached and po.seed is not None
        ]
        n_cached = sum(1 for po in outcomes if po.cached)
        return n_cached * cache_lookup_s + (max(fresh) if fresh else 0.0)
