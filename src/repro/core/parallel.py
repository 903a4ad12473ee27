"""The evaluation engine: one in-process pool over simulated workers.

HyperPower's economics (paper Section 3, Figure 2) put constraint checks
at milliseconds and trainings at minutes.  The q-parallel rounds and
asynchronous workers are *simulated*: the pool trains each trial
in-process, one at a time, and reports the simulated time it finishes,
so ``workers`` is simulated concurrency that the driver charges to the
clock, not an executor size.  Results stay deterministic:

* :class:`EvaluationPool` gives every trial a deterministic seed derived
  from the pool seed and a submission counter, and evaluates it through
  :meth:`~repro.core.objective.NNObjective.evaluate_seeded`.
  :meth:`EvaluationPool.submit` is the one dispatch path: it resolves a
  trial segment (cache hit, duplicate of an in-flight segment, or fresh
  evaluation under the retry ladder) and queues its completion at the
  simulated time it finishes.  :meth:`EvaluationPool.next_completion`
  pops the earliest one and :meth:`EvaluationPool.drain` pops them all;
  those three calls are the pool's whole dispatch API.
* :class:`TrialCache` memoises outcomes under a canonical configuration
  hash, so duplicate proposals — common under Rand-Walk (which hovers
  around its incumbent) and grid search (which revisits coarse grids) —
  cost a hash probe instead of a training.
* The pool never touches the simulated clock: it reports when each
  dispatch finishes, and the driver (:class:`~repro.core.hyperpower.
  HyperPower`) decides how far to advance — to the next completion, or
  by a drained round's q-parallel wall time.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from ..telemetry.metrics import NOOP_METRICS
from .faults import (
    HANG,
    TIMEOUT,
    FaultInjector,
    RetryPolicy,
    TrialFault,
    retry_seed,
)
from .fidelity import segment_seed
from .objective import EvaluationOutcome, NNObjective

__all__ = [
    "canonical_config_key",
    "TrialCache",
    "PoolOutcome",
    "AsyncCompletion",
    "EvaluationPool",
]


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
    """One dispatch's result: the outcome plus its provenance."""

    #: The evaluation outcome (fresh or replayed from the cache); ``None``
    #: when the trial exhausted its retry budget and FAILED.
    outcome: EvaluationOutcome | None
    #: Whether the result came from the trial cache.
    cached: bool
    #: The deterministic seed the trial ran under (None for cache hits and
    #: for duplicates that shared an in-flight failed evaluation).
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

    def shared_outcome(self) -> "PoolOutcome":
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
                faults=self.faults,
                failure_kind=self.failure_kind,
                epochs=self.epochs,
            )
        return PoolOutcome(
            self.outcome, cached=True, seed=None, attempts=0, epochs=self.epochs
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

    result: PoolOutcome
    key: str
    finish_s: float
    #: Effective curve seed noted on the cache entry at pop time (None
    #: when the evaluation failed).
    seed: int | None = None


class EvaluationPool:
    """Dispatch accepted proposals to simulated workers, deterministically.

    Parameters
    ----------
    objective:
        The objective whose
        :meth:`~repro.core.objective.NNObjective.evaluate_seeded`
        evaluates each trial, in-process.
    workers:
        ``q``, the number of simulated concurrent trainings: the most
        segments :meth:`submit` keeps in flight.
    cache:
        Optional :class:`TrialCache`; ``None`` disables caching.
    seed:
        Root of the per-trial seed stream.  The ``i``-th fresh dispatch
        runs under ``SeedSequence([seed, i])``, so results are independent
        of worker scheduling.  Only fresh dispatches count: a cache hit,
        a shared in-flight duplicate or a continuation (which reuses its
        pinned seed) does not advance ``i``.
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
        workers: int = 1,
        cache: TrialCache | None = None,
        seed: int = 0,
        injector: FaultInjector | None = None,
        retry: RetryPolicy | None = None,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.objective = objective
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
        #: Asynchronous-mode state: a completion-ordered event heap keyed
        #: ``(finish_s, ticket)`` plus the in-flight fresh dispatches by
        #: canonical key (for duplicate sharing and deferred cache puts).
        self._events: list = []
        self._inflight_by_key: dict[str, _Inflight] = {}
        self._ticket = 0
        #: Journaled fresh results of an interrupted run, keyed by
        #: ``(trial seed, start_epoch)`` (:meth:`repro.io.JournalReplay.
        #: fresh_results`); filled once when a run resumes.
        self.journaled: dict[tuple[int, int], PoolOutcome] = {}
        self.bind_metrics(NOOP_METRICS)

    def bind_metrics(self, metrics) -> None:
        """Attach a metrics registry (the driver calls this).

        Pool metrics record only deterministic quantities — lookup counts,
        dispatch waves, occupancy fractions — so snapshots are identical
        across re-runs.  The ``pool.retry_wait_s`` backoff counter is
        created lazily on the first backoff charge, so fault-free runs
        snapshot exactly the metrics they always did.
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

    # -- evaluation ------------------------------------------------------------

    def _next_seed(self) -> int:
        """The next trial's deterministic seed (submission-order counter)."""
        seed = int(
            np.random.SeedSequence([self.seed, self._counter]).generate_state(1)[0]
        )
        self._counter += 1
        return seed

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

    def _run_fresh(self, task: _Task, early_term: bool) -> PoolOutcome:
        """Run one fresh task with deterministic fault injection and retries.

        Every attempt's evaluation seed and fault plan are pure functions
        of the task's seed (see :meth:`_Task.attempt_seeds`), so the
        outcome (including every failure) replays identically.
        """
        outcome = failure_kind = None
        attempts = 0
        faults: list[str] = []
        retry_s = backoff_s = 0.0
        while True:
            eval_seed, fault_stream = task.attempt_seeds(attempts)
            fault = (
                self.injector.draw(fault_stream, attempts)
                if self.injector is not None
                else None
            )
            self._m_dispatched.inc()
            attempts += 1
            try:
                res = self.objective.evaluate_seeded(
                    task.config,
                    eval_seed,
                    early_term=early_term,
                    fault=fault,
                    start_epoch=task.start_epoch,
                    epochs=task.epochs,
                )
            except TrialFault as exc:
                kind = exc.kind
                charge = self._hang_charge_s() if kind == HANG else exc.cost_s
            else:
                if self.retry.timeout_s is None or res.cost_s <= self.retry.timeout_s:
                    outcome = res
                    break
                # Natural timeout: the evaluation would have outlived the
                # per-trial deadline; the pool reaps it there.
                kind, charge = TIMEOUT, self.retry.timeout_s
            faults.append(kind)
            if attempts >= self.retry.max_attempts:
                failure_kind = kind
                retry_s += charge
                break
            backoff = self.retry.backoff_s(attempts)
            retry_s += charge + backoff
            backoff_s += backoff
            self._charge_retry_wait(backoff)
        return PoolOutcome(
            outcome,
            cached=False,
            seed=task.seed,
            attempts=attempts,
            faults=tuple(faults),
            failure_kind=failure_kind,
            retry_s=retry_s,
            backoff_s=backoff_s,
            epochs=task.epochs,
            start_epoch=task.start_epoch,
        )

    def _charge_journaled(self, outcome: PoolOutcome) -> None:
        """Charge a journaled evaluation to the metrics as it ran live."""
        self._m_dispatched.inc(outcome.attempts)
        for retry in range(1, outcome.attempts):
            self._charge_retry_wait(self.retry.backoff_s(retry))

    # -- dispatch ----------------------------------------------------------------

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
        the slot the moment its segment ends; :meth:`drain` pops them all.
        Returns the submission-order ticket.

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
                    origin.result.shared_outcome(),
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
        outcome = self.journaled.get((task.seed, start_epoch))
        if outcome is not None:
            self._charge_journaled(outcome)
        else:
            outcome = self._run_fresh(task, early_term)
        finish_s = now_s + outcome.total_cost_s
        entry = None
        if key is not None:
            entry = _Inflight(result=outcome, key=key, finish_s=finish_s)
            if outcome.outcome is not None:
                # The successful attempt's derived seed is what a resumed
                # continuation must regenerate the curve from.
                entry.seed = task.attempt_seeds(outcome.attempts - 1)[0]
            self._inflight_by_key[key] = entry
        self._push_event(
            ticket,
            finish_s,
            outcome,
            busy_s=outcome.total_cost_s - outcome.backoff_s,
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

    def drain(self) -> list[PoolOutcome]:
        """Pop every in-flight completion; outcomes in ticket order.

        Each call counts its dispatch waves: wave ``k`` holds the fresh
        slots still running their ``k``-th attempt, and the
        ``pool.occupancy`` histogram records the fraction of ``workers``
        each wave kept busy.
        """
        completions = [self.next_completion() for _ in range(self.n_inflight)]
        completions.sort(key=lambda c: c.ticket)
        outcomes = [c.outcome for c in completions]
        attempts = [
            po.attempts for po in outcomes if not po.cached and po.seed is not None
        ]
        for k in range(max(attempts, default=0)):
            self._m_waves.inc()
            self._m_occupancy.observe(sum(a > k for a in attempts) / self.workers)
        return outcomes
