"""The HyperPower framework facade (paper Figure 2).

"The ML designer only provides the NN design space, the target platform,
the power/memory budget values, and the number of iterations N_max" — this
module is that entry point.  It wires a solver (Rand, Rand-Walk, HW-CWEI,
HW-IECI) in either variant:

* ``variant='hyperpower'`` — the paper's contribution: a-priori constraint
  screening through the predictive power/memory models plus early
  termination of diverging trainings;
* ``variant='default'`` — the published constraint-unaware counterpart of
  the same solver [5, 8, 6, 17]: no predictive models (BO variants learn
  constraints from hardware measurements of evaluated points), no early
  termination.

and runs the loop of Figure 2 against the simulated clock, recording
every queried sample as a :class:`~repro.core.result.Trial`.

The proposing/recording core lives in :class:`~repro.core.study.Study`
(the open ask/tell API); this module owns the *closed loop*: one event
loop over ``suggest``/``observe`` whose synchronous scheduler is a round
barrier (propose a round, drain it, observe it) and whose asynchronous
scheduler refills each worker the moment its trial completes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..models.hw_models import MemoryModel, PowerModel
from ..space.space import SearchSpace
from ..telemetry.metrics import NOOP_METRICS
from ..telemetry.tracer import NOOP_TRACER
from .acquisition import HWCWEI, HWIECI
from .clock import DEFAULT_COST_MODEL, CostModel
from .constraints import ConstraintSpec, GPConstraintModel, ModelConstraintChecker
from .faults import retry_seed
from .fidelity import FidelitySchedule, RungScheduler
from .methods import (
    BayesianOptimizer,
    RandomSearch,
    RandomWalk,
    SearchMethod,
)
from .objective import EvaluationOutcome, NNObjective
from .parallel import EvaluationPool, PoolOutcome
from .result import RunResult
from .spec import SOLVERS, RunSpec
from .study import VARIANTS, Study, Suggestion, register_run_metrics

__all__ = ["SOLVERS", "VARIANTS", "build_method", "HyperPower"]


def build_method(
    solver: str,
    variant: str,
    space: SearchSpace,
    spec: ConstraintSpec,
    power_model: PowerModel | None = None,
    memory_model: MemoryModel | None = None,
    latency_model=None,
    **options,
) -> SearchMethod:
    """Construct one of the eight method variants.

    HyperPower variants need the fitted predictive models matching the
    active budgets; default variants must not receive them.  ``options``
    are :class:`~repro.core.spec.RunSpec` method fields, checked there;
    a solver ignores the ones it does not read.  ``surrogate`` selects
    the surrogate tier of both the objective GP and — in default
    constrained variants — the learned constraint GPs.  The default
    ``exact`` reproduces the seed path byte-for-byte.
    """
    run = RunSpec.for_method(solver, variant, options)
    checker = None
    if variant == "hyperpower":
        checker = ModelConstraintChecker(
            spec, power_model, memory_model, latency_model=latency_model
        )
    if solver == "Rand":
        return RandomSearch(space, checker)
    if solver == "Rand-Walk":
        return RandomWalk(
            space, run.sigma, checker, feasible_incumbent=checker is not None
        )
    if checker is not None:
        constraints = {"model_checker": checker}
    else:
        # Default (constraint-unaware-a-priori) variants learn them.
        checker = GPConstraintModel(
            space,
            spec,
            surrogate=run.surrogate,
            surrogate_features=run.surrogate_features,
            surrogate_switch_at=run.surrogate_switch_at,
        )
        constraints = {"learned_constraints": checker}
    acquisition = HWCWEI(checker) if solver == "HW-CWEI" else HWIECI(checker)
    return BayesianOptimizer(
        space,
        acquisition,
        **constraints,
        n_init=run.n_init,
        pool_size=run.pool_size,
        gp_restarts=run.gp_restarts,
        refit_every=run.gp_refit_every,
        warm_start=run.gp_warm_start,
        burn_in=run.gp_burn_in,
        surrogate=run.surrogate,
        surrogate_features=run.surrogate_features,
        surrogate_switch_at=run.surrogate_switch_at,
        scatter_init=run.scatter_init,
    )


@dataclass
class _TrialChain:
    """Driver-side lifetime record of one logical trial on the event loop.

    One suggestion, one or more segments (exactly one at full fidelity).
    On the rung path the accumulators merge every segment's provenance
    into the single :class:`~repro.core.parallel.PoolOutcome` the study
    observes when the trial finally resolves.
    """

    suggestion: Suggestion
    bracket: int
    #: Last *completed* stage (-1 until the first segment returns).
    stage: int = -1
    #: Original rung-0 submission seed (None when rung 0 was a cache hit).
    seed0: int | None = None
    #: Effective curve seed — what continuations regenerate the curve from.
    seed: int | None = None
    eval_cost_s: float = 0.0
    attempts: int = 0
    faults: list = field(default_factory=list)
    retry_s: float = 0.0
    backoff_s: float = 0.0
    all_cached: bool = True
    #: Latest segment outcome (cumulative curve, so also the best so far).
    last: EvaluationOutcome | None = None
    #: Rung-0 deployment results, carried through every later segment.
    measurement: object = None
    feasible_meas: bool | None = None
    measurement_failed: bool = False
    #: Tracer span id of the latest ``rung`` record (promote/cull parent).
    last_sid: int | None = None


class HyperPower:
    """The optimization driver of Figure 2."""

    #: Hard cap on queried samples, protecting against runaway rejection
    #: loops under very tight budgets.
    MAX_SAMPLES = Study.MAX_SAMPLES

    def __init__(
        self,
        objective: NNObjective,
        method: SearchMethod,
        variant: str,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        early_term: bool | None = None,
        pool: EvaluationPool | None = None,
        telemetry=None,
    ):
        """``early_term`` overrides the variant's default (HyperPower on,
        default off) — used by the ablation benches to isolate the two
        enhancements of Section 3.2.

        ``pool`` switches the driver to the batch-parallel engine: trials
        are evaluated through the pool (with deterministic per-trial
        seeding and optional trial caching), up to ``pool.workers``
        simulated trainings at a time, and charge the clock q-parallel
        wall time — the ``max`` over concurrent trainings, not their sum.  ``pool=None`` keeps
        the paper's sequential Figure 2 loop, bit-for-bit.

        ``telemetry`` (a :class:`~repro.telemetry.Telemetry` bundle)
        switches on span tracing and metrics: the driver binds the
        tracer to the objective's simulated clock and threads it through
        the method, objective and pool.  Tracing only *reads* the clock
        and RNG state, never consumes either, so traced and untraced
        runs are byte-identical; the default is the shared no-op pair.
        """
        if variant not in VARIANTS:
            raise ValueError(
                f"unknown variant {variant!r}; expected one of {VARIANTS}"
            )
        if pool is not None and pool.objective is not objective:
            raise ValueError(
                "pool must be bound to the driver's objective (same clock, "
                "same simulated world)"
            )
        self.objective = objective
        self.method = method
        self.variant = variant
        self.cost_model = cost_model
        self.pool = pool
        #: Early termination is one of the two HyperPower enhancements.
        if early_term is None:
            early_term = variant == "hyperpower"
        self.early_term = early_term

        # -- telemetry threading ------------------------------------------
        # The driver is the one component that sees every layer of a run,
        # so it owns handing the tracer/registry to its collaborators.
        self.telemetry = telemetry
        if telemetry is None:
            self.tracer = NOOP_TRACER
            self.metrics = NOOP_METRICS
        else:
            self.tracer = telemetry.tracer
            self.metrics = telemetry.metrics
            if self.tracer.clock is None:
                self.tracer.clock = objective.clock
        objective.tracer = self.tracer
        method.tracer = self.tracer
        if pool is not None:
            pool.bind_metrics(self.metrics)
        # Register the per-run instruments up front so even an idle
        # driver's snapshot carries the full set at zero.  The study
        # re-registers the same names per run (get-or-create).
        register_run_metrics(self.metrics)
        # Async-only instrument, created lazily so synchronous runs
        # (whose metric snapshots are pinned by the golden suite) never
        # register it.
        self._m_occupancy_gauge = None

    def open_study(self, rng: np.random.Generator) -> Study:
        """Open an ask/tell :class:`~repro.core.study.Study` over this
        driver's method, objective and telemetry.

        ``run`` opens one of these internally per call; external callers
        can drive the returned study directly and obtain results
        byte-identical to the closed loop.
        """
        return Study(
            self.method,
            self.variant,
            clock=self.objective.clock,
            rng=rng,
            cost_model=self.cost_model,
            objective=self.objective,
            early_term=self.early_term,
            dataset=self.objective.dataset_name,
            device=self.objective.device_name,
            chance_error=self.objective.trainer.dataset.chance_error,
            tracer=self.tracer,
            metrics=self.metrics,
            max_samples=self.MAX_SAMPLES,
        )

    # -- main loop ------------------------------------------------------------------

    def run(
        self,
        rng: np.random.Generator,
        max_evaluations: int | None = None,
        max_time_s: float | None = None,
        journal=None,
        scheduler: str = "sync",
        fidelity: FidelitySchedule | None = None,
    ) -> RunResult:
        """Run the optimization until a budget is exhausted.

        Parameters
        ----------
        rng:
            Randomness for proposals (objective noise has its own stream).
        max_evaluations:
            ``N_max`` — budget on *trained* evaluations (the fixed-
            function-evaluations protocol of Figure 4).
        max_time_s:
            Simulated wall-clock budget (the fixed-runtime protocol of
            Tables 2-5).  Following the paper, a sample started before the
            deadline is allowed to complete, so final run times land
            slightly above the budget.
        journal:
            Optional crash-safe run journal (:class:`~repro.io.RunJournal`
            or any object exposing ``append_round``/``finish``).  Every
            completed round of trials is flushed to it before the next
            round starts, so a killed process loses at most the round in
            flight.  A resumed run re-runs its loop from the start (all
            proposal RNG streams and clock charges recompute identically):
            the journal verifies each recomputed round against its
            recorded ones, and the pool takes each recorded evaluation
            from :attr:`~repro.core.parallel.EvaluationPool.journaled`
            instead of dispatching it.  The sequential path (``pool=None``)
            re-executes every evaluation, re-spending its compute.
        scheduler:
            ``"sync"`` (the default) runs the loop with a round barrier —
            byte-identical to every release before the scheduler existed.
            ``"async"`` drops the barrier: workers are refilled the
            moment a trial completes, proposals condition on the
            in-flight set (constant-liar fantasies for the BO solvers),
            and one journal round is written per completion event.
            Requires the pool path.
        fidelity:
            Optional :class:`~repro.core.fidelity.FidelitySchedule`.  When
            given, trials run rung by rung on the event queue (successive
            halving / Hyperband): each trial trains to its rung's epoch
            budget, pauses as first-class resumable state, and is promoted
            or culled by rank once its rung cell fills.  Requires the
            asynchronous scheduler.  ``None`` (the default) runs every
            trial as a single full-fidelity segment, byte-identical to
            the classic paths.
        """
        if max_evaluations is None and max_time_s is None:
            raise ValueError("need max_evaluations and/or max_time_s")
        if max_evaluations is not None and max_evaluations < 1:
            raise ValueError("max_evaluations must be >= 1")
        if max_time_s is not None and not (
            math.isfinite(max_time_s) and max_time_s > 0
        ):
            # A NaN or infinite deadline is never reached, so the run would
            # silently go on to the sample cap.
            raise ValueError(
                f"max_time_s must be finite and > 0, got {max_time_s!r}"
            )
        if scheduler not in ("sync", "async"):
            raise ValueError(
                f"unknown scheduler {scheduler!r}; expected 'sync' or 'async'"
            )
        if scheduler == "async" and self.pool is None:
            raise ValueError(
                "the asynchronous scheduler requires an evaluation pool"
            )
        if fidelity is not None and scheduler != "async":
            raise ValueError(
                "multi-fidelity rungs require the asynchronous scheduler"
            )

        study = self.open_study(rng)
        result = study.result

        run_span = self.tracer.span(
            "run",
            method=self.method.name,
            variant=self.variant,
            dataset=result.dataset,
            device=result.device,
        )
        run_span.__enter__()
        rounds = self._run_events(
            study, max_evaluations, max_time_s, journal, fidelity,
            barrier=scheduler == "sync",
        )
        run_span.set(rounds=rounds, samples=len(result.trials))
        run_span.__exit__(None, None, None)
        study.finalize()
        if self.pool is not None and self.pool.cache is not None:
            # The pool's own counters, not the cache's lifetime totals:
            # a shared (warm) cache carries counts from earlier runs.
            result.cache_hits = self.pool.hits
            result.cache_misses = self.pool.misses
        if self.telemetry is not None:
            result.telemetry = self.telemetry.snapshot()
        if journal is not None:
            journal.finish(result)
        return result

    def _run_events(
        self,
        study: Study,
        max_evaluations: int | None,
        max_time_s: float | None,
        journal,
        fidelity: FidelitySchedule | None,
        barrier: bool,
    ) -> int:
        """The one run loop of Figure 2; returns the journal rounds written.

        Each pass checks one budget gate (simulated time,
        ``max_evaluations`` counting in-flight trials, the sample cap).
        While a worker is free it starts work; otherwise it advances the
        clock to the earliest in-flight completion and handles that.
        ``flush_event`` is the only journal write, one record per round
        or completion event.

        With ``barrier`` (the synchronous scheduler) a start is a whole
        round proposed from one frozen state.  Without a pool its one
        suggestion trains in-process (the paper's sequential loop); with
        one, up to ``workers`` suggestions are submitted at one instant
        and drained, and the clock advances by the round's q-parallel
        wall time ``n_cached * lookup + max(fresh)``.

        Without ``barrier`` a free worker takes a queued promotion first,
        else a fresh suggestion proposed against the state *plus* the
        pending set (constant-liar fantasies for the BO solvers).  With
        one worker and no rungs this reproduces the synchronous loop
        trial for trial.

        Every logical trial is a chain of *segments*: one full-fidelity
        segment without a ``fidelity`` schedule.  With one (successive
        halving / Hyperband), rung 0 trains from scratch to the first
        rung's epoch budget and each later segment is a seed-pinned
        continuation of the identical learning curve.  A trial that
        finishes a non-final rung *pauses* — its suggestion stays
        pending, so BO fantasies lie at the observed partial error —
        until its rung cell fills; then the top ``1/eta`` by observed
        error are queued for promotion and the rest are culled, observed
        as ``CULLED`` trials whose partial errors are real (low-fidelity)
        observations.  Trials still paused when the budget runs out are
        culled in a final evaluation-free round.
        """
        clock = self.objective.clock
        state = study.state
        result = study.result
        pool = self.pool
        lookup_s = self.cost_model.cache_lookup_s
        rungs = fidelity is not None
        sched = RungScheduler(fidelity) if rungs else None
        #: pool ticket -> (trial, stage being trained, dispatch time).
        running: dict[int, tuple[_TrialChain, int, float]] = {}
        #: suggestion ticket -> trial waiting for its rung cell to fill.
        paused: dict[int, _TrialChain] = {}
        promo_queue: list[_TrialChain] = []
        next_bracket = 0
        event_index = 0
        busy_s = 0.0
        t0 = clock.now_s
        journal_mark = len(result.trials)
        if not barrier:
            span_attrs = {"workers": pool.workers}
            if rungs:
                span_attrs.update(rungs=fidelity.num_rungs, eta=fidelity.eta)
            sched_span = self.tracer.span("schedule", **span_attrs)
            sched_span.__enter__()

        def dispatch(rt: _TrialChain, stage: int) -> None:
            epochs, start_epoch = None, 0
            if rungs:
                epochs = fidelity.target_epochs(rt.bracket, stage)
                start_epoch = fidelity.start_epoch(rt.bracket, stage)
            ticket = pool.submit(
                rt.suggestion.proposal.config,
                clock.now_s,
                self.early_term,
                lookup_s,
                epochs=epochs,
                start_epoch=start_epoch,
                seed=rt.seed,
                config_key=rt.suggestion.key,
            )
            running[ticket] = (rt, stage, clock.now_s)
            if not rungs:
                self.tracer.record(
                    "dispatch",
                    clock.now_s,
                    clock.now_s,
                    ticket=ticket,
                    inflight=pool.n_inflight,
                )

        def flush_event(pool_outcomes) -> None:
            nonlocal journal_mark, event_index
            if journal is not None:
                journal.append_round(
                    result.trials[journal_mark:], pool_outcomes
                )
            journal_mark = len(result.trials)
            event_index += 1

        def run_round() -> None:
            size = 1 if pool is None else pool.workers
            if max_evaluations is not None:
                size = min(size, max_evaluations - state.n_trained)
            with self.tracer.span("round", index=event_index) as round_span:
                # A round proposes from one frozen state, so its own
                # suggestions must not see each other as pending.
                suggestions = study.suggest(size, batch_aware=False)
                outcomes = None
                if pool is None:
                    study.evaluate_and_observe(suggestions[0])
                else:
                    for s in suggestions:
                        pool.submit(
                            s.config,
                            clock.now_s,
                            self.early_term,
                            lookup_s,
                            config_key=s.key,
                        )
                    outcomes = pool.drain()
                    # Fresh trainings (retries and backoff included) run
                    # concurrently, so they cost their max; cache hits are
                    # serial probes.  Shared failures (no seed) cost nothing.
                    fresh = [
                        po.total_cost_s
                        for po in outcomes
                        if not po.cached and po.seed is not None
                    ]
                    n_cached = sum(1 for po in outcomes if po.cached)
                    clock.advance(
                        n_cached * lookup_s + max(fresh, default=0.0)
                    )
                    for s, po in zip(suggestions, outcomes):
                        study.observe(s, po)
                round_span.set(trials=len(result.trials) - journal_mark)
                flush_event(outcomes)

        def merged_outcome(rt: _TrialChain, *, culled: bool) -> PoolOutcome:
            last = rt.last
            outcome = EvaluationOutcome(
                error=last.error,
                final_error=last.final_error,
                epochs_run=last.epochs_run,
                stopped_early=last.stopped_early,
                diverged=last.diverged,
                measurement=rt.measurement,
                feasible_meas=rt.feasible_meas,
                cost_s=rt.eval_cost_s,
                measurement_failed=rt.measurement_failed,
            )
            return PoolOutcome(
                outcome,
                cached=rt.all_cached,
                seed=None if rt.all_cached else rt.seed0,
                attempts=rt.attempts,
                faults=tuple(rt.faults),
                retry_s=rt.retry_s,
                backoff_s=rt.backoff_s,
                epochs=fidelity.target_epochs(rt.bracket, rt.stage),
                rung=rt.stage,
                culled=culled,
            )

        def cull(rt: _TrialChain) -> None:
            study.observe(rt.suggestion, merged_outcome(rt, culled=True))
            self.tracer.record(
                "cull",
                clock.now_s,
                clock.now_s,
                parent=rt.last_sid,
                ticket=rt.suggestion.ticket,
                stage=rt.stage,
            )

        while True:
            free = pool is None or pool.n_inflight < pool.workers
            out_of_time = clock.exceeded(max_time_s)
            if free and promo_queue and not out_of_time:
                rt = promo_queue.pop(0)
                dispatch(rt, rt.stage + 1)
                continue
            can_start = (
                free
                and not out_of_time
                and (
                    max_evaluations is None
                    or state.n_trained + study.n_pending < max_evaluations
                )
                and len(state.trials) < study.max_samples
            )
            if can_start and barrier:
                run_round()
                continue
            if can_start:
                (suggestion,) = study.suggest(1)
                dispatch(_TrialChain(suggestion, bracket=next_bracket), 0)
                if rungs:
                    next_bracket = (next_bracket + 1) % fidelity.brackets
                continue
            if pool is None or pool.n_inflight == 0:
                break
            completion = pool.next_completion()
            rt, stage, dispatched_s = running.pop(completion.ticket)
            clock.advance(max(0.0, completion.finish_s - clock.now_s))
            busy_s += completion.busy_s
            po = completion.outcome
            if not rungs:
                self.tracer.record(
                    "complete",
                    completion.finish_s,
                    completion.finish_s,
                    ticket=completion.ticket,
                    inflight=pool.n_inflight,
                )
                study.observe(rt.suggestion, po)
                flush_event([po])
                continue
            rt.stage = stage
            rt.attempts += po.attempts
            rt.faults.extend(po.faults)
            rt.retry_s += po.retry_s
            rt.backoff_s += po.backoff_s
            if not po.cached:
                rt.all_cached = False
            sid = self.tracer.record(
                "rung",
                dispatched_s,
                completion.finish_s,
                ticket=rt.suggestion.ticket,
                bracket=rt.bracket,
                stage=stage,
            )
            self.tracer.record(
                "dispatch",
                dispatched_s,
                dispatched_s,
                parent=sid,
                ticket=completion.ticket,
            )
            rt.last_sid = sid
            if stage == 0 and not po.failed:
                if po.cached:
                    key = pool.cache.key(
                        rt.suggestion.proposal.config,
                        epochs=fidelity.target_epochs(rt.bracket, 0),
                        config_key=rt.suggestion.key,
                    )
                    rt.seed = pool.cache.seed_for(key)
                    if rt.seed is None:
                        raise RuntimeError(
                            "no curve seed recorded for cached rung result"
                        )
                else:
                    rt.seed0 = po.seed
                    rt.seed = retry_seed(po.seed, po.attempts - 1)
            if po.failed:
                failed = PoolOutcome(
                    None,
                    cached=False,
                    seed=rt.seed0 if rt.seed0 is not None else po.seed,
                    attempts=rt.attempts,
                    faults=tuple(rt.faults),
                    failure_kind=po.failure_kind,
                    retry_s=rt.retry_s,
                    backoff_s=rt.backoff_s,
                    rung=stage,
                )
                study.observe(rt.suggestion, failed)
                flush_event([po])
                continue
            rt.last = po.outcome
            rt.eval_cost_s += lookup_s if po.cached else po.outcome.cost_s
            if stage == 0:
                rt.measurement = po.outcome.measurement
                rt.feasible_meas = po.outcome.feasible_meas
                rt.measurement_failed = po.outcome.measurement_failed
            if po.outcome.stopped_early or fidelity.is_final(
                rt.bracket, stage
            ):
                study.observe(rt.suggestion, merged_outcome(rt, culled=False))
                flush_event([po])
                continue
            # Pause: the suggestion stays pending with its partial error
            # visible to the method, and the trial waits for rank.
            rt.suggestion.observed_error = float(po.outcome.error)
            rt.suggestion.observed_epochs = int(po.outcome.epochs_run)
            paused[rt.suggestion.ticket] = rt
            self.tracer.record(
                "pause",
                completion.finish_s,
                completion.finish_s,
                parent=sid,
                ticket=rt.suggestion.ticket,
                stage=stage,
            )
            decision = sched.arrive(
                rt.bracket, stage, rt.suggestion.ticket, po.outcome.error
            )
            if decision is not None:
                for t in decision.promoted:
                    winner = paused.pop(t)
                    promo_queue.append(winner)
                    self.tracer.record(
                        "promote",
                        clock.now_s,
                        clock.now_s,
                        parent=winner.last_sid,
                        ticket=t,
                        stage=stage + 1,
                    )
                for t in decision.culled:
                    cull(paused.pop(t))
            flush_event([po])

        end_attrs = {}
        if rungs:
            # Drain: trials stranded mid-ladder when the budget ran out —
            # paused in unfilled cells, or promoted with no time to run.
            for t in sched.flush():
                cull(paused.pop(t))
            for rt in promo_queue:
                cull(rt)
            self.metrics.counter("rung.pauses").inc(sched.pauses)
            self.metrics.counter("rung.promotions").inc(sched.promotions)
            self.metrics.counter("rung.culls").inc(sched.culls)
            end_attrs["paused"] = sched.n_paused
        if len(result.trials) > journal_mark:
            flush_event([])
        if barrier:
            return event_index

        makespan = clock.now_s - t0
        occupancy = busy_s / (pool.workers * makespan) if makespan > 0 else 0.0
        if self._m_occupancy_gauge is None:
            self._m_occupancy_gauge = self.metrics.gauge("schedule.occupancy")
        self._m_occupancy_gauge.set(occupancy)
        sched_span.set(events=event_index, occupancy=occupancy, **end_attrs)
        sched_span.__exit__(None, None, None)
        return event_index
