"""The open ask/tell optimization core.

:class:`Study` splits the closed loop of :class:`~repro.core.hyperpower.
HyperPower` (paper Figure 2) into two halves that external callers can
drive at their own pace:

* :meth:`Study.suggest` — propose the next configuration(s).  Proposals
  are *pending-aware*: configurations suggested but not yet observed are
  forwarded to the method, which excludes them (random/grid solvers) or
  conditions on constant-liar fantasies (the BO solvers), exactly as the
  asynchronous scheduler does for its in-flight set.  Every clock charge
  of the closed loop — proposal cost, screening, GP fit/append/fantasy —
  happens here, so a Study-driven run reproduces ``HyperPower.run``'s
  simulated timeline bit for bit.
* :meth:`Study.observe` — fold a result back into the search state, the
  surrogate's training set, the trial record and the metrics registry.
  Results arrive either as pool outcomes (the internal drivers) or as
  :class:`TrialReport` objects measured by an external trainer (the
  service layer), and may be observed in any order.

The synchronous and asynchronous drivers in ``hyperpower.py`` are thin
loops over this API; the multi-tenant service layer
(:mod:`repro.service`) holds one long-lived ``Study`` per named study.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..telemetry.metrics import NOOP_METRICS
from ..telemetry.tracer import NOOP_TRACER
from .clock import DEFAULT_COST_MODEL, CostModel, SimClock
from .methods import PendingTrial, Proposal, SearchMethod, SearchState
from .parallel import PoolOutcome, canonical_config_key
from .result import RunResult, Trial, TrialStatus

__all__ = ["VARIANTS", "Study", "Suggestion", "TrialReport"]

#: The two implementations compared throughout Section 5 (re-exported by
#: :mod:`repro.core.hyperpower`).
VARIANTS = ("default", "hyperpower")


@dataclass
class Suggestion:
    """One open proposal issued by :meth:`Study.suggest`.

    A suggestion stays *pending* — visible to subsequent proposals and
    counted against the service layer's ``max_pending`` quota — until it
    is resolved by :meth:`Study.observe` (or
    :meth:`Study.evaluate_and_observe`).
    """

    #: Study-local monotonically increasing identifier.
    ticket: int
    #: The full method proposal (predictions, screening bookkeeping).
    proposal: Proposal
    #: The configuration to evaluate (a private copy).
    config: dict
    #: Simulated time at which the suggestion was issued.
    issued_s: float = 0.0
    #: Ticket of an earlier *pending* suggestion with the same canonical
    #: configuration, when the method degenerated to a duplicate (tiny or
    #: exhausted spaces).  Callers may share one evaluation across both.
    duplicate_of: int | None = None
    #: Best error observed at the suggestion's last completed rung (set by
    #: the multi-fidelity driver while the trial is paused); ``None``
    #: until a partial observation exists.  Pending-aware BO methods lie
    #: at this value instead of the generic constant-liar default.
    observed_error: float | None = None
    #: Cumulative epochs behind ``observed_error``.
    observed_epochs: int = 0
    #: :func:`~repro.core.parallel.canonical_config_key` of ``config``,
    #: hashed once when the suggestion is made; never serialised.
    key: str = field(default="", repr=False)


@dataclass(frozen=True)
class TrialReport:
    """An externally measured trial result for :meth:`Study.observe`.

    This is the service-layer counterpart of an
    :class:`~repro.core.objective.EvaluationOutcome`: the client trained
    the configuration itself and reports what it saw.  ``cost_s`` is
    charged to the study's simulated clock on observation.
    """

    error: float = float("nan")
    cost_s: float = 0.0
    epochs_run: int = 0
    stopped_early: bool = False
    diverged: bool = False
    power_w: float | None = None
    memory_bytes: float | None = None
    latency_s: float | None = None
    failed: bool = False
    failure_kind: str | None = None

    def __post_init__(self) -> None:
        # Refused here, before Study.observe resolves the ticket: an error
        # that is not a number, or a cost the clock cannot charge, would
        # otherwise fail halfway through the observation.
        float(self.error)
        cost = float(self.cost_s)
        if not math.isfinite(cost) or cost < 0:
            raise ValueError(
                f"cost_s must be finite and >= 0, got {self.cost_s!r}"
            )

    def to_dict(self) -> dict:
        """JSON-ready form (round-trips through :meth:`from_dict`)."""
        return {
            "error": self.error,
            "cost_s": self.cost_s,
            "epochs_run": self.epochs_run,
            "stopped_early": self.stopped_early,
            "diverged": self.diverged,
            "power_w": self.power_w,
            "memory_bytes": self.memory_bytes,
            "latency_s": self.latency_s,
            "failed": self.failed,
            "failure_kind": self.failure_kind,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TrialReport":
        known = {f: data[f] for f in cls.__dataclass_fields__ if f in data}
        extra = set(data) - set(cls.__dataclass_fields__)
        if extra:
            raise ValueError(f"unknown trial report fields {sorted(extra)}")
        return cls(**known)


def register_run_metrics(metrics) -> dict:
    """Register the deterministic per-run instruments (get-or-create).

    Returns the handle map shared by the driver and the study.  The
    async-only instruments (``gp.fantasies``, ``schedule.occupancy``) are
    *not* registered here — synchronous metric snapshots are pinned by
    the golden suite and must never grow them.
    """
    handles = {
        # CULLED is excluded: the counter is created lazily on the first
        # cull (multi-fidelity runs only), so classic runs' pinned metric
        # snapshots never grow a `trials.culled` key.
        "trials": {
            status: metrics.counter(f"trials.{status.value}")
            for status in TrialStatus
            if status is not TrialStatus.CULLED
        },
        "rejections": metrics.counter("screen.rejections"),
        "silent_checks": metrics.counter("screen.silent_checks"),
        "gp_fits": metrics.counter("gp.refits"),
        "gp_appends": metrics.counter("gp.appends"),
        "attempts": metrics.counter("eval.attempts"),
        "faults": metrics.counter("retry.faults"),
        "retry_s": metrics.counter("retry.time_s"),
    }
    return handles


class Study:
    """One optimization run, driven from the outside via ask/tell.

    The study owns the search state, the trial record
    (:class:`~repro.core.result.RunResult`), the proposal RNG and the
    pending set.  It performs every simulated-clock charge and telemetry
    write the closed-loop driver used to perform, in the same order, so
    a run driven through ``suggest``/``observe`` is byte-identical to the
    equivalent ``HyperPower.run``.
    """

    #: Hard cap on queried samples, protecting against runaway rejection
    #: loops under very tight budgets.
    MAX_SAMPLES = 500_000

    def __init__(
        self,
        method: SearchMethod,
        variant: str,
        *,
        clock: SimClock,
        rng: np.random.Generator,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        objective=None,
        spec=None,
        early_term: bool | None = None,
        dataset: str = "",
        device: str = "",
        chance_error: float = 1.0,
        tracer=None,
        metrics=None,
        max_samples: int | None = None,
    ):
        """``objective`` binds the in-process evaluator used by
        :meth:`evaluate_and_observe`; service studies leave it ``None``
        and feed :class:`TrialReport` observations instead.  ``spec``
        (defaulting to the objective's constraint spec) grades the
        measured feasibility of reported results.
        """
        if variant not in VARIANTS:
            raise ValueError(
                f"unknown variant {variant!r}; expected one of {VARIANTS}"
            )
        self.method = method
        self.variant = variant
        self.clock = clock
        self.rng = rng
        self.cost_model = cost_model
        self.objective = objective
        self.spec = spec if spec is not None else getattr(objective, "spec", None)
        if early_term is None:
            early_term = variant == "hyperpower"
        self.early_term = early_term
        self.tracer = tracer if tracer is not None else NOOP_TRACER
        self.metrics = metrics if metrics is not None else NOOP_METRICS
        self.max_samples = (
            self.MAX_SAMPLES if max_samples is None else int(max_samples)
        )
        self.state = SearchState()
        self.result = RunResult(
            method=method.name,
            variant=variant,
            dataset=dataset,
            device=device,
            chance_error=chance_error,
        )
        self._pending: dict[int, Suggestion] = {}
        self._next_ticket = 0
        handles = register_run_metrics(self.metrics)
        self._m_trials = handles["trials"]
        self._m_rejections = handles["rejections"]
        self._m_silent_checks = handles["silent_checks"]
        self._m_gp_fits = handles["gp_fits"]
        self._m_gp_appends = handles["gp_appends"]
        self._m_attempts = handles["attempts"]
        self._m_faults = handles["faults"]
        self._m_retry_s = handles["retry_s"]
        # Lazily registered so synchronous metric snapshots (pinned by
        # the golden suite) never include it.
        self._m_gp_fantasies = None

    def _trial_counter(self, status: TrialStatus):
        """Per-status trial counter, creating the lazy ones on demand
        (``trials.culled`` only exists in runs that actually cull)."""
        counter = self._m_trials.get(status)
        if counter is None:
            counter = self.metrics.counter(f"trials.{status.value}")
            self._m_trials[status] = counter
        return counter

    def _pending_view(self, suggestion: Suggestion):
        """What the method should see for one pending suggestion: the
        plain config, or a :class:`~repro.core.methods.PendingTrial` once
        a paused rung carries a real partial observation."""
        if suggestion.observed_error is None:
            return suggestion.config
        return PendingTrial(
            config=suggestion.config,
            error=suggestion.observed_error,
            epochs=suggestion.observed_epochs,
        )

    # -- introspection --------------------------------------------------------------

    @property
    def n_trained(self) -> int:
        """Trained (observed, non-failed) evaluations so far."""
        return self.state.n_trained

    @property
    def n_samples(self) -> int:
        """All queried samples, model-rejections included."""
        return len(self.state.trials)

    @property
    def n_pending(self) -> int:
        """Suggestions issued but not yet observed."""
        return len(self._pending)

    @property
    def n_issued(self) -> int:
        """Suggestions ever issued (pending plus observed)."""
        return self._next_ticket

    @property
    def pending(self) -> tuple[Suggestion, ...]:
        """The pending suggestions, in issue order."""
        return tuple(self._pending.values())

    def get_pending(self, ticket: int) -> Suggestion:
        """Look up a pending suggestion by ticket (KeyError if resolved)."""
        return self._pending[ticket]

    # -- ask ------------------------------------------------------------------------

    def suggest(self, n: int = 1, *, batch_aware: bool = True) -> list[Suggestion]:
        """Propose the next ``n`` configurations.

        Proposals see the pending set: suggestions issued earlier and not
        yet observed are forwarded to pending-aware methods (constant-liar
        fantasies for BO, exclusion for random/grid).  With ``batch_aware``
        (the default), suggestions issued *within* this call join the
        pending set for the call's later proposals too; the synchronous
        round-barrier driver turns that off because its historical rounds
        propose from a single frozen state.

        The simulated clock is charged ``proposal_s`` per suggestion after
        the whole batch is proposed — matching the closed-loop drivers'
        accounting on every path.  Fewer than ``n`` suggestions are
        returned only when the study hits its ``max_samples`` cap.
        """
        if n < 1:
            raise ValueError("need n >= 1 suggestions")
        base_pending = [self._pending_view(s) for s in self._pending.values()]
        suggestions: list[Suggestion] = []
        for _ in range(n):
            pending = base_pending
            if batch_aware and suggestions:
                pending = base_pending + [s.config for s in suggestions]
            proposal = self._propose(pending)
            ticket = self._next_ticket
            self._next_ticket += 1
            config = dict(proposal.config)
            suggestions.append(
                Suggestion(
                    ticket=ticket,
                    proposal=proposal,
                    config=config,
                    key=canonical_config_key(config),
                )
            )
            if len(self.state.trials) >= self.max_samples:
                break
        self.clock.advance(self.cost_model.proposal_s * len(suggestions))
        issued_s = self.clock.now_s
        for suggestion in suggestions:
            suggestion.issued_s = issued_s
            suggestion.duplicate_of = self._find_pending_duplicate(suggestion)
            self._pending[suggestion.ticket] = suggestion
        return suggestions

    def _find_pending_duplicate(self, suggestion: Suggestion) -> int | None:
        for ticket, other in self._pending.items():
            if other.key == suggestion.key:
                return ticket
        return None

    def _propose(self, pending) -> Proposal:
        """One proposal: method call, clock charges, screening records.

        ``pending`` is the list of in-flight configurations forwarded to
        pending-aware methods.
        """
        clock = self.clock
        with self.tracer.span("propose") as propose_span:
            proposal = self.method.propose(self.state, self.rng, list(pending))
            if proposal.silent_model_checks:
                clock.advance(
                    self.cost_model.pool_check_s
                    * proposal.silent_model_checks
                )
            if proposal.gp_fits:
                clock.advance(
                    proposal.gp_fits
                    * self.cost_model.gp_fit_s(self.state.n_trained)
                )
            if proposal.gp_appends:
                clock.advance(
                    proposal.gp_appends
                    * self.cost_model.gp_append_s(self.state.n_trained)
                )
            fantasies = proposal.gp_fantasies
            if fantasies:
                # Constant-liar conditioning is rank-1 appends on a copy
                # of the surrogate — same unit cost as a real append.
                clock.advance(
                    fantasies * self.cost_model.gp_append_s(self.state.n_trained)
                )
                propose_span.set(gp_fantasies=fantasies)
                if self._m_gp_fantasies is None:
                    self._m_gp_fantasies = self.metrics.counter(
                        "gp.fantasies"
                    )
                self._m_gp_fantasies.inc(fantasies)
            propose_span.set(
                silent_checks=proposal.silent_model_checks,
                gp_fits=proposal.gp_fits,
                gp_appends=proposal.gp_appends,
                rejections=len(proposal.rejected),
            )
            self._m_silent_checks.inc(proposal.silent_model_checks)
            self._m_gp_fits.inc(proposal.gp_fits)
            self._m_gp_appends.inc(proposal.gp_appends)
            if proposal.rejected:
                with self.tracer.span(
                    "screen", rejections=len(proposal.rejected)
                ):
                    for rejected in proposal.rejected:
                        self._record_rejection(rejected)
                        if len(self.state.trials) >= self.max_samples:
                            break
        return proposal

    def _record_rejection(self, rejected) -> None:
        cost = self.cost_model.proposal_s + self.cost_model.model_check_s
        self.clock.advance(cost)
        self._record(rejected, TrialStatus.REJECTED_MODEL, cost)
        self._m_rejections.inc()

    def _record(self, preds, status: TrialStatus, cost_s: float, **fields) -> Trial:
        """Append one queried sample to the record, timestamped now.

        ``preds`` is the :class:`~repro.core.methods.Proposal` (or the
        model-rejected draw) behind the sample: it supplies the config and
        the model predictions, ``fields`` the rest of the
        :class:`~repro.core.result.Trial`.  A trained sample also joins
        the training set the method conditions on.
        """
        trial = Trial(
            index=len(self.state.trials),
            config=dict(preds.config),
            status=status,
            timestamp_s=self.clock.now_s,
            cost_s=cost_s,
            power_pred_w=preds.power_pred_w,
            memory_pred_bytes=preds.memory_pred_bytes,
            feasible_pred=preds.feasible_pred,
            **fields,
        )
        self._append_trial(trial)
        self._trial_counter(status).inc()
        return trial

    def _append_trial(self, trial: Trial) -> None:
        state = self.state
        state.trials.append(trial)
        self.result.trials.append(trial)
        if trial.was_trained:
            state.trained_configs.append(dict(trial.config))
            state.trained_errors.append(trial.error)
            state.trained_feasible.append(trial.feasible_meas)

    def _measured(self, proposal: Proposal, outcome) -> dict:
        """The measured :class:`~repro.core.result.Trial` fields of one
        evaluation outcome.

        Degradation ladder: measured -> model-predicted -> unknown.  When
        the hardware measurement failed (transient NVML error) the trial
        records the proposal's predictions with
        ``measurement_degraded=True``, so model-free (default-variant)
        methods degrade to unknown.
        """
        fields = {"error": outcome.error, "diverged": outcome.diverged}
        measurement = outcome.measurement
        if measurement is not None:
            fields.update(
                power_meas_w=measurement.power_w,
                memory_meas_bytes=measurement.memory_bytes,
                latency_meas_s=measurement.latency_s,
                feasible_meas=outcome.feasible_meas,
            )
            return fields
        power, memory = proposal.power_pred_w, proposal.memory_pred_bytes
        feasible = None
        if power is not None or memory is not None:
            feasible = self.spec.measured_feasible(power, memory, None)
        fields.update(
            power_meas_w=power,
            memory_meas_bytes=memory,
            feasible_meas=feasible,
            measurement_degraded=True,
        )
        return fields

    # -- tell -----------------------------------------------------------------------

    def _take_pending(self, suggestion) -> Suggestion:
        """Resolve (and remove) a pending suggestion or ticket."""
        ticket = (
            suggestion.ticket
            if isinstance(suggestion, Suggestion)
            else int(suggestion)
        )
        try:
            return self._pending.pop(ticket)
        except KeyError:
            raise KeyError(
                f"ticket {ticket} is not pending (unknown or already observed)"
            ) from None

    def observe(self, suggestion, outcome, *, batch_t0: float | None = None):
        """Fold one evaluation result back into the study.

        ``suggestion`` is a pending :class:`Suggestion` (or its ticket);
        ``outcome`` is either the :class:`~repro.core.parallel.PoolOutcome`
        an evaluation pool produced for it, or a :class:`TrialReport`
        measured externally.  Returns the recorded
        :class:`~repro.core.result.Trial`.

        For pool outcomes, ``batch_t0`` is the simulated time the
        evaluation started (defaulting to the suggestion's issue time,
        which is the asynchronous scheduler's dispatch time); the caller
        must already have advanced the clock to the completion time, as
        the drivers do.
        """
        if isinstance(outcome, TrialReport):
            resolved = self._take_pending(suggestion)
            return self._observe_report(resolved, outcome)
        if isinstance(outcome, PoolOutcome):
            resolved = suggestion
            if not isinstance(resolved, Suggestion):
                resolved = self.get_pending(int(suggestion))
            t0 = batch_t0 if batch_t0 is not None else resolved.issued_s
            self.observe_batch([resolved], [outcome], t0)
            return self.result.trials[-1]
        raise TypeError(
            f"expected a PoolOutcome or TrialReport, got {type(outcome).__name__}"
        )

    def evaluate_and_observe(self, suggestion) -> Trial:
        """Sequential (paper) path: train in-process, then observe.

        The objective emits the nested train/measure spans; the clock
        advances by the evaluation's cost inside ``objective.evaluate``.
        """
        if self.objective is None:
            raise ValueError(
                "study has no bound objective; observe external results "
                "with TrialReport instead"
            )
        proposal = self._take_pending(suggestion).proposal
        with self.tracer.span("trial", index=len(self.state.trials)) as span:
            outcome = self.objective.evaluate(
                proposal.config, early_term=self.early_term
            )
            status = (
                TrialStatus.EARLY_TERMINATED
                if outcome.stopped_early
                else TrialStatus.COMPLETED
            )
            span.set(status=status.value, feasible_meas=outcome.feasible_meas)
            if not math.isnan(outcome.error):
                span.set(error=outcome.error)
        self._m_attempts.inc()
        return self._record(
            proposal,
            status,
            outcome.cost_s,
            epochs_run=outcome.epochs_run,
            attempts=1,
            **self._measured(proposal, outcome),
        )

    def observe_batch(
        self,
        suggestions: list[Suggestion],
        pool_outcomes: list[PoolOutcome],
        batch_t0: float,
    ) -> None:
        """Record one q-parallel round of pool evaluations.

        The clock was already advanced by the round's wall time, so every
        trial in the round shares the round-end timestamp; each trial's
        ``cost_s`` still records its individual cost (lookup cost for
        cache hits, retry and backoff charges included for faulted
        evaluations).

        ``batch_t0`` is the simulated time at which the round's
        evaluations started (before the wall-time charge).  The pool
        evaluated each trial when it was submitted, outside this round's
        span, so the per-trial ``trial > {retry, train, measure}`` spans
        are synthesized here from each outcome's recorded costs — which
        a resumed run replays from its journal identically.

        Failure semantics: a slot that exhausted its retry budget becomes
        a ``FAILED`` trial — no observation, nothing appended to the
        trained lists, the run continues.  A slot whose hardware
        measurement failed (transient NVML error) *degrades*: the trial
        keeps its training outcome but records the model-predicted
        power/memory (when the method has models) with
        ``measurement_degraded=True``.
        """
        if len(suggestions) != len(pool_outcomes):
            raise ValueError("one pool outcome per suggestion required")
        tracer = self.tracer
        for suggestion, pool_outcome in zip(suggestions, pool_outcomes):
            self._take_pending(suggestion)
            proposal = suggestion.proposal
            outcome = pool_outcome.outcome
            self._m_attempts.inc(pool_outcome.attempts)
            self._m_faults.inc(len(pool_outcome.faults))
            self._m_retry_s.inc(pool_outcome.retry_s)
            provenance = {
                "attempts": pool_outcome.attempts,
                "faults": pool_outcome.faults,
                "retry_s": pool_outcome.retry_s,
                "rung": pool_outcome.rung,
            }
            if pool_outcome.failed:
                sid = tracer.record(
                    "trial",
                    batch_t0,
                    batch_t0 + pool_outcome.retry_s,
                    index=len(self.state.trials),
                    status=TrialStatus.FAILED.value,
                    failure_kind=pool_outcome.failure_kind,
                )
                if pool_outcome.retry_s > 0:
                    tracer.record(
                        "retry",
                        batch_t0,
                        batch_t0 + pool_outcome.retry_s,
                        parent=sid,
                        attempts=pool_outcome.attempts,
                        faults=list(pool_outcome.faults),
                    )
                self._record(
                    proposal,
                    TrialStatus.FAILED,
                    pool_outcome.retry_s,
                    failure_kind=pool_outcome.failure_kind,
                    **provenance,
                )
                continue
            if pool_outcome.cached:
                status = TrialStatus.CACHED
                cost = self.cost_model.cache_lookup_s
                epochs_run = 0
            elif pool_outcome.culled:
                # Rank-terminated at a rung: the partial-fidelity error is
                # a real observation, only the remaining epochs are saved.
                status = TrialStatus.CULLED
                cost = outcome.cost_s + pool_outcome.retry_s
                epochs_run = outcome.epochs_run
            else:
                status = (
                    TrialStatus.EARLY_TERMINATED
                    if outcome.stopped_early
                    else TrialStatus.COMPLETED
                )
                cost = outcome.cost_s + pool_outcome.retry_s
                epochs_run = outcome.epochs_run
            measured = self._measured(proposal, outcome)
            attrs = {
                "index": len(self.state.trials),
                "status": status.value,
                "feasible_meas": measured["feasible_meas"],
            }
            if not math.isnan(outcome.error):
                attrs["error"] = outcome.error
            sid = tracer.record("trial", batch_t0, batch_t0 + cost, **attrs)
            if status is not TrialStatus.CACHED:
                train_t0 = batch_t0
                if pool_outcome.retry_s > 0:
                    tracer.record(
                        "retry",
                        batch_t0,
                        batch_t0 + pool_outcome.retry_s,
                        parent=sid,
                        attempts=pool_outcome.attempts,
                        faults=list(pool_outcome.faults),
                    )
                    train_t0 = batch_t0 + pool_outcome.retry_s
                trial_t1 = batch_t0 + cost
                measure_s = (
                    outcome.measurement.duration_s
                    if outcome.measurement is not None
                    else 0.0
                )
                tracer.record(
                    "train",
                    train_t0,
                    trial_t1 - measure_s,
                    parent=sid,
                    epochs=epochs_run,
                    stopped_early=outcome.stopped_early,
                )
                if outcome.measurement is not None:
                    tracer.record("measure", trial_t1 - measure_s, trial_t1, parent=sid)
            self._record(
                proposal,
                status,
                cost,
                epochs_run=epochs_run,
                **measured,
                **provenance,
            )

    def _observe_report(
        self, suggestion: Suggestion, report: TrialReport
    ) -> Trial:
        """Record an externally evaluated trial (the service path)."""
        clock = self.clock
        cost = float(report.cost_s)
        t0 = clock.now_s
        clock.advance(cost)
        if report.failed:
            status = TrialStatus.FAILED
        elif report.stopped_early:
            status = TrialStatus.EARLY_TERMINATED
        else:
            status = TrialStatus.COMPLETED
        measured = (
            report.power_w is not None
            or report.memory_bytes is not None
            or report.latency_s is not None
        )
        feasible_meas = None
        if measured and self.spec is not None and status is not TrialStatus.FAILED:
            feasible_meas = self.spec.measured_feasible(
                report.power_w, report.memory_bytes, report.latency_s
            )
        attrs = {"index": len(self.state.trials), "status": status.value}
        if feasible_meas is not None:
            attrs["feasible_meas"] = feasible_meas
        if not math.isnan(report.error):
            attrs["error"] = report.error
        self.tracer.record("trial", t0, t0 + cost, **attrs)
        self._m_attempts.inc()
        return self._record(
            suggestion.proposal,
            status,
            cost,
            error=report.error,
            epochs_run=report.epochs_run,
            diverged=report.diverged,
            power_meas_w=report.power_w,
            memory_meas_bytes=report.memory_bytes,
            latency_meas_s=report.latency_s,
            feasible_meas=feasible_meas,
            attempts=1,
            failure_kind=report.failure_kind,
        )

    # -- durable state --------------------------------------------------------------

    def state_dict(self) -> dict:
        """The study's state as JSON-ready data, for :meth:`load_state`.

        The clock, the proposal RNG, the ticket counter, the trials, the
        pending suggestions and the method's own state
        (:meth:`~repro.core.methods.SearchMethod.state_dict`).  The search
        state is rebuilt from the trials.  Telemetry is not part of it, nor
        is the partial observation the multi-fidelity driver pins on a
        paused suggestion (``observed_error``), which ask/tell never sets.
        """
        from ..io import trial_to_dict  # io imports this package

        return {
            "now_s": self.clock.now_s,
            "rng": self.rng.bit_generator.state,
            "next_ticket": self._next_ticket,
            "trials": [trial_to_dict(t) for t in self.state.trials],
            "pending": [
                {
                    "ticket": s.ticket,
                    "config": dict(s.config),
                    "issued_s": s.issued_s,
                    "duplicate_of": s.duplicate_of,
                    "power_pred_w": s.proposal.power_pred_w,
                    "memory_pred_bytes": s.proposal.memory_pred_bytes,
                    "feasible_pred": s.proposal.feasible_pred,
                }
                for s in self._pending.values()
            ],
            "method": self.method.state_dict(),
        }

    def load_state(self, state: dict) -> None:
        """Continue from a :meth:`state_dict` record.

        Called on a freshly built study with the same method, variant and
        spec: it then suggests and observes exactly as the study that
        wrote the record would have.
        """
        from ..io import trial_from_dict

        self.clock = SimClock(float(state["now_s"]))
        self.rng.bit_generator.state = state["rng"]
        self._next_ticket = int(state["next_ticket"])
        for data in state["trials"]:
            self._append_trial(trial_from_dict(data))
        for data in state["pending"]:
            config = dict(data["config"])
            proposal = Proposal(
                config=config,
                power_pred_w=data["power_pred_w"],
                memory_pred_bytes=data["memory_pred_bytes"],
                feasible_pred=data["feasible_pred"],
            )
            self._pending[int(data["ticket"])] = Suggestion(
                ticket=int(data["ticket"]),
                proposal=proposal,
                config=dict(config),
                issued_s=float(data["issued_s"]),
                duplicate_of=data["duplicate_of"],
                key=canonical_config_key(config),
            )
        self.method.load_state(state["method"], self.state)

    # -- finishing ------------------------------------------------------------------

    def finalize(self) -> RunResult:
        """Stamp the result's closing fields; returns it.

        Idempotent — the service layer calls this on every status query,
        the drivers once at the end of a run.
        """
        self.result.wall_time_s = self.clock.now_s
        profile = getattr(self.method, "surrogate_profile", None)
        if profile is not None:
            self.result.surrogate_timings = profile.as_dict()
        return self.result
