"""The expensive objective: train a candidate network, measure the target.

:class:`NNObjective` is step (2) of the Bayesian-optimization loop in
Figure 2 — "the candidate NN design x_{n+1} is trained and tested" — plus
the deployment/measurement step on the target platform.  It owns the
simulated clock accounting for those actions:

* a full training run costs minutes (dataset- and size-dependent);
* an early-terminated run costs only the epochs before the divergence
  detector fired;
* deploying and profiling on the target costs seconds.

Both costs are what separate the paper's HyperPower and default variants;
nothing here depends on which search method asked for the evaluation.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from ..hwsim.profiler import HardwareMeasurement, HardwareProfiler
from ..nn.builder import build_network
from ..space.space import SearchSpace
from ..telemetry.tracer import NOOP_TRACER
from ..trainsim.trainer import TrainingSimulator
from .clock import SimClock
from .constraints import ConstraintSpec
from .early_term import EarlyTermination
from .faults import CRASH, HANG, NAN_LOSS, NVML, OOM, FaultPlan, TrialFault

__all__ = ["EvaluationOutcome", "NNObjective"]


@dataclass(frozen=True)
class EvaluationOutcome:
    """Everything observed from one objective evaluation."""

    #: Best test error observed during the run.
    error: float
    #: Error at the last trained epoch.
    final_error: float
    #: Epochs actually trained.
    epochs_run: int
    #: Whether the early-termination policy truncated the run.
    stopped_early: bool
    #: Ground truth: did the run diverge?
    diverged: bool
    #: Hardware measurement on the target platform — ``None`` when the
    #: measurement failed (transient NVML read error) and the trial
    #: degraded to model predictions.
    measurement: HardwareMeasurement | None
    #: Ground-truth feasibility of the measured power/memory (``None``
    #: when the measurement failed and no ground truth was observed).
    feasible_meas: bool | None
    #: Total wall-clock cost charged to the clock, s.
    cost_s: float
    #: Whether the hardware measurement failed and the trial must degrade
    #: to the predictive models' power/memory estimates.
    measurement_failed: bool = False


class NNObjective:
    """Train-and-measure evaluation of candidate configurations."""

    def __init__(
        self,
        space: SearchSpace,
        trainer: TrainingSimulator,
        profiler: HardwareProfiler,
        spec: ConstraintSpec,
        clock: SimClock,
        rng: np.random.Generator,
        early_termination: EarlyTermination | None = None,
    ):
        self.space = space
        self.trainer = trainer
        self.profiler = profiler
        self.spec = spec
        self.clock = clock
        self._rng = rng
        #: Bound by the driver when telemetry is on; tracing only reads
        #: the clock, so traced evaluations stay byte-identical.
        self.tracer = NOOP_TRACER
        if early_termination is None:
            early_termination = EarlyTermination(
                chance_error=trainer.dataset.chance_error
            )
        self.early_termination = early_termination

    @property
    def dataset_name(self) -> str:
        """Benchmark this objective trains on."""
        return self.trainer.dataset.name

    @property
    def device_name(self) -> str:
        """Target platform this objective measures on."""
        return self.profiler.device.name

    def evaluate(
        self, config: Mapping, early_term: bool = False
    ) -> EvaluationOutcome:
        """Train ``config`` (optionally with early termination), then deploy
        and measure it on the target platform.  Advances the clock."""
        self.space.validate(config)
        stop_callback = (
            self.early_termination.should_stop if early_term else None
        )
        run_rng = np.random.default_rng(self._rng.integers(2**63))
        network = build_network(self.dataset_name, config)
        result = self.trainer.train(
            config, run_rng, stop_callback=stop_callback, network=network
        )

        measurement = self.profiler.profile(network)
        feasible = self.spec.measured_feasible(
            measurement.power_w, measurement.memory_bytes, measurement.latency_s
        )

        cost = result.wall_time_s + measurement.duration_s
        t0 = self.clock.now_s
        self.clock.advance(cost)
        self.tracer.record(
            "train",
            t0,
            t0 + result.wall_time_s,
            epochs=result.epochs_run,
            stopped_early=result.stopped_early,
        )
        self.tracer.record("measure", t0 + result.wall_time_s, t0 + cost)
        return EvaluationOutcome(
            error=result.best_error,
            final_error=result.final_error,
            epochs_run=result.epochs_run,
            stopped_early=result.stopped_early,
            diverged=result.diverged,
            measurement=measurement,
            feasible_meas=feasible,
            cost_s=cost,
        )

    def evaluate_seeded(
        self,
        config: Mapping,
        seed: int,
        early_term: bool = False,
        fault: FaultPlan | None = None,
        *,
        start_epoch: int = 0,
        epochs: int | None = None,
    ) -> EvaluationOutcome:
        """Side-effect-free evaluation for the batch-parallel engine.

        Unlike :meth:`evaluate`, this neither advances the clock nor
        consumes the objective's shared RNG stream: every noise source
        (training luck, sensor sampling) derives from ``seed``, so the same
        ``(config, seed)`` pair yields a bit-identical outcome whenever and
        in whatever order it runs.  The caller (the
        :class:`~repro.core.parallel.EvaluationPool` driver) owns the
        clock accounting.

        ``start_epoch``/``epochs`` select one *segment* of the run for
        rung scheduling: train from ``start_epoch`` to the cumulative
        budget ``epochs`` (``None`` is the dataset's full schedule, the
        classic full-fidelity evaluation).  The learning curve always
        regenerates at the full schedule length and slices its window, so
        a trial promoted rung by rung reproduces the uninterrupted curve
        bit-exactly, and ``cost_s`` charges only the incremental epochs.
        Continuations (``start_epoch > 0``) skip deployment and profiling
        — the rung-0 measurement covers the configuration — so their
        outcomes have ``measurement=None`` *without* being flagged
        degraded.

        ``fault`` injects one simulated failure into this attempt (see
        :mod:`~repro.core.faults`).  Crashes, hangs, NaN losses and OOMs
        raise :class:`~repro.core.faults.TrialFault` carrying the
        simulated time the doomed attempt consumed; a transient NVML read
        failure returns a degraded outcome (``measurement=None``,
        ``measurement_failed=True``) — training succeeded, only the
        hardware numbers are missing.  A continuation measures nothing,
        so NVML faults are a clean no-op for it.
        """
        self.space.validate(config)
        stop_callback = (
            self.early_termination.should_stop if early_term else None
        )
        schedule = self.trainer.dataset.default_epochs
        if epochs is None:
            epochs = schedule
        run_seq, profile_seq = np.random.SeedSequence(int(seed)).spawn(2)
        network = build_network(self.dataset_name, config)
        result = self.trainer.train(
            config,
            np.random.default_rng(run_seq),
            epochs=epochs,
            stop_callback=stop_callback,
            start_epoch=start_epoch,
            schedule_epochs=max(int(epochs), schedule),
            network=network,
        )

        if fault is not None and fault.kind == NAN_LOSS:
            # The schedule ran but the loss went non-finite; nothing is
            # deployed, the full training time is wasted.
            raise TrialFault(NAN_LOSS, cost_s=result.wall_time_s)

        measurement = None
        nominal_cost = result.wall_time_s
        if start_epoch == 0:
            # A per-trial profiler: the shared one's sensor-noise stream
            # is order-dependent, which parallel evaluation must not be.
            profiler = HardwareProfiler(
                self.profiler.device,
                np.random.default_rng(profile_seq),
                batch=self.profiler.batch,
                duration_s=self.profiler.duration_s,
                sample_hz=self.profiler.sample_hz,
            )
            measurement = profiler.profile(network)
            nominal_cost += measurement.duration_s

        degraded = False
        if fault is not None:
            if fault.kind in (CRASH, OOM):
                # The worker died partway through: a deterministic
                # fraction of the nominal cost was consumed.
                raise TrialFault(
                    fault.kind, cost_s=fault.fraction * nominal_cost
                )
            if fault.kind == HANG:
                # Nominal cost travels with the event; the pool replaces
                # it with the timeout charge it reaps the worker at.
                raise TrialFault(HANG, cost_s=nominal_cost)
            if fault.kind != NVML:
                raise ValueError(f"unknown fault kind {fault.kind!r}")
            # Training and the measurement window completed, but the
            # sensor reads are garbage: degrade, don't fail.
            degraded = measurement is not None
            measurement = None

        feasible = None
        if measurement is not None:
            feasible = self.spec.measured_feasible(
                measurement.power_w,
                measurement.memory_bytes,
                measurement.latency_s,
            )
        return EvaluationOutcome(
            error=result.best_error,
            final_error=result.final_error,
            epochs_run=result.epochs_run,
            stopped_early=result.stopped_early,
            diverged=result.diverged,
            measurement=measurement,
            feasible_meas=feasible,
            cost_s=nominal_cost,
            measurement_failed=degraded,
        )

    #: The rung-segment spelling of :meth:`evaluate_seeded`.
    evaluate_segment = evaluate_seeded
