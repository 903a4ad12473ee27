"""The training-job simulator (Caffe-solver analog).

:class:`TrainingSimulator` turns a hyper-parameter configuration into a
training run: it builds the network, computes a realistic wall-clock cost
per epoch on the *training host* (the paper trains on the server and only
profiles power/memory on the target platform), and emits the per-epoch test
errors from the error surface and learning-curve model.

An optional ``stop_callback`` is polled after every epoch; this is the hook
the framework's early-termination policy (paper Section 3.2) plugs into,
and the wall-clock cost of a stopped run is only the epochs actually run.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass

import numpy as np

from ..hwsim.device import DeviceModel
from ..hwsim.power import inference_timing
from ..nn.builder import build_network
from ..nn.network import NetworkSpec
from .dataset import DatasetSpec
from .dynamics import LearningCurveModel
from .surface import ErrorSurface, SurfaceEvaluation

__all__ = ["TrainingResult", "TrainingSimulator"]

#: Fraction of peak throughput a training step sustains (forward+backward
#: kernels are less tuned than inference).
_TRAIN_EFFICIENCY = 0.2

#: Solver bookkeeping + data loading per mini-batch, s.
_SOLVER_OVERHEAD_S = 0.025

#: One-off job setup (model compilation, data prefetch), s.
_JOB_SETUP_S = 20.0

#: A backward pass costs roughly twice the forward pass.
_TRAIN_FLOP_MULTIPLIER = 3.0

#: Signature of the per-epoch stop hook: (epoch_index, curve_so_far) -> stop?
StopCallback = Callable[[int, np.ndarray], bool]


@dataclass(frozen=True)
class TrainingResult:
    """Outcome of one (possibly truncated) training run."""

    #: The configuration that was trained.
    config: dict
    #: Observed test error after each epoch actually run.
    curve: np.ndarray
    #: Best (lowest) observed test error of the run.
    best_error: float
    #: Test error at the last epoch run.
    final_error: float
    #: Number of epochs actually run.
    epochs_run: int
    #: Whether the ground truth says this configuration diverges.
    diverged: bool
    #: Whether the stop callback truncated the run.
    stopped_early: bool
    #: Wall-clock cost of the run, s (setup + epochs run; a resumed
    #: segment charges only its incremental epochs, no setup).
    wall_time_s: float
    #: Wall-clock cost of one epoch, s.
    epoch_time_s: float
    #: Ground-truth surface evaluation of the configuration.
    surface: SurfaceEvaluation


class TrainingSimulator:
    """Simulated training jobs for one benchmark on one training host."""

    def __init__(
        self,
        dataset: DatasetSpec,
        surface: ErrorSurface,
        train_device: DeviceModel,
        curve_model: LearningCurveModel | None = None,
        train_efficiency: float = _TRAIN_EFFICIENCY,
        solver_overhead_s: float = _SOLVER_OVERHEAD_S,
        job_setup_s: float = _JOB_SETUP_S,
    ):
        if surface.dataset is not dataset and surface.dataset.name != dataset.name:
            raise ValueError(
                f"surface is for {surface.dataset.name!r}, not {dataset.name!r}"
            )
        if not (0.0 < train_efficiency <= 1.0):
            raise ValueError("train efficiency must be in (0, 1]")
        if solver_overhead_s < 0 or job_setup_s < 0:
            raise ValueError("overheads must be non-negative")
        self.dataset = dataset
        self.surface = surface
        self.train_device = train_device
        self.curve_model = curve_model or LearningCurveModel(dataset)
        self.train_efficiency = train_efficiency
        self.solver_overhead_s = solver_overhead_s
        self.job_setup_s = job_setup_s

    # -- cost model -------------------------------------------------------------

    def batch_time_s(self, network: NetworkSpec) -> float:
        """Wall-clock cost of one training mini-batch, s."""
        timing = inference_timing(
            network, self.train_device, self.dataset.train_batch
        )
        compute = _TRAIN_FLOP_MULTIPLIER * timing.total_s / self.train_efficiency
        return compute + self.solver_overhead_s

    def epoch_time_s(self, network: NetworkSpec) -> float:
        """Wall-clock cost of one training epoch, s."""
        return self.dataset.batches_per_epoch * self.batch_time_s(network)

    def full_training_time_s(self, config: Mapping) -> float:
        """Wall-clock cost of a full (non-terminated) run for ``config``, s."""
        network = build_network(self.dataset.name, config)
        return self.job_setup_s + self.dataset.default_epochs * self.epoch_time_s(
            network
        )

    # -- training ----------------------------------------------------------------

    def train(
        self,
        config: Mapping,
        rng: np.random.Generator,
        epochs: int | None = None,
        stop_callback: StopCallback | None = None,
        start_epoch: int = 0,
        schedule_epochs: int | None = None,
        network: NetworkSpec | None = None,
    ) -> TrainingResult:
        """Run one training job (or one resumable segment of it).

        Parameters
        ----------
        config:
            A complete configuration for this benchmark's space.
        rng:
            Per-run noise source (initialisation/data-order luck).
        epochs:
            Cumulative schedule position to train to; defaults to the
            dataset's full schedule.
        stop_callback:
            Polled after each epoch with ``(epoch_index, curve_so_far)``;
            returning ``True`` truncates the run (early termination).
        start_epoch:
            Resume a checkpointed run at this epoch (0 trains from
            scratch).  The returned curve/errors stay *cumulative* — the
            prefix up to ``epochs`` — but ``wall_time_s`` charges only the
            incremental ``epochs - start_epoch`` epochs, and job setup only
            on the first segment.
        schedule_epochs:
            Length at which the learning curve is generated (defaults to
            ``epochs``).  Segments of one logical run must share it: each
            segment regenerates the full curve from the same ``rng`` seed
            and slices its window, so resuming at epoch ``k`` reproduces
            the uninterrupted run's tail bit-exactly (the curve model's
            seed-pure prefix property).
        network:
            ``config``'s built network, when the caller has it (built
            here otherwise); the surface and the epoch cost share it.
        """
        if epochs is None:
            epochs = self.dataset.default_epochs
        if epochs < 1:
            raise ValueError("epochs must be >= 1")
        if schedule_epochs is None:
            schedule_epochs = epochs
        if schedule_epochs < epochs:
            raise ValueError("schedule_epochs must be >= epochs")
        if not (0 <= start_epoch < epochs):
            raise ValueError(
                f"start_epoch must be in [0, {epochs}), got {start_epoch}"
            )

        if network is None:
            network = build_network(self.dataset.name, config)
        evaluation = self.surface.evaluate(config, network)
        full_curve = self.curve_model.curve(evaluation, schedule_epochs, rng)
        epoch_time = self.epoch_time_s(network)

        epochs_run = epochs
        stopped_early = False
        if stop_callback is not None:
            for epoch_index in range(start_epoch + 1, epochs + 1):
                if stop_callback(epoch_index, full_curve[:epoch_index]):
                    epochs_run = epoch_index
                    stopped_early = epoch_index < epochs
                    break

        curve = full_curve[:epochs_run]
        setup_s = self.job_setup_s if start_epoch == 0 else 0.0
        return TrainingResult(
            config=dict(config),
            curve=curve,
            best_error=float(np.min(curve)),
            final_error=float(curve[-1]),
            epochs_run=epochs_run,
            diverged=evaluation.diverges,
            stopped_early=stopped_early,
            wall_time_s=setup_s + (epochs_run - start_epoch) * epoch_time,
            epoch_time_s=epoch_time,
            surface=evaluation,
        )
