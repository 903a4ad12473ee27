"""Deterministic test-error response surface over the design space.

This replaces the paper's "train the Caffe model to completion and read the
test error" step with an analytic surface built to have the properties the
paper's search methods interact with:

* **capacity effect** — bigger networks (more features/units, less
  aggressive pooling) achieve lower final error, with diminishing returns;
* **architecture shape effects** — kernel-size and pooling preferences and
  a conv/FC balance term, so error is *not* a monotone function of size.
  This is what produces Figure 1's premise: configurations at the same
  accuracy level can differ widely in power;
* **solver quality** — the effective step size ``lr / (1 - momentum)`` has
  a structure-dependent optimum; too small undertrains, too large degrades
  sharply and finally *diverges* (the regime Figure 3 (right) shows can be
  detected within a few epochs);
* **unmodelable variation** — a per-configuration deterministic jitter,
  reproducible across calls, playing the role of initialisation/data-order
  luck that no surrogate model can explain.

Everything is a pure function of (surface seed, configuration); per-run
observation noise lives in :mod:`repro.trainsim.dynamics`.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from ..nn.builder import build_network
from ..nn.network import NetworkSpec
from .dataset import DatasetSpec

__all__ = ["SurfaceParams", "SurfaceEvaluation", "ErrorSurface",
           "MNIST_SURFACE_PARAMS", "CIFAR10_SURFACE_PARAMS",
           "IMAGENET_SURFACE_PARAMS"]


def _sigmoid(x: float) -> float:
    if x >= 0:
        z = math.exp(-x)
        return 1.0 / (1.0 + z)
    z = math.exp(x)
    return z / (1.0 + z)


@dataclass(frozen=True)
class SurfaceParams:
    """Tunable constants of one benchmark's error surface."""

    #: ``log10(params)`` value mapped to capacity 0 (smallest useful net).
    log_params_low: float
    #: ``log10(params)`` value mapped to capacity 1 (saturated).
    log_params_high: float
    #: Exponent shaping diminishing returns of capacity.
    capacity_exponent: float
    #: Relative std of the per-configuration deterministic jitter.
    jitter_rel: float
    #: Optimal effective step size ``lr/(1-momentum)`` for a reference net.
    step_optimum: float
    #: Sensitivity of the optimum to capacity (bigger nets want smaller steps).
    step_capacity_shift: float
    #: Quadratic penalty per decade of step below the optimum (undertraining).
    step_penalty_low: float
    #: Quadratic penalty per decade of step above the optimum (instability).
    step_penalty_high: float
    #: Effective step size at which training diverges, for a reference net.
    divergence_step: float
    #: Std (decades) of the per-configuration divergence-threshold jitter.
    divergence_jitter_dex: float
    #: Width (decades) of the near-divergence degradation ramp.
    instability_width_dex: float
    #: Optimal weight decay (``None`` when the space does not tune it).
    weight_decay_optimum: float | None
    #: Quadratic penalty per decade of weight-decay mismatch.
    weight_decay_penalty: float
    #: Base convergence time constant, epochs.
    tau_epochs: float


MNIST_SURFACE_PARAMS = SurfaceParams(
    log_params_low=5.20,
    log_params_high=5.70,
    capacity_exponent=1.8,
    jitter_rel=0.06,
    step_optimum=0.055,
    step_capacity_shift=0.35,
    step_penalty_low=0.30,
    step_penalty_high=1.10,
    divergence_step=0.40,
    divergence_jitter_dex=0.10,
    instability_width_dex=0.07,
    weight_decay_optimum=None,
    weight_decay_penalty=0.0,
    tau_epochs=1.8,
)

CIFAR10_SURFACE_PARAMS = SurfaceParams(
    log_params_low=4.70,
    log_params_high=5.50,
    capacity_exponent=1.5,
    jitter_rel=0.05,
    step_optimum=0.030,
    step_capacity_shift=0.45,
    step_penalty_low=0.30,
    step_penalty_high=1.30,
    divergence_step=0.22,
    divergence_jitter_dex=0.10,
    instability_width_dex=0.07,
    weight_decay_optimum=0.0015,
    weight_decay_penalty=0.06,
    tau_epochs=5.0,
)

IMAGENET_SURFACE_PARAMS = SurfaceParams(
    log_params_low=7.15,
    log_params_high=7.85,
    capacity_exponent=1.4,
    jitter_rel=0.03,
    # AlexNet's historical setting (lr 0.01, momentum 0.9 -> effective
    # step 0.1) sits just above this optimum and well below divergence.
    step_optimum=0.080,
    step_capacity_shift=0.30,
    step_penalty_low=0.35,
    step_penalty_high=1.40,
    divergence_step=0.35,
    divergence_jitter_dex=0.10,
    instability_width_dex=0.07,
    weight_decay_optimum=0.0005,
    weight_decay_penalty=0.06,
    tau_epochs=18.0,
)

_SURFACE_PARAMS = {
    "mnist": MNIST_SURFACE_PARAMS,
    "cifar10": CIFAR10_SURFACE_PARAMS,
    "imagenet": IMAGENET_SURFACE_PARAMS,
}


@dataclass(frozen=True)
class SurfaceEvaluation:
    """Ground truth of one configuration's training outcome."""

    #: Final test error the full training schedule converges to (meaningful
    #: only when ``diverges`` is ``False``).
    final_error: float
    #: Whether training diverges (error never leaves the chance level).
    diverges: bool
    #: Structural (solver-independent) achievable error.
    structural_error: float
    #: Effective step size ``lr / (1 - momentum)`` of the configuration.
    effective_step: float
    #: The configuration's optimal effective step size.
    step_optimum: float
    #: Convergence time constant, epochs.
    tau_epochs: float
    #: Capacity score in ``[0, 1]``.
    capacity: float


class ErrorSurface:
    """Analytic test-error surface for one benchmark."""

    def __init__(
        self,
        dataset: DatasetSpec,
        seed: int = 2018,
        params: SurfaceParams | None = None,
    ):
        self.dataset = dataset
        self.seed = int(seed)
        if params is None:
            try:
                params = _SURFACE_PARAMS[dataset.name]
            except KeyError:
                raise ValueError(
                    f"no default surface parameters for dataset "
                    f"{dataset.name!r}; pass params explicitly"
                ) from None
        self.params = params

    # -- deterministic per-configuration randomness ----------------------------

    def _config_rng(self, config: Mapping) -> np.random.Generator:
        """A generator seeded purely by (surface seed, configuration)."""
        keys = []
        for name in sorted(config):
            value = config[name]
            if isinstance(value, (int, np.integer)):
                keys.append(int(value))
            else:
                # Quantise floats so numerically identical configs hash alike.
                keys.append(int(round(float(value) * 1e7)) & 0x7FFFFFFF)
        return np.random.default_rng(np.random.SeedSequence([self.seed, *keys]))

    def _jitters(self, config: Mapping) -> tuple[float, float]:
        """The configuration's two deterministic jitters, in draw order:
        structural error (relative, log scale) then divergence threshold
        (decades).  :meth:`divergence_threshold` always skips the first."""
        p = self.params
        rng = self._config_rng(config)
        jitter = rng.normal(0.0, p.jitter_rel)
        return jitter, rng.normal(0.0, p.divergence_jitter_dex)

    # -- surface components -----------------------------------------------------

    def capacity(
        self, config: Mapping, network: NetworkSpec | None = None
    ) -> float:
        """Capacity score in ``[0, 1]`` from the network's parameter count.

        ``network`` is ``config``'s built network, when the caller has it.
        """
        if network is None:
            network = build_network(self.dataset.name, config)
        log_params = math.log10(max(1, network.profile.total_params))
        p = self.params
        raw = (log_params - p.log_params_low) / (
            p.log_params_high - p.log_params_low
        )
        return min(1.0, max(0.0, raw))

    def _shape_adjustment(self, config: Mapping) -> float:
        """Architecture-shape error offset (fractions of the capacity span).

        Kernel-size and pooling preferences that are *not* aligned with
        network size, so iso-error configurations span a wide power range.
        """
        span = self.dataset.capacity_error_span
        offset = 0.0
        # Larger convolution kernels help (bigger receptive field), slightly.
        for name in ("conv1_kernel", "conv2_kernel", "conv3_kernel"):
            if name in config:
                offset += 0.05 * span * (5 - float(config[name])) / 3.0
        # Moderate pooling beats none (translation invariance) and beats
        # aggressive early downsampling.
        for name in ("pool1_kernel", "pool2_kernel", "pool3_kernel"):
            if name in config:
                offset += 0.08 * span * (float(config[name]) - 2.0) ** 2 / 1.0
        return offset

    def structural_error(
        self,
        config: Mapping,
        capacity: float | None = None,
        jitter: float | None = None,
    ) -> float:
        """Solver-independent achievable error of the architecture.

        ``capacity`` and ``jitter`` (the first of :meth:`_jitters`) are
        computed from ``config`` when not given.
        """
        p = self.params
        dataset = self.dataset
        if capacity is None:
            capacity = self.capacity(config)
        if jitter is None:
            jitter = self._jitters(config)[0]
        base = dataset.floor_error + dataset.capacity_error_span * (
            (1.0 - capacity) ** p.capacity_exponent
        )
        base += self._shape_adjustment(config)
        base *= math.exp(jitter)
        return float(
            min(dataset.chance_error, max(dataset.floor_error * 0.9, base))
        )

    def effective_step(self, config: Mapping) -> float:
        """``lr / (1 - momentum)``, the quantity that drives (in)stability."""
        lr = float(config["learning_rate"])
        momentum = float(config.get("momentum", 0.0))
        if not (0.0 <= momentum < 1.0):
            raise ValueError(f"momentum {momentum} outside [0, 1)")
        return lr / (1.0 - momentum)

    def step_optimum(
        self, config: Mapping, capacity: float | None = None
    ) -> float:
        """The configuration's optimal effective step size."""
        p = self.params
        if capacity is None:
            capacity = self.capacity(config)
        # Bigger networks want smaller steps.
        return p.step_optimum * 10.0 ** (-p.step_capacity_shift * (capacity - 0.5))

    def divergence_threshold(
        self,
        config: Mapping,
        capacity: float | None = None,
        jitter_dex: float | None = None,
    ) -> float:
        """Effective step size beyond which this configuration diverges.

        ``capacity`` and ``jitter_dex`` (the second of :meth:`_jitters`,
        past the draw :meth:`structural_error` uses) are computed from
        ``config`` when not given.
        """
        p = self.params
        if capacity is None:
            capacity = self.capacity(config)
        if jitter_dex is None:
            jitter_dex = self._jitters(config)[1]
        # Bigger networks are slightly more fragile.
        shift = -0.12 * (capacity - 0.5)
        return p.divergence_step * 10.0 ** (shift + jitter_dex)

    def diverges(self, config: Mapping) -> bool:
        """Whether training this configuration diverges."""
        return self.effective_step(config) > self.divergence_threshold(config)

    # -- full evaluation ---------------------------------------------------------

    def evaluate(
        self, config: Mapping, network: NetworkSpec | None = None
    ) -> SurfaceEvaluation:
        """Ground-truth training outcome of ``config``.

        The network is built (unless given) and its capacity and jitters
        computed once, then shared by every component.
        """
        p = self.params
        dataset = self.dataset
        capacity = self.capacity(config, network)
        jitter, jitter_dex = self._jitters(config)
        structural = self.structural_error(config, capacity, jitter)
        step = self.effective_step(config)
        opt = self.step_optimum(config, capacity)
        threshold = self.divergence_threshold(config, capacity, jitter_dex)
        diverges = step > threshold

        # Quadratic (in decades) solver penalty around the optimum.
        d = math.log10(step / opt)
        if d < 0:
            multiplier = 1.0 + p.step_penalty_low * d * d
        else:
            multiplier = 1.0 + p.step_penalty_high * d * d

        # Weight-decay mismatch (CIFAR-10 only).
        if p.weight_decay_optimum is not None and "weight_decay" in config:
            dwd = math.log10(float(config["weight_decay"]) / p.weight_decay_optimum)
            multiplier += p.weight_decay_penalty * dwd * dwd

        error = structural * multiplier

        # Near-divergence instability: error ramps toward chance as the
        # step approaches the divergence threshold from below.
        margin = math.log10(step / threshold)
        ramp = _sigmoid((margin + 0.05) / p.instability_width_dex)
        error = error + (dataset.chance_error - error) * 0.85 * ramp

        error = min(dataset.chance_error, max(dataset.floor_error * 0.9, error))

        # Convergence speed: small steps converge slowly.
        ratio = max(1e-6, opt / step)
        tau = p.tau_epochs * min(6.0, max(0.6, ratio**0.6))

        return SurfaceEvaluation(
            final_error=float(error),
            diverges=diverges,
            structural_error=structural,
            effective_step=step,
            step_optimum=opt,
            tau_epochs=float(tau),
            capacity=capacity,
        )
