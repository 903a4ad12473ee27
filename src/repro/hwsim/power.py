"""Inference latency and power model.

The model is a per-layer roofline with a rate-based energy model on top:

1. Each layer's execution time is the larger of its compute time
   (``FLOPs / peak_flops``) and its memory time (``bytes / bandwidth``),
   plus a fixed kernel-launch overhead.
2. The network's achieved FLOP and DRAM-byte *rates* are total work divided
   by total time.  Tiny layers are launch-overhead dominated, so small
   networks achieve low rates; large memory-bound stacks push the byte rate
   toward the bandwidth roof.
3. Board power is idle power plus energy-per-op times the achieved rates,
   soft-saturating at the board power limit (TDP on the GTX 1070, the SoC
   power envelope on the TX1 — which is why large CIFAR-10 networks bunch
   up near the TX1 ceiling).

The resulting power is a deterministic, training-state-independent function
of the network's *structure* — precisely the property Section 3.2 of the
paper exploits to treat power as an a-priori known constraint.  Sensor
noise is added separately by :mod:`repro.hwsim.nvml`.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass

import numpy as np

from ..nn.layers import DTYPE_BYTES
from ..nn.network import NetworkSpec
from .device import DeviceModel

__all__ = [
    "InferenceTiming",
    "LayerTiming",
    "inference_timing",
    "layer_timings",
    "inference_power",
    "inference_latency",
]


@dataclass(frozen=True)
class InferenceTiming:
    """Timing breakdown for one inference batch on one device."""

    #: Total batch latency, s (roofline times plus launch overheads).
    total_s: float
    #: Sum of per-layer compute roofline times, s.
    compute_s: float
    #: Sum of per-layer memory roofline times, s.
    memory_s: float
    #: Sum of per-layer launch overheads, s.
    overhead_s: float
    #: Total FLOPs executed for the batch.
    flops: float
    #: Total DRAM bytes moved for the batch.
    bytes_moved: float

    @property
    def achieved_flops_rate(self) -> float:
        """Achieved compute rate over the whole batch, FLOP/s."""
        return self.flops / self.total_s

    @property
    def achieved_byte_rate(self) -> float:
        """Achieved DRAM rate over the whole batch, bytes/s."""
        return self.bytes_moved / self.total_s


@dataclass(frozen=True)
class LayerTiming:
    """Per-layer execution record for one inference batch.

    This is the granularity profilers like ``nvprof`` report and the
    layer-wise predictive models of NeuralPower [10] are trained on (the
    paper cites them as the drop-in refinement of its network-level
    models).
    """

    #: Position of the layer in the network.
    index: int
    #: Layer class name (``'Conv2D'``, ``'Dense'``, ...).
    kind: str
    #: FLOPs executed by this layer for the batch.
    flops: float
    #: DRAM bytes moved by this layer for the batch.
    bytes_moved: float
    #: Execution time, s (roofline plus launch overhead).
    time_s: float

    @property
    def achieved_flops_rate(self) -> float:
        """This layer's achieved compute rate, FLOP/s."""
        return self.flops / self.time_s

    @property
    def achieved_byte_rate(self) -> float:
        """This layer's achieved DRAM rate, bytes/s."""
        return self.bytes_moved / self.time_s


def _layer_bytes(profile_layer, batch: int) -> float:
    """DRAM bytes one layer moves for a batch: input + weights + output."""
    elements_in = 1
    for dim in profile_layer.input_shape:
        elements_in *= dim
    input_bytes = elements_in * DTYPE_BYTES * batch
    output_bytes = profile_layer.activation_bytes * batch
    # Weights are loaded once per batch (they fit in cache across samples).
    return input_bytes + profile_layer.weight_bytes + output_bytes


def inference_timing(
    network: NetworkSpec,
    device: DeviceModel,
    batch: int | None = None,
) -> InferenceTiming:
    """Roofline timing of one inference batch of ``network`` on ``device``.

    Per-kernel latency terms model the limited utilization of small
    kernels: a layer only approaches the roofline's peaks when its work
    dwarfs the fixed ramp-up cost.
    """
    if batch is None:
        batch = device.profile_batch
    if batch < 1:
        raise ValueError("batch must be >= 1")

    total = compute = memory = overhead = 0.0
    flops = 0.0
    bytes_moved = 0.0
    for layer in network.profile.layers:
        layer_flops = layer.flops * batch
        layer_bytes = _layer_bytes(layer, batch)
        t_compute = (layer_flops + device.compute_latency_flops) / device.peak_flops
        t_memory = (layer_bytes + device.mem_latency_bytes) / device.mem_bandwidth
        compute += t_compute
        memory += t_memory
        overhead += device.launch_overhead_s
        total += max(t_compute, t_memory) + device.launch_overhead_s
        flops += layer_flops
        bytes_moved += layer_bytes
    return InferenceTiming(
        total_s=total,
        compute_s=compute,
        memory_s=memory,
        overhead_s=overhead,
        flops=flops,
        bytes_moved=bytes_moved,
    )


def layer_timings(
    network: NetworkSpec,
    device: DeviceModel,
    batch: int | None = None,
) -> list[LayerTiming]:
    """Per-layer execution records for one inference batch."""
    if batch is None:
        batch = device.profile_batch
    if batch < 1:
        raise ValueError("batch must be >= 1")
    records = []
    for layer in network.profile.layers:
        flops = layer.flops * batch
        moved = _layer_bytes(layer, batch)
        t_compute = (flops + device.compute_latency_flops) / device.peak_flops
        t_memory = (moved + device.mem_latency_bytes) / device.mem_bandwidth
        records.append(
            LayerTiming(
                index=layer.index,
                kind=layer.kind,
                flops=flops,
                bytes_moved=moved,
                time_s=max(t_compute, t_memory) + device.launch_overhead_s,
            )
        )
    return records


def inference_power(
    network: NetworkSpec,
    device: DeviceModel,
    batch: int | None = None,
    timing: InferenceTiming | None = None,
) -> float:
    """True (noise-free) board power of ``network`` inferring on ``device``, W.

    ``P = idle + range * tanh((e_f * FLOP/s + e_b * B/s) / range)`` — linear
    in the achieved rates for moderate loads, softly saturating at the board
    power limit for loads that would exceed it.  ``timing`` is this batch's
    :func:`inference_timing`, when the caller already has it.
    """
    if timing is None:
        timing = inference_timing(network, device, batch)
    dynamic = (
        device.energy_per_flop * timing.achieved_flops_rate
        + device.energy_per_byte * timing.achieved_byte_rate
    )
    # DVFS effect: sustained occupancy raises clocks/voltage, so energy per
    # operation grows with compute utilization.
    utilization = timing.achieved_flops_rate / device.peak_flops
    dynamic *= 1.0 + device.utilization_boost * utilization
    # Concave occupancy-efficiency softening (see DeviceModel docs).
    if device.power_gamma < 1.0 and dynamic > 0.0:
        reference = device.dynamic_range_w
        dynamic = reference * (dynamic / reference) ** device.power_gamma
    # Systematic per-topology variation (kernel/algorithm selection) —
    # deterministic, so re-measuring the same network reproduces it.
    if device.power_variation_rel > 0:
        seed = np.random.SeedSequence(
            [network.fingerprint(), zlib.crc32(device.name.encode())]
        )
        wobble = np.random.default_rng(seed).normal(0.0, 1.0)
        dynamic *= math.exp(device.power_variation_rel * wobble)
    span = device.dynamic_range_w
    return device.idle_power_w + span * math.tanh(dynamic / span)


def inference_latency(
    network: NetworkSpec,
    device: DeviceModel,
    batch: int | None = None,
) -> float:
    """Batch inference latency of ``network`` on ``device``, s."""
    return inference_timing(network, device, batch).total_s
