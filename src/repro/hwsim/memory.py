"""Inference memory-footprint model (Caffe-style allocation).

Caffe allocates every blob of the network up front, so the footprint of a
network inferring with batch ``B`` is modeled as:

``runtime overhead + slack * (weights + B * all activation blobs
+ B * largest im2col workspace)``

* the *runtime overhead* is the CUDA context, cuDNN handles and framework
  buffers — a large device constant that dominates small networks (and is
  what lets the paper's linear model, which has no explicit intercept,
  stay accurate: the constant is absorbed across the structural features);
* *weights* are the learnable parameters;
* *activation blobs* are every layer output (in-place ReLU/Dropout layers
  reuse their input blob and are excluded) — at profiling batch sizes these
  dominate the variable part and are *linear* in the layer feature counts,
  which is why the paper's linear memory model works (Table 1);
* the *im2col workspace* is the convolution lowering buffer
  ``C_in * K^2 * H_out * W_out`` floats, allocated per image.

Like power, the footprint depends only on structure, never on training
state.
"""

from __future__ import annotations

import math
import zlib

import numpy as np

from ..nn.layers import DTYPE_BYTES, Conv2D, Dropout, ReLU, Softmax
from ..nn.network import NetworkSpec
from .device import DeviceModel

__all__ = [
    "weights_bytes",
    "activation_blob_bytes",
    "im2col_workspace_bytes",
    "inference_memory",
]

#: Layer kinds Caffe runs in place (output blob shared with input blob).
_IN_PLACE_LAYERS = (ReLU, Dropout, Softmax)


def weights_bytes(network: NetworkSpec) -> int:
    """Bytes of learnable parameters."""
    return network.profile.weight_bytes


def activation_blob_bytes(network: NetworkSpec, batch: int) -> int:
    """Bytes of all allocated activation blobs for batch size ``batch``.

    Counts the input blob and every non-in-place layer output.
    """
    elements = 1
    for dim in network.input_shape:
        elements *= dim
    total = elements * DTYPE_BYTES * batch
    for layer, cost in zip(network.layers, network.profile.layers):
        if isinstance(layer, _IN_PLACE_LAYERS):
            continue
        total += cost.activation_bytes * batch
    return total


def im2col_workspace_bytes(network: NetworkSpec) -> int:
    """Bytes of the largest convolution lowering buffer.

    Caffe's ``col_buffer`` is allocated per *image*, not per batch — the
    lowering loop runs image by image — so there is no batch multiplier.
    """
    largest = 0
    for layer, in_shape, out_shape in network.walk():
        if not isinstance(layer, Conv2D):
            continue
        channels_in = in_shape[0]
        _, out_h, out_w = out_shape
        per_sample = channels_in * layer.kernel * layer.kernel * out_h * out_w
        largest = max(largest, per_sample * DTYPE_BYTES)
    return largest


def inference_memory(
    network: NetworkSpec,
    device: DeviceModel,
    batch: int | None = None,
) -> float:
    """True (noise-free) device-memory footprint during inference, bytes."""
    if batch is None:
        batch = device.profile_batch
    if batch < 1:
        raise ValueError("batch must be >= 1")
    variable = (
        weights_bytes(network)
        + activation_blob_bytes(network, batch)
        + im2col_workspace_bytes(network)
    )
    total = device.runtime_overhead_bytes + device.allocator_slack * variable
    # Systematic per-topology variation (workspace-algorithm selection,
    # allocator pooling) — deterministic, reproduced on re-measurement.
    if device.memory_variation_rel > 0:
        seed = np.random.SeedSequence(
            [network.fingerprint(), zlib.crc32(device.name.encode()), 0x4D454D]
        )
        wobble = np.random.default_rng(seed).normal(0.0, 1.0)
        total *= math.exp(device.memory_variation_rel * wobble)
    return total
