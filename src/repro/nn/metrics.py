"""Analytic cost metrics over :class:`~repro.nn.network.NetworkSpec`.

The hardware simulator consumes these per-layer and whole-network counts:
FLOPs (compute), weight and activation bytes (memory footprint and traffic).
This is the layer-wise accounting style of NeuralPower [10], which the paper
cites as the more elaborate modeling backend HyperPower can plug in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .layers import DTYPE_BYTES, Shape

if TYPE_CHECKING:
    from .network import NetworkSpec

__all__ = [
    "LayerProfile",
    "NetworkProfile",
    "profile_network",
    "total_flops",
    "total_params",
    "weight_bytes",
    "activation_bytes",
    "peak_activation_bytes",
    "memory_traffic_bytes",
]


@dataclass(frozen=True)
class LayerProfile:
    """Analytic cost of a single layer within a network."""

    index: int
    kind: str
    input_shape: Shape
    output_shape: Shape
    params: int
    flops: int
    weight_bytes: int
    activation_bytes: int

    @property
    def arithmetic_intensity(self) -> float:
        """FLOPs per byte moved (weights once + output written once)."""
        moved = self.weight_bytes + self.activation_bytes
        if moved == 0:
            return 0.0
        return self.flops / moved


@dataclass(frozen=True)
class NetworkProfile:
    """Whole-network cost summary with the per-layer breakdown attached."""

    layers: tuple[LayerProfile, ...]

    @property
    def total_flops(self) -> int:
        """Inference FLOPs for one sample."""
        return sum(layer.flops for layer in self.layers)

    @property
    def total_params(self) -> int:
        """Learnable scalar count."""
        return sum(layer.params for layer in self.layers)

    @property
    def weight_bytes(self) -> int:
        """Bytes of model parameters."""
        return sum(layer.weight_bytes for layer in self.layers)

    @property
    def activation_bytes(self) -> int:
        """Sum of all per-layer output activation bytes for one sample."""
        return sum(layer.activation_bytes for layer in self.layers)

    @property
    def peak_activation_bytes(self) -> int:
        """Largest consecutive input+output activation pair for one sample.

        Approximates the live-tensor high-water mark of a framework that
        frees each activation as soon as its consumer has run.
        """
        peak = 0
        for layer in self.layers:
            elements_in = 1
            for dim in layer.input_shape:
                elements_in *= dim
            live = elements_in * DTYPE_BYTES + layer.activation_bytes
            peak = max(peak, live)
        return peak

    @property
    def memory_traffic_bytes(self) -> int:
        """Approximate DRAM bytes moved per inference sample.

        Each layer reads its input and weights and writes its output once —
        an upper bound that ignores cache reuse, adequate for a utilization
        model.
        """
        traffic = 0
        for layer in self.layers:
            elements_in = 1
            for dim in layer.input_shape:
                elements_in *= dim
            traffic += (
                elements_in * DTYPE_BYTES
                + layer.weight_bytes
                + layer.activation_bytes
            )
        return traffic


def profile_network(network: NetworkSpec) -> NetworkProfile:
    """The per-layer analytic profile of ``network``.

    This is :attr:`NetworkSpec.profile`: computed once per spec and kept.
    """
    return network.profile


def total_flops(network: NetworkSpec) -> int:
    """Inference FLOPs of ``network`` for one sample."""
    return network.profile.total_flops


def total_params(network: NetworkSpec) -> int:
    """Learnable parameter count of ``network``."""
    return network.profile.total_params


def weight_bytes(network: NetworkSpec) -> int:
    """Bytes of ``network``'s parameters."""
    return network.profile.weight_bytes


def activation_bytes(network: NetworkSpec) -> int:
    """Sum of per-layer activation bytes of ``network`` for one sample."""
    return network.profile.activation_bytes


def peak_activation_bytes(network: NetworkSpec) -> int:
    """Live-activation high-water mark of ``network`` for one sample."""
    return network.profile.peak_activation_bytes


def memory_traffic_bytes(network: NetworkSpec) -> int:
    """Approximate DRAM traffic of ``network`` for one inference sample."""
    return network.profile.memory_traffic_bytes
