"""Network specification — the Caffe-prototxt analog.

A :class:`NetworkSpec` is an immutable, validated sequence of layers with a
fixed input shape and class count.  Construction runs full shape inference,
so an invalid topology (e.g. a pooling kernel larger than the surviving
spatial extent) fails fast with a clear error, mirroring how a malformed
prototxt would fail inside Caffe.
"""

from __future__ import annotations

import zlib
from collections.abc import Iterable, Sequence

from .layers import Layer, Shape
from .metrics import LayerProfile, NetworkProfile

__all__ = ["NetworkSpec"]


class NetworkSpec:
    """An immutable feed-forward network description."""

    def __init__(
        self,
        name: str,
        input_shape: Shape,
        layers: Iterable[Layer],
        num_classes: int,
    ):
        self._name = str(name)
        self._input_shape = tuple(int(d) for d in input_shape)
        self._layers: tuple[Layer, ...] = tuple(layers)
        self._num_classes = int(num_classes)

        if not self._layers:
            raise ValueError("a network needs at least one layer")
        if self._num_classes < 2:
            raise ValueError("num_classes must be >= 2")
        if any(d < 1 for d in self._input_shape):
            raise ValueError(f"invalid input shape {self._input_shape}")

        # Shape inference doubles as topology validation.
        shapes: list[Shape] = [self._input_shape]
        for index, layer in enumerate(self._layers):
            try:
                shapes.append(layer.output_shape(shapes[-1]))
            except ValueError as exc:
                raise ValueError(
                    f"network {self._name!r}: layer {index} "
                    f"({type(layer).__name__}) rejected input "
                    f"{shapes[-1]}: {exc}"
                ) from exc
        self._shapes: tuple[Shape, ...] = tuple(shapes)
        self._profile: NetworkProfile | None = None
        self._fingerprint: int | None = None

        if self._shapes[-1] != (self._num_classes,):
            raise ValueError(
                f"network {self._name!r} ends with shape {self._shapes[-1]}, "
                f"expected ({self._num_classes},)"
            )

    # -- identity ------------------------------------------------------------

    @property
    def name(self) -> str:
        """Human-readable network name."""
        return self._name

    @property
    def input_shape(self) -> Shape:
        """Per-sample input shape, ``(C, H, W)``."""
        return self._input_shape

    @property
    def num_classes(self) -> int:
        """Number of output classes."""
        return self._num_classes

    @property
    def layers(self) -> tuple[Layer, ...]:
        """The layer sequence."""
        return self._layers

    def __len__(self) -> int:
        return len(self._layers)

    def __iter__(self):
        return iter(self._layers)

    def __repr__(self) -> str:
        return (
            f"NetworkSpec(name={self._name!r}, input={self._input_shape}, "
            f"layers={len(self._layers)}, classes={self._num_classes})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NetworkSpec):
            return NotImplemented
        return (
            self._input_shape == other._input_shape
            and self._layers == other._layers
            and self._num_classes == other._num_classes
        )

    def __hash__(self) -> int:
        return hash((self._input_shape, self._layers, self._num_classes))

    def fingerprint(self) -> int:
        """A stable 32-bit topology fingerprint.

        Unlike ``hash()``, this does not depend on ``PYTHONHASHSEED``, so it
        can seed reproducible per-network effects (e.g. the hardware
        simulator's kernel-selection power variation) across processes.
        Computed on first use and kept, like :attr:`profile`.
        """
        if self._fingerprint is None:
            parts = [repr(self._input_shape), repr(self._num_classes)]
            parts.extend(repr(layer) for layer in self._layers)
            self._fingerprint = zlib.crc32("|".join(parts).encode("utf-8"))
        return self._fingerprint

    @property
    def profile(self) -> NetworkProfile:
        """The per-layer analytic cost profile (FLOPs, parameters, bytes).

        Computed on first use and kept: the spec and its layers are
        immutable, so every later reader (capacity, timing, power) shares
        one profile.
        """
        if self._profile is None:
            self._profile = NetworkProfile(
                layers=tuple(
                    LayerProfile(
                        index=index,
                        kind=type(layer).__name__,
                        input_shape=in_shape,
                        output_shape=out_shape,
                        params=layer.param_count(in_shape),
                        flops=layer.flops(in_shape),
                        weight_bytes=layer.weight_bytes(in_shape),
                        activation_bytes=layer.activation_bytes(in_shape),
                    )
                    for index, (layer, in_shape, out_shape) in enumerate(
                        self.walk()
                    )
                )
            )
        return self._profile

    # -- shapes ---------------------------------------------------------------

    @property
    def layer_input_shapes(self) -> tuple[Shape, ...]:
        """Input shape seen by each layer, in order."""
        return self._shapes[:-1]

    @property
    def layer_output_shapes(self) -> tuple[Shape, ...]:
        """Output shape produced by each layer, in order."""
        return self._shapes[1:]

    @property
    def output_shape(self) -> Shape:
        """Final output shape — always ``(num_classes,)``."""
        return self._shapes[-1]

    # -- composite layer/shape walk -------------------------------------------

    def walk(self) -> Sequence[tuple[Layer, Shape, Shape]]:
        """Yield ``(layer, input_shape, output_shape)`` triples in order."""
        return list(
            zip(self._layers, self.layer_input_shapes, self.layer_output_shapes)
        )
