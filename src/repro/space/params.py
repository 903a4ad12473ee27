"""Hyper-parameter definitions.

A :class:`Parameter` describes one axis of the hyper-parameter design space
``X`` from Section 3 of the paper.  Two concrete kinds are needed for the
AlexNet-variant spaces of Section 4:

* :class:`IntegerParameter` — discrete *structural* hyper-parameters such as
  the number of convolution features or a kernel size.  These form the
  vector ``z`` used by the power and memory models (Equations 1-2).
* :class:`ContinuousParameter` — real-valued *solver* hyper-parameters such
  as the learning rate, momentum and weight decay, which have "negligible
  impact" on power/memory (Section 3.3) and are therefore excluded from
  ``z``.

Every parameter knows how to map between its native range and the unit
interval ``[0, 1]``.  The unit-cube representation is what the Gaussian
process and the random-walk neighbourhood operate on, so that length scales
are comparable across axes.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Parameter",
    "IntegerParameter",
    "ContinuousParameter",
    "param_from_dict",
]


class Parameter(ABC):
    """One axis of a hyper-parameter search space."""

    #: Parameter name, unique within a :class:`~repro.space.space.SearchSpace`.
    name: str

    #: Whether this parameter is structural, i.e. part of the vector ``z``
    #: that the power/memory models are trained on (Section 3.3).
    structural: bool

    @abstractmethod
    def sample(self, rng: np.random.Generator):
        """Draw one value uniformly from the parameter's native range."""

    @abstractmethod
    def to_unit(self, value) -> float:
        """Map a native value to the unit interval ``[0, 1]``.

        Raises the ``ValueError`` of :meth:`validate` when ``value`` is
        outside the native range: ``SearchSpace.encode`` relies on it to
        check each value once.
        """

    @abstractmethod
    def from_unit(self, u: float):
        """Map a unit-interval coordinate back to a native value.

        Values outside ``[0, 1]`` are clipped first, so the result is always
        a valid native value; this is what keeps random-walk proposals inside
        the design space.
        """

    @abstractmethod
    def contains(self, value) -> bool:
        """Whether ``value`` lies in the parameter's native range."""

    @abstractmethod
    def grid(self, resolution: int) -> list:
        """Representative native values spanning the range, low to high."""

    def validate(self, value) -> None:
        """Raise ``ValueError`` when ``value`` is outside the native range."""
        if not self.contains(value):
            raise ValueError(
                f"value {value!r} out of range for parameter {self.name!r}"
            )

    @abstractmethod
    def coerce(self, value):
        """Validate ``value`` and return it with the native Python type.

        JSON transports (the run journal, the study service's HTTP wire)
        do not distinguish ``3`` from ``3.0``; coercion restores the
        parameter's declared type so canonical configuration hashes —
        which serialise ``3`` and ``3.0`` differently — never drift
        across a round-trip.
        """

    @abstractmethod
    def to_dict(self) -> dict:
        """JSON-ready description (round-trips through
        :func:`param_from_dict`)."""


@dataclass(frozen=True)
class IntegerParameter(Parameter):
    """Uniform integer parameter on the inclusive range ``[low, high]``."""

    name: str
    low: int
    high: int
    structural: bool = True

    def __post_init__(self) -> None:
        if int(self.low) != self.low or int(self.high) != self.high:
            raise ValueError(f"{self.name}: integer bounds required")
        if self.low > self.high:
            raise ValueError(f"{self.name}: low {self.low} > high {self.high}")

    @property
    def n_values(self) -> int:
        """Number of distinct integer values in the range."""
        return self.high - self.low + 1

    def sample(self, rng: np.random.Generator) -> int:
        return int(rng.integers(self.low, self.high + 1))

    def to_unit(self, value) -> float:
        self.validate(value)
        if self.high == self.low:
            return 0.5
        return (float(value) - self.low) / (self.high - self.low)

    def from_unit(self, u: float) -> int:
        u = min(max(float(u), 0.0), 1.0)
        # Round to the nearest integer so every native value owns an equal
        # slice of the unit interval.
        value = self.low + u * (self.high - self.low)
        return int(min(self.high, max(self.low, round(value))))

    def contains(self, value) -> bool:
        try:
            as_int = int(value)
        except (TypeError, ValueError):
            return False
        return as_int == value and self.low <= as_int <= self.high

    def grid(self, resolution: int) -> list[int]:
        if resolution < 1:
            raise ValueError("resolution must be >= 1")
        if resolution >= self.n_values:
            return list(range(self.low, self.high + 1))
        points = np.linspace(self.low, self.high, resolution)
        return sorted({int(round(p)) for p in points})

    def coerce(self, value) -> int:
        self.validate(value)
        return int(value)

    def to_dict(self) -> dict:
        return {
            "kind": "integer",
            "name": self.name,
            "low": int(self.low),
            "high": int(self.high),
            "structural": self.structural,
        }


@dataclass(frozen=True)
class ContinuousParameter(Parameter):
    """Real-valued parameter on ``[low, high]``, optionally log-scaled.

    With ``log=True`` the unit-interval mapping (and uniform sampling) is
    performed in log space, which is the conventional treatment for learning
    rates and weight decays whose useful values span orders of magnitude.
    """

    name: str
    low: float
    high: float
    log: bool = False
    structural: bool = False

    def __post_init__(self) -> None:
        if not (self.low < self.high):
            raise ValueError(f"{self.name}: need low < high")
        if self.log and self.low <= 0:
            raise ValueError(f"{self.name}: log scale requires low > 0")

    def _fwd(self, value: float) -> float:
        return math.log(value) if self.log else float(value)

    def _inv(self, t: float) -> float:
        return math.exp(t) if self.log else float(t)

    def sample(self, rng: np.random.Generator) -> float:
        lo, hi = self._fwd(self.low), self._fwd(self.high)
        return self._inv(rng.uniform(lo, hi))

    def to_unit(self, value) -> float:
        self.validate(value)
        lo, hi = self._fwd(self.low), self._fwd(self.high)
        return (self._fwd(float(value)) - lo) / (hi - lo)

    def from_unit(self, u: float) -> float:
        u = min(max(float(u), 0.0), 1.0)
        lo, hi = self._fwd(self.low), self._fwd(self.high)
        value = self._inv(lo + u * (hi - lo))
        return float(min(self.high, max(self.low, value)))

    def contains(self, value) -> bool:
        try:
            as_float = float(value)
        except (TypeError, ValueError):
            return False
        return self.low <= as_float <= self.high

    def grid(self, resolution: int) -> list[float]:
        if resolution < 1:
            raise ValueError("resolution must be >= 1")
        if resolution == 1:
            return [self.from_unit(0.5)]
        return [self.from_unit(u) for u in np.linspace(0.0, 1.0, resolution)]

    def coerce(self, value) -> float:
        self.validate(value)
        return float(value)

    def to_dict(self) -> dict:
        return {
            "kind": "continuous",
            "name": self.name,
            "low": float(self.low),
            "high": float(self.high),
            "log": self.log,
            "structural": self.structural,
        }


_PARAM_KINDS = {"integer": IntegerParameter, "continuous": ContinuousParameter}


def param_from_dict(data: dict) -> Parameter:
    """Rebuild a parameter from its :meth:`Parameter.to_dict` form."""
    try:
        kind = data["kind"]
    except KeyError:
        raise ValueError("parameter description missing 'kind'") from None
    try:
        cls = _PARAM_KINDS[kind]
    except KeyError:
        raise ValueError(
            f"unknown parameter kind {kind!r}; expected one of "
            f"{sorted(_PARAM_KINDS)}"
        ) from None
    kwargs = {k: v for k, v in data.items() if k != "kind"}
    return cls(**kwargs)
