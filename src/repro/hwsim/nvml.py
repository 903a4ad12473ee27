"""Simulated power/memory measurement APIs (NVML and tegrastats analogs).

The paper samples board power through NVML on the GTX 1070 and through the
TX1's on-board INA sensors (via ``tegrastats``).  Real sensors return noisy,
temporally correlated readings; we reproduce that with an AR(1) relative
noise process around the device model's true power.

The TX1 quirk from the paper's footnote 1 is preserved: ``tegrastats``
"reports utilization and not memory consumption", so memory queries on a
device with ``supports_memory_query=False`` raise
:class:`UnsupportedQueryError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..nn.network import NetworkSpec
from .device import DeviceModel
from .memory import inference_memory
from .power import InferenceTiming, inference_power

__all__ = ["UnsupportedQueryError", "PowerTrace", "PowerMeter"]


class UnsupportedQueryError(RuntimeError):
    """The platform does not expose the requested measurement API."""


@dataclass(frozen=True)
class PowerTrace:
    """A sequence of power-sensor samples taken at a fixed rate."""

    samples_w: np.ndarray
    sample_hz: float

    def __post_init__(self) -> None:
        if self.samples_w.size == 0:
            raise ValueError("empty power trace")
        if self.sample_hz <= 0:
            raise ValueError("sample rate must be positive")

    @property
    def mean_w(self) -> float:
        """Mean sampled power, W — the value reported for a measurement."""
        return float(np.mean(self.samples_w))

    @property
    def std_w(self) -> float:
        """Sample standard deviation, W."""
        return float(np.std(self.samples_w))

    @property
    def duration_s(self) -> float:
        """Wall time the trace spans, s."""
        return self.samples_w.size / self.sample_hz

    def __len__(self) -> int:
        return self.samples_w.size


class PowerMeter:
    """Sensor-level access to one device: sampled power, queried memory.

    Parameters
    ----------
    device:
        The platform being measured.
    rng:
        Source of sensor noise.  Passing a seeded generator makes every
        measurement reproducible.
    autocorrelation:
        AR(1) coefficient of the relative noise process; real power sensors
        smooth over their sampling window, which correlates readings.
    """

    def __init__(
        self,
        device: DeviceModel,
        rng: np.random.Generator,
        autocorrelation: float = 0.6,
    ):
        if not (0.0 <= autocorrelation < 1.0):
            raise ValueError("autocorrelation must be in [0, 1)")
        self.device = device
        self._rng = rng
        self._rho = autocorrelation

    # -- power ---------------------------------------------------------------

    def sample_power(
        self,
        true_power_w: float,
        duration_s: float = 5.0,
        sample_hz: float = 10.0,
    ) -> PowerTrace:
        """Sample a sensor trace around a known true power level."""
        if duration_s <= 0:
            raise ValueError("duration must be positive")
        count = max(1, int(round(duration_s * sample_hz)))
        sigma = self.device.power_noise_rel
        innovations = self._rng.normal(
            0.0, sigma * math.sqrt(1.0 - self._rho**2), size=count
        )
        noise = np.empty(count)
        state = self._rng.normal(0.0, sigma)
        for index in range(count):
            state = self._rho * state + innovations[index]
            noise[index] = state
        samples = true_power_w * (1.0 + noise)
        ceiling = self.device.max_power_w * 1.05
        samples = np.clip(samples, 0.0, ceiling)
        return PowerTrace(samples_w=samples, sample_hz=sample_hz)

    def measure_power(
        self,
        network: NetworkSpec,
        batch: int | None = None,
        duration_s: float = 5.0,
        sample_hz: float = 10.0,
        timing: InferenceTiming | None = None,
    ) -> PowerTrace:
        """Run inference on ``network`` and sample board power.

        ``timing`` is the batch's roofline timing, when already computed.
        """
        true_power = inference_power(network, self.device, batch, timing)
        return self.sample_power(true_power, duration_s, sample_hz)

    # -- memory ---------------------------------------------------------------

    def query_memory(
        self,
        network: NetworkSpec,
        batch: int | None = None,
    ) -> float:
        """Query the device-memory footprint of ``network``, bytes.

        Raises
        ------
        UnsupportedQueryError
            On platforms without a memory API (Tegra TX1, footnote 1).
        """
        if not self.device.supports_memory_query:
            raise UnsupportedQueryError(
                f"{self.device.name} exposes no memory-consumption counter"
            )
        true_memory = inference_memory(network, self.device, batch)
        # Allocator behaviour varies run to run by a fraction of a percent.
        jitter = 1.0 + self._rng.normal(0.0, 0.003)
        return float(max(0.0, true_memory * jitter))
