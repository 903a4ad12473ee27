"""One-call hardware profiling of a candidate network.

:class:`HardwareProfiler` is the simulation analog of the paper's wrapper
scripts that deploy a generated Caffe model on the target platform and
record its inference power (via NVML / tegrastats) and memory footprint.
Profiling has a wall-clock cost — model load plus the sensor-sampling
window — which the experiment clock charges to "default" methods that must
measure candidates on hardware, and which HyperPower's predictive models
avoid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..nn.network import NetworkSpec
from .device import DeviceModel
from .memory import inference_memory
from .nvml import PowerMeter, PowerTrace
from .power import InferenceTiming, inference_power, inference_timing

__all__ = ["HardwareMeasurement", "HardwareProfiler"]

#: Time to instantiate the network and warm the device before sampling, s.
_SETUP_TIME_S = 3.0


@dataclass(frozen=True)
class HardwareMeasurement:
    """Result of profiling one network on one platform."""

    #: Platform the measurement was taken on.
    device_name: str
    #: Mean measured power over the sampling window, W.
    power_w: float
    #: Measured memory footprint, bytes — ``None`` when the platform has no
    #: memory API (Tegra TX1).
    memory_bytes: float | None
    #: Measured batch inference latency, s.
    latency_s: float
    #: Wall-clock time the measurement took, s.
    duration_s: float
    #: The raw power-sensor trace.
    power_trace: PowerTrace

    @property
    def memory_gb(self) -> float | None:
        """Memory footprint in GiB, or ``None`` when unavailable."""
        if self.memory_bytes is None:
            return None
        return self.memory_bytes / 2**30


class HardwareProfiler:
    """Profile networks on one device with reproducible sensor noise."""

    def __init__(
        self,
        device: DeviceModel,
        rng: np.random.Generator,
        batch: int | None = None,
        duration_s: float = 5.0,
        sample_hz: float = 10.0,
    ):
        self.device = device
        self.batch = device.profile_batch if batch is None else int(batch)
        if self.batch < 1:
            raise ValueError("batch must be >= 1")
        self.duration_s = float(duration_s)
        self.sample_hz = float(sample_hz)
        self._meter = PowerMeter(device, rng)

    def profile(self, network: NetworkSpec) -> HardwareMeasurement:
        """Deploy ``network``, sample power, time a batch, query memory."""
        timing = inference_timing(network, self.device, self.batch)
        trace = self._meter.measure_power(
            network, self.batch, self.duration_s, self.sample_hz, timing
        )
        if self.device.supports_memory_query:
            memory = self._meter.query_memory(network, self.batch)
        else:
            memory = None
        latency = self.measure_latency(timing)
        return HardwareMeasurement(
            device_name=self.device.name,
            power_w=trace.mean_w,
            memory_bytes=memory,
            latency_s=latency,
            duration_s=_SETUP_TIME_S + trace.duration_s,
            power_trace=trace,
        )

    def measure_latency(self, timing: InferenceTiming) -> float:
        """Timed batch inference, s (averaged-run timer jitter included).

        ``timing`` is the batch's :func:`inference_timing` on this device.
        """
        true_latency = timing.total_s
        jitter = 1.0 + self._rng_for_timers().normal(0.0, 0.01)
        return float(max(0.0, true_latency * jitter))

    def _rng_for_timers(self) -> np.random.Generator:
        """Timer noise shares the profiler's reproducible stream."""
        return self._meter._rng

    # -- noise-free ground truth (for tests and figures) ----------------------

    def true_power(self, network: NetworkSpec) -> float:
        """Noise-free power of ``network`` on this profiler's device, W."""
        return inference_power(network, self.device, self.batch)

    def true_memory(self, network: NetworkSpec) -> float:
        """Noise-free memory footprint, bytes (even on the TX1 — the
        simulator always knows it; only the *query API* is missing there)."""
        return inference_memory(network, self.device, self.batch)
