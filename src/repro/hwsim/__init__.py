"""GPU hardware substrate: device models, power/memory simulation, sensors."""

from .device import DeviceModel
from .devices import DEVICES, GTX_1070, TEGRA_TX1, get_device
from .memory import (
    activation_blob_bytes,
    im2col_workspace_bytes,
    inference_memory,
    weights_bytes,
)
from .nvml import PowerMeter, PowerTrace, UnsupportedQueryError
from .power import (
    InferenceTiming,
    inference_latency,
    inference_power,
    inference_timing,
)
from .profiler import HardwareMeasurement, HardwareProfiler

__all__ = [
    "DeviceModel",
    "GTX_1070",
    "TEGRA_TX1",
    "DEVICES",
    "get_device",
    "inference_power",
    "inference_latency",
    "inference_timing",
    "InferenceTiming",
    "inference_memory",
    "weights_bytes",
    "activation_blob_bytes",
    "im2col_workspace_bytes",
    "PowerMeter",
    "PowerTrace",
    "UnsupportedQueryError",
    "HardwareProfiler",
    "HardwareMeasurement",
]
