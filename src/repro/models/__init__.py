"""Predictive power/memory models (paper Section 3.3, Equations 1-2)."""

from .crossval import cross_validate, kfold_indices, mape, rmse, rmspe
from .hw_models import (
    HardwareModel,
    LatencyModel,
    MemoryModel,
    PowerModel,
    fit_hardware_models,
    fit_latency_model,
)
from .linear import LinearModel
from .profiling import ProfilingDataset, run_profiling_campaign

__all__ = [
    "LinearModel",
    "rmspe",
    "rmse",
    "mape",
    "kfold_indices",
    "cross_validate",
    "ProfilingDataset",
    "run_profiling_campaign",
    "HardwareModel",
    "PowerModel",
    "MemoryModel",
    "fit_hardware_models",
    "LatencyModel",
    "fit_latency_model",
]
