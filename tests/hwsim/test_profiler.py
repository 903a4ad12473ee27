"""Tests for repro.hwsim.profiler."""

import numpy as np
import pytest

from repro.hwsim import power as power_module
from repro.hwsim import profiler as profiler_module
from repro.hwsim.devices import GTX_1070, TEGRA_TX1
from repro.hwsim.memory import inference_memory
from repro.hwsim.nvml import PowerMeter
from repro.hwsim.power import inference_latency, inference_power
from repro.hwsim.profiler import HardwareProfiler
from repro.nn.builder import build_mnist_network


@pytest.fixture
def net():
    return build_mnist_network(
        {
            "conv1_features": 40,
            "conv1_kernel": 4,
            "conv2_features": 40,
            "fc1_units": 400,
        }
    )


class TestProfile:
    def test_fields(self, net):
        profiler = HardwareProfiler(GTX_1070, np.random.default_rng(0))
        m = profiler.profile(net)
        assert m.device_name == "GTX 1070"
        assert m.power_w > 0
        assert m.memory_bytes is not None and m.memory_bytes > 0
        assert m.memory_gb == pytest.approx(m.memory_bytes / 2**30)
        assert m.duration_s > profiler.duration_s  # setup time included
        assert len(m.power_trace) > 0

    def test_power_near_truth(self, net):
        profiler = HardwareProfiler(
            GTX_1070, np.random.default_rng(1), duration_s=30.0
        )
        m = profiler.profile(net)
        assert m.power_w == pytest.approx(inference_power(net, GTX_1070), rel=0.06)

    def test_tx1_memory_is_none(self, net):
        profiler = HardwareProfiler(TEGRA_TX1, np.random.default_rng(2))
        m = profiler.profile(net)
        assert m.memory_bytes is None
        assert m.memory_gb is None

    def test_truth_helpers(self, net):
        profiler = HardwareProfiler(GTX_1070, np.random.default_rng(3))
        assert profiler.true_power(net) == inference_power(
            net, GTX_1070, profiler.batch
        )
        assert profiler.true_memory(net) == inference_memory(
            net, GTX_1070, profiler.batch
        )

    def test_default_batch_from_device(self):
        profiler = HardwareProfiler(GTX_1070, np.random.default_rng(4))
        assert profiler.batch == GTX_1070.profile_batch

    def test_bad_batch(self):
        with pytest.raises(ValueError):
            HardwareProfiler(GTX_1070, np.random.default_rng(5), batch=0)

    def test_reproducible_with_seed(self, net):
        a = HardwareProfiler(GTX_1070, np.random.default_rng(9)).profile(net)
        b = HardwareProfiler(GTX_1070, np.random.default_rng(9)).profile(net)
        assert a.power_w == b.power_w
        assert a.memory_bytes == b.memory_bytes


class TestTimingComputedOnce:
    """``profile`` computes the roofline timing once and shares it."""

    def test_one_inference_timing_per_profile(self, net, monkeypatch):
        calls = []
        original = power_module.inference_timing

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(power_module, "inference_timing", counting)
        monkeypatch.setattr(
            profiler_module, "inference_timing", counting, raising=False
        )
        HardwareProfiler(GTX_1070, np.random.default_rng(0)).profile(net)
        assert len(calls) == 1

    @pytest.mark.parametrize("device", [GTX_1070, TEGRA_TX1])
    def test_shared_timing_is_bit_identical(self, net, device):
        """Same values as timing power and latency separately."""
        m = HardwareProfiler(device, np.random.default_rng(11)).profile(net)
        rng = np.random.default_rng(11)
        meter = PowerMeter(device, rng)
        batch = device.profile_batch
        trace = meter.sample_power(inference_power(net, device, batch), 5.0, 10.0)
        memory = (
            meter.query_memory(net, batch)
            if device.supports_memory_query
            else None
        )
        latency = inference_latency(net, device, batch) * (
            1.0 + rng.normal(0.0, 0.01)
        )
        assert m.power_w == trace.mean_w
        assert np.array_equal(m.power_trace.samples_w, trace.samples_w)
        assert m.memory_bytes == memory
        assert m.latency_s == float(max(0.0, latency))


class TestLatencyMeasurement:
    def test_profile_includes_latency(self, net):
        profiler = HardwareProfiler(GTX_1070, np.random.default_rng(1))
        measurement = profiler.profile(net)
        truth = inference_latency(net, GTX_1070, profiler.batch)
        assert measurement.latency_s == pytest.approx(truth, rel=0.1)

    def test_embedded_board_slower(self, net):
        gtx = HardwareProfiler(GTX_1070, np.random.default_rng(2), batch=32)
        tx1 = HardwareProfiler(TEGRA_TX1, np.random.default_rng(2), batch=32)
        assert tx1.profile(net).latency_s > gtx.profile(net).latency_s
