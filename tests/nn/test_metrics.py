"""Tests for repro.nn.metrics."""

import pytest

from repro.nn.layers import Conv2D, Dense, Flatten, Pooling, ReLU, Softmax
from repro.nn.metrics import (
    LayerProfile,
    NetworkProfile,
    activation_bytes,
    memory_traffic_bytes,
    peak_activation_bytes,
    profile_network,
    total_flops,
    total_params,
    weight_bytes,
)
from repro.nn.network import NetworkSpec


@pytest.fixture
def net():
    return NetworkSpec(
        "probe",
        (1, 28, 28),
        [
            Conv2D(8, 3),
            ReLU(),
            Pooling(2),
            Flatten(),
            Dense(30),
            Dense(10),
            Softmax(),
        ],
        10,
    )


class TestProfile:
    def test_per_layer_sum_matches_totals(self, net):
        profile = profile_network(net)
        assert profile.total_flops == sum(l.flops for l in profile.layers)
        assert profile.total_params == sum(l.params for l in profile.layers)
        assert total_flops(net) == profile.total_flops
        assert total_params(net) == profile.total_params

    def test_hand_computed_params(self, net):
        conv_params = 8 * 1 * 9 + 8
        fc1_params = (8 * 14 * 14) * 30 + 30
        fc2_params = 30 * 10 + 10
        assert total_params(net) == conv_params + fc1_params + fc2_params

    def test_weight_bytes_are_4x_params(self, net):
        assert weight_bytes(net) == 4 * total_params(net)

    def test_layer_kinds_recorded(self, net):
        kinds = [l.kind for l in profile_network(net).layers]
        assert kinds[0] == "Conv2D"
        assert "Dense" in kinds

    def test_peak_at_least_largest_pair(self, net):
        profile = profile_network(net)
        peak = profile.peak_activation_bytes
        for layer in profile.layers:
            assert peak >= layer.activation_bytes
        assert peak_activation_bytes(net) == peak

    def test_traffic_exceeds_weights_and_activations(self, net):
        assert memory_traffic_bytes(net) >= weight_bytes(net)
        assert memory_traffic_bytes(net) >= activation_bytes(net)

    def test_arithmetic_intensity_nonnegative(self, net):
        for layer in profile_network(net).layers:
            assert layer.arithmetic_intensity >= 0.0

    def test_flops_scale_with_width(self):
        def build(features):
            return NetworkSpec(
                "w",
                (1, 28, 28),
                [Conv2D(features, 3), Flatten(), Dense(10), Softmax()],
                10,
            )

        assert total_flops(build(64)) > total_flops(build(16))


class TestKeptProfile:
    """A spec computes its profile and fingerprint once and keeps them."""

    def test_kept_profile_equals_a_fresh_one(self, net):
        kept = profile_network(net)
        assert profile_network(net) is kept
        assert net.profile is kept
        fresh = NetworkProfile(
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
                for index, (layer, in_shape, out_shape) in enumerate(net.walk())
            )
        )
        assert kept == fresh

    def test_twin_spec_profiles_alike(self, net):
        twin = NetworkSpec(net.name, net.input_shape, net.layers, net.num_classes)
        assert twin.profile is not net.profile
        assert twin.profile == net.profile

    def test_fingerprint_is_stable(self, net):
        twin = NetworkSpec(net.name, net.input_shape, net.layers, net.num_classes)
        # A crc32 of the topology: the same value in every process.
        assert net.fingerprint() == net.fingerprint() == twin.fingerprint()
        assert net.fingerprint() == 2157102754
