"""Tests for repro.nn.network."""

import pytest

from repro.nn.layers import Conv2D, Dense, Flatten, Pooling, ReLU, Softmax
from repro.nn.network import NetworkSpec


def small_net(fc_units=50):
    return NetworkSpec(
        name="tiny",
        input_shape=(1, 28, 28),
        layers=[
            Conv2D(8, 3),
            ReLU(),
            Pooling(2),
            Flatten(),
            Dense(fc_units),
            ReLU(),
            Dense(10),
            Softmax(),
        ],
        num_classes=10,
    )


class TestConstruction:
    def test_shape_inference_chain(self):
        net = small_net()
        shapes = net.layer_output_shapes
        assert shapes[0] == (8, 28, 28)      # conv
        assert shapes[2] == (8, 14, 14)      # pool
        assert shapes[3] == (8 * 14 * 14,)   # flatten
        assert net.output_shape == (10,)

    def test_layer_input_shapes_align(self):
        net = small_net()
        assert net.layer_input_shapes[0] == net.input_shape
        assert net.layer_input_shapes[1:] == net.layer_output_shapes[:-1]

    def test_invalid_topology_raises_with_context(self):
        with pytest.raises(ValueError, match="layer 1"):
            NetworkSpec(
                "bad",
                (1, 4, 4),
                [Conv2D(4, 3), Pooling(9), Flatten(), Dense(10), Softmax()],
                10,
            )

    def test_wrong_output_arity(self):
        with pytest.raises(ValueError, match="expected"):
            NetworkSpec(
                "bad",
                (1, 8, 8),
                [Flatten(), Dense(7), Softmax()],
                10,
            )

    def test_empty_layers_rejected(self):
        with pytest.raises(ValueError):
            NetworkSpec("empty", (1, 8, 8), [], 10)

    def test_bad_num_classes(self):
        with pytest.raises(ValueError):
            NetworkSpec("one", (1, 8, 8), [Flatten(), Dense(1), Softmax()], 1)

    def test_bad_input_shape(self):
        with pytest.raises(ValueError):
            NetworkSpec("neg", (0, 8, 8), [Flatten(), Dense(10), Softmax()], 10)


class TestIdentity:
    def test_equality_and_hash(self):
        assert small_net() == small_net()
        assert hash(small_net()) == hash(small_net())
        assert small_net(50) != small_net(60)

    def test_fingerprint_stable_and_distinct(self):
        assert small_net().fingerprint() == small_net().fingerprint()
        assert small_net(50).fingerprint() != small_net(60).fingerprint()

    def test_len_and_iter(self):
        net = small_net()
        assert len(net) == 8
        assert list(net) == list(net.layers)

    def test_walk_triples(self):
        net = small_net()
        walk = net.walk()
        assert len(walk) == len(net)
        layer, in_shape, out_shape = walk[0]
        assert isinstance(layer, Conv2D)
        assert in_shape == (1, 28, 28)
        assert out_shape == (8, 28, 28)
