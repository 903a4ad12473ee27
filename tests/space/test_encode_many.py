"""``SearchSpace.encode_many`` is the ``encode`` row loop, bit for bit.

Pools of plain in-range configurations are encoded by columns; every
other input runs the row loop.  These properties pin both to the
definition ``np.vstack([space.encode(c) for c in configs])``: the same
bytes, or the same ``ValueError`` message, on the presets, on random
spaces, on pools from ``sample_many`` and ``neighbors`` and on each input
that falls back.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.space import cifar10_space, imagenet_space, mnist_space
from repro.space.params import ContinuousParameter, IntegerParameter, Parameter
from repro.space.space import SearchSpace

PRESETS = {
    "mnist": mnist_space(),
    "cifar10": cifar10_space(),
    "imagenet": imagenet_space(),
}


def _row_loop(space, configs):
    if not configs:
        return np.empty((0, space.dimension))
    return np.vstack([space.encode(c) for c in configs])


def _outcome(encode, space, configs):
    """``("ok", bytes, shape)`` or ``("error", message)`` of one encoding."""
    try:
        X = encode(space, configs)
    except ValueError as exc:
        return ("error", str(exc))
    return ("ok", X.tobytes(), X.shape)


def _assert_same(space, configs):
    got = _outcome(SearchSpace.encode_many, space, configs)
    assert got == _outcome(_row_loop, space, configs)
    return got


def _pool(space, n, k, sigma, seed):
    rng = np.random.default_rng(seed)
    pool = space.sample_many(n, rng)
    if k:
        pool += space.neighbors(space.sample(rng), sigma, k, rng)
    return pool


@st.composite
def spaces(draw):
    params = []
    for i in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["int", "log", "linear"]))
        if kind == "int":
            low = draw(st.integers(-(10**6), 10**6))
            width = draw(st.one_of(st.integers(0, 600), st.integers(0, 2**32 + 5)))
            params.append(IntegerParameter(f"p{i}", low, low + width))
        elif kind == "log":
            low = draw(st.floats(1e-6, 10.0))
            high = low * draw(st.floats(1.001, 1e4))
            params.append(ContinuousParameter(f"p{i}", low, high, log=True))
        else:
            low = draw(st.floats(-1e3, 1e3))
            high = low + draw(st.floats(1e-3, 1e3))
            params.append(ContinuousParameter(f"p{i}", low, high))
    return SearchSpace(params)


@pytest.mark.parametrize("preset", sorted(PRESETS))
@settings(max_examples=25, deadline=None)
@given(
    n=st.sampled_from([0, 1, 7, 64, 1000]),
    k=st.sampled_from([0, 1, 20]),
    sigma=st.sampled_from([0.0, 0.05, 0.3, 2.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_preset_pools_match_the_row_loop(preset, n, k, sigma, seed):
    space = PRESETS[preset]
    pool = _pool(space, n, k, sigma, seed)
    assert _assert_same(space, pool)[0] == "ok"


@settings(max_examples=80, deadline=None)
@given(
    space=spaces(),
    n=st.sampled_from([1, 7, 64]),
    k=st.sampled_from([0, 5]),
    sigma=st.sampled_from([0.05, 2.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_random_space_pools_match_the_row_loop(space, n, k, sigma, seed):
    pool = _pool(space, n, k, sigma, seed)
    assert _assert_same(space, pool)[0] == "ok"


def _set(name, value):
    def mutate(space, config):
        config[name] = value(space[name]) if callable(value) else value

    return mutate


def _drop(name):
    def mutate(space, config):
        del config[name]

    return mutate


# Each case edits one configuration in the middle of a cifar10 pool.
FALLBACKS = {
    "bool": _set("conv1_features", True),
    "bool-in-range": _set("pool1_kernel", True),
    "numpy-int": _set("conv1_features", lambda p: np.int64(p.low)),
    "numpy-float": _set("momentum", lambda p: np.float64(p.high)),
    "float-on-integer-axis": _set("conv1_kernel", 3.0),
    "int-on-continuous-axis": _set("momentum", 1),
    "integer-out-of-range": _set("conv1_features", lambda p: p.high + 1),
    "float-out-of-range": _set("momentum", lambda p: p.high * 1.01),
    "nan": _set("learning_rate", float("nan")),
    "huge-int": _set("conv1_features", 10**400),
    "missing-key": _drop("momentum"),
    "extra-key": _set("dropout", 0.5),
}

# These take the column path and must still equal the row loop.
EXACT = {
    "integer-at-bounds": _set("conv1_features", lambda p: p.low),
    "float-at-low": _set("momentum", lambda p: float(p.low)),
    "float-at-high": _set("learning_rate", lambda p: float(p.high)),
}


@pytest.mark.parametrize("case", sorted(FALLBACKS) + sorted(EXACT))
def test_edge_values_give_the_row_loop_array_or_error(case):
    space = PRESETS["cifar10"]
    pool = _pool(space, 9, 0, 0.0, seed=4)
    (FALLBACKS | EXACT)[case](space, pool[4])
    got = _assert_same(space, pool)
    if case in EXACT:
        assert got[0] == "ok"


def test_non_dict_mappings_use_the_row_loop():
    from types import MappingProxyType

    space = PRESETS["mnist"]
    pool = [MappingProxyType(c) for c in _pool(space, 5, 0, 0.0, seed=2)]
    assert _assert_same(space, pool)[0] == "ok"


def test_parameter_subclasses_use_the_row_loop():
    class Doubled(IntegerParameter):
        def to_unit(self, value):
            return 2.0 * super().to_unit(value)

    space = SearchSpace(
        [Doubled("d", 0, 9), ContinuousParameter("lr", 1e-3, 1e-1, log=True)]
    )
    pool = _pool(space, 50, 0, 0.0, seed=1)
    assert _assert_same(space, pool)[0] == "ok"
    assert space.encode_many(pool)[:, 0].max() > 1.0


@pytest.mark.parametrize(
    "params",
    [
        [IntegerParameter("big", 0, 2**53), IntegerParameter("k", 2, 5)],
        [IntegerParameter("one", 7, 7), ContinuousParameter("m", 0.8, 0.95)],
        [ContinuousParameter("c", 0, 2), IntegerParameter("k", -3, 3)],
    ],
    ids=["range-2**53", "one-value-axis", "int-bounds-on-continuous"],
)
def test_special_axes_match_the_row_loop(params):
    space = SearchSpace(params)
    pool = _pool(space, 64, 0, 0.0, seed=8)
    assert _assert_same(space, pool)[0] == "ok"


def test_in_range_int_on_a_continuous_axis_uses_the_row_loop():
    space = SearchSpace([ContinuousParameter("c", 0, 2), IntegerParameter("k", 0, 3)])
    pool = _pool(space, 8, 0, 0.0, seed=9)
    pool[3]["c"] = 1
    assert _assert_same(space, pool)[0] == "ok"


def test_presets_take_the_column_path(monkeypatch):
    """Guard against a fast path that silently never runs."""

    def row(self, value):
        raise AssertionError("encode_many fell back to the row loop")

    for preset, space in PRESETS.items():
        pool = _pool(space, 1000, 20, 0.3, seed=6)
        want = _row_loop(space, pool)
        with monkeypatch.context() as patch:
            patch.setattr(IntegerParameter, "to_unit", row)
            patch.setattr(ContinuousParameter, "to_unit", row)
            got = space.encode_many(pool)
        assert got.tobytes() == want.tobytes(), preset


def test_encode_checks_each_value_once(monkeypatch):
    space = PRESETS["imagenet"]
    config = space.sample(np.random.default_rng(3))
    want = space.encode(config)
    calls = []
    real = Parameter.validate

    def counted(self, value):
        calls.append(self.name)
        return real(self, value)

    monkeypatch.setattr(Parameter, "validate", counted)
    assert space.encode(config).tobytes() == want.tobytes()
    assert sorted(calls) == sorted(space.names)


@pytest.mark.parametrize("case", sorted(FALLBACKS))
def test_encode_raises_what_validate_raises(case):
    space = PRESETS["cifar10"]
    config = space.sample(np.random.default_rng(5))
    FALLBACKS[case](space, config)
    try:
        space.validate(config)
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            space.encode(config)
        assert str(raised.value) == str(exc)
    else:
        space.encode(config)
