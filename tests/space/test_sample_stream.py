"""``SearchSpace.sample_many`` is the scalar ``sample`` loop, bit for bit.

The array path reproduces numpy's ``PCG64`` word use; these properties pin
it to the definition ``[space.sample(rng) for _ in range(n)]`` in values,
in the Python type of every value, in key order and in the generator state
left behind, on every path: the array draw, a buffered 32-bit half on
entry, Lemire redraws and the generators that always take the loop.
"""

import json
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.space import cifar10_space, imagenet_space, mnist_space
from repro.space.params import ContinuousParameter, IntegerParameter
from repro.space.space import SearchSpace

PRESETS = {
    "mnist": mnist_space(),
    "cifar10": cifar10_space(),
    "imagenet": imagenet_space(),
}

SIZES = st.sampled_from([0, 1, 7, 64, 1000])


def _generators(seed: int, kind: str = "pcg64"):
    bitgen = {
        "pcg64": np.random.PCG64,
        "mt19937": np.random.MT19937,
        "philox": np.random.Philox,
    }[kind]
    return np.random.Generator(bitgen(seed)), np.random.Generator(bitgen(seed))


def _state(rng) -> str:
    """The bit generator's full state, arrays included, as comparable text."""
    return json.dumps(
        rng.bit_generator.state, sort_keys=True, default=lambda a: a.tolist()
    )


def _assert_same_draws(space, n, seed, buffered=False, kind="pcg64"):
    rng, ref = _generators(seed, kind)
    if buffered:
        # A stray 32-bit draw leaves the high half of its word buffered.
        assert rng.integers(0, 10) == ref.integers(0, 10)
        assert _state(rng) == _state(ref)
    got = space.sample_many(n, rng)
    want = [space.sample(ref) for _ in range(n)]
    assert got == want
    assert [[(k, type(v)) for k, v in c.items()] for c in got] == [
        [(k, type(v)) for k, v in c.items()] for c in want
    ]
    assert _state(rng) == _state(ref)
    # The streams stay aligned after the call, too.
    assert rng.random() == ref.random()


@st.composite
def spaces(draw):
    params = []
    for i in range(draw(st.integers(1, 9))):
        if draw(st.booleans()):
            low = draw(st.integers(-(10**6), 10**6))
            width = draw(
                st.one_of(st.integers(0, 600), st.integers(0, 2**32 + 5))
            )
            params.append(IntegerParameter(f"p{i}", low, low + width))
        elif draw(st.booleans()):
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
@given(n=SIZES, seed=st.integers(0, 2**32 - 1), buffered=st.booleans())
def test_presets_match_scalar_loop(preset, n, seed, buffered):
    _assert_same_draws(PRESETS[preset], n, seed, buffered)


@settings(max_examples=80, deadline=None)
@given(
    space=spaces(),
    n=SIZES,
    seed=st.integers(0, 2**32 - 1),
    buffered=st.booleans(),
)
def test_random_spaces_match_scalar_loop(space, n, seed, buffered):
    _assert_same_draws(space, n, seed, buffered)


@pytest.mark.parametrize("n_int", [1, 3, 5])
@pytest.mark.parametrize("buffered", [False, True])
def test_odd_integer_axes_carry_the_buffer_across_draws(n_int, buffered):
    space = SearchSpace(
        [IntegerParameter(f"i{k}", 0, 10 + k) for k in range(n_int)]
        + [ContinuousParameter("lr", 1e-3, 1e-1, log=True)]
    )
    for seed in range(5):
        _assert_same_draws(space, 33, seed, buffered)


@settings(max_examples=20, deadline=None)
@given(n=SIZES, seed=st.integers(0, 2**32 - 1), buffered=st.booleans())
def test_lemire_redraws_fall_back_exactly(n, seed, buffered):
    # r = 2**31 + 1: about half of all 32-bit draws are rejected.
    space = SearchSpace(
        [
            IntegerParameter("x", 0, 2**31),
            IntegerParameter("k", 2, 5),
            ContinuousParameter("lr", 1e-3, 1e-1, log=True),
        ]
    )
    _assert_same_draws(space, n, seed, buffered)


@pytest.mark.parametrize("kind", ["mt19937", "philox"])
@settings(max_examples=10, deadline=None)
@given(n=SIZES, seed=st.integers(0, 2**32 - 1), buffered=st.booleans())
def test_other_bit_generators_use_the_loop(kind, n, seed, buffered):
    _assert_same_draws(PRESETS["cifar10"], n, seed, buffered, kind)


def test_other_parameter_types_use_the_loop():
    class Odd(IntegerParameter):
        def sample(self, rng):
            return 2 * int(rng.integers(self.low, self.high + 1)) + 1

    space = SearchSpace([Odd("o", 0, 9), ContinuousParameter("m", 0.8, 0.95)])
    _assert_same_draws(space, 64, 3)
    assert all(c["o"] % 2 == 1 for c in space.sample_many(64, np.random.default_rng(3)))


def test_presets_take_the_array_path(monkeypatch):
    """Guard against a fast path that silently never runs."""
    space = cifar10_space()

    def scalar(self, rng):
        raise AssertionError("sample_many fell back to the scalar loop")

    monkeypatch.setattr(SearchSpace, "sample", scalar)
    assert len(space.sample_many(64, np.random.default_rng(0))) == 64


@settings(max_examples=40, deadline=None)
@given(
    preset=st.sampled_from(sorted(PRESETS)),
    n=st.sampled_from([0, 1, 7, 20]),
    sigma=st.sampled_from([0.0, 0.05, 0.3, 2.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_neighbors_match_the_scalar_neighbor_loop(preset, n, sigma, seed):
    space = PRESETS[preset]
    center = space.sample(np.random.default_rng(seed + 1))
    rng, ref = _generators(seed)
    got = space.neighbors(center, sigma, n, rng)
    d = space.dimension
    want = [
        space.decode(space.encode(center) + ref.normal(0.0, sigma, size=d))
        for _ in range(n)
    ]
    assert got == want
    assert [[type(v) for v in c.values()] for c in got] == [
        [type(v) for v in c.values()] for c in want
    ]
    assert _state(rng) == _state(ref)
    loop_rng, _ = _generators(seed)
    assert [space.neighbor(center, sigma, loop_rng) for _ in range(n)] == got
    assert _state(loop_rng) == _state(rng)


def test_pickles_leave_the_array_draw_out():
    """Study snapshots pickle the space: the derived array draw stays out,
    and a pickle made without it (as older snapshots were) loads into a
    space that draws the same stream."""
    space = cifar10_space()
    assert set(space.__getstate__()) == {"_params", "_by_name"}
    old = SearchSpace.__new__(SearchSpace)
    old.__setstate__({"_params": list(space.parameters), "_by_name": {}})
    for restored in (pickle.loads(pickle.dumps(space)), old):
        rng, ref = _generators(5)
        assert restored.sample_many(64, rng) == space.sample_many(64, ref)
        assert _state(rng) == _state(ref)
