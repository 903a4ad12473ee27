"""Tests for the grid-search baseline."""

import numpy as np
import pytest

from repro.core.methods import GridSearch, SearchState
from repro.space.params import ContinuousParameter, IntegerParameter
from repro.space.space import SearchSpace


@pytest.fixture
def space():
    return SearchSpace(
        [
            IntegerParameter("features", 20, 80),
            IntegerParameter("kernel", 2, 5),
            ContinuousParameter("lr", 0.001, 0.1, log=True),
        ]
    )


class TestEnumeration:
    def test_grid_size(self, space):
        method = GridSearch(space, resolution=3)
        assert method.grid_size == 3 * 3 * 3

    def test_enumerates_all_points_once(self, space):
        method = GridSearch(space, resolution=2)
        rng = np.random.default_rng(0)
        state = SearchState()
        seen = set()
        for _ in range(method.grid_size):
            config = method.propose(state, rng).config
            seen.add(tuple(sorted(config.items())))
        assert len(seen) == method.grid_size

    def test_refines_after_exhaustion(self, space):
        method = GridSearch(space, resolution=2)
        rng = np.random.default_rng(1)
        state = SearchState()
        for _ in range(method.grid_size):
            method.propose(state, rng)
        # Next proposal restarts with a finer grid.
        method.propose(state, rng)
        assert method.grid_size == 3 * 3 * 3

    def test_proposals_are_valid(self, space):
        method = GridSearch(space, resolution=3)
        rng = np.random.default_rng(2)
        state = SearchState()
        for _ in range(10):
            assert space.contains(method.propose(state, rng).config)

    def test_deterministic_sequence(self, space):
        a = GridSearch(space, resolution=2)
        b = GridSearch(space, resolution=2)
        rng = np.random.default_rng(3)
        state = SearchState()
        for _ in range(5):
            assert a.propose(state, rng).config == b.propose(state, rng).config

    def test_resolution_validation(self, space):
        with pytest.raises(ValueError):
            GridSearch(space, resolution=1)


class TestScreenedGrid:
    class _EvenFeaturesChecker:
        def indicator(self, config):
            return config["features"] % 2 == 0

        def predictions(self, config):
            return float(config["features"]), None

        def screen_batch(self, configs):
            accept = np.array([self.indicator(c) for c in configs])
            return accept, [self.predictions(c)[0] for c in configs], None

    def test_screening_records_rejections(self, space):
        method = GridSearch(space, resolution=3, checker=self._EvenFeaturesChecker())
        rng = np.random.default_rng(4)
        proposal = method.propose(SearchState(), rng)
        assert proposal.config["features"] % 2 == 0
        for rejected in proposal.rejected:
            assert rejected.config["features"] % 2 == 1
