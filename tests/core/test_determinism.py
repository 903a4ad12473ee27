"""End-to-end determinism regression (guards future refactors).

Every solver under both variants must produce a *byte-identical*
best-error trajectory when re-run with the same seed: the whole framework
— proposal RNG streams, chunked batch screening, GP fits, simulated
profiling — is deterministic by construction, and any refactor that
silently consumes randomness differently will trip these comparisons.
"""

import json

import pytest

from repro.core.hyperpower import SOLVERS, VARIANTS
from repro.core.methods import BayesianOptimizer
from repro.experiments.setup import quick_setup
from repro.io import run_to_dict

N_ITERATIONS = 20


@pytest.fixture(scope="module")
def setup():
    return quick_setup(
        "mnist", "gtx1070", power_budget_w=85.0, memory_budget_gb=1.15,
        seed=0, profiling_samples=100,
    )


@pytest.mark.slow
@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("solver", sorted(SOLVERS))
def test_rerun_is_byte_identical(setup, solver, variant):
    first = setup.run(
        solver, variant, run_seed=7, max_evaluations=N_ITERATIONS
    )
    second = setup.run(
        solver, variant, run_seed=7, max_evaluations=N_ITERATIONS
    )
    assert first.n_trained == N_ITERATIONS
    assert (
        first.best_error_vs_samples().tobytes()
        == second.best_error_vs_samples().tobytes()
    )
    # The full records agree too, not just the headline trajectory.
    assert json.dumps(run_to_dict(first), sort_keys=True) == json.dumps(
        run_to_dict(second), sort_keys=True
    )


@pytest.mark.slow
@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("solver", sorted(SOLVERS))
def test_scheduled_surrogate_reproduces_seed_path(
    setup, solver, variant, monkeypatch
):
    """``refit_every=1`` with warm starts off must be byte-identical to the
    seed loop, which fitted a *fresh* GP on every ``propose()``.

    The first run uses the persistent surrogate with the explicit knobs;
    the second forcibly drops the persisted GP before every proposal,
    which is exactly the seed's code path.  Any state leaking through the
    refit scheduler (hyper-parameters, Cholesky factors, RNG draws) would
    break the comparison.  The model-free solvers ride along to pin all
    eight cells.
    """
    scheduled = setup.run(
        solver,
        variant,
        run_seed=7,
        max_evaluations=N_ITERATIONS,
        gp_refit_every=1,
        gp_warm_start=False,
    )

    original_propose = BayesianOptimizer.propose

    def fresh_gp_propose(self, state, rng, pending=()):
        self._gp = None  # seed semantics: no surrogate persistence
        return original_propose(self, state, rng, pending)

    monkeypatch.setattr(BayesianOptimizer, "propose", fresh_gp_propose)
    seed_path = setup.run(
        solver, variant, run_seed=7, max_evaluations=N_ITERATIONS
    )

    assert (
        scheduled.best_error_vs_samples().tobytes()
        == seed_path.best_error_vs_samples().tobytes()
    )
    assert json.dumps(run_to_dict(scheduled), sort_keys=True) == json.dumps(
        run_to_dict(seed_path), sort_keys=True
    )


@pytest.mark.slow
def test_warm_started_schedule_is_deterministic(setup):
    """The fast schedule (sparse refits + warm starts) must itself re-run
    byte-identically — it changes trajectories, not reproducibility."""
    kwargs = dict(
        run_seed=11,
        max_evaluations=N_ITERATIONS,
        gp_refit_every=5,
        gp_warm_start=True,
    )
    first = setup.run("HW-IECI", "hyperpower", **kwargs)
    second = setup.run("HW-IECI", "hyperpower", **kwargs)
    assert json.dumps(run_to_dict(first), sort_keys=True) == json.dumps(
        run_to_dict(second), sort_keys=True
    )


@pytest.mark.slow
def test_different_seeds_diverge(setup):
    a = setup.run("Rand", "hyperpower", run_seed=0, max_evaluations=5)
    b = setup.run("Rand", "hyperpower", run_seed=1, max_evaluations=5)
    assert (
        a.best_error_vs_samples().tobytes()
        != b.best_error_vs_samples().tobytes()
    )
