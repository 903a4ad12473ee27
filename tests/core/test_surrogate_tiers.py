"""Surrogate-tier regressions at the optimizer level.

The contract of the sparse surrogate tier (ISSUE 7): opting in must be a
pure performance decision.  ``--surrogate auto`` below the switch
threshold stays *byte-identical* to the exact tier across all eight
solver/variant cells, the sparse tiers run the full pipeline to finite
results, and the CLI/`build_method` plumbing validates its knobs.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.core.acquisition import ExpectedImprovement
from repro.core.constraints import ConstraintSpec, GPConstraintModel
from repro.core.hyperpower import SOLVERS, VARIANTS, build_method
from repro.core.methods import BayesianOptimizer, SearchState
from repro.experiments.setup import quick_setup
from repro.io import run_to_dict
from repro.space import mnist_space

pytestmark = pytest.mark.sparse_gp

N_ITERATIONS = 20

#: Committed ``run_to_dict`` JSON of ``auto`` runs that cross the switch.
DATA_DIR = Path(__file__).parent / "data"

#: Cells pinned past the switch: ``(fixture id, solver, variant, run kwargs)``.
#: Warm start carries one model across refits, ``HW-CWEI/default`` adds the
#: learned-constraint GPs, and the async cell fantasizes on pending trials.
AUTO_SWITCH_CELLS = [
    ("HW-IECI__hyperpower__cold", "HW-IECI", "hyperpower", {}),
    ("HW-IECI__hyperpower__warm", "HW-IECI", "hyperpower",
     {"gp_warm_start": True}),
    ("HW-CWEI__default", "HW-CWEI", "default", {}),
    ("async__HW-IECI__hyperpower", "HW-IECI", "hyperpower",
     {"backend": "serial", "workers": 2, "scheduler": "async"}),
]


def _auto_switch_json(setup, solver, variant, kwargs):
    result = setup.run(
        solver, variant, run_seed=5, max_evaluations=15,
        surrogate="auto", surrogate_switch_at=8, surrogate_features=64,
        **kwargs,
    )
    return json.dumps(run_to_dict(result), sort_keys=True, indent=1) + "\n"


@pytest.fixture(scope="module")
def setup():
    return quick_setup(
        "mnist", "gtx1070", power_budget_w=85.0, memory_budget_gb=1.15,
        seed=0, profiling_samples=100,
    )


@pytest.mark.slow
@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("solver", sorted(SOLVERS))
def test_auto_below_threshold_is_byte_identical_to_exact(
    setup, solver, variant
):
    """With n far below ``surrogate_switch_at``, the auto tier must run the
    exact GP through the identical code path — same RNG stream, same
    posterior, same trajectory, byte for byte.  The model-free solvers
    ride along to pin all eight cells."""
    exact = setup.run(
        solver, variant, run_seed=7, max_evaluations=N_ITERATIONS,
        surrogate="exact",
    )
    auto = setup.run(
        solver, variant, run_seed=7, max_evaluations=N_ITERATIONS,
        surrogate="auto",  # default switch_at=1000 >> 20 evaluations
    )
    assert (
        exact.best_error_vs_samples().tobytes()
        == auto.best_error_vs_samples().tobytes()
    )
    assert json.dumps(run_to_dict(exact), sort_keys=True) == json.dumps(
        run_to_dict(auto), sort_keys=True
    )


@pytest.mark.slow
@pytest.mark.parametrize("tier", ["rff", "nystrom"])
def test_sparse_tiers_run_the_full_pipeline(setup, tier):
    result = setup.run(
        "HW-CWEI", "hyperpower", run_seed=3, max_evaluations=15,
        surrogate=tier, surrogate_features=64,
    )
    assert result.n_trained == 15
    traj = result.best_error_vs_samples()
    assert np.all(np.isfinite(traj))
    # Re-running the sparse tier is still deterministic.
    again = setup.run(
        "HW-CWEI", "hyperpower", run_seed=3, max_evaluations=15,
        surrogate=tier, surrogate_features=64,
    )
    assert json.dumps(run_to_dict(result), sort_keys=True) == json.dumps(
        run_to_dict(again), sort_keys=True
    )


@pytest.mark.slow
@pytest.mark.parametrize(
    "cell,solver,variant,kwargs", AUTO_SWITCH_CELLS,
    ids=[cell[0] for cell in AUTO_SWITCH_CELLS],
)
def test_auto_past_threshold_switches_mid_run(
    setup, regen_golden, cell, solver, variant, kwargs
):
    """Driving the switch point below the horizon exercises a live
    exact->RFF transition inside one run, and the run reproduces the
    committed trajectory byte for byte: the switch, warm-started refits,
    constraint GPs and fantasies all stay on the pinned numerics."""
    path = DATA_DIR / f"auto_switch__{cell}.json"
    text = _auto_switch_json(setup, solver, variant, kwargs)
    if regen_golden:
        path.write_text(text)
    assert text == path.read_text(), (
        f"run drift against {path.name} (if intentional, regenerate with "
        "pytest --regen-golden)"
    )


class TestBuildMethodPlumbing:
    def _spec(self):
        return ConstraintSpec(power_budget_w=85.0)

    def test_unknown_tier_rejected(self):
        with pytest.raises(ValueError, match="surrogate"):
            BayesianOptimizer(
                mnist_space(), ExpectedImprovement(), surrogate="dense"
            )

    @pytest.mark.parametrize("kwargs", [
        {"surrogate_features": 0},
        {"surrogate_switch_at": 0},
    ])
    def test_positive_knobs_enforced(self, kwargs):
        with pytest.raises(ValueError):
            BayesianOptimizer(mnist_space(), ExpectedImprovement(), **kwargs)

    def test_knobs_reach_optimizer_and_constraint_model(self):
        method = build_method(
            "HW-CWEI", "default", mnist_space(), self._spec(),
            surrogate="nystrom", surrogate_features=96,
            surrogate_switch_at=500,
        )
        assert isinstance(method, BayesianOptimizer)
        assert method.surrogate == "nystrom"
        assert method.surrogate_features == 96
        assert method.surrogate_switch_at == 500
        cm = method.learned_constraints
        assert isinstance(cm, GPConstraintModel)
        assert cm.surrogate == "nystrom"
        assert cm.surrogate_features == 96
        assert cm.surrogate_switch_at == 500


class TestFantasyLieFallback:
    def _optimizer_with_history(self, errors):
        space = mnist_space()
        opt = BayesianOptimizer(space, ExpectedImprovement())
        rng = np.random.default_rng(0)
        configs = [space.sample(rng) for _ in range(len(errors))]
        state = SearchState(
            trained_configs=configs,
            trained_errors=list(errors),
            trained_feasible=[False] * len(errors),
        )
        finite = np.isfinite(np.asarray(errors))
        X = space.encode_many([c for c, ok in zip(configs, finite) if ok])
        gp = opt._make_surrogate()
        gp.fit(
            X, np.asarray(errors, dtype=float)[finite], optimize_hypers=False
        )
        pending = [space.sample(rng) for _ in range(2)]
        return opt, state, gp, pending

    def test_non_finite_errors_never_reach_the_surrogate(self):
        """Fantasizing while some observed errors are non-finite must fall
        back to the mean of the *finite* errors rather than poisoning the
        surrogate with a NaN lie (with a NaN first, the incumbent scan
        never replaces it, so the ``cl-min`` lie is itself NaN)."""
        errors = [float("nan"), 0.3, 0.2, 0.25, 0.4, 0.35]
        opt, state, gp, pending = self._optimizer_with_history(errors)
        fantasy, n_lies = opt._fantasize(gp, state, pending)
        assert n_lies == len(pending)
        assert fantasy.n_observations == gp.n_observations + len(pending)
        mean, _ = fantasy.predict(
            opt.space.encode_many(pending)
        )
        assert np.all(np.isfinite(mean))

    def test_all_non_finite_errors_skip_fantasies(self):
        errors = [float("nan"), float("nan"), float("nan")]
        space = mnist_space()
        opt = BayesianOptimizer(space, ExpectedImprovement())
        rng = np.random.default_rng(1)
        state = SearchState(
            trained_configs=[space.sample(rng) for _ in range(3)],
            trained_errors=list(errors),
            trained_feasible=[False, False, False],
        )
        X = space.encode_many([space.sample(rng) for _ in range(5)])
        gp = opt._make_surrogate()
        gp.fit(X, np.linspace(0.1, 0.5, 5), optimize_hypers=False)
        fantasy, n_lies = opt._fantasize(gp, state, [space.sample(rng)])
        assert n_lies == 0
        assert fantasy is gp


class TestCLIPlumbing:
    _BASE = [
        "--samples", "50", "run", "--pair", "mnist-gtx1070",
        "--solver", "Rand", "--variant", "hyperpower",
        "--evaluations", "3", "--run-seed", "1",
    ]

    def test_surrogate_flags_parse_and_run(self, tmp_path):
        out = tmp_path / "run.json"
        argv = self._BASE + [
            "--surrogate", "rff", "--surrogate-features", "32",
            "--out", str(out),
        ]
        assert cli_main(argv) == 0
        payload = json.loads(out.read_text())
        assert payload["format"] == "repro-runs/1"
        assert len(payload["runs"]) == 1

    @pytest.mark.parametrize("flag,value", [
        ("--surrogate-features", "0"),
        ("--surrogate-switch-at", "-5"),
    ])
    def test_non_positive_knobs_exit(self, flag, value):
        with pytest.raises(SystemExit):
            cli_main(self._BASE + [flag, value])

    def test_unknown_surrogate_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            cli_main(self._BASE + ["--surrogate", "dense"])
