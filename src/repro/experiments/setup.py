"""Experiment wiring: the paper's four device-dataset pairs (Section 4-5).

An :class:`ExperimentSetup` assembles everything one benchmark-platform
pair needs — design space, error surface, training simulator (always on
the GTX 1070 server host: the paper trains on the host and deploys/measures
on the target), target-platform profiler, and the offline-fitted predictive
models — and can then spin up independent optimization runs.

The offline profiling campaign and model fitting happen once per setup and
are *not* charged to any run's clock, matching the paper where the models
are trained before hyper-parameter optimization starts.

:data:`PAPER_PAIRS` records the Section 5 constants: power budgets of
85/90 W (GTX 1070) and 10/12 W (Tegra TX1), memory budgets of 1.15/1.25 GB
(GTX only — "Tegra does not support NVML API for memory measurements"),
wall-clock budgets of two hours (MNIST) and five hours (CIFAR-10), and the
fixed-evaluation budgets of 30/50 iterations.
"""

from __future__ import annotations

import zlib
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from ..core.clock import DEFAULT_COST_MODEL, CostModel, SimClock
from ..core.constraints import GIB, ConstraintSpec
from ..core.early_term import EarlyTermination
from ..core.faults import FaultInjector, RetryPolicy
from ..core.hyperpower import HyperPower, build_method
from ..core.objective import NNObjective
from ..core.parallel import EvaluationPool, TrialCache
from ..core.result import RunResult
from ..core.spec import RunSpec
from ..hwsim.devices import GTX_1070, get_device
from ..hwsim.profiler import HardwareProfiler
from ..models.hw_models import fit_hardware_models
from ..models.profiling import run_profiling_campaign
from ..space.presets import cifar10_space, imagenet_space, mnist_space
from ..trainsim.dataset import get_dataset
from ..trainsim.surface import ErrorSurface
from ..trainsim.trainer import TrainingSimulator

__all__ = ["PairSpec", "PAPER_PAIRS", "ExperimentSetup", "quick_setup", "paper_setup"]

#: Seed of the shared "world" (error surface) — identical across methods so
#: every method optimizes the same ground truth.
_SURFACE_SEED = 2018


@dataclass(frozen=True)
class PairSpec:
    """Section 5 constants for one device-dataset pair."""

    dataset: str
    device_key: str
    power_budget_w: float
    memory_budget_gib: float | None
    time_budget_hours: float
    fixed_eval_iterations: int
    fixed_eval_power_w: float

    @property
    def constraint_spec(self) -> ConstraintSpec:
        """The fixed-runtime constraints of this pair."""
        memory = (
            None
            if self.memory_budget_gib is None
            else self.memory_budget_gib * GIB
        )
        return ConstraintSpec(
            power_budget_w=self.power_budget_w, memory_budget_bytes=memory
        )

    @property
    def fixed_eval_constraint_spec(self) -> ConstraintSpec:
        """The fixed-evaluation (Figure 4) power-only constraints."""
        return ConstraintSpec(power_budget_w=self.fixed_eval_power_w)

    @property
    def time_budget_s(self) -> float:
        """Wall-clock budget, seconds."""
        return self.time_budget_hours * 3600.0

    @property
    def key(self) -> str:
        """Stable identifier, e.g. ``'mnist-gtx1070'``."""
        return f"{self.dataset}-{self.device_key}"


#: Section 5: "85W and 1.15 for MNIST on GTX 1070, 90W and 1.25GB for
#: CIFAR-10 on GTX 1070, 10W for MNIST on Tegra TX1, and 12W for CIFAR-10
#: on Tegra TX1 (no memory constraints on Tegra)"; runtime budgets of two
#: and five hours; fixed-eval budgets of 30 (MNIST) and 50 (CIFAR-10)
#: iterations with power constraints of 90W and 85W respectively.
#: Note on the fixed-evaluation power levels: Section 5's fixed-evaluation
#: paragraph reads "power constraints of 90W and 85W" for MNIST and
#: CIFAR-10.  In our calibrated simulator the 85 W level lies below what
#: the CIFAR-10 linear power model can resolve (its predictions bottom out
#: around 84 W), so the Figure 4 harness reuses the 90 W budget of the
#: fixed-runtime protocol for CIFAR-10; see EXPERIMENTS.md.
PAPER_PAIRS = {
    "mnist-gtx1070": PairSpec("mnist", "gtx1070", 85.0, 1.15, 2.0, 30, 90.0),
    "cifar10-gtx1070": PairSpec("cifar10", "gtx1070", 90.0, 1.25, 5.0, 50, 90.0),
    "mnist-tx1": PairSpec("mnist", "tx1", 10.0, None, 2.0, 30, 10.0),
    "cifar10-tx1": PairSpec("cifar10", "tx1", 12.0, None, 5.0, 50, 12.0),
}

_SPACES = {
    "mnist": mnist_space,
    "cifar10": cifar10_space,
    "imagenet": imagenet_space,
}


class ExperimentSetup:
    """One benchmark-platform pair, ready to run method variants."""

    def __init__(
        self,
        dataset_name: str,
        device_key: str,
        constraint_spec: ConstraintSpec,
        seed: int = 0,
        profiling_samples: int = 100,
        fit_intercept: bool = True,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        early_termination: EarlyTermination | None = None,
    ):
        if dataset_name not in _SPACES:
            raise ValueError(
                f"unknown dataset {dataset_name!r}; expected one of "
                f"{sorted(_SPACES)}"
            )
        self.dataset_name = dataset_name
        self.device_key = device_key
        self.spec = constraint_spec
        self.seed = int(seed)
        self.cost_model = cost_model
        #: Divergence-detection policy handed to every objective this setup
        #: builds.  ``None`` keeps the MNIST-tuned default (check_epoch=3);
        #: slow-converging benchmarks (ImageNet, tau 10-40 epochs) need a
        #: later check or every healthy run looks stuck at chance.
        self.early_termination = early_termination

        self.space = _SPACES[dataset_name]()
        self.dataset = get_dataset(dataset_name)
        self.surface = ErrorSurface(self.dataset, seed=_SURFACE_SEED)
        self.target_device = get_device(device_key)
        #: Training always happens on the server host (paper Section 4).
        self.train_device = GTX_1070

        # Offline profiling campaign + predictive-model fit (Section 3.3).
        campaign_rng = np.random.default_rng(
            np.random.SeedSequence([self.seed, 1])
        )
        campaign_profiler = HardwareProfiler(self.target_device, campaign_rng)
        # I.i.d. random sampling, as in the paper.  (Latin-hypercube
        # sampling is available via run_profiling_campaign(method="lhs") and
        # raises the models' usable low-tail pass rate on MNIST, but the
        # acquisition maximiser then exploits a CIFAR-10 corner the
        # LHS-fitted model under-predicts — see
        # benchmarks/bench_ablation_profiling.py for the comparison.)
        self.profiling_data = run_profiling_campaign(
            self.space,
            dataset_name,
            campaign_profiler,
            profiling_samples,
            campaign_rng,
        )
        self.power_model, self.memory_model = fit_hardware_models(
            self.space,
            self.profiling_data,
            rng=np.random.default_rng(np.random.SeedSequence([self.seed, 2])),
            fit_intercept=fit_intercept,
        )

    # -- per-run factories -----------------------------------------------------------

    def new_objective(self, run_seed: int) -> NNObjective:
        """A fresh objective (own clock, own noise streams) for one run."""
        seq = np.random.SeedSequence([self.seed, 3, int(run_seed)])
        rng_train, rng_profile = [
            np.random.default_rng(s) for s in seq.spawn(2)
        ]
        trainer = TrainingSimulator(
            self.dataset, self.surface, self.train_device
        )
        profiler = HardwareProfiler(self.target_device, rng_profile)
        return NNObjective(
            space=self.space,
            trainer=trainer,
            profiler=profiler,
            spec=self.spec,
            clock=SimClock(),
            rng=rng_train,
            early_termination=self.early_termination,
        )

    def _open(self, run: RunSpec):
        """The method, objective and proposal RNG of one run, plus the
        solver/variant tag that decorrelates its other streams."""
        method = build_method(
            run.solver, run.variant, self.space, self.spec,
            power_model=self.power_model, memory_model=self.memory_model,
            **run.method_options,
        )
        # Decorrelate streams across method variants, or every method would
        # see the exact same random proposals.
        tag = zlib.crc32(f"{run.solver}/{run.variant}".encode("utf-8"))
        objective = self.new_objective(int(run.run_seed) * 0x10000 + (tag & 0xFFFF))
        rng = np.random.default_rng(
            np.random.SeedSequence([self.seed, 4, int(run.run_seed), tag])
        )
        return method, objective, rng, tag

    def open_study(
        self,
        solver: str,
        variant: str,
        run_seed: int = 0,
        telemetry=None,
        **method_kwargs,
    ):
        """An open ask/tell study seeded exactly like :meth:`run`.

        Builds the same method, objective, driver and proposal RNG a
        ``run(solver, variant, run_seed)`` call would (same decorrelation
        tag, same seed words), then hands back the driver's
        :meth:`~repro.core.hyperpower.HyperPower.open_study` — so a caller
        driving ``suggest``/``evaluate_and_observe`` in the sequential
        pattern reproduces the closed loop byte for byte.
        ``method_kwargs`` are :class:`~repro.core.spec.RunSpec` method
        fields only.
        """
        run = RunSpec.for_method(solver, variant, method_kwargs, run_seed)
        method, objective, rng, _ = self._open(run)
        driver = HyperPower(
            objective, method, run.variant, self.cost_model, telemetry=telemetry
        )
        return driver.open_study(rng)

    def run(
        self,
        solver: str,
        variant: str,
        run_seed: int = 0,
        *,
        cache: TrialCache | None = None,
        journal: str | Path | None = None,
        resume_from: str | Path | None = None,
        telemetry=None,
        **options,
    ) -> RunResult:
        """Build and run one method variant under the given budget.

        ``options`` are the other :class:`~repro.core.spec.RunSpec`
        fields: the budgets, the method knobs, the pool and the
        scheduler.  ``docs/api.md`` lists each with its rule.  The pool
        trains in-process; its ``workers`` are simulated concurrency,
        charged to the simulated clock.

        Pass ``cache`` to share one :class:`TrialCache` across several runs
        (warm-cache replay: because runs are deterministic, re-running the
        same seeded configuration against a populated cache replays every
        training at lookup cost).  The counters copied into the result are
        this run's lookups only, not the shared cache's lifetime totals.

        ``journal`` writes a crash-safe JSONL journal of the run (see
        :class:`~repro.io.RunJournal`); ``resume_from`` replays one left
        behind by an interrupted run and continues it bit-identically
        (the journal's recorded parameters must match this call's).  When
        resuming without an explicit ``journal``, new rounds are appended
        to the resumed journal itself.

        ``telemetry`` (a :class:`~repro.telemetry.Telemetry` bundle)
        switches on span tracing and run metrics; tracing never touches
        the clock or any RNG stream, so the result is byte-identical to
        an untraced run (modulo ``RunResult.telemetry`` itself).
        """
        run = RunSpec(solver, variant, run_seed, **options)
        fidelity = run.fidelity(self.dataset.default_epochs)
        method, objective, rng, tag = self._open(run)

        def stream_seed(kind: int) -> int:
            seq = np.random.SeedSequence([self.seed, kind, int(run.run_seed), tag])
            return int(seq.generate_state(1)[0])

        fault_seed = stream_seed(6) if run.fault_seed is None else run.fault_seed
        pool = None
        if run.backend is not None:
            if cache is None and run.use_cache:
                cache = TrialCache()
            pool = EvaluationPool(
                objective,
                workers=run.workers,
                cache=cache,
                seed=stream_seed(5),
                injector=(
                    None if run.faults is None
                    else FaultInjector(run.faults, seed=fault_seed)
                ),
                retry=run.retry,
            )
        driver = HyperPower(
            objective, method, run.variant, self.cost_model, pool=pool,
            telemetry=telemetry,
        )
        meta = {
            "setup_seed": self.seed,
            "dataset": self.dataset_name,
            "device": self.device_key,
            "solver": run.solver,
            "variant": run.variant,
            "run_seed": int(run.run_seed),
            "max_evaluations": run.max_evaluations,
            "max_time_s": run.max_time_s,
            "backend": run.backend,
            "workers": int(run.workers),
            "faults": None if run.faults is None else asdict(run.faults),
            "fault_seed": None if run.faults is None else fault_seed,
            "retry": asdict(RetryPolicy() if run.retry is None else run.retry),
            "scheduler": run.scheduler,
        }
        if fidelity is not None:
            meta["fidelity"] = {
                "rungs": list(fidelity.rungs),
                "eta": fidelity.eta,
                "n0": fidelity.n0,
                "brackets": fidelity.brackets,
            }
        run_journal = self._open_journal(journal, resume_from, meta)
        recorded = None if run_journal is None else run_journal.recorded
        if pool is not None and recorded is not None:
            pool.journaled = recorded.fresh_results()
        try:
            return driver.run(
                rng,
                max_evaluations=run.max_evaluations,
                max_time_s=run.max_time_s,
                journal=run_journal,
                scheduler=run.scheduler,
                fidelity=fidelity,
            )
        finally:
            if run_journal is not None:
                run_journal.close()

    @staticmethod
    def _open_journal(journal, resume_from, meta):
        """Open the journal writer for one run, carrying the recorded
        rounds of ``resume_from`` when it resumes one.

        Imported lazily: :mod:`repro.io` is only needed when journaling is
        actually requested.
        """
        if journal is None and resume_from is None:
            return None
        from ..io import JournalReplay, RunJournal

        if resume_from is None:
            return RunJournal(journal, meta=meta)
        recorded = JournalReplay.load(resume_from)
        if recorded.meta != meta:
            raise ValueError(
                "cannot resume: the journal was written under different "
                f"run parameters ({recorded.meta!r} != {meta!r})"
            )
        if (
            journal is None
            or Path(journal).resolve() == Path(resume_from).resolve()
        ):
            return RunJournal.reopen(resume_from)
        run_journal = RunJournal(journal, meta=meta)
        run_journal.recorded = recorded
        return run_journal


def quick_setup(
    dataset: str,
    device: str,
    power_budget_w: float | None = None,
    memory_budget_gb: float | None = None,
    seed: int = 0,
    profiling_samples: int = 100,
    early_termination: EarlyTermination | None = None,
) -> ExperimentSetup:
    """Convenience constructor with budgets in natural units."""
    spec = ConstraintSpec(
        power_budget_w=power_budget_w,
        memory_budget_bytes=(
            None if memory_budget_gb is None else memory_budget_gb * GIB
        ),
    )
    return ExperimentSetup(
        dataset,
        device,
        spec,
        seed=seed,
        profiling_samples=profiling_samples,
        early_termination=early_termination,
    )


def paper_setup(
    pair_key: str,
    seed: int = 0,
    fixed_eval: bool = False,
    profiling_samples: int = 100,
) -> tuple[ExperimentSetup, PairSpec]:
    """An :class:`ExperimentSetup` with the paper's budgets for one pair.

    ``fixed_eval=True`` selects the Figure 4 power-only constraints instead
    of the fixed-runtime ones.
    """
    try:
        pair = PAPER_PAIRS[pair_key]
    except KeyError:
        raise ValueError(
            f"unknown pair {pair_key!r}; expected one of "
            f"{sorted(PAPER_PAIRS)}"
        ) from None
    spec = pair.fixed_eval_constraint_spec if fixed_eval else pair.constraint_spec
    setup = ExperimentSetup(
        pair.dataset,
        pair.device_key,
        spec,
        seed=seed,
        profiling_samples=profiling_samples,
    )
    return setup, pair
