"""One typed description of a run: :class:`RunSpec`.

A run is a solver, a variant and a proposal seed, the Section 5 budgets,
the method knobs, the evaluation pool and the scheduler.  ``RunSpec``
checks every value once, when it is built: its type (an ``int`` field
refuses ``bool``, ``float`` and ``str``), choices, range and the rules
that tie fields together, raising a ``ValueError`` whose message starts
with the field's name (or, for a choice, ``unknown <field>``).  The
public classes a value ends up in (``BayesianOptimizer``,
``FidelitySchedule``, ``EvaluationPool``, ...) keep their own range
checks for callers that build them directly.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

from ..gp.sparse import SURROGATE_TIERS
from .faults import FaultRates, RetryPolicy
from .fidelity import FidelitySchedule
from .study import VARIANTS

__all__ = ["SOLVERS", "METHOD_FIELDS", "RunSpec"]

#: The four solvers of Section 3.5.
SOLVERS = ("Rand", "Rand-Walk", "HW-CWEI", "HW-IECI")

#: The fields :func:`~repro.core.hyperpower.build_method` reads.
METHOD_FIELDS = (
    "sigma", "n_init", "pool_size", "gp_restarts", "gp_refit_every",
    "gp_warm_start", "gp_burn_in", "surrogate", "surrogate_features",
    "surrogate_switch_at", "scatter_init",
)

_CHOICES = {
    "solver": SOLVERS, "variant": VARIANTS, "surrogate": SURROGATE_TIERS,
    "backend": ("serial",), "scheduler": ("sync", "async"),
}

#: Lower bounds of the int fields; float fields must be finite and > 0.
_MIN = {
    "run_seed": 0, "max_evaluations": 1, "n_init": 1, "pool_size": 1,
    "gp_restarts": 0, "gp_refit_every": 1, "gp_burn_in": 0,
    "surrogate_features": 1, "surrogate_switch_at": 1, "scatter_init": 0,
    "workers": 1, "fault_seed": 0, "rungs": 0, "eta": 2, "min_epochs": 1,
    "brackets": 1,
}

#: Field annotation -> accepted type (``bool`` is refused unless named).
_TYPES = {
    "str": str, "int": numbers.Integral, "float": numbers.Real, "bool": bool,
    "FaultRates": FaultRates, "RetryPolicy": RetryPolicy,
}


@dataclass(frozen=True)
class RunSpec:
    """Everything one run is; ``docs/api.md`` lists each field's rule."""

    solver: str
    variant: str
    run_seed: int = 0
    # Budgets: trained evaluations (Figure 4), simulated seconds (Tables 2-5).
    max_evaluations: int | None = None
    max_time_s: float | None = None
    # Method knobs (METHOD_FIELDS).  The random-walk neighbourhood (unit-cube
    # units) lets the default variant succeed on the easy MNIST/TX1 pair
    # while still failing on the tightly constrained CIFAR-10 pairs.
    sigma: float = 0.15
    n_init: int = 5
    pool_size: int = 1000
    gp_restarts: int = 2
    gp_refit_every: int = 1
    gp_warm_start: bool = False
    gp_burn_in: int = 15
    surrogate: str = "exact"
    surrogate_features: int = 256
    surrogate_switch_at: int = 1000
    scatter_init: int = 0
    # Evaluation pool (no backend: the paper's sequential loop).
    backend: str | None = None
    workers: int = 1
    use_cache: bool = True
    faults: FaultRates | None = None
    fault_seed: int | None = None
    retry: RetryPolicy | None = None
    # Scheduler and multi-fidelity rungs.
    scheduler: str = "sync"
    rungs: int = 0
    eta: int = 3
    min_epochs: int = 1
    brackets: int = 1

    def __post_init__(self) -> None:
        for f in fields(self):
            _check(f.name, f.type, getattr(self, f.name))
        if self.rungs > 0 and (self.backend is None or self.scheduler != "async"):
            raise ValueError(
                "rungs require the asynchronous pool path "
                "(pass scheduler='async' and a backend)"
            )
        if self.faults is not None and self.backend is None:
            raise ValueError(
                "faults require a pool backend (the sequential paper loop "
                "has no retry machinery)"
            )
        if self.scheduler == "async" and self.backend is None:
            raise ValueError(
                "scheduler 'async' requires a pool backend "
                "(pass backend='serial')"
            )

    @classmethod
    def for_method(
        cls, solver: str, variant: str, options: dict, run_seed: int = 0
    ) -> "RunSpec":
        """A spec from method knobs only: any key outside
        :data:`METHOD_FIELDS` (a budget, pool or scheduler key included)
        is refused."""
        for key in options:
            if key not in METHOD_FIELDS:
                raise ValueError(
                    f"{key} is not a method option; expected one of {METHOD_FIELDS}"
                )
        return cls(solver, variant, run_seed, **options)

    def fidelity(self, max_epochs: int) -> FidelitySchedule | None:
        """The rung ladder over a ``max_epochs`` training schedule (None
        without rungs).  ``min_epochs`` and ``brackets`` are bounded by
        the schedule, so they are checked here, not at construction."""
        if self.rungs == 0:
            return None
        return FidelitySchedule.geometric(
            max_epochs,
            min_epochs=self.min_epochs,
            eta=self.eta,
            num_rungs=self.rungs,
            scatter_init=self.scatter_init or None,
            brackets=self.brackets,
        )

    @property
    def method_options(self) -> dict:
        """The method knobs, as ``build_method`` keywords."""
        return {name: getattr(self, name) for name in METHOD_FIELDS}


def _check(name: str, annotation: str, value) -> None:
    """Check one field against its annotation, choices and lower bound."""
    kind, _, optional = annotation.partition(" | ")
    if value is None and optional:
        return
    if not isinstance(value, _TYPES[kind]) or (isinstance(value, bool) and kind != "bool"):
        raise ValueError(f"{name} must be {kind}, got {value!r}")
    if name in _CHOICES and value not in _CHOICES[name]:
        raise ValueError(f"unknown {name} {value!r}; expected one of {_CHOICES[name]}")
    if name in _MIN and value < _MIN[name]:
        raise ValueError(f"{name} must be >= {_MIN[name]}, got {value!r}")
    if kind == "float" and not (math.isfinite(value) and value > 0):
        # A NaN or infinite deadline is never reached: the run would
        # silently go on to the sample cap.
        raise ValueError(f"{name} must be finite and > 0, got {value!r}")
