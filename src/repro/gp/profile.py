"""Per-stage wall-clock profiling of the GP surrogate hot path.

The fixed-runtime experiments charge GP work to the *simulated* clock; this
module measures the *real* cost of the surrogate so speedups (analytic
gradients, rank-1 updates, refit scheduling, sparse tiers) are observable.
A :class:`SurrogateProfile` is threaded through
:class:`~repro.gp.gp.GaussianProcess`, the sparse surrogates in
:mod:`repro.gp.sparse`, and :class:`~repro.core.methods.BayesianOptimizer`
and accumulates three kinds of evidence:

* **stages** — seconds and call counts per internal stage:

  - ``kernel``      — Gram-matrix / cross-covariance / feature-map work;
  - ``cholesky``    — factorisations (full ``O(n^3)``, rank-1 ``O(n^2)``
    and the sparse tiers' ``O(m^2)`` updates);
  - ``hyperopt``    — marginal-likelihood optimisation, inclusive of the
    kernel/Cholesky work performed inside the optimiser's objective;
  - ``append``      — incremental posterior updates;
  - ``acquisition`` — candidate scoring during proposals.

* **ops** — counts of the surrogate's *interface-level* operations
  (``fits`` / ``appends`` / ``predicts``), so benchmarks can report
  amortized per-op cost (seconds divided by the op count) instead of
  inferring it from stage call counts that nest and overlap.

* **tier** — the active surrogate tier (``exact`` / ``rff`` /
  ``nystrom``) and the history of tier transitions with the observation
  count at which each switch happened.

Timings are diagnostics: they are reported on
:class:`~repro.core.result.RunResult` but deliberately excluded from its
JSON serialisation, which must stay byte-identical across re-runs.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

__all__ = ["SurrogateProfile"]


class SurrogateProfile:
    """Accumulates wall-clock seconds, op counts and tier history."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self.ops: dict[str, int] = {}
        #: Active surrogate tier (``None`` until a model records one).
        self.tier: str | None = None
        #: ``{"from": ..., "to": ..., "n_obs": ...}`` per tier switch.
        self.tier_transitions: list[dict] = []

    def add(self, stage: str, seconds: float) -> None:
        """Record one timed call of ``stage``."""
        self.seconds[stage] = self.seconds.get(stage, 0.0) + float(seconds)
        self.counts[stage] = self.counts.get(stage, 0) + 1

    @contextmanager
    def timeit(self, stage: str):
        """Context manager timing one call of ``stage``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add(stage, time.perf_counter() - start)

    def count_op(self, op: str, n: int = 1) -> None:
        """Count ``n`` interface-level operations (fit/append/predict)."""
        self.ops[op] = self.ops.get(op, 0) + int(n)

    def record_tier(self, tier: str, n_obs: int) -> None:
        """Record the active tier, logging a transition when it changes."""
        if tier != self.tier:
            self.tier_transitions.append(
                {"from": self.tier, "to": tier, "n_obs": int(n_obs)}
            )
            self.tier = tier

    def as_dict(self) -> dict:
        """JSON-ready view of stages, op counts and tier history.

        Shape::

            {
                "stages": {stage: {"seconds": ..., "calls": ...}},
                "ops": {op: count},
                "tier": "exact" | "rff" | "nystrom" | None,
                "tier_transitions": [{"from": ..., "to": ..., "n_obs": ...}],
            }
        """
        return {
            "stages": {
                stage: {
                    "seconds": self.seconds[stage],
                    "calls": self.counts.get(stage, 0),
                }
                for stage in sorted(self.seconds)
            },
            "ops": {op: self.ops[op] for op in sorted(self.ops)},
            "tier": self.tier,
            "tier_transitions": [dict(t) for t in self.tier_transitions],
        }

    def merge(self, other: "SurrogateProfile") -> None:
        """Fold another profile's accumulators into this one."""
        for stage, seconds in other.seconds.items():
            self.seconds[stage] = self.seconds.get(stage, 0.0) + seconds
        for stage, calls in other.counts.items():
            self.counts[stage] = self.counts.get(stage, 0) + calls
        for op, count in other.ops.items():
            self.ops[op] = self.ops.get(op, 0) + count
        self.tier_transitions.extend(dict(t) for t in other.tier_transitions)
        if other.tier is not None:
            self.tier = other.tier

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{stage}={self.seconds[stage] * 1e3:.1f}ms/"
            f"{self.counts.get(stage, 0)}"
            for stage in sorted(self.seconds)
        )
        tier = f", tier={self.tier}" if self.tier is not None else ""
        return f"SurrogateProfile({parts}{tier})"
