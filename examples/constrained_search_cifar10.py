"""CIFAR-10 under server budgets: HyperPower vs the exhaustive default.

The paper's headline scenario (Section 5, CIFAR-10 on the GTX 1070 with
90 W and 1.25 GB budgets): run constraint-unaware random search and
HyperPower's HW-IECI side by side under the same wall-clock budget and
count how many candidates each one gets through.

Run:  python examples/constrained_search_cifar10.py
"""

from repro.core.result import TrialStatus
from repro.experiments import paper_setup

setup, pair = paper_setup("cifar10-gtx1070", seed=0, profiling_samples=80)
budget_s = pair.time_budget_s * 0.3  # 1.5 simulated hours for the demo

print(
    f"CIFAR-10 on {setup.target_device.name}: "
    f"{pair.power_budget_w:.0f} W / {pair.memory_budget_gib:.2f} GB budgets, "
    f"{budget_s / 3600:.1f} h wall-clock"
)

results = {}
for label, solver, variant in (
    ("default random search", "Rand", "default"),
    ("HyperPower random search", "Rand", "hyperpower"),
    ("HyperPower HW-IECI", "HW-IECI", "hyperpower"),
):
    result = setup.run(solver, variant, run_seed=3, max_time_s=budget_s)
    results[label] = result
    rejected = sum(
        1 for t in result.trials if t.status is TrialStatus.REJECTED_MODEL
    )
    terminated = sum(
        1 for t in result.trials if t.status is TrialStatus.EARLY_TERMINATED
    )
    print(f"\n[{label}]")
    print(f"  samples queried      : {result.n_samples}")
    print(f"  rejected by models   : {rejected}")
    print(f"  early-terminated     : {terminated}")
    print(f"  fully trained        : {result.n_completed}")
    print(f"  constraint violations: {result.n_violations}")
    best = result.best_feasible_error
    if result.found_feasible:
        print(f"  best feasible error  : {best * 100:.2f}%")
    else:
        print("  best feasible error  : none found!")

default = results["default random search"]
hyper = results["HyperPower random search"]
print(
    f"\nHyperPower queried {hyper.n_samples / max(1, default.n_samples):.1f}x "
    "more samples in the same budget (Table 4's effect)"
)
