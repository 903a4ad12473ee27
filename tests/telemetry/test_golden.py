"""Golden-run regression suite: committed traces of all eight cells.

Every solver/variant cell runs the MNIST preset under a small budget with
tracing on; the resulting span trace — simulated timestamps, hierarchy,
deterministic attributes, metrics snapshot — must match the committed
golden fixture field by field.  Any drift in proposal RNG consumption,
clock accounting, screening order or GP scheduling shows up here as a
precise span-level diff instead of a downstream trajectory change.

Regenerate after an *intentional* behaviour change with::

    PYTHONPATH=src python -m pytest tests/telemetry/test_golden.py --regen-golden

and review the fixture diff like any other code change.
"""

import hashlib
import json

import pytest

from repro.core.hyperpower import SOLVERS, VARIANTS
from repro.experiments.setup import quick_setup
from repro.io import run_to_dict
from repro.telemetry import (
    TRACE_FORMAT,
    Telemetry,
    diff_traces,
    load_trace,
    normalize_trace,
    span_to_dict,
)

#: n_init=5, so seven evaluations exercise both the initial design and
#: the surrogate-driven rounds (gp_fit/acquisition spans) of the BO cells.
GOLDEN_BUDGET = 7
POOL_BUDGET = 8
POOL_WORKERS = 3
ASYNC_WORKERS = 4

#: Byte-level pins of the fixtures that predate the asynchronous
#: scheduler.  The async path must leave every synchronous golden
#: untouched — not just span-equal, byte-for-byte identical.  Update a
#: hash only together with an intentional regeneration of its fixture.
SYNC_FIXTURE_SHA256 = {
    "HW-CWEI__default.trace.jsonl": "4a8dbe846c51d53b1b0465f4fe7bd24f91106dcc85d3e4283f4c5951a9e368cb",
    "HW-CWEI__hyperpower.trace.jsonl": "83dbd8c55574980183203b260fb6832ac2f94b9ff9736b41e24fe3d9637ac9a2",
    "HW-IECI__default.trace.jsonl": "7832dae08d596f507a95f58fc5fdc1f7987ca03d07dc310e291ed58124d6dacf",
    "HW-IECI__hyperpower.trace.jsonl": "b8faac424173c630241d6f72825f604cf8efe67ac250bec41c72f678789633cd",
    "Rand-Walk__default.trace.jsonl": "d876bc1f6c5abd8add75c6323555e562c76b0365219ebdf5528e69dc61058d3a",
    "Rand-Walk__hyperpower.trace.jsonl": "f87a6ccdbdb608274256550261a58d9b5aaf13123327100bdfa0806968edb34a",
    "Rand__default.trace.jsonl": "28efab0b594c8a54e01e4e3bbf7e5562c3eebb778f61cf312a9f881fb3a21a2b",
    "Rand__hyperpower.trace.jsonl": "59c59189238e8b524b9d0057f6e47d9ed04688b19337262392863f89953b062a",
    "pool__HW-IECI__hyperpower.trace.jsonl": "56082910d16376e21f73d754a3137724380380bf1c897e11d3bb4cf14551360a",
}

pytestmark = pytest.mark.telemetry


@pytest.fixture(scope="module")
def setup():
    return quick_setup(
        "mnist", "gtx1070", power_budget_w=85.0, memory_budget_gb=1.15,
        seed=0, profiling_samples=100,
    )


def _traced_run(setup, solver, variant, **kwargs):
    telemetry = Telemetry()
    result = setup.run(solver, variant, telemetry=telemetry, **kwargs)
    records = normalize_trace(
        [span_to_dict(span) for span in telemetry.tracer.spans]
    )
    return result, telemetry, records


def _write_golden(path, records, meta) -> None:
    lines = [{"format": TRACE_FORMAT, "meta": meta}]
    lines.extend(records)
    lines.append({"end": True, "n_spans": len(records), "dropped": 0})
    path.write_text(
        "".join(json.dumps(line, sort_keys=True) + "\n" for line in lines),
        encoding="utf-8",
    )


def _check_golden(golden_dir, name, records, meta, regen) -> None:
    path = golden_dir / f"{name}.trace.jsonl"
    if regen:
        _write_golden(path, records, meta)
        return
    assert path.exists(), (
        f"missing golden fixture {path.name}; generate it with "
        "pytest --regen-golden"
    )
    golden = load_trace(path)
    assert golden.complete, f"{path.name}: torn golden fixture"
    expected = normalize_trace([span_to_dict(s) for s in golden.spans])
    mismatches = diff_traces(expected, records)
    assert not mismatches, (
        f"trace drift against {path.name} (if the behaviour change is "
        "intentional, regenerate with pytest --regen-golden):\n  "
        + "\n  ".join(mismatches)
    )
    assert golden.meta["metrics"] == meta["metrics"], (
        f"metrics drift against {path.name}: expected "
        f"{golden.meta['metrics']!r}, got {meta['metrics']!r}"
    )


def _cell_id(solver, variant):
    return f"{solver}__{variant}"


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("solver", sorted(SOLVERS))
def test_sequential_cell_matches_golden(
    setup, golden_dir, regen_golden, solver, variant
):
    result, telemetry, records = _traced_run(
        setup, solver, variant, max_evaluations=GOLDEN_BUDGET
    )
    assert result.n_trained == GOLDEN_BUDGET
    meta = {
        "cell": _cell_id(solver, variant),
        "budget": GOLDEN_BUDGET,
        "metrics": telemetry.metrics.snapshot(),
    }
    _check_golden(
        golden_dir, _cell_id(solver, variant), records, meta, regen_golden
    )


def test_pool_trace_matches_golden(setup, golden_dir, regen_golden):
    """The pooled driver's synthesized spans replay the serial golden."""
    result, telemetry, records = _traced_run(
        setup,
        "HW-IECI",
        "hyperpower",
        max_evaluations=POOL_BUDGET,
        backend="serial",
        workers=POOL_WORKERS,
    )
    assert result.n_trained == POOL_BUDGET
    meta = {
        "cell": f"pool__HW-IECI__hyperpower__{POOL_WORKERS}w",
        "budget": POOL_BUDGET,
        "metrics": telemetry.metrics.snapshot(),
    }
    _check_golden(golden_dir, "pool__HW-IECI__hyperpower", records, meta, regen_golden)


def test_async_trace_matches_golden(setup, golden_dir, regen_golden):
    """The event-driven scheduler's schedule/dispatch/complete spans,
    fantasy accounting and occupancy gauge replay the committed golden."""
    result, telemetry, records = _traced_run(
        setup,
        "HW-IECI",
        "hyperpower",
        max_evaluations=POOL_BUDGET,
        backend="serial",
        workers=ASYNC_WORKERS,
        scheduler="async",
    )
    assert result.n_trained == POOL_BUDGET
    meta = {
        "cell": f"async__HW-IECI__hyperpower__{ASYNC_WORKERS}w",
        "budget": POOL_BUDGET,
        "metrics": telemetry.metrics.snapshot(),
    }
    _check_golden(
        golden_dir, "async__HW-IECI__hyperpower", records, meta, regen_golden
    )


def test_rungs_trace_matches_golden(setup, golden_dir, regen_golden):
    """One async SHA rung cell: rung spans with dispatch/pause children,
    promote/cull decision records, rung counters and the occupancy gauge
    replay the committed golden."""
    result, telemetry, records = _traced_run(
        setup,
        "HW-IECI",
        "hyperpower",
        max_evaluations=9,
        backend="serial",
        workers=ASYNC_WORKERS,
        scheduler="async",
        rungs=3,
        eta=3,
    )
    names = {s["name"] for s in records}
    assert {"rung", "dispatch", "pause"} <= names
    assert "promote" in names or "cull" in names
    meta = {
        "cell": f"rungs__HW-IECI__hyperpower__{ASYNC_WORKERS}w",
        "budget": 9,
        "metrics": telemetry.metrics.snapshot(),
    }
    _check_golden(
        golden_dir, "rungs__HW-IECI__hyperpower", records, meta, regen_golden
    )


def test_sync_fixtures_byte_identical(golden_dir, regen_golden):
    """The synchronous goldens predating the async scheduler are pinned
    byte-for-byte: the async path may add fixtures, never reshape them."""
    if regen_golden:
        pytest.skip("regenerating fixtures; byte pins do not apply")
    for name, expected in SYNC_FIXTURE_SHA256.items():
        digest = hashlib.sha256((golden_dir / name).read_bytes()).hexdigest()
        assert digest == expected, (
            f"{name} changed on disk; the asynchronous scheduler must not "
            "perturb synchronous traces (update the pin only alongside an "
            "intentional --regen-golden)"
        )


def test_tracing_leaves_results_byte_identical(setup):
    """The acceptance invariant: tracing must not perturb a run."""
    plain = setup.run(
        "HW-CWEI", "hyperpower", max_evaluations=GOLDEN_BUDGET
    )
    traced, telemetry, _ = _traced_run(
        setup, "HW-CWEI", "hyperpower", max_evaluations=GOLDEN_BUDGET
    )
    assert json.dumps(run_to_dict(plain), sort_keys=True) == json.dumps(
        run_to_dict(traced), sort_keys=True
    )
    assert telemetry.tracer.n_spans > 0
    assert plain.telemetry == {}
    assert traced.telemetry["metrics"]
