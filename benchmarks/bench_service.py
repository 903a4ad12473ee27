"""Benchmark: multi-tenant study-service throughput and recovery.

Acceptance gates: one :class:`~repro.service.StudyStore` holding 100
concurrent studies must sustain **>= 1000 suggest/observe ops/s** with
per-event fsync durability on, and a kill at a request boundary must
resume every one of the 100 studies bit-exactly.  Snapshot compaction
must make recovery of a 10k-event study **>= 5x faster** than full
journal replay while staying bit-exact (same status, trials and future
proposal stream).

The op stream interleaves the studies in a seeded random order — each op
is one service request (a suggest, or the observe resolving the study's
oldest pending ticket), the same shape the HTTP front end serves.  The
throughput phase uses the model-free solvers (Rand/Rand-Walk): they make
the journal + store machinery the bottleneck being measured, not GP
algebra.  Results land in ``benchmarks/out/BENCH_service.json``
(uploaded as a CI artifact).
"""

from __future__ import annotations

import json
import shutil
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.core.study import TrialReport
from repro.service import StudySpec, StudyStore
from repro.space.params import ContinuousParameter, IntegerParameter
from repro.space.space import SearchSpace

from _shared import write_artifact

N_STUDIES = 100
PAIRS_PER_STUDY = 10  # suggest+observe pairs, so 20 ops per study
MIN_OPS_PER_S = 1000.0

RECOVERY_EVENTS = 10_000  # journal events in the snapshot-recovery gate
MIN_RECOVERY_SPEEDUP = 5.0


def _space() -> SearchSpace:
    return SearchSpace(
        [
            IntegerParameter("units", 0, 512),
            ContinuousParameter("lr", 1e-4, 1.0, log=True),
        ]
    )


def _spec(i: int) -> StudySpec:
    return StudySpec(
        name=f"bench-{i:03d}",
        space=_space(),
        solver="Rand" if i % 2 == 0 else "Rand-Walk",
        seed=i,
    )


def _report(study_index: int, ticket: int) -> dict:
    return TrialReport(
        error=round(0.7 - 0.0005 * ticket - 0.001 * study_index, 6),
        cost_s=8.0,
        epochs_run=3,
        power_w=50.0 + (study_index + ticket) % 45,
    ).to_dict()


def test_service_throughput_and_kill_resume():
    root = Path(tempfile.mkdtemp(prefix="bench-service-"))
    results: dict = {
        "n_studies": N_STUDIES,
        "pairs_per_study": PAIRS_PER_STUDY,
        "fsync": True,
        "min_ops_per_s": MIN_OPS_PER_S,
    }
    try:
        store = StudyStore(root, fsync=True)
        for i in range(N_STUDIES):
            store.create_study(_spec(i))

        rng = np.random.default_rng(0)
        schedule = rng.permutation(
            np.repeat(np.arange(N_STUDIES), 2 * PAIRS_PER_STUDY)
        )
        pending: dict[int, list[int]] = {i: [] for i in range(N_STUDIES)}

        t0 = time.perf_counter()
        for index in schedule:
            index = int(index)
            name = f"bench-{index:03d}"
            queue = pending[index]
            if queue:
                ticket = queue.pop(0)
                store.observe(name, ticket, _report(index, ticket))
            else:
                (suggestion,) = store.suggest(name, 1)
                queue.append(suggestion["ticket"])
        elapsed = time.perf_counter() - t0

        n_ops = len(schedule)
        ops_per_s = n_ops / elapsed
        results["n_ops"] = int(n_ops)
        results["elapsed_s"] = round(elapsed, 4)
        results["ops_per_s"] = round(ops_per_s, 1)

        reference = {
            f"bench-{i:03d}": store.trials(f"bench-{i:03d}")
            for i in range(N_STUDIES)
        }
        # Kill at a request boundary (close without any special shutdown
        # path — the journal is already durable line by line) and resume.
        store.close()
        t0 = time.perf_counter()
        resumed = StudyStore(root, fsync=True)
        drift = [
            name
            for name, trials in reference.items()
            if resumed.trials(name) != trials
        ]
        results["resume_s"] = round(time.perf_counter() - t0, 4)
        results["resume_drift"] = drift
        resumed.close()

        _merge_artifact(results)
        assert not drift, f"kill-and-resume drifted in {len(drift)} studies"
        assert ops_per_s >= MIN_OPS_PER_S, (
            f"sustained only {ops_per_s:.0f} suggest/observe ops/s "
            f"(gate: {MIN_OPS_PER_S:.0f})"
        )
    finally:
        shutil.rmtree(root, ignore_errors=True)


def test_snapshot_recovery_speedup():
    """Snapshot resume of a 10k-event study: bit-exact and >= 5x faster.

    One study accumulates ``RECOVERY_EVENTS`` journal events; the
    directory is cloned, one copy compacted via ``snapshot()``.  Resuming
    the compacted copy must be at least ``MIN_RECOVERY_SPEEDUP``x faster
    than full replay of the clone — and land on the identical state
    (status, trials, and the next proposals, compared bit-for-bit).
    """
    root = Path(tempfile.mkdtemp(prefix="bench-recovery-"))
    replay_root = Path(tempfile.mkdtemp(prefix="bench-recovery-replay-"))
    results: dict = {
        "n_events": RECOVERY_EVENTS,
        "min_speedup": MIN_RECOVERY_SPEEDUP,
    }
    try:
        store = StudyStore(root, fsync=True)
        store.create_study(_spec(0))
        for _ in range(RECOVERY_EVENTS // 2):
            (suggestion,) = store.suggest("bench-000", 1)
            store.observe(
                "bench-000", suggestion["ticket"],
                _report(0, suggestion["ticket"]),
            )
        store.close()

        # Clone the journal before compaction: the replay twin.
        shutil.rmtree(replay_root, ignore_errors=True)
        shutil.copytree(root, replay_root)

        compactor = StudyStore(root, fsync=True)
        compactor.get("bench-000").snapshot()
        compactor.close()

        t0 = time.perf_counter()
        replayed = StudyStore(replay_root, fsync=True)
        replayed.get("bench-000")  # forces the full-journal replay
        replay_s = time.perf_counter() - t0

        t0 = time.perf_counter()
        snapped = StudyStore(root, fsync=True)
        snapped.get("bench-000")  # restores from the compacted header
        snapshot_s = time.perf_counter() - t0

        speedup = replay_s / snapshot_s if snapshot_s > 0 else float("inf")
        results["replay_resume_s"] = round(replay_s, 4)
        results["snapshot_resume_s"] = round(snapshot_s, 4)
        results["speedup"] = round(speedup, 1)

        identical = (
            snapped.status("bench-000") == replayed.status("bench-000")
            and snapped.trials("bench-000") == replayed.trials("bench-000")
            and snapped.suggest("bench-000", 2)
            == replayed.suggest("bench-000", 2)
        )
        results["bit_exact"] = identical
        snapped.close()
        replayed.close()

        _merge_artifact({"recovery": results})
        assert identical, "snapshot resume diverged from full replay"
        assert speedup >= MIN_RECOVERY_SPEEDUP, (
            f"snapshot resume only {speedup:.1f}x faster than replay "
            f"(gate: {MIN_RECOVERY_SPEEDUP:.0f}x; replay {replay_s:.3f}s, "
            f"snapshot {snapshot_s:.3f}s)"
        )
    finally:
        shutil.rmtree(root, ignore_errors=True)
        shutil.rmtree(replay_root, ignore_errors=True)


def _merge_artifact(update: dict) -> None:
    """Fold one bench's results into the shared BENCH_service.json."""
    out = Path(__file__).resolve().parent / "out" / "BENCH_service.json"
    merged: dict = {}
    if out.exists():
        try:
            merged = json.loads(out.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            merged = {}
    merged.update(update)
    write_artifact("BENCH_service.json", json.dumps(merged, indent=2) + "\n")


if __name__ == "__main__":
    test_service_throughput_and_kill_resume()
    test_snapshot_recovery_speedup()
    print(
        (Path(__file__).resolve().parent / "out" / "BENCH_service.json")
        .read_text()
    )
