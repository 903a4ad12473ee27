"""Chaos equivalence: a fault-injected service ends bit-exact.

The contract under test is PR 3's determinism philosophy lifted to the
storage layer: injected journal faults (fsync failures, full disks, torn
appends, delayed visibility), server kills and client retries must be
*absorbed* — the surviving state is byte-identical to a fault-free serial
twin driven with the same requests and idempotency keys.  Zero-rate
chaos is a strict no-op, and every fault kind has its exact semantics
pinned at the store level.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.faults import StorageChaos, StorageFaultRates
from repro.core.study import TrialReport
from repro.service import StorageError, StudySpec, StudyStore
from repro.space.params import ContinuousParameter, IntegerParameter
from repro.space.space import SearchSpace

pytestmark = [pytest.mark.service, pytest.mark.chaos]

N_STUDIES = 100
OPS_PER_STUDY = 4

#: Uniform per-kind injection rate for the equivalence run: with ~1000
#: journal appends across 100 studies, every fault kind fires many times
#: while retries still converge fast.
CHAOS_RATE = 0.02


def _space() -> SearchSpace:
    return SearchSpace(
        [
            IntegerParameter("units", 0, 64),
            ContinuousParameter("lr", 1e-3, 1.0, log=True),
        ]
    )


def _spec(i: int) -> StudySpec:
    return StudySpec(
        name=f"study-{i:03d}",
        space=_space(),
        solver="Rand" if i % 2 else "Rand-Walk",
        variant="hyperpower" if i % 2 else "default",
        seed=i,
        power_budget_w=80.0 + i % 10,
    )


def _report(study_index: int, ticket: int) -> dict:
    return TrialReport(
        error=round(0.8 - 0.001 * study_index - 0.002 * ticket, 6),
        cost_s=5.0 + (study_index + ticket) % 7,
        epochs_run=3,
        power_w=55.0 + (study_index * 13 + ticket) % 40,
        memory_bytes=4 * 10**8 + study_index,
    ).to_dict()


def _retrying(op, attempts: int = 8):
    """Retry a session op through storage faults, like a real client.

    The HTTP transports retry retryable ``StorageError`` answers inside
    :class:`~repro.service.client.StudyClient` already; the serial
    transport surfaces them raw, so the loop lives here to keep the
    driver transport-independent.
    """
    for attempt in range(attempts):
        try:
            return op()
        except StorageError as exc:
            if not exc.data.get("retryable") or attempt == attempts - 1:
                raise
    raise AssertionError("unreachable")


def _apply(session, pending, index: int, op_index: int) -> None:
    """One keyed request against study ``index`` (suggest or observe)."""
    name = f"study-{index:03d}"
    key = f"{name}:op{op_index}"
    queue = pending[index]
    if queue:
        ticket = queue.pop(0)
        _retrying(
            lambda: session.observe(name, ticket, _report(index, ticket),
                                    key=key)
        )
    else:
        (suggestion,) = _retrying(lambda: session.suggest(name, 1, key=key))
        queue.append(suggestion["ticket"])


def _journal_bytes(session, name: str) -> bytes:
    return (session.root / name / "study.jsonl").read_bytes()


@pytest.mark.parametrize("snapshot_every", [None, 4])
def test_hundred_studies_chaos_equivalence(make_service, chaos_seed,
                                           snapshot_every):
    """100 interleaved studies under storage chaos + kills end bit-exact.

    The chaos session injects every storage fault kind while being
    killed and resumed mid-stream; the twin is a fault-free serial
    session driven with the *same* requests and idempotency keys.  The
    surviving trials, tickets, statuses and journal bytes must match
    exactly — retries never duplicate a ticket or double-observe.  With
    ``snapshot_every`` both sessions compact as they go, so resumes and
    reloads also restore from compacted headers.
    """
    chaotic = make_service(
        "chaotic", chaos_rate=CHAOS_RATE, chaos_seed=chaos_seed,
        snapshot_every=snapshot_every,
    )
    twin = make_service("twin", backend="serial",
                        snapshot_every=snapshot_every)
    for i in range(N_STUDIES):
        spec = _spec(i)
        _retrying(lambda: chaotic.create_study(spec))
        twin.create_study(spec)

    rng = np.random.default_rng(chaos_seed)
    schedule = rng.permutation(np.repeat(np.arange(N_STUDIES), OPS_PER_STUDY))
    kill_points = set(rng.choice(len(schedule), size=3, replace=False))
    op_counter = {i: 0 for i in range(N_STUDIES)}
    pending_chaotic = {i: [] for i in range(N_STUDIES)}
    pending_twin = {i: [] for i in range(N_STUDIES)}

    for step, index in enumerate(schedule):
        index = int(index)
        if step in kill_points:
            chaotic.restart()
        op_index = op_counter[index]
        op_counter[index] += 1
        _apply(chaotic, pending_chaotic, index, op_index)
        _apply(twin, pending_twin, index, op_index)

    assert pending_chaotic == pending_twin
    for i in range(N_STUDIES):
        name = f"study-{i:03d}"
        assert chaotic.trials(name) == twin.trials(name), name
        status = chaotic.status(name)
        assert status == twin.status(name), name
        assert status["n_trained"] >= 1

    # Byte-identical journals: flush everything to disk first.
    chaotic.close()
    twin.close()
    for i in range(N_STUDIES):
        name = f"study-{i:03d}"
        assert _journal_bytes(chaotic, name) == _journal_bytes(twin, name), name


def test_zero_rate_chaos_is_strict_noop(tmp_path):
    """All-zero rates draw nothing and leave journals byte-identical."""
    zero = StorageChaos(rates=StorageFaultRates(), seed=123)
    assert not zero.rates.any_active
    assert all(zero.plan("/x/s/study.jsonl", i) is None for i in range(200))

    def drive(root, chaos):
        store = StudyStore(root, chaos=chaos)
        store.create_study(_spec(0))
        for _ in range(3):
            (s,) = store.suggest("study-000", 1)
            store.observe("study-000", s["ticket"], _report(0, s["ticket"]))
        store.close()
        return (root / "study-000" / "study.jsonl").read_bytes()

    assert drive(tmp_path / "zero", zero) == drive(tmp_path / "none", None)


def test_chaos_stream_is_deterministic(tmp_path, chaos_seed):
    """Same seed, same requests: byte-identical journals and responses."""
    rates = StorageFaultRates(fsync=0.05, enospc=0.05, torn=0.05, delay=0.05)

    def drive(root):
        store = StudyStore(root, chaos=StorageChaos(rates=rates,
                                                    seed=chaos_seed))
        _retrying(lambda: store.create_study(_spec(1)))
        out = []
        for k in range(6):
            out.append(_retrying(
                lambda: store.suggest("study-001", 1, key=f"k{k}")
            ))
        store.close()
        return out, (root / "study-001" / "study.jsonl").read_bytes()

    first, second = drive(tmp_path / "one"), drive(tmp_path / "two")
    assert first[0] == second[0]
    assert first[1] == second[1]


@pytest.mark.parametrize("kind", ["fsync", "enospc", "torn"])
def test_failed_append_is_exactly_once_on_retry(tmp_path, kind):
    """Each failing fault kind poisons, reloads, and retries exactly once.

    The journal and the responses must match a fault-free twin: the
    failed append left no trace, and the retried key re-executed once.
    """

    class OneShot:
        def __init__(self):
            self.fired = False

        def plan(self, path, op_index):
            if op_index == 2 and not self.fired:
                self.fired = True
                return kind
            return None

    store = StudyStore(tmp_path / "faulty", chaos=OneShot())
    store.create_study(_spec(0))
    first = store.suggest("study-000", 1, key="a")
    with pytest.raises(StorageError) as excinfo:
        store.suggest("study-000", 1, key="b")
    assert excinfo.value.data["retryable"] is True
    assert excinfo.value.data["kind"] == kind
    second = store.suggest("study-000", 1, key="b")  # reload + retry
    store.close()

    twin = StudyStore(tmp_path / "twin")
    twin.create_study(_spec(0))
    assert twin.suggest("study-000", 1, key="a") == first
    assert twin.suggest("study-000", 1, key="b") == second
    twin.close()
    assert (
        (tmp_path / "faulty" / "study-000" / "study.jsonl").read_bytes()
        == (tmp_path / "twin" / "study-000" / "study.jsonl").read_bytes()
    )


def test_delayed_visibility_flushes_on_clean_close(tmp_path):
    """A ``delay`` fault acknowledges but defers; clean close loses nothing."""

    class DelayOnce:
        def __init__(self):
            self.fired = False

        def plan(self, path, op_index):
            if op_index == 1 and not self.fired:
                self.fired = True
                return "delay"
            return None

    root = tmp_path / "delayed"
    store = StudyStore(root, chaos=DelayOnce())
    store.create_study(_spec(0))
    first = store.suggest("study-000", 1)  # acknowledged, buffered
    journal = root / "study-000" / "study.jsonl"
    assert len(journal.read_bytes().splitlines()) == 1  # header only
    store.close()  # graceful shutdown flushes the delayed record
    assert len(journal.read_bytes().splitlines()) == 2

    resumed = StudyStore(root)
    assert resumed.status("study-000")["n_issued"] == 1
    # The resumed study continues exactly past the delayed suggest.
    twin = StudyStore(tmp_path / "twin")
    twin.create_study(_spec(0))
    assert twin.suggest("study-000", 1) == first
    assert resumed.suggest("study-000", 1) == twin.suggest("study-000", 1)
    resumed.close()
    twin.close()


def test_delayed_record_lost_on_hard_crash(tmp_path):
    """delay + SIGKILL recovers to the last durable event, no drift."""

    class DelayOnce:
        def __init__(self):
            self.fired = False

        def plan(self, path, op_index):
            if op_index == 2 and not self.fired:
                self.fired = True
                return "delay"
            return None

    root = tmp_path / "crashy"
    store = StudyStore(root, chaos=DelayOnce())
    store.create_study(_spec(0))
    first = store.suggest("study-000", 1)
    second = store.suggest("study-000", 1)  # acked, buffered, never lands
    assert second != first
    managed = store.get("study-000")
    managed._writer.crash()  # hard kill: buffered record vanishes

    resumed = StudyStore(root)
    assert resumed.status("study-000")["n_issued"] == 1
    # The lost suggest re-issues identically: the study replayed to the
    # durable prefix, and the proposal stream is deterministic from there.
    assert resumed.suggest("study-000", 1) == second
    resumed.close()


# -- torn-tail recovery, exhaustively -----------------------------------------------


@pytest.fixture(scope="module")
def pristine_journal(tmp_path_factory):
    """A 3-event study journal's bytes plus its recorded responses."""
    root = tmp_path_factory.mktemp("pristine")
    store = StudyStore(root)
    store.create_study(_spec(2))
    responses = []
    for _ in range(3):
        (s,) = store.suggest("study-002", 1)
        responses.append(s)
    store.close()
    return (root / "study-002" / "study.jsonl").read_bytes(), responses


@settings(max_examples=40, deadline=None)
@given(cut=st.integers(min_value=1, max_value=200))
def test_torn_study_journal_recovers_to_last_durable_event(
    pristine_journal, tmp_path_factory, cut
):
    """Truncating anywhere in the last record recovers the prefix.

    Mirrors the telemetry torn-tail property suite at the study level:
    for every byte offset inside the final journal record,
    ``ManagedStudy.load`` must resume to exactly the events before it
    and re-derive the torn event identically.
    """
    raw, responses = pristine_journal
    lines = raw.splitlines(keepends=True)
    last = lines[-1]
    offset = len(raw) - min(cut % len(last) + 1, len(last))

    root = tmp_path_factory.mktemp("torn")
    (root / "study-002").mkdir()
    journal = root / "study-002" / "study.jsonl"
    journal.write_bytes(raw[:offset])

    store = StudyStore(root)
    status = store.status("study-002")
    assert status["n_issued"] == len(lines) - 2  # events minus the torn one
    # The torn event re-issues bit-exactly on the next request.
    (again,) = store.suggest("study-002", 1)
    assert again == responses[-1]
    store.close()
