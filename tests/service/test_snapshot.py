"""Snapshot compaction: crash-safe, bit-exact, and O(events-since-snap).

``ManagedStudy.snapshot`` replaces the study's journal with one header
line carrying the study's JSON state (temp file, fsync, atomic rename,
directory fsync).  The contract under test: a snapshot-resumed study is
*bit-exact* against full journal replay in every served cell (same
status, trials, future suggestions and journal bytes going forward); a
crash before the rename leaves the old journal, whatever the state of
the temp file; a damaged compacted header is a loud error that leaves
the file alone; and nothing on the load path unpickles anything — the
``study.snap`` layout of older releases is refused, not read.
"""

from __future__ import annotations

import json
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.spec import StreamVersionError
from repro.core.study import TrialReport
from repro.service import ManagedStudy, StorageError, StudySpec, StudyStore
from repro.space.params import ContinuousParameter, IntegerParameter
from repro.space.space import SearchSpace

pytestmark = pytest.mark.service

#: Every served cell: the four solvers under both variants, plus the two
#: Bayesian cells whose surrogate state goes beyond a refit-every-round
#: exact GP (a warm-started ``auto`` tier switching from exact to RFF at
#: 9 observations, and a Nystrom tier refit every second observation).
CELLS = [
    (solver, variant, {})
    for solver in ("Rand", "Rand-Walk", "HW-CWEI", "HW-IECI")
    for variant in ("default", "hyperpower")
] + [
    ("HW-IECI", "default", {
        "surrogate": "auto", "surrogate_switch_at": 9,
        "surrogate_features": 16, "gp_warm_start": True,
        "gp_refit_every": 3,
    }),
    ("HW-CWEI", "hyperpower", {
        "surrogate": "nystrom", "surrogate_features": 8,
        "gp_refit_every": 2,
    }),
]


def _cell_id(cell) -> str:
    solver, variant, options = cell
    return "-".join(filter(None, (solver, variant, options.get("surrogate"))))


def _space() -> SearchSpace:
    return SearchSpace(
        [
            IntegerParameter("units", 0, 64),
            ContinuousParameter("lr", 1e-3, 1.0, log=True),
        ]
    )


def _spec(name: str, solver: str = "Rand-Walk", variant: str = "default",
          options: dict | None = None) -> StudySpec:
    # Rand-Walk proposals depend on the full observation history, so any
    # state divergence after resume shows up in the next suggestion.  The
    # budgets sit inside the reported ranges, so the default variants'
    # learned constraint GPs fit both sides of each budget.
    return StudySpec(
        name=name, space=_space(), solver=solver, variant=variant, seed=11,
        power_budget_w=62.0, memory_budget_bytes=2.05e8,
        method_options=options or {},
    )


def _report(ticket: int) -> dict:
    return TrialReport(
        error=0.6 - 0.003 * ticket + 0.01 * (ticket % 3),
        cost_s=3.0 + ticket % 5,
        epochs_run=2,
        power_w=50.0 + ticket % 20,
        memory_bytes=2e8 + 1e6 * (ticket % 7),
    ).to_dict()


def _drive(store: StudyStore, name: str, rounds: int) -> None:
    for _ in range(rounds):
        (s,) = store.suggest(name, 1)
        store.observe(name, s["ticket"], _report(s["ticket"]))


def _journal_lines(root, name: str) -> list[bytes]:
    return (root / name / "study.jsonl").read_bytes().splitlines()


def _refuse(*args, **kwargs):
    raise AssertionError("the load path unpickled something")


def _surrogate(store: StudyStore, name: str):
    """The Bayesian optimizer's surrogate as exact floats: its
    hyper-parameters and posterior on a fixed grid (None without one)."""
    gp = getattr(store.get(name).study.method, "_gp", None)
    if gp is None:
        return None
    mean, var = gp.predict(np.linspace(0.0, 1.0, 16).reshape(8, 2))
    return [gp.kernel.variance, gp.kernel.lengthscales.tolist(),
            gp.noise_variance, mean.tolist(), var.tolist()]


@pytest.mark.parametrize("cell", CELLS, ids=_cell_id)
def test_snapshot_resume_is_bit_exact_vs_full_replay(tmp_path, monkeypatch,
                                                     cell):
    """Same history, one compacted, one replayed: identical futures.

    The first compaction point has a suggestion pending; the restored
    study observes it and suggests again, journaling the same bytes as
    the replayed one.  Both then agree on status, trials, surrogate and
    the next three suggestions, with the compacted study compacted and
    reloaded after each — every reload a restore point, at both refits
    and appends of the refit schedule.
    """
    solver, variant, options = cell
    spec = _spec("study-A", solver, variant, options)
    snap_root, replay_root = tmp_path / "snap", tmp_path / "replay"
    for root in (snap_root, replay_root):
        store = StudyStore(root)
        store.create_study(spec)
        _drive(store, "study-A", 11)
        (pending,) = store.suggest("study-A", 1)
        store.close()

    compactor = StudyStore(snap_root)
    assert compactor.get("study-A").snapshot() == 23  # 11 pairs + 1 suggest
    compactor.close()
    assert [p.name for p in (snap_root / "study-A").iterdir()] == ["study.jsonl"]

    monkeypatch.setattr(pickle, "loads", _refuse)
    monkeypatch.setattr(pickle, "load", _refuse)
    for root in (snap_root, replay_root):
        store = StudyStore(root)
        store.observe("study-A", pending["ticket"], _report(pending["ticket"]))
        store.suggest("study-A", 1)
        store.close()
    # The two post-compaction events journal exactly what replay journals.
    assert (
        _journal_lines(snap_root, "study-A")[1:]
        == _journal_lines(replay_root, "study-A")[-2:]
    )

    resumed, replayed = StudyStore(snap_root), StudyStore(replay_root)
    assert resumed.status("study-A") == replayed.status("study-A")
    assert resumed.trials("study-A") == replayed.trials("study-A")
    assert _surrogate(resumed, "study-A") == _surrogate(replayed, "study-A")
    # The future proposal stream is identical: the restore lost no
    # surrogate or RNG state that replay would have rebuilt.
    for _ in range(3):
        (suggestion,) = resumed.suggest("study-A", 1)
        assert [suggestion] == replayed.suggest("study-A", 1)
        report = _report(suggestion["ticket"])
        for store in (resumed, replayed):
            store.observe("study-A", suggestion["ticket"], report)
        resumed.get("study-A").snapshot()
        resumed.close()
        resumed = StudyStore(snap_root)
        assert _surrogate(resumed, "study-A") == _surrogate(replayed, "study-A")
    assert resumed.status("study-A") == replayed.status("study-A")
    assert resumed.trials("study-A") == replayed.trials("study-A")
    resumed.close()
    replayed.close()


def test_snapshot_compacts_journal_to_header(tmp_path):
    """After snapshot the journal is one header line carrying the state."""
    store = StudyStore(tmp_path / "s")
    store.create_study(_spec("study-B"))
    _drive(store, "study-B", 5)
    managed = store.get("study-B")
    assert len(_journal_lines(tmp_path / "s", "study-B")) == 11
    assert managed.snapshot() == 10
    lines = _journal_lines(tmp_path / "s", "study-B")
    assert len(lines) == 1  # header only
    header = json.loads(lines[0])
    assert header["format"] == "repro-study/1"
    assert header["stream_version"] == 1
    assert header["meta"]["spec"] == _spec("study-B").to_dict()
    assert header["state"]["event"] == 10
    assert len(header["state"]["study"]["trials"]) == 5
    assert [p.name for p in (tmp_path / "s" / "study-B").iterdir()] == [
        "study.jsonl"
    ]
    # Event numbering continues across the compaction point.
    store.suggest("study-B", 1)
    lines = _journal_lines(tmp_path / "s", "study-B")
    assert json.loads(lines[1])["event"] == 10
    store.close()


def test_auto_snapshot_every(tmp_path):
    """``snapshot_every`` compacts automatically as events accumulate."""
    store = StudyStore(tmp_path / "auto", snapshot_every=4)
    store.create_study(_spec("study-C"))
    _drive(store, "study-C", 6)  # 12 events -> 3 auto-snapshots
    assert "state" in json.loads(_journal_lines(tmp_path / "auto", "study-C")[0])
    # The journal never accumulates more than snapshot_every events.
    assert len(_journal_lines(tmp_path / "auto", "study-C")) <= 1 + 4
    store.close()

    # And the compacted store still resumes bit-exactly.
    resumed = StudyStore(tmp_path / "auto")
    twin = StudyStore(tmp_path / "twin")
    twin.create_study(_spec("study-C"))
    _drive(twin, "study-C", 6)
    assert resumed.status("study-C") == twin.status("study-C")
    assert resumed.suggest("study-C", 1) == twin.suggest("study-C", 1)
    resumed.close()
    twin.close()


def test_corrupt_snapshot_with_full_journal_falls_back_to_replay(tmp_path):
    """A stale ``study.snap`` of an older release beside a full journal is
    ignored: the journal alone holds the study, and it replays."""
    root = tmp_path / "fallback"
    store = StudyStore(root)
    store.create_study(_spec("study-E"))
    _drive(store, "study-E", 4)
    store.close()
    (root / "study-E" / "study.snap").write_bytes(
        b'{"format": "repro-study-snap/1", "event": 8}\n\x80\x04garbage'
    )

    resumed = StudyStore(root)
    assert resumed.status("study-E")["n_trained"] == 4
    resumed.close()


def _damage_bytes(header: bytes) -> bytes:
    return header[:40] + b"\x00" + header[41:]


def _damage_state(header: bytes) -> bytes:
    record = json.loads(header)
    del record["state"]["study"]["rng"]
    return json.dumps(record).encode("utf-8")


def test_corrupt_snapshot_with_compacted_journal_is_a_clear_error(tmp_path):
    """Once compacted, the header is load-bearing: damage to its bytes or
    to the state it carries is loud, and the file is left as it was."""
    root = tmp_path / "loud"
    store = StudyStore(root)
    store.create_study(_spec("study-F"))
    _drive(store, "study-F", 4)
    store.get("study-F").snapshot()
    _drive(store, "study-F", 1)  # post-compaction events in the journal
    store.close()
    journal = root / "study-F" / "study.jsonl"
    header, rest = journal.read_bytes().split(b"\n", 1)
    for damage, match in ((_damage_bytes, "no intact journal header"),
                          (_damage_state, "damaged")):
        journal.write_bytes(damage(header) + b"\n" + rest)
        before = journal.read_bytes()
        resumed = StudyStore(root)
        with pytest.raises(ValueError, match=match):
            resumed.status("study-F")
        resumed.close()
        assert journal.read_bytes() == before


def test_older_release_snapshot_layout_is_refused(tmp_path, monkeypatch):
    """A journal an older release compacted into ``study.snap`` — with
    events after the compaction point or none — is refused with a
    non-retryable StorageError naming that file and its format; the
    snapshot is never unpickled and nothing is rewritten."""
    monkeypatch.setattr(pickle, "loads", _refuse)
    monkeypatch.setattr(pickle, "load", _refuse)
    header = {"format": "repro-study/1",
              "meta": {"spec": _spec("study-O").to_dict()}}
    event = {"event": 8, "op": "suggest", "tickets": [4],
             "configs": [{"units": 3, "lr": 0.5}]}
    payload = pickle.dumps({"study": None, "dedupe": []}, protocol=4)
    snap = json.dumps({"format": "repro-study-snap/1", "event": 8,
                       "payload_bytes": len(payload), "crc32": 0})
    for lines in ([header, event], [header]):
        root = tmp_path / f"old-{len(lines)}"
        directory = root / "study-O"
        directory.mkdir(parents=True)
        journal = directory / "study.jsonl"
        journal.write_bytes(
            "".join(json.dumps(line) + "\n" for line in lines).encode("utf-8")
        )
        (directory / "study.snap").write_bytes(
            snap.encode("utf-8") + b"\n" + payload
        )
        before = journal.read_bytes()

        store = StudyStore(root)
        with pytest.raises(StorageError) as excinfo:
            store.status("study-O")
        store.close()
        assert "study.snap" in str(excinfo.value)
        assert "repro-study-snap/1" in str(excinfo.value)
        assert excinfo.value.data["retryable"] is False
        assert journal.read_bytes() == before


@pytest.mark.parametrize("compacted", [False, True])
def test_study_of_another_stream_version_is_refused(tmp_path, compacted):
    """A study header edited to stream version 2 is refused at load with
    the typed error naming both versions."""
    root = tmp_path / "versioned"
    store = StudyStore(root)
    store.create_study(_spec("study-V"))
    _drive(store, "study-V", 3)
    if compacted:
        store.get("study-V").snapshot()
    store.close()
    journal = root / "study-V" / "study.jsonl"
    header, rest = journal.read_bytes().split(b"\n", 1)
    record = json.loads(header)
    assert record["stream_version"] == 1
    record["stream_version"] = 2
    journal.write_bytes(json.dumps(record).encode("utf-8") + b"\n" + rest)

    store = StudyStore(root)
    with pytest.raises(StreamVersionError, match="version 2.*version 1"):
        store.status("study-V")
    store.close()


def test_snapshot_on_poisoned_study_is_typed(tmp_path):
    """Snapshotting a poisoned study answers a retryable StorageError."""

    class FailOnce:
        def __init__(self):
            self.fired = False

        def plan(self, path, op_index):
            if op_index == 2 and not self.fired:
                self.fired = True
                return "enospc"
            return None

    managed = ManagedStudy.create(
        _spec("study-G"), tmp_path / "study-G", chaos=FailOnce()
    )
    managed.suggest(1)
    with pytest.raises(StorageError):
        managed.suggest(1)
    assert managed.poisoned
    with pytest.raises(StorageError) as excinfo:
        managed.snapshot()
    assert excinfo.value.data["retryable"] is True


# -- crashes mid-compaction, exhaustively -------------------------------------------


@pytest.fixture(scope="module")
def compacted_study(tmp_path_factory):
    """A study's full journal, its compacted journal, and its next
    suggestion: what a crash before the compaction's rename leaves is the
    full journal plus some prefix of the compacted one in the temp file."""
    root = tmp_path_factory.mktemp("pristine")
    store = StudyStore(root)
    store.create_study(_spec("study-H"))
    _drive(store, "study-H", 4)
    store.suggest("study-H", 1)  # pending at the compaction point
    journal = root / "study-H" / "study.jsonl"
    full = journal.read_bytes()
    store.get("study-H").snapshot()
    compacted = journal.read_bytes()
    next_suggestions = store.suggest("study-H", 1)
    store.close()
    return full, compacted, next_suggestions


def _load_beside_tmp(root, full: bytes, tmp: bytes) -> StudyStore:
    directory = root / "study-H"
    directory.mkdir()
    (directory / "study.jsonl").write_bytes(full)
    (directory / "study.jsonl.tmp").write_bytes(tmp)
    return StudyStore(root)


@settings(max_examples=40, deadline=None)
@given(cut=st.integers(min_value=0, max_value=10_000))
def test_torn_snapshot_always_recovers(compacted_study, tmp_path_factory, cut):
    """A compaction temp file cut at any byte beside the intact old
    journal never loses the study: the journal replays to the same state."""
    full, compacted, next_suggestions = compacted_study
    root = tmp_path_factory.mktemp("torn")
    store = _load_beside_tmp(root, full, compacted[: cut % len(compacted)])
    assert store.status("study-H")["n_trained"] == 4
    assert store.suggest("study-H", 1) == next_suggestions
    store.close()


def test_untorn_snapshot_in_crash_window_matches_replay(
    compacted_study, tmp_path_factory
):
    """A crash between the temp file's fsync and the rename leaves the
    whole compacted header in the temp file: the old journal still rules,
    and the study lands on the identical state."""
    full, compacted, next_suggestions = compacted_study
    store = _load_beside_tmp(tmp_path_factory.mktemp("intact"), full, compacted)
    assert store.suggest("study-H", 1) == next_suggestions
    store.close()


def test_compacted_journal_restores_like_its_crash_window_twin(
    compacted_study, tmp_path
):
    """The compacted journal alone (the rename landed) resumes to the
    same next suggestion as the full journal replayed."""
    _, compacted, next_suggestions = compacted_study
    directory = tmp_path / "study-H"
    directory.mkdir()
    (directory / "study.jsonl").write_bytes(compacted)
    store = StudyStore(tmp_path)
    assert store.suggest("study-H", 1) == next_suggestions
    store.close()
