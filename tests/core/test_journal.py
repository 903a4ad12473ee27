"""Crash-safe run journaling and bit-identical resume.

The contract under test: every completed round is durably journaled; a
journal with a torn tail (the crash landed mid-write) recovers cleanly;
and resuming an interrupted run replays the journal and continues
byte-identically — same trials, same clock, same RNG state — as the run
that was never killed.  The eight solver/variant cells all honour it.
"""

import json
import os
import shutil
from pathlib import Path

import pytest

from repro.core.faults import FaultRates, RetryPolicy
from repro.core.hyperpower import SOLVERS, VARIANTS
from repro.core.spec import StreamVersionError
from repro.experiments.setup import quick_setup
from repro.io import JOURNAL_FORMAT, JournalReplay, RunJournal, run_to_dict
from repro.telemetry import Telemetry

N_ITERATIONS = 10


@pytest.fixture(scope="module")
def setup():
    return quick_setup(
        "mnist", "gtx1070", power_budget_w=85.0, memory_budget_gb=1.15,
        seed=0, profiling_samples=100,
    )


def _truncate_rounds(path: Path, out: Path, keep_rounds: int) -> None:
    """Copy a journal keeping the header and the first ``keep_rounds``
    rounds, ending with a torn line — a simulated mid-write crash."""
    lines = path.read_bytes().split(b"\n")
    out.write_bytes(
        b"\n".join(lines[: 1 + keep_rounds]) + b"\n" + b'{"round": 99, "tor'
    )


# -- the journal file itself -------------------------------------------------------


class TestRunJournal:
    def test_header_and_round_lines(self, setup, tmp_path):
        path = tmp_path / "run.jsonl"
        result = setup.run(
            "Rand", "hyperpower", run_seed=1, max_evaluations=6,
            backend="serial", workers=2, journal=path,
        )
        lines = [
            json.loads(line)
            for line in path.read_text().splitlines()
            if line.strip()
        ]
        assert lines[0]["format"] == JOURNAL_FORMAT
        assert lines[0]["meta"]["solver"] == "Rand"
        rounds = [r for r in lines[1:] if "round" in r]
        assert [r["round"] for r in rounds] == list(range(len(rounds)))
        # Every queried trial of the run is journaled, in order.
        journaled = [t for r in rounds for t in r["trials"]]
        assert len(journaled) == result.n_samples
        assert [t["index"] for t in journaled] == list(
            range(result.n_samples)
        )
        assert lines[-1]["end"] is True
        assert lines[-1]["n_samples"] == result.n_samples

    def test_load_rejects_non_journal(self, tmp_path):
        path = tmp_path / "x.jsonl"
        path.write_text('{"format": "something-else"}\n')
        with pytest.raises(ValueError, match="not a repro journal"):
            JournalReplay.load(path)

    def test_corrupt_tail_is_dropped(self, setup, tmp_path):
        path = tmp_path / "run.jsonl"
        setup.run(
            "Rand", "hyperpower", run_seed=1, max_evaluations=6,
            backend="serial", workers=2, journal=path,
        )
        full = JournalReplay.load(path)
        torn = tmp_path / "torn.jsonl"
        _truncate_rounds(path, torn, keep_rounds=2)
        recovered = JournalReplay.load(torn)
        assert recovered.n_rounds == 2
        assert not recovered.finished
        assert recovered.meta == full.meta

    def test_reopen_truncates_and_appends(self, setup, tmp_path):
        path = tmp_path / "run.jsonl"
        setup.run(
            "Rand", "hyperpower", run_seed=1, max_evaluations=6,
            backend="serial", workers=2, journal=path,
        )
        torn = tmp_path / "torn.jsonl"
        _truncate_rounds(path, torn, keep_rounds=2)
        journal = RunJournal.reopen(torn)
        assert journal.recorded.n_rounds == 2
        journal.close()
        # The torn line is gone; the valid prefix parses round-trip.
        recovered = JournalReplay.load(torn)
        assert recovered.n_rounds == 2

    def test_closed_journal_refuses_writes(self, tmp_path):
        journal = RunJournal(tmp_path / "j.jsonl", meta={})
        journal.close()
        with pytest.raises(ValueError, match="closed"):
            journal.append_round([], None)


# -- resume ------------------------------------------------------------------------


class TestResume:
    def _full_then_resumed(
        self, setup, tmp_path, keep_rounds, **run_kwargs
    ):
        path = tmp_path / "full.jsonl"
        full = setup.run(journal=path, **run_kwargs)
        torn = tmp_path / "torn.jsonl"
        _truncate_rounds(path, torn, keep_rounds=keep_rounds)
        resumed = setup.run(resume_from=torn, **run_kwargs)
        return full, resumed, torn

    def test_resume_is_byte_identical_with_faults(self, setup, tmp_path):
        full, resumed, torn = self._full_then_resumed(
            setup, tmp_path, keep_rounds=3,
            solver="Rand", variant="hyperpower", run_seed=2,
            max_evaluations=N_ITERATIONS, backend="serial", workers=2,
            faults=FaultRates(crash=0.3, nvml=0.2), fault_seed=11,
            retry=RetryPolicy(max_attempts=2),
        )
        assert json.dumps(run_to_dict(full), sort_keys=True) == json.dumps(
            run_to_dict(resumed), sort_keys=True
        )
        # The resumed journal was completed in place, torn tail and all.
        completed = JournalReplay.load(torn)
        assert completed.finished
        assert completed.n_rounds >= 3

    def test_resume_of_finished_journal_replays_to_same_result(
        self, setup, tmp_path
    ):
        path = tmp_path / "full.jsonl"
        kwargs = dict(
            solver="Rand", variant="hyperpower", run_seed=2,
            max_evaluations=6, backend="serial", workers=2,
        )
        full = setup.run(journal=path, **kwargs)
        resumed = setup.run(resume_from=path, **kwargs)
        assert json.dumps(run_to_dict(full), sort_keys=True) == json.dumps(
            run_to_dict(resumed), sort_keys=True
        )

    def test_sequential_path_resume_reexecutes_identically(
        self, setup, tmp_path
    ):
        # pool=None: the journal verifies deterministic re-execution.
        full, resumed, _ = self._full_then_resumed(
            setup, tmp_path, keep_rounds=3,
            solver="Rand", variant="hyperpower", run_seed=2,
            max_evaluations=6,
        )
        assert json.dumps(run_to_dict(full), sort_keys=True) == json.dumps(
            run_to_dict(resumed), sort_keys=True
        )

    def test_resume_to_fresh_journal_records_all_rounds(
        self, setup, tmp_path
    ):
        path = tmp_path / "full.jsonl"
        kwargs = dict(
            solver="Rand", variant="hyperpower", run_seed=2,
            max_evaluations=6, backend="serial", workers=2,
        )
        setup.run(journal=path, **kwargs)
        torn = tmp_path / "torn.jsonl"
        _truncate_rounds(path, torn, keep_rounds=2)
        fresh = tmp_path / "fresh.jsonl"
        setup.run(resume_from=torn, journal=fresh, **kwargs)
        # The fresh journal holds the whole run, replayed rounds included.
        assert (
            JournalReplay.load(fresh).n_rounds
            == JournalReplay.load(path).n_rounds
        )
        # The torn source was left untouched.
        assert JournalReplay.load(torn).n_rounds == 2

    def test_resume_under_different_parameters_is_rejected(
        self, setup, tmp_path
    ):
        path = tmp_path / "full.jsonl"
        setup.run(
            "Rand", "hyperpower", run_seed=2, max_evaluations=6,
            backend="serial", workers=2, journal=path,
        )
        with pytest.raises(ValueError, match="different run parameters"):
            setup.run(
                "Rand", "hyperpower", run_seed=2, max_evaluations=8,
                backend="serial", workers=2, resume_from=path,
            )
        with pytest.raises(ValueError, match="different run parameters"):
            setup.run(
                "Rand-Walk", "hyperpower", run_seed=2, max_evaluations=6,
                backend="serial", workers=2, resume_from=path,
            )

    def test_resume_of_a_removed_backend_is_rejected(self, setup, tmp_path):
        # Journals written by the removed thread and process pools name
        # their backend in the header; they are refused, not re-run
        # under another one.
        path = tmp_path / "thread.jsonl"
        setup.run(
            "Rand", "hyperpower", run_seed=2, max_evaluations=4,
            backend="serial", workers=2, journal=path,
        )
        header, _, rest = path.read_text().partition("\n")
        meta = json.loads(header)
        assert meta["meta"]["backend"] == "serial"
        meta["meta"]["backend"] = "thread"
        path.write_text(json.dumps(meta) + "\n" + rest)
        with pytest.raises(ValueError, match="different run parameters"):
            setup.run(
                "Rand", "hyperpower", run_seed=2, max_evaluations=4,
                backend="serial", workers=2, resume_from=path,
            )


@pytest.mark.faults
@pytest.mark.parametrize("scheduler", ["sync", "async"])
def test_resumed_run_reports_the_same_metrics(setup, tmp_path, scheduler):
    """A resumed run's metrics snapshot equals an uninterrupted run's:
    journaled results charge their dispatches, dispatch waves and backoff
    waits exactly as the live evaluations did."""
    kwargs = dict(
        run_seed=2, max_evaluations=N_ITERATIONS, backend="serial",
        workers=2, scheduler=scheduler,
        faults=FaultRates(crash=0.3, nvml=0.2), fault_seed=11,
    )
    path = tmp_path / "full.jsonl"
    full_telemetry = Telemetry()
    full = setup.run(
        "Rand", "hyperpower", journal=path, telemetry=full_telemetry,
        **kwargs,
    )
    torn = tmp_path / "torn.jsonl"
    n_rounds = JournalReplay.load(path).n_rounds
    _truncate_rounds(path, torn, keep_rounds=n_rounds // 2)
    resumed_telemetry = Telemetry()
    resumed = setup.run(
        "Rand", "hyperpower", resume_from=torn, telemetry=resumed_telemetry,
        **kwargs,
    )
    assert run_to_dict(resumed) == run_to_dict(full)
    full_metrics = full_telemetry.metrics.snapshot()
    assert full_metrics["pool.retry_wait_s"]["value"] > 0
    assert resumed_telemetry.metrics.snapshot() == full_metrics


@pytest.mark.slow
@pytest.mark.faults
@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("solver", sorted(SOLVERS))
def test_kill_and_resume_all_cells(setup, tmp_path, solver, variant):
    """ISSUE acceptance: killing a run mid-journal and resuming produces a
    byte-identical ``run_to_dict`` in all eight solver/variant cells.

    When ``FAULTS_ARTIFACT_DIR`` is set (the CI faults job), the torn and
    completed journals are copied there for artifact upload.
    """
    kwargs = dict(
        run_seed=7, max_evaluations=N_ITERATIONS,
        backend="serial", workers=2,
    )
    path = tmp_path / "full.jsonl"
    full = setup.run(solver, variant, journal=path, **kwargs)
    torn = tmp_path / "torn.jsonl"
    n_rounds = JournalReplay.load(path).n_rounds
    _truncate_rounds(path, torn, keep_rounds=max(1, n_rounds // 2))
    resumed = setup.run(solver, variant, resume_from=torn, **kwargs)
    assert json.dumps(run_to_dict(full), sort_keys=True) == json.dumps(
        run_to_dict(resumed), sort_keys=True
    )
    artifact_dir = os.environ.get("FAULTS_ARTIFACT_DIR")
    if artifact_dir:
        dest = Path(artifact_dir)
        dest.mkdir(parents=True, exist_ok=True)
        cell = f"{solver}-{variant}".replace("/", "-")
        shutil.copy(path, dest / f"{cell}-full.jsonl")
        shutil.copy(torn, dest / f"{cell}-resumed.jsonl")


#: Torn journals committed under ``tests/core/data``, written by the
#: release that still ran the asynchronous and rung drivers as two
#: separate event loops: a 4-worker async run cut after 4 completion
#: rounds and a rung run cut after 10, both with trials still in flight
#: (and, for the rung run, paused at a rung).  Each entry is the fixture
#: file and the exact run parameters that wrote it.
LEGACY_JOURNALS = {
    "async_4w": (
        "journal_async_4w.jsonl",
        dict(
            backend="serial", workers=4, max_evaluations=8,
            scheduler="async",
            faults=FaultRates(crash=0.15, nan_loss=0.1, nvml=0.1),
            retry=RetryPolicy(max_attempts=3, timeout_s=4000.0),
        ),
    ),
    "rungs": (
        "journal_rungs.jsonl",
        dict(
            backend="serial", workers=3, max_evaluations=9,
            scheduler="async", rungs=3, eta=3,
            faults=FaultRates(crash=0.1, nan_loss=0.05, nvml=0.1),
            retry=RetryPolicy(max_attempts=3, timeout_s=4000.0),
        ),
    ),
}


@pytest.mark.parametrize("cell", sorted(LEGACY_JOURNALS))
def test_legacy_journal_resumes_bit_exact(setup, tmp_path, cell):
    """A journal written by an earlier release stays resumable: replaying
    its prefix and continuing live reproduces an uninterrupted run of the
    current code bit for bit, and the journal it leaves behind is the
    one the current code writes from scratch — but for the header's
    ``stream_version`` field, which the earlier release did not write
    and which reads as version 1."""
    name, kwargs = LEGACY_JOURNALS[cell]
    torn = tmp_path / "torn.jsonl"
    shutil.copy(Path(__file__).parent / "data" / name, torn)
    full_path = tmp_path / "full.jsonl"
    full = setup.run("Rand", "default", journal=full_path, **kwargs)
    resumed = setup.run("Rand", "default", resume_from=torn, **kwargs)
    assert run_to_dict(resumed) == run_to_dict(full)
    torn_header, torn_rounds = torn.read_bytes().split(b"\n", 1)
    full_header, full_rounds = full_path.read_bytes().split(b"\n", 1)
    assert torn_rounds == full_rounds
    assert "stream_version" not in json.loads(torn_header)
    assert {**json.loads(torn_header), "stream_version": 1} == json.loads(
        full_header
    )


def test_journal_of_another_stream_version_is_refused(setup, tmp_path):
    """A run journal whose header is edited to stream version 2 is refused
    by load, reopen and resume with the typed error naming both versions."""
    name, kwargs = LEGACY_JOURNALS["async_4w"]
    header, rounds = (Path(__file__).parent / "data" / name).read_bytes().split(
        b"\n", 1
    )
    edited = tmp_path / "v2.jsonl"
    edited.write_bytes(
        json.dumps({**json.loads(header), "stream_version": 2}).encode("utf-8")
        + b"\n" + rounds
    )
    before = edited.read_bytes()
    for open_journal in (
        JournalReplay.load,
        RunJournal.reopen,
        lambda path: setup.run("Rand", "default", resume_from=path, **kwargs),
    ):
        with pytest.raises(StreamVersionError, match="version 2.*version 1"):
            open_journal(edited)
    assert edited.read_bytes() == before
