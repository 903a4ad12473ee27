"""The multi-tenant study store.

A :class:`StudyStore` holds many named, long-lived ask/tell studies —
each a :class:`~repro.core.study.Study` wrapped in a :class:`ManagedStudy`
that adds per-study locking, quota enforcement and a crash-safe event
journal.  The journal (``<root>/<name>/study.jsonl``, format
``repro-study/1``) reuses the run-journal machinery: a header line
carrying the full :class:`StudySpec`, then one fsynced line per
suggest/observe event, with torn tails truncated on reopen.

Resume is *recomputed*, like the driver journal's: suggest events replay
by re-asking the rebuilt study (all RNG draws, clock charges and
surrogate updates recompute identically) and are verified against the
journaled configurations via the canonical configuration hash — with the
values coerced back through the search space first, because JSON blurs
``3``/``3.0`` and the hash does not.  Observe events substitute the
journaled reports and verify the resulting trial record byte for byte.
A study killed at any request boundary therefore resumes bit-exactly.

Three hardening layers ride on top of that contract:

* **Exactly-once retries.**  ``suggest``/``observe`` accept an optional
  idempotency ``key``.  Keys are journaled with their event and remembered
  in a bounded per-study window (:attr:`~repro.service.quotas.StudyQuota.
  dedupe_window`), so an at-least-once retry — after a timeout, a dropped
  connection or a shed request — replays the recorded response instead of
  issuing a duplicate ticket or double-observing a trial.  The window is
  rebuilt on resume from the journaled keys, so exactly-once survives
  restarts.
* **Crash-only writes.**  A failed journal append (typed
  :class:`~repro.telemetry.jsonl.JournalWriteError`, real or chaos-
  injected) *poisons* the study: the in-memory state — which already
  advanced past the un-journaled event — is discarded and the store
  reloads the study from the intact journal on next access, exactly like
  a process crash and restart, but scoped to one study.  The caller sees
  a retryable :class:`~repro.service.errors.StorageError`.
* **Snapshot compaction.**  :meth:`ManagedStudy.snapshot` replaces the
  journal with a single header line that carries the study's state as
  JSON (:meth:`~repro.core.study.Study.state_dict`, the event count and
  the idempotency window): temp file, fsync, atomic rename, directory
  fsync.  A crash leaves either the old journal or the compacted one,
  never a mix.  Recovery cost drops from O(all events) to O(events
  since the last snapshot), and loading a study parses JSON only.

The header also records the :data:`~repro.core.spec.STREAM_VERSION`
that wrote the study; a study of another version is refused at load.
"""

from __future__ import annotations

import copy
import json
import math
import os
import threading
import time
import zlib
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..core.clock import SimClock
from ..core.constraints import ConstraintSpec
from ..core.parallel import canonical_config_key
from ..core.spec import STREAM_VERSION, RunSpec, check_stream_version
from ..core.study import Study, TrialReport
from ..io import trial_to_dict
from ..space.space import SearchSpace
from ..telemetry.jsonl import JournalWriteError, JsonlWriter, scan_jsonl
from ..telemetry.metrics import NOOP_METRICS
from ..telemetry.tracer import NOOP_TRACER
from .errors import (
    InvalidParamsError,
    QuotaExceededError,
    StorageError,
    StudyExistsError,
    UnknownStudyError,
    UnknownTicketError,
)
from .quotas import StudyQuota, TokenBucket, check_request

__all__ = [
    "STUDY_JOURNAL_FORMAT",
    "StudySpec",
    "ManagedStudy",
    "StudyStore",
]

#: Format tag of the per-study event journal.
STUDY_JOURNAL_FORMAT = "repro-study/1"

#: Study names must be filesystem- and URL-safe.
_NAME_CHARS = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-"
)


def _validate_name(name: str) -> str:
    if not isinstance(name, str) or not (1 <= len(name) <= 64):
        raise InvalidParamsError("study name must be 1-64 characters")
    if name.startswith(".") or not set(name) <= _NAME_CHARS:
        raise InvalidParamsError(
            f"invalid study name {name!r}: use letters, digits, '.', '_', "
            "'-' and do not start with '.'"
        )
    return name


def _validate_key(key) -> str | None:
    """Validate an optional idempotency key."""
    if key is None:
        return None
    if not isinstance(key, str) or not (1 <= len(key) <= 128):
        raise InvalidParamsError(
            "idempotency key must be a string of 1-128 characters"
        )
    return key


@dataclass(frozen=True)
class StudySpec:
    """Everything needed to (re)build one service study deterministically.

    The spec is journaled in the study's header line, so a store restart
    rebuilds the exact same method, search space, constraint spec and
    proposal RNG.  Service studies have no in-process objective: the
    ``default`` variant's methods learn feasibility from the measurements
    clients report, which is the natural service-side counterpart of the
    paper's a-priori screening.
    """

    name: str
    space: SearchSpace
    solver: str = "Rand"
    variant: str = "default"
    seed: int = 0
    power_budget_w: float | None = None
    memory_budget_bytes: float | None = None
    latency_budget_s: float | None = None
    quota: StudyQuota = field(default_factory=StudyQuota)
    #: Extra ``build_method`` keywords: :class:`~repro.core.spec.RunSpec`
    #: method fields (``sigma``, ``n_init``, ``gp_*``…), checked here.
    method_options: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        _validate_name(self.name)
        seed = self.seed
        if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
            raise InvalidParamsError(f"seed must be an int >= 0, got {seed!r}")
        try:
            self.constraint_spec()
            RunSpec.for_method(self.solver, self.variant, self.method_options)
        except (TypeError, ValueError) as exc:
            raise InvalidParamsError(str(exc)) from None

    def constraint_spec(self) -> ConstraintSpec:
        return ConstraintSpec(
            power_budget_w=self.power_budget_w,
            memory_budget_bytes=self.memory_budget_bytes,
            latency_budget_s=self.latency_budget_s,
        )

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "space": self.space.to_dict(),
            "solver": self.solver,
            "variant": self.variant,
            "seed": self.seed,
            "power_budget_w": self.power_budget_w,
            "memory_budget_bytes": self.memory_budget_bytes,
            "latency_budget_s": self.latency_budget_s,
            "quota": self.quota.to_dict(),
            "method_options": dict(self.method_options),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "StudySpec":
        if not isinstance(data, dict):
            raise InvalidParamsError("study spec must be an object")
        extra = set(data) - set(cls.__dataclass_fields__)
        if extra:
            raise InvalidParamsError(f"unknown spec fields {sorted(extra)}")
        kwargs = dict(data)
        try:
            kwargs["space"] = SearchSpace.from_dict(kwargs["space"])
        except KeyError:
            raise InvalidParamsError("study spec missing 'space'") from None
        except ValueError as exc:
            raise InvalidParamsError(str(exc)) from None
        if "quota" in kwargs:
            try:
                kwargs["quota"] = StudyQuota.from_dict(kwargs["quota"])
            except ValueError as exc:
                raise InvalidParamsError(str(exc)) from None
        try:
            return cls(**kwargs)
        except (TypeError, ValueError) as exc:
            raise InvalidParamsError(str(exc)) from None


def _build_study(spec: StudySpec) -> Study:
    """Deterministically rebuild the core study a spec describes."""
    # Imported here: hyperpower imports the study module this depends on.
    from ..core.hyperpower import build_method

    # A-priori hardware models are fitted from device profiling the
    # service never has, so the ``hyperpower`` variant's method proposes
    # without model screening; the study still enforces budgets on the
    # *measured* values clients report.  The ``default`` variant keeps
    # the full spec — its learned constraint GPs fit those same
    # measurements, exactly as in the closed loop.
    method_spec = spec.constraint_spec()
    if spec.variant == "hyperpower":
        method_spec = ConstraintSpec()
    method = build_method(
        spec.solver, spec.variant, spec.space, method_spec, **spec.method_options
    )
    # The name tag decorrelates same-seed studies, like the experiment
    # harness's solver/variant tag does for its repeat streams.
    name_tag = zlib.crc32(spec.name.encode("utf-8"))
    rng = np.random.default_rng(
        np.random.SeedSequence([int(spec.seed), 9, name_tag])
    )
    return Study(
        method,
        spec.variant,
        clock=SimClock(),
        rng=rng,
        spec=spec.constraint_spec(),
        dataset=spec.name,
        device="service",
    )


class ManagedStudy:
    """One named study: core ask/tell state + lock + quotas + journal."""

    def __init__(self, spec: StudySpec, directory: Path, *, fsync: bool = True,
                 timer=time.monotonic, chaos=None, snapshot_every: int | None = None,
                 metrics=None, tracer=None, trace_lock=None):
        if snapshot_every is not None and snapshot_every < 1:
            raise ValueError("snapshot_every must be >= 1 (or None)")
        self.spec = spec
        self.directory = Path(directory)
        self.journal_path = self.directory / "study.jsonl"
        self.study = _build_study(spec)
        self.lock = threading.RLock()
        self._fsync = fsync
        self._chaos = chaos
        self._snapshot_every = snapshot_every
        self.metrics = metrics if metrics is not None else NOOP_METRICS
        self.tracer = tracer if tracer is not None else NOOP_TRACER
        # Shared across studies of one store: the tracer's span-id counter
        # is not thread-safe and studies trace from many handler threads.
        self._trace_lock = trace_lock if trace_lock is not None else threading.Lock()
        self._m_write_errors = self.metrics.counter("journal.write_errors")
        self._m_retries = self.metrics.counter("service.retries")
        self._m_snapshots = self.metrics.counter("journal.snapshots")
        self._event = 0
        #: Journal events below this are captured by the header's state.
        self._snap_event = 0
        #: Bounded idempotency window: key -> {"op", "response"}.
        self._dedupe: OrderedDict[str, dict] = OrderedDict()
        self._poisoned = False
        self._writer: JsonlWriter | None = None
        self._bucket = None
        if spec.quota.requests_per_s is not None:
            self._bucket = TokenBucket(
                spec.quota.requests_per_s, spec.quota.request_burst, timer
            )

    # -- creation and resume ---------------------------------------------------------

    @classmethod
    def create(cls, spec: StudySpec, directory: Path, *, fsync: bool = True,
               timer=time.monotonic, chaos=None, snapshot_every: int | None = None,
               metrics=None, tracer=None, trace_lock=None) -> "ManagedStudy":
        """Create a fresh study and durably write its journal header.

        If the header write itself fails (chaos or a real full disk), the
        partial journal is removed before the typed error propagates, so
        a retried create does not collide with its own debris.
        """
        # Built before the directory exists: a spec the study cannot be
        # built from leaves nothing on disk.
        managed = cls(spec, Path(directory), fsync=fsync, timer=timer,
                      chaos=chaos, snapshot_every=snapshot_every,
                      metrics=metrics, tracer=tracer, trace_lock=trace_lock)
        managed.directory.mkdir(parents=True, exist_ok=True)
        managed._writer = JsonlWriter(
            managed.journal_path, fsync=fsync, chaos=chaos
        )
        try:
            managed._writer.write(managed._header())
        except JournalWriteError as exc:
            managed._m_write_errors.inc()
            try:
                managed._writer.close()
            except OSError:
                pass
            managed._writer = None
            try:
                managed.journal_path.unlink()
            except OSError:
                pass
            raise StorageError(
                f"study {spec.name!r} could not be created: journal "
                f"{exc.op} failed ({exc.kind})",
                data={"study": spec.name, "op": exc.op, "kind": exc.kind,
                      "retryable": True},
            ) from exc
        return managed

    @classmethod
    def load(cls, directory: Path, *, fsync: bool = True,
             timer=time.monotonic, chaos=None, snapshot_every: int | None = None,
             metrics=None, tracer=None, trace_lock=None) -> "ManagedStudy":
        """Resume a study from its journal, bit-exactly.

        A compacted journal's header carries the study's state, which is
        restored first; the journal's valid line prefix then replays the
        events after it (verifying every recomputed suggestion and
        recorded trial against the journal).  Any torn journal tail is
        truncated and the journal reopens for appending.  A header of
        another stream version, a damaged state or a journal compacted
        by an older release into ``study.snap`` is refused, and the file
        is left as it is.
        """
        directory = Path(directory)
        path = directory / "study.jsonl"
        records = scan_jsonl(path.read_bytes())
        if not records:
            raise ValueError(f"{path}: no intact journal header")
        header, keep = records[0]
        if header.get("format") != STUDY_JOURNAL_FORMAT:
            raise ValueError(
                f"{path}: not a study journal (format "
                f"{header.get('format')!r})"
            )
        check_stream_version(header, path)
        spec = StudySpec.from_dict(header.get("meta", {}).get("spec", {}))
        managed = cls(spec, directory, fsync=fsync, timer=timer, chaos=chaos,
                      snapshot_every=snapshot_every, metrics=metrics,
                      tracer=tracer, trace_lock=trace_lock)
        state = header.get("state")
        if state is not None:
            try:
                managed.study.load_state(state["study"])
                managed._dedupe = OrderedDict(state["dedupe"])
                managed._event = managed._snap_event = int(state["event"])
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(
                    f"{path}: the study state in the journal header is "
                    f"damaged ({exc!r})"
                ) from exc
        elif (directory / "study.snap").exists() and (
            len(records) == 1 or records[1][0].get("event") != 0
        ):
            # Compacted by an older release, which serialised the object
            # graph into study.snap: loading it would run arbitrary code.
            # (Beside a journal that starts at event 0 it is stale.)
            raise StorageError(
                f"{path}: journal was compacted into study.snap (format "
                "repro-study-snap/1) by an older release; that state is "
                "not read",
                data={"study": spec.name, "op": "load",
                      "format": "repro-study-snap/1", "retryable": False},
            )
        for record, end in records[1:]:
            managed._replay_event(record)
            keep = end
        with open(path, "r+b") as fh:
            fh.truncate(keep)
        managed._writer = JsonlWriter(path, append=True, fsync=fsync,
                                      chaos=chaos)
        return managed

    def _header(self, state: dict | None = None) -> dict:
        """The journal's header line, with the study's state once compacted."""
        header = {
            "format": STUDY_JOURNAL_FORMAT,
            "stream_version": STREAM_VERSION,
            "meta": {"spec": self.spec.to_dict()},
        }
        if state is not None:
            header["state"] = state
        return header

    def _replay_event(self, record: dict) -> None:
        expected = self._event
        if record.get("event") != expected:
            raise ValueError(
                f"{self.journal_path}: journal event {record.get('event')!r} "
                f"out of order (expected {expected})"
            )
        op = record.get("op")
        if op == "suggest":
            tickets = record["tickets"]
            configs = record["configs"]
            suggestions = self.study.suggest(len(tickets))
            if len(suggestions) != len(tickets):
                raise ValueError(
                    f"{self.journal_path}: replayed suggest produced "
                    f"{len(suggestions)} proposals, journal has {len(tickets)}"
                )
            for suggestion, ticket, config in zip(suggestions, tickets, configs):
                journaled = canonical_config_key(self.spec.space.coerce(config))
                if suggestion.ticket != ticket or suggestion.key != journaled:
                    raise ValueError(
                        f"{self.journal_path}: replayed suggestion "
                        f"{suggestion.ticket} diverged from the journal "
                        "(non-deterministic method or corrupted journal)"
                    )
            response = [
                {
                    "ticket": s.ticket,
                    "config": dict(s.config),
                    "duplicate_of": s.duplicate_of,
                }
                for s in suggestions
            ]
        elif op == "observe":
            report = TrialReport.from_dict(record["report"])
            trial = self.study.observe(int(record["ticket"]), report)
            recorded = json.dumps(trial_to_dict(trial), sort_keys=True)
            journaled = json.dumps(record["trial"], sort_keys=True)
            if recorded != journaled:
                raise ValueError(
                    f"{self.journal_path}: replayed trial "
                    f"{trial.index} diverged from the journal"
                )
            response = record["trial"]
        else:
            raise ValueError(
                f"{self.journal_path}: unknown journal op {op!r}"
            )
        self._event += 1
        self._remember(record.get("key"), op, response)

    # -- durability plumbing ---------------------------------------------------------

    @property
    def poisoned(self) -> bool:
        """Whether a failed journal write invalidated the in-memory state."""
        return self._poisoned

    def _poison(self) -> None:
        """Discard this instance after a failed append (crash-only).

        The in-memory study advanced past an event the journal never
        recorded; rolling that back piecemeal is exactly the kind of
        subtle state surgery that drifts.  Instead the instance is marked
        dead and the store reloads the study from its intact journal —
        a micro-crash-and-restart scoped to one study.
        """
        self._poisoned = True
        if self._writer is not None:
            try:
                # Plain close (not crash): acknowledged delayed records
                # still flush — only the failed, unacknowledged event is
                # lost, which is the point.
                self._writer.close()
            except OSError:
                pass
            self._writer = None

    def _append(self, record: dict) -> None:
        if self._writer is None:
            state = "poisoned" if self._poisoned else "closed"
            raise StorageError(
                f"study {self.spec.name!r} is {state}; retry the request",
                data={"study": self.spec.name, "retryable": True},
            )
        record = {"event": self._event, **record}
        try:
            self._writer.write(record)
        except JournalWriteError as exc:
            self._m_write_errors.inc()
            self._poison()
            raise StorageError(
                f"study {self.spec.name!r} journal {exc.op} failed "
                f"({exc.kind}); state reloaded, retry the request",
                data={"study": self.spec.name, "op": exc.op,
                      "kind": exc.kind, "retryable": True},
            ) from exc
        self._event += 1

    def _remember(self, key: str | None, op: str, response) -> None:
        """Record a response in the bounded idempotency window."""
        window = self.spec.quota.dedupe_window
        if key is None or window == 0:
            return
        self._dedupe[key] = {"op": op, "response": response}
        self._dedupe.move_to_end(key)
        while len(self._dedupe) > window:
            self._dedupe.popitem(last=False)

    def _replay_response(self, key: str, op: str):
        """The remembered response for a retried key, or a miss marker."""
        cached = self._dedupe.get(key)
        if cached is None:
            return None
        if cached["op"] != op:
            raise InvalidParamsError(
                f"idempotency key {key!r} was already used for "
                f"{cached['op']!r}, not {op!r}"
            )
        self._m_retries.inc()
        return {"response": copy.deepcopy(cached["response"])}

    # -- snapshot compaction ---------------------------------------------------------

    def snapshot(self) -> int:
        """Compact the journal into one header line carrying the state.

        The header (spec, stream version and the study's JSON state) is
        written to a temp file, fsynced and atomically renamed over the
        journal, and the directory entry is fsynced; the writer then
        reopens on the compacted journal.  A crash at any point leaves
        either the old journal or the compacted one.  Returns the event
        count the state covers.
        """
        with self.lock:
            if self._writer is None:
                state = "poisoned" if self._poisoned else "closed"
                raise StorageError(
                    f"study {self.spec.name!r} is {state}; cannot snapshot",
                    data={"study": self.spec.name, "retryable": True},
                )
            with self._trace_lock:
                span = self.tracer.span(
                    "journal.snapshot", study=self.spec.name, event=self._event
                )
                span.__enter__()
            try:
                event = self._snapshot_locked()
            finally:
                with self._trace_lock:
                    span.__exit__(None, None, None)
            return event

    def _snapshot_locked(self) -> int:
        header = self._header({
            "event": self._event,
            "dedupe": list(self._dedupe.items()),
            "study": self.study.state_dict(),
        })
        tmp = self.journal_path.with_name(self.journal_path.name + ".tmp")
        try:
            with open(tmp, "wb") as fh:
                fh.write(json.dumps(header).encode("utf-8") + b"\n")
                fh.flush()
                if self._fsync:
                    os.fsync(fh.fileno())
            os.replace(tmp, self.journal_path)
        except OSError as exc:
            try:
                tmp.unlink()
            except OSError:
                pass
            self._m_write_errors.inc()
            raise StorageError(
                f"study {self.spec.name!r} snapshot failed: {exc}",
                data={"study": self.spec.name, "op": "snapshot",
                      "kind": "os", "retryable": True},
            ) from exc
        # The old journal is unlinked: records its writer still buffers
        # (delayed appends) are covered by the new header's state.
        self._writer.crash()
        self._writer = None
        try:
            if self._fsync:
                dir_fd = os.open(self.directory, os.O_RDONLY)
                try:
                    os.fsync(dir_fd)
                finally:
                    os.close(dir_fd)
            self._writer = JsonlWriter(
                self.journal_path, append=True, fsync=self._fsync,
                chaos=self._chaos,
            )
        except OSError as exc:
            # The compacted journal is in place; reload from it.
            self._m_write_errors.inc()
            self._poison()
            raise StorageError(
                f"study {self.spec.name!r} journal compaction failed: {exc}",
                data={"study": self.spec.name, "op": "snapshot",
                      "kind": "os", "retryable": True},
            ) from exc
        self._snap_event = self._event
        self._m_snapshots.inc()
        return self._event

    def _maybe_snapshot(self) -> None:
        """Auto-compact after enough events since the last snapshot.

        Called with the request already journaled and acknowledged, so a
        snapshot failure here must not fail the request — unless it
        poisoned the study, the journal is intact and the next request
        simply retries the compaction.
        """
        if self._snapshot_every is None:
            return
        if self._event - self._snap_event < self._snapshot_every:
            return
        try:
            self.snapshot()
        except StorageError:
            pass

    # -- the ask/tell surface --------------------------------------------------------

    def suggest(self, n: int = 1, key: str | None = None) -> list[dict]:
        """Issue ``n`` pending-aware suggestions, quota-checked, journaled.

        With an idempotency ``key``, a retry of a previously acknowledged
        call returns the recorded response without issuing new tickets —
        and without charging the rate bucket, so retry storms cannot
        starve first-time requests.
        """
        if not isinstance(n, int) or n < 1:
            raise InvalidParamsError("n must be a positive integer")
        key = _validate_key(key)
        with self.lock:
            if key is not None:
                cached = self._replay_response(key, "suggest")
                if cached is not None:
                    return cached["response"]
            check_request(self._bucket, self.spec.name)
            quota = self.spec.quota
            if (
                quota.max_pending is not None
                and self.study.n_pending + n > quota.max_pending
            ):
                raise QuotaExceededError(
                    f"study {self.spec.name!r} would exceed max_pending",
                    data={
                        "quota": "max_pending",
                        "limit": quota.max_pending,
                        "pending": self.study.n_pending,
                        "requested": n,
                    },
                )
            if (
                quota.max_trials is not None
                and self.study.n_issued + n > quota.max_trials
            ):
                raise QuotaExceededError(
                    f"study {self.spec.name!r} would exceed max_trials",
                    data={
                        "quota": "max_trials",
                        "limit": quota.max_trials,
                        "issued": self.study.n_issued,
                        "requested": n,
                    },
                )
            suggestions = self.study.suggest(n)
            record = {
                "op": "suggest",
                "tickets": [s.ticket for s in suggestions],
                "configs": [dict(s.config) for s in suggestions],
            }
            if key is not None:
                record["key"] = key
            self._append(record)
            response = [
                {
                    "ticket": s.ticket,
                    "config": dict(s.config),
                    "duplicate_of": s.duplicate_of,
                }
                for s in suggestions
            ]
            self._remember(key, "suggest", response)
            self._maybe_snapshot()
            return response

    def observe(self, ticket, report, key: str | None = None) -> dict:
        """Fold one reported result back; returns the recorded trial.

        With an idempotency ``key``, a retry of an already-recorded
        observe returns the recorded trial instead of failing with
        :class:`UnknownTicketError` (the ticket is no longer pending) or
        double-counting.
        """
        try:
            ticket = int(ticket)
        except (TypeError, ValueError):
            raise InvalidParamsError("ticket must be an integer") from None
        if isinstance(report, dict):
            try:
                report = TrialReport.from_dict(report)
            except (TypeError, ValueError) as exc:
                raise InvalidParamsError(str(exc)) from None
        elif not isinstance(report, TrialReport):
            raise InvalidParamsError("report must be a trial-report object")
        # Checked here, not in Study.observe: journal replay must still
        # load studies that recorded such a report before this check.
        if not report.failed and not math.isfinite(float(report.error)):
            raise InvalidParamsError(
                "a report that did not fail needs a finite error"
            )
        key = _validate_key(key)
        with self.lock:
            if key is not None:
                cached = self._replay_response(key, "observe")
                if cached is not None:
                    return cached["response"]
            check_request(self._bucket, self.spec.name)
            try:
                self.study.get_pending(ticket)
            except KeyError:
                raise UnknownTicketError(
                    f"study {self.spec.name!r} has no pending ticket {ticket}",
                    data={"ticket": ticket, "study": self.spec.name},
                ) from None
            trial = self.study.observe(ticket, report)
            trial_dict = trial_to_dict(trial)
            record = {
                "op": "observe",
                "ticket": ticket,
                "report": report.to_dict(),
                "trial": trial_dict,
            }
            if key is not None:
                record["key"] = key
            self._append(record)
            self._remember(key, "observe", trial_dict)
            self._maybe_snapshot()
            return trial_dict

    def status(self) -> dict:
        """Durable-state summary of the study."""
        with self.lock:
            study = self.study
            best = study.result.best_trial()
            return {
                "name": self.spec.name,
                "solver": self.spec.solver,
                "variant": self.spec.variant,
                "n_issued": study.n_issued,
                "n_pending": study.n_pending,
                "n_trained": study.n_trained,
                "n_samples": study.n_samples,
                "wall_time_s": study.clock.now_s,
                "best": None
                if best is None
                else {"config": dict(best.config), "error": best.error},
                "quota": self.spec.quota.to_dict(),
            }

    def trials(self) -> list[dict]:
        """Every recorded trial, in order (the run-result record)."""
        with self.lock:
            return [trial_to_dict(t) for t in self.study.result.trials]

    def flush(self) -> None:
        """Push any delayed journal records durably to disk (drain)."""
        with self.lock:
            if self._writer is not None:
                self._writer.flush()

    def close(self) -> None:
        with self.lock:
            if self._writer is not None:
                self._writer.close()
                self._writer = None


class StudyStore:
    """Thread-safe store of many named studies rooted at one directory.

    Studies load lazily: a store pointed at an existing root resumes each
    study from its journal on first access — and a study
    poisoned by a failed journal write is transparently reloaded the same
    way, so one bad append degrades to a scoped micro-restart rather than
    a corrupted server.  The per-study lock spans the state mutation
    *and* its journal append, so concurrent clients of one study
    serialize while different studies progress in parallel.
    """

    def __init__(self, root, *, fsync: bool = True, timer=time.monotonic,
                 metrics=None, tracer=None, chaos=None,
                 snapshot_every: int | None = None):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._fsync = fsync
        self._timer = timer
        self.metrics = metrics if metrics is not None else NOOP_METRICS
        self.tracer = tracer if tracer is not None else NOOP_TRACER
        self.chaos = chaos
        self.snapshot_every = snapshot_every
        self._m_creates = self.metrics.counter("store.creates")
        self._m_resumes = self.metrics.counter("store.resumes")
        self._m_reloads = self.metrics.counter("store.reloads")
        self._m_suggests = self.metrics.counter("store.suggests")
        self._m_observes = self.metrics.counter("store.observes")
        self._studies: dict[str, ManagedStudy] = {}
        self._lock = threading.Lock()
        self._trace_lock = threading.Lock()
        self._closed = False

    def _managed_kwargs(self) -> dict:
        return {
            "fsync": self._fsync,
            "timer": self._timer,
            "chaos": self.chaos,
            "snapshot_every": self.snapshot_every,
            "metrics": self.metrics,
            "tracer": self.tracer,
            "trace_lock": self._trace_lock,
        }

    # -- lifecycle -------------------------------------------------------------------

    def create_study(self, spec) -> dict:
        """Create (and durably journal) a new named study."""
        if isinstance(spec, dict):
            spec = StudySpec.from_dict(spec)
        name = spec.name
        with self._lock:
            self._check_open()
            if name in self._studies or (
                self.root / name / "study.jsonl"
            ).exists():
                raise StudyExistsError(
                    f"study {name!r} already exists", data={"study": name}
                )
            managed = ManagedStudy.create(
                spec, self.root / name, **self._managed_kwargs()
            )
            self._studies[name] = managed
        self._m_creates.inc()
        return managed.status()

    def get(self, name: str) -> ManagedStudy:
        """The managed study, resumed from disk on first access.

        A poisoned study (failed journal append) is dropped and reloaded
        from its intact journal — the store-level equivalent of a crash
        and restart, scoped to the one study.
        """
        _validate_name(name)
        with self._lock:
            self._check_open()
            managed = self._studies.get(name)
            if managed is not None and managed.poisoned:
                managed.close()
                del self._studies[name]
                managed = None
                self._m_reloads.inc()
            if managed is not None:
                return managed
            directory = self.root / name
            if not (directory / "study.jsonl").exists():
                raise UnknownStudyError(
                    f"no study named {name!r}", data={"study": name}
                )
            managed = ManagedStudy.load(directory, **self._managed_kwargs())
            self._studies[name] = managed
            self._m_resumes.inc()
            return managed

    def list_studies(self) -> list[str]:
        """Names of every study, on disk or in memory, sorted."""
        with self._lock:
            self._check_open()
            names = set(self._studies)
        for path in self.root.iterdir() if self.root.exists() else ():
            if (path / "study.jsonl").exists():
                names.add(path.name)
        return sorted(names)

    def flush(self) -> None:
        """Durably flush every open journal (the drain path)."""
        with self._lock:
            studies = list(self._studies.values())
        for managed in studies:
            managed.flush()

    def close(self) -> None:
        """Close every study's journal; further calls are rejected."""
        with self._lock:
            self._closed = True
            studies = list(self._studies.values())
            self._studies.clear()
        for managed in studies:
            managed.close()

    def _check_open(self) -> None:
        if self._closed:
            raise ValueError("study store is closed")

    # -- the ask/tell surface --------------------------------------------------------

    def suggest(self, name: str, n: int = 1, key: str | None = None) -> list[dict]:
        suggestions = self.get(name).suggest(n, key=key)
        self._m_suggests.inc(len(suggestions))
        return suggestions

    def observe(self, name: str, ticket, report, key: str | None = None) -> dict:
        trial = self.get(name).observe(ticket, report, key=key)
        self._m_observes.inc()
        return trial

    def status(self, name: str) -> dict:
        return self.get(name).status()

    def trials(self, name: str) -> list[dict]:
        return self.get(name).trials()
