"""The multi-tenant study service.

Layers the open ask/tell core (:class:`~repro.core.study.Study`) into a
long-lived, many-study server: a crash-safe :class:`StudyStore` rooted at
a directory, per-study quotas, a stdlib JSON-RPC-over-HTTP front end
(``repro serve``) and a typed client — hardened end-to-end against
storage chaos (typed retryable errors, idempotent retries, snapshot
compaction) and overload (bounded admission, health endpoints, graceful
drain).
"""

from .client import ClientRetryPolicy, StudyClient
from .errors import (
    InvalidParamsError,
    OverloadedError,
    QuotaExceededError,
    ServiceError,
    StorageError,
    StudyExistsError,
    UnknownStudyError,
    UnknownTicketError,
)
from .quotas import StudyQuota, TokenBucket
from .server import StudyServer, WallClock, serve
from .store import (
    STUDY_JOURNAL_FORMAT,
    ManagedStudy,
    StudySpec,
    StudyStore,
)

__all__ = [
    "STUDY_JOURNAL_FORMAT",
    "ClientRetryPolicy",
    "InvalidParamsError",
    "ManagedStudy",
    "OverloadedError",
    "QuotaExceededError",
    "ServiceError",
    "StorageError",
    "StudyClient",
    "StudyExistsError",
    "StudyQuota",
    "StudyServer",
    "StudySpec",
    "StudyStore",
    "TokenBucket",
    "UnknownStudyError",
    "UnknownTicketError",
    "WallClock",
    "serve",
]
