"""The stdlib JSON-RPC 2.0 HTTP front end of the study store.

One ``POST /`` endpoint accepts single or batched JSON-RPC requests:

========================  =====================================================
``study.create``          ``{"spec": {...}}`` — create a named study
``study.suggest``         ``{"study": name, "n": k, "key": id?}``
``study.observe``         ``{"study": name, "ticket": t, "report": {...},
                          "key": id?}``
``study.status``          ``{"study": name}`` — progress + best + quota
``study.trials``          ``{"study": name}`` — full trial record
``study.list``            ``{}`` — names of every study
``service.stats``         ``{}`` — metrics snapshot + study names
========================  =====================================================

plus two GET health endpoints: ``/healthz`` (liveness — 200 whenever the
process can answer) and ``/readyz`` (readiness — 503 with a
``Retry-After`` header while draining or saturated, so load balancers
steer new work away before the server has to shed it).

Expected failures are JSON-RPC *error objects* with the typed codes of
:mod:`repro.service.errors`, always under HTTP 200 — an over-quota
suggest is a protocol answer, not a server failure; unexpected exceptions
map to code -32603 rather than a 500 so clients always get JSON back.

Overload protection is *bounded admission*: at most ``max_inflight``
payloads execute concurrently, and excess (or post-drain) requests are
shed with a typed :class:`~repro.service.errors.OverloadedError`
carrying ``retry_after_s`` — nothing executed, so the client may blindly
retry after the suggested backoff.  :meth:`StudyServer.drain` implements
graceful shutdown: stop admitting, wait for in-flight requests, then
durably flush every journal — an accepted (journaled) request is never
lost.

Requests are traced into the shared telemetry subsystem: each dispatch
records an ``rpc`` span (the server's tracer runs on a wall clock — a
service has no simulated time of its own; the *studies'* clocks stay
simulated) and bumps ``rpc.requests``/``rpc.errors``/``service.shed``
counters alongside the store's own metrics.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from ..telemetry.jsonl import JournalWriteError
from ..telemetry.metrics import NOOP_METRICS
from ..telemetry.tracer import NOOP_TRACER
from .errors import (
    INTERNAL_ERROR,
    INVALID_REQUEST,
    METHOD_NOT_FOUND,
    PARSE_ERROR,
    InvalidParamsError,
    OverloadedError,
    ServiceError,
    StorageError,
    error_to_dict,
)
from .store import StudySpec, StudyStore

__all__ = ["WallClock", "StudyServer", "StudyRequestHandler", "serve"]


class WallClock:
    """Monotonic wall time with the tracer's ``now_s`` interface.

    Service spans measure real request latency; study clocks remain
    simulated and advance only by reported trial costs.
    """

    def __init__(self) -> None:
        self._t0 = time.monotonic()

    @property
    def now_s(self) -> float:
        return time.monotonic() - self._t0


class StudyRequestHandler(BaseHTTPRequestHandler):
    """One JSON-RPC-over-HTTP exchange (keep-alive friendly).

    Each response leaves in one TCP send: ``wfile`` is buffered, so the
    status line, headers and body collect in it until the flush at the
    end of ``handle_one_request``, and ``TCP_NODELAY`` is set on every
    accepted socket.  As two sends (headers, then body) under Nagle's
    algorithm, the body would wait for the client's delayed ACK, about
    40 ms on every keep-alive RPC.
    """

    protocol_version = "HTTP/1.1"
    server_version = "repro-study/1"
    disable_nagle_algorithm = True
    #: ``wfile`` buffer size; a response larger than this goes out in
    #: more than one send, which ``TCP_NODELAY`` keeps from stalling.
    wbufsize = 1 << 16

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # the tracer records requests; stderr chatter helps nobody

    def handle_expect_100(self) -> bool:
        # The interim ``100 Continue`` must leave before the body arrives,
        # not sit in the buffered ``wfile`` until the final response.
        accepted = super().handle_expect_100()
        self.wfile.flush()
        return accepted

    def do_POST(self) -> None:  # noqa: N802 - stdlib casing
        try:
            length = int(self.headers.get("Content-Length") or 0)
            raw = self.rfile.read(length)
        except (TypeError, ValueError):
            raw = b""
        response = self.server.handle_payload(raw)
        body = json.dumps(response).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:  # noqa: N802 - stdlib casing
        if self.path == "/healthz":
            self._send_health(200, self.server.health())
        elif self.path == "/readyz":
            status, body = self.server.readiness()
            self._send_health(status, body)
        else:
            self._send_health(404, {"error": f"unknown path {self.path!r}"})

    def _send_health(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if status == 503:
            self.send_header(
                "Retry-After",
                str(payload.get("retry_after_s", 1.0)),
            )
        self.end_headers()
        self.wfile.write(body)


class StudyServer(ThreadingHTTPServer):
    """Threaded HTTP server bound to one :class:`StudyStore`.

    Bind to port 0 to let the OS pick; the chosen port is
    ``server.server_address[1]``.  ``max_inflight`` bounds concurrently
    executing payloads (``None`` disables shedding); :meth:`drain`
    performs the graceful-shutdown handshake.
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address, store: StudyStore, *, telemetry=None,
                 max_inflight: int | None = None, retry_after_s: float = 0.5):
        if max_inflight is not None and max_inflight < 1:
            raise ValueError("max_inflight must be >= 1 (or None)")
        super().__init__(tuple(address), StudyRequestHandler)
        self.store = store
        self.telemetry = telemetry
        if telemetry is None:
            self.tracer = NOOP_TRACER
            self.metrics = NOOP_METRICS
        else:
            self.tracer = telemetry.tracer
            self.metrics = telemetry.metrics
            if self.tracer.clock is None:
                self.tracer.clock = WallClock()
        self._m_requests = self.metrics.counter("rpc.requests")
        self._m_errors = self.metrics.counter("rpc.errors")
        self._m_shed = self.metrics.counter("service.shed")
        self.max_inflight = max_inflight
        self.retry_after_s = float(retry_after_s)
        self._inflight = 0
        self._inflight_lock = threading.Lock()
        self._draining = False
        # Span records interleave across handler threads; the tracer's
        # list append is atomic but the id counter is not.
        self._trace_lock = threading.Lock()
        self._methods = {
            "study.create": self._rpc_create,
            "study.suggest": self._rpc_suggest,
            "study.observe": self._rpc_observe,
            "study.status": self._rpc_status,
            "study.trials": self._rpc_trials,
            "study.list": self._rpc_list,
            "service.stats": self._rpc_stats,
        }

    # -- admission and drain ---------------------------------------------------------

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def inflight(self) -> int:
        with self._inflight_lock:
            return self._inflight

    def _admit(self) -> bool:
        """Reserve an execution slot; False sheds the payload."""
        with self._inflight_lock:
            if self._draining:
                return False
            if (
                self.max_inflight is not None
                and self._inflight >= self.max_inflight
            ):
                return False
            self._inflight += 1
            return True

    def _release(self) -> None:
        with self._inflight_lock:
            self._inflight -= 1

    def _shed_error(self) -> OverloadedError:
        reason = "draining" if self._draining else "overloaded"
        return OverloadedError(
            f"server is {reason}; retry after "
            f"{self.retry_after_s:g}s",
            data={"retry_after_s": self.retry_after_s, "reason": reason},
        )

    def drain(self, timeout_s: float = 30.0) -> bool:
        """Graceful shutdown: stop admitting, finish in-flight, flush.

        New payloads shed with a typed ``Overloaded`` error (reason
        ``draining``) the moment this is called; in-flight requests run
        to completion (bounded by ``timeout_s``), then every open
        journal is durably flushed.  Returns whether in-flight work
        fully quiesced before the timeout.
        """
        with self._inflight_lock:
            self._draining = True
        deadline = time.monotonic() + timeout_s
        quiesced = False
        while True:
            with self._inflight_lock:
                if self._inflight == 0:
                    quiesced = True
                    break
            if time.monotonic() >= deadline:
                break
            time.sleep(0.005)
        self.store.flush()
        return quiesced

    def health(self) -> dict:
        """Liveness payload: the process is up and answering."""
        return {"status": "ok", "draining": self._draining}

    def readiness(self) -> tuple[int, dict]:
        """Readiness (status, payload): 503 while draining/saturated."""
        with self._inflight_lock:
            draining = self._draining
            saturated = (
                self.max_inflight is not None
                and self._inflight >= self.max_inflight
            )
        if draining or saturated:
            return 503, {
                "status": "draining" if draining else "overloaded",
                "retry_after_s": self.retry_after_s,
            }
        return 200, {"status": "ready"}

    # -- JSON-RPC plumbing -----------------------------------------------------------

    def handle_payload(self, raw: bytes):
        """Parse and answer one HTTP body (single request or batch).

        Admission is per payload: a shed batch answers every entry with
        the same typed ``Overloaded`` error — nothing in it executed.
        """
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            return _error_response(None, PARSE_ERROR, "request is not JSON")
        admitted = self._admit()
        try:
            if isinstance(payload, list):
                if not payload:
                    return _error_response(
                        None, INVALID_REQUEST, "empty batch request"
                    )
                if not admitted:
                    return [self._shed_response(item) for item in payload]
                return [self._handle_one(item) for item in payload]
            if not admitted:
                return self._shed_response(payload)
            return self._handle_one(payload)
        finally:
            if admitted:
                self._release()

    def _shed_response(self, request) -> dict:
        self._m_shed.inc()
        request_id = request.get("id") if isinstance(request, dict) else None
        return {
            "jsonrpc": "2.0",
            "id": request_id,
            "error": error_to_dict(self._shed_error()),
        }

    def _handle_one(self, request) -> dict:
        if not isinstance(request, dict):
            return _error_response(
                None, INVALID_REQUEST, "request must be an object"
            )
        request_id = request.get("id")
        method = request.get("method")
        params = request.get("params") or {}
        if not isinstance(method, str):
            return _error_response(
                request_id, INVALID_REQUEST, "missing method name"
            )
        if not isinstance(params, dict):
            return _error_response(
                request_id, INVALID_REQUEST, "params must be an object"
            )
        handler = self._methods.get(method)
        if handler is None:
            return _error_response(
                request_id, METHOD_NOT_FOUND, f"unknown method {method!r}"
            )
        self._m_requests.inc()
        with self._trace_lock:
            span = self.tracer.span("rpc", method=method)
            span.__enter__()
        error = None
        try:
            result = handler(params)
            response = {"jsonrpc": "2.0", "id": request_id, "result": result}
        except ServiceError as exc:
            error = error_to_dict(exc)
        except JournalWriteError as exc:
            # A storage failure that escaped the store's own wrapping
            # (e.g. a run-journal path) still answers typed, not -32603.
            error = error_to_dict(
                StorageError(
                    f"journal {exc.op} failed ({exc.kind})",
                    data={"op": exc.op, "kind": exc.kind, "retryable": True},
                )
            )
        except Exception as exc:  # noqa: BLE001 - never a 500, always JSON
            error = {
                "code": INTERNAL_ERROR,
                "message": f"{type(exc).__name__}: {exc}",
            }
        if error is not None:
            self._m_errors.inc()
            response = {"jsonrpc": "2.0", "id": request_id, "error": error}
        with self._trace_lock:
            if error is not None:
                span.set(error_code=error["code"])
            span.__exit__(None, None, None)
        return response

    # -- method handlers -------------------------------------------------------------

    @staticmethod
    def _param(params: dict, key: str):
        try:
            return params[key]
        except KeyError:
            raise InvalidParamsError(f"missing parameter {key!r}") from None

    def _rpc_create(self, params: dict) -> dict:
        spec = StudySpec.from_dict(self._param(params, "spec"))
        return self.store.create_study(spec)

    def _rpc_suggest(self, params: dict) -> list:
        name = self._param(params, "study")
        n = params.get("n", 1)
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise InvalidParamsError("n must be a positive integer")
        return self.store.suggest(name, n, key=params.get("key"))

    def _rpc_observe(self, params: dict) -> dict:
        name = self._param(params, "study")
        ticket = self._param(params, "ticket")
        report = self._param(params, "report")
        if not isinstance(report, dict):
            raise InvalidParamsError("report must be an object")
        return self.store.observe(name, ticket, report, key=params.get("key"))

    def _rpc_status(self, params: dict) -> dict:
        return self.store.status(self._param(params, "study"))

    def _rpc_trials(self, params: dict) -> list:
        return self.store.trials(self._param(params, "study"))

    def _rpc_list(self, params: dict) -> list:
        return self.store.list_studies()

    def _rpc_stats(self, params: dict) -> dict:
        return {
            "studies": self.store.list_studies(),
            "metrics": self.metrics.snapshot(),
            "inflight": self.inflight,
            "draining": self._draining,
        }


def _error_response(request_id, code: int, message: str) -> dict:
    return {
        "jsonrpc": "2.0",
        "id": request_id,
        "error": {"code": code, "message": message},
    }


def serve(store: StudyStore, host: str = "127.0.0.1", port: int = 0,
          *, telemetry=None, max_inflight: int | None = None,
          retry_after_s: float = 0.5) -> StudyServer:
    """Bind a :class:`StudyServer`; the caller runs ``serve_forever``."""
    return StudyServer((host, port), store, telemetry=telemetry,
                       max_inflight=max_inflight, retry_after_s=retry_after_s)
