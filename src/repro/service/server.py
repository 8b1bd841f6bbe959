"""The job server: HTTP front door, cache, scheduler and metrics.

:class:`JobServer` owns the whole pipeline — a
:class:`repro.service.cache.ResultCache` consulted at submission, a
:class:`repro.service.scheduler.CoalescingScheduler` worker pool, a
:class:`repro.service.metrics.MetricsRegistry` and a structured JSON
logger — and exposes it over a stdlib ``ThreadingHTTPServer``:

``POST /jobs``
    Submit a JSON job spec (see :mod:`repro.service.jobs`).  Returns
    the job document; a fingerprint cache hit returns ``state=done``
    with the result inline, no engine work.
``GET /jobs/<id>``
    Poll a job; the result rides along once the state is ``done``.
    ``?wait=<s>`` holds the reply until the job finishes or ``s``
    seconds pass (at most :data:`MAX_STATUS_WAIT_S`).
``POST /jobs/<id>/cancel``
    Cooperatively cancel a queued or running job; the running engine
    unwinds at its next cancellation check and the job fails with
    ``error_kind = "cancelled"``.
``GET /healthz``
    Liveness + job-state counts.
``GET /metrics``
    Prometheus text exposition of the counters/histograms below.
``POST /shutdown``
    Clean remote shutdown (used by the CI smoke run).  Loopback
    clients are trusted; any other client must present the server's
    per-run token in an ``X-Shutdown-Token`` header, so a non-default
    ``--host`` bind does not hand remote denial-of-service to anyone
    who can reach the port.

Exported metric names are listed in :data:`SERVICE_COUNTERS` and
:data:`SERVICE_HISTOGRAMS`; tests assert against these, so treat them
as API.
"""

from __future__ import annotations

import hmac
import ipaddress
import json
import secrets
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import parse_qs

from repro import faults
from repro.errors import (ParameterError, ReproError, ServiceError,
                          ServiceOverloadError)
from repro.service.cache import ResultCache
from repro.service.jobs import parse_job_spec
from repro.service.metrics import (MetricsRegistry, StructuredLogger,
                                   new_request_id)
from repro.service.scheduler import (CoalescingScheduler, Job,
                                     JobRegistry)

__all__ = ["SERVICE_COUNTERS", "SERVICE_HISTOGRAMS", "MAX_STATUS_WAIT_S",
           "JobServer", "serve", "shutdown_authorized"]

#: Longest ``GET /jobs/<id>?wait=`` hold [s]; longer requests are
#: clamped, so a client cannot park a handler thread indefinitely.
MAX_STATUS_WAIT_S = 10.0

#: Counter names exported at ``/metrics`` (documented API).
SERVICE_COUNTERS = (
    "service_jobs_submitted_total",
    "service_jobs_completed_total",
    "service_jobs_failed_total",
    "service_cache_hits_total",
    "service_cache_misses_total",
    "service_engine_dispatches_total",
    "service_jobs_coalesced_total",
    "service_lane_fallbacks_total",
    "service_jobs_timeout_total",
    "service_faults_injected_total",
)

#: Histogram names exported at ``/metrics`` (documented API).
SERVICE_HISTOGRAMS = (
    "service_queue_wait_seconds",
    "service_solve_seconds",
    "service_total_seconds",
)

_COUNTER_HELP = {
    "service_jobs_submitted_total": "Jobs accepted by POST /jobs.",
    "service_jobs_completed_total": "Jobs finished successfully "
                                    "(including cache hits).",
    "service_jobs_failed_total": "Jobs that ended in the failed state.",
    "service_cache_hits_total": "Submissions answered from the "
                                "fingerprint result cache.",
    "service_cache_misses_total": "Submissions that had to run.",
    "service_engine_dispatches_total": "Engine calls issued (one per "
                                       "coalesced group or solo job).",
    "service_jobs_coalesced_total": "Jobs that shared a lane-batched "
                                    "dispatch with at least one other "
                                    "job.",
    "service_lane_fallbacks_total": "Lanes re-run through the scalar "
                                    "engine after failing in a batch.",
    "service_jobs_timeout_total": "Jobs failed because their "
                                  "deadline_s budget expired.",
    "service_faults_injected_total": "Fault-seam firings observed "
                                     "while a FaultPlan was active "
                                     "(chaos runs only; 0 in "
                                     "production).",
}

_HISTOGRAM_HELP = {
    "service_queue_wait_seconds": "Seconds jobs spent queued "
                                  "(includes the coalescing window).",
    "service_solve_seconds": "Seconds per engine dispatch.",
    "service_total_seconds": "Seconds from submission to completion.",
}


def shutdown_authorized(client_host: str, token: str,
                        expected: str) -> bool:
    """Decide whether a ``POST /shutdown`` request may stop the server.

    A matching ``X-Shutdown-Token`` always authorizes; loopback
    clients are trusted without one (the default ``127.0.0.1`` bind,
    and what the in-repo tests/CI smoke rely on).  Everyone else is
    refused — binding ``--host 0.0.0.0`` must not let any client that
    can reach the port terminate the service.
    """
    if token and hmac.compare_digest(token, expected):
        return True
    try:
        return ipaddress.ip_address(client_host).is_loopback
    except ValueError:
        return False


class JobServer:
    """A complete in-process job service.

    Usable with or without HTTP: :meth:`submit` / :meth:`job` drive it
    directly (tests, benchmarks), while :meth:`start` binds the
    threaded HTTP front end.  Also a context manager — ``__exit__``
    shuts everything down.
    """

    def __init__(self, *, workers: int = 2, batch_window: float = 0.05,
                 cache_size: int = 256, max_lanes: int = 64,
                 max_queue: Optional[int] = None,
                 backend: Optional[str] = None,
                 registry_limit: int = 4096,
                 logger: Optional[StructuredLogger] = None) -> None:
        self.metrics = MetricsRegistry()
        for name in SERVICE_COUNTERS:
            self.metrics.counter(name, _COUNTER_HELP[name])
        for name in SERVICE_HISTOGRAMS:
            self.metrics.histogram(name, _HISTOGRAM_HELP[name])
        self.cache = ResultCache(cache_size)
        self.registry = JobRegistry(registry_limit)
        self.log = logger or StructuredLogger()
        #: Per-run secret authorizing non-loopback POST /shutdown
        #: (logged at start so the operator can capture it).
        self.shutdown_token = secrets.token_hex(16)
        self.scheduler = CoalescingScheduler(
            workers=workers, batch_window=batch_window,
            max_lanes=max_lanes, max_queue=max_queue, backend=backend,
            on_group=self._group_done)
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._http_thread: Optional[threading.Thread] = None
        # Chaos accounting: every fault-seam firing in this process
        # while this server lives shows up at /metrics.
        self._fault_listener = self._on_fault
        faults.add_listener(self._fault_listener)

    def _on_fault(self, seam: str, key: Optional[int]) -> None:
        """Fault-injection listener: count firings into the metrics."""
        self.metrics.get("service_faults_injected_total").inc()
        self.log.event("fault_injected", seam=seam, key=key)

    # -- core API ------------------------------------------------------

    def submit(self, payload: Any) -> Job:
        """Validate and enqueue a job payload; returns the job.

        Cache hits complete synchronously (``state == "done"``,
        ``cached`` set) without touching the scheduler.  Invalid specs
        raise :class:`repro.errors.ReproError` (HTTP layer: 400).
        """
        request_id = new_request_id()
        spec = parse_job_spec(payload)
        job = Job(spec, request_id=request_id)
        self.registry.add(job)
        self.metrics.get("service_jobs_submitted_total").inc()
        cached = self.cache.get(spec.fingerprint)
        if cached is not None:
            self.metrics.get("service_cache_hits_total").inc()
            job.finish(cached, cached=True)
            self.metrics.get("service_jobs_completed_total").inc()
            self.log.event("job_cached", request_id=request_id,
                           job_id=job.id, kind=spec.kind,
                           fingerprint=spec.fingerprint)
            return job
        self.metrics.get("service_cache_misses_total").inc()
        self.log.event("job_submitted", request_id=request_id,
                       job_id=job.id, kind=spec.kind,
                       coalescable=spec.group_key is not None)
        self.scheduler.submit(job)
        return job

    def job(self, job_id: str) -> Optional[Job]:
        """Look up a job by id (``None`` when unknown)."""
        return self.registry.get(job_id)

    def health(self) -> Dict[str, Any]:
        """Liveness document served at ``/healthz``."""
        return {
            "status": "ok",
            "jobs": self.registry.counts(),
            "queued": self.scheduler.queued,
            "cache_entries": len(self.cache),
        }

    def metrics_text(self) -> str:
        """Prometheus text exposition of all service metrics."""
        return self.metrics.render()

    def _group_done(self, group: List[Job], stats: dict) -> None:
        """Scheduler callback: account one finished dispatch."""
        self.metrics.get("service_engine_dispatches_total").inc()
        if len(group) > 1:
            self.metrics.get("service_jobs_coalesced_total").inc(
                len(group))
        lane_fb = stats.get("fallback_lanes", 0)
        if not isinstance(lane_fb, (int, float)):
            lane_fb = len(lane_fb)
        fallbacks = (lane_fb + stats.get("group_fallback", 0)
                     + stats.get("dc_scalar_fallbacks", 0))
        if fallbacks:
            self.metrics.get("service_lane_fallbacks_total").inc(
                fallbacks)
        solve_hist = self.metrics.get("service_solve_seconds")
        total_hist = self.metrics.get("service_total_seconds")
        wait_hist = self.metrics.get("service_queue_wait_seconds")
        for job in group:
            if job.state == "done":
                self.metrics.get("service_jobs_completed_total").inc()
                self.cache.put(job.spec.fingerprint, job.result)
            else:
                self.metrics.get("service_jobs_failed_total").inc()
                if job.error_kind == "timeout":
                    self.metrics.get(
                        "service_jobs_timeout_total").inc()
            if job.queue_wait is not None:
                wait_hist.observe(job.queue_wait)
            if job.total_seconds is not None:
                total_hist.observe(job.total_seconds)
                solve_hist.observe(job.total_seconds - job.queue_wait)
            self.log.event(
                "job_done" if job.state == "done" else "job_failed",
                request_id=job.request_id, job_id=job.id,
                kind=job.spec.kind, coalesced=job.coalesced,
                total_s=round(job.total_seconds or 0.0, 6),
                error=job.error)

    # -- HTTP front end ------------------------------------------------

    def start(self, host: str = "127.0.0.1",
              port: int = 0) -> Tuple[str, int]:
        """Bind the HTTP server (``port=0`` picks a free port) and
        serve it on a daemon thread; returns ``(host, port)``."""
        if self._httpd is not None:
            raise ServiceError("server already started")
        handler = _make_handler(self)
        self._httpd = ThreadingHTTPServer((host, port), handler)
        self._httpd.daemon_threads = True
        self._http_thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-service-http", daemon=True)
        self._http_thread.start()
        bound_host, bound_port = self._httpd.server_address[:2]
        self.log.event("server_started", host=bound_host,
                       port=bound_port,
                       shutdown_token=self.shutdown_token)
        return str(bound_host), int(bound_port)

    @property
    def port(self) -> Optional[int]:
        """Bound HTTP port (``None`` before :meth:`start`)."""
        if self._httpd is None:
            return None
        return int(self._httpd.server_address[1])

    def shutdown(self) -> None:
        """Stop the HTTP listener and the worker pool."""
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
            if self._http_thread is not None:
                self._http_thread.join(timeout=5.0)
                self._http_thread = None
        faults.remove_listener(self._fault_listener)
        stuck = self.scheduler.shutdown(wait=True, timeout=10.0)
        if stuck:
            self.log.event("server_stopped_stuck_workers",
                           threads=stuck)
        self.log.event("server_stopped")

    def __enter__(self) -> "JobServer":
        """Context-manager entry (no side effects)."""
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Context-manager exit: full shutdown."""
        self.shutdown()


def _make_handler(server: JobServer):
    """Build the request-handler class bound to one :class:`JobServer`."""

    class Handler(BaseHTTPRequestHandler):
        server_version = "repro-service"
        protocol_version = "HTTP/1.1"

        def _reply(self, status: int, payload: Any,
                   content_type: str = "application/json",
                   headers: Optional[Dict[str, str]] = None) -> None:
            if isinstance(payload, str):
                body = payload.encode()
            else:
                body = json.dumps(payload).encode()
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            for name, value in (headers or {}).items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(body)

        def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
            path, _, query = self.path.partition("?")
            if path == "/healthz":
                self._reply(200, server.health())
            elif path == "/metrics":
                self._reply(200, server.metrics_text(),
                            content_type="text/plain; version=0.0.4")
            elif path.startswith("/jobs/"):
                job = server.job(path[len("/jobs/"):])
                if job is None:
                    self._reply(404, {"error": "unknown job id"})
                    return
                try:
                    wait = float(parse_qs(query).get("wait", ["0"])[0])
                except ValueError:
                    wait = -1.0
                if not 0.0 <= wait < float("inf"):
                    self._reply(400, {"error": "wait must be a "
                                               "non-negative number of "
                                               "seconds"})
                    return
                if wait > 0:
                    job.wait(min(wait, MAX_STATUS_WAIT_S))
                self._reply(200, job.payload())
            else:
                self._reply(404, {"error": f"no route {path!r}"})

        def do_POST(self) -> None:  # noqa: N802 (stdlib naming)
            path = self.path.split("?", 1)[0]
            if path == "/shutdown":
                token = self.headers.get("X-Shutdown-Token", "")
                if not shutdown_authorized(self.client_address[0],
                                           token,
                                           server.shutdown_token):
                    self._reply(403, {"error": "shutdown requires a "
                                               "valid X-Shutdown-Token "
                                               "header"})
                    return
                self._reply(200, {"ok": True})
                threading.Thread(target=server.shutdown,
                                 daemon=True).start()
                return
            if path.startswith("/jobs/") and path.endswith("/cancel"):
                job_id = path[len("/jobs/"):-len("/cancel")]
                job = server.job(job_id)
                if job is None:
                    self._reply(404, {"error": "unknown job id"})
                    return
                changed = job.cancel()
                server.log.event("job_cancel", job_id=job.id,
                                 changed=changed, state=job.state)
                self._reply(200, job.payload())
                return
            if path != "/jobs":
                self._reply(404, {"error": f"no route {path!r}"})
                return
            try:
                length = int(self.headers.get("Content-Length", "0"))
                payload = json.loads(self.rfile.read(length) or b"{}")
            except (ValueError, json.JSONDecodeError):
                self._reply(400, {"error": "body must be valid JSON"})
                return
            try:
                job = server.submit(payload)
            except ServiceOverloadError as exc:
                retry_after = max(1, int(round(exc.retry_after_s)))
                self._reply(503, {"error": str(exc),
                                  "retry_after_s": exc.retry_after_s},
                            headers={"Retry-After": str(retry_after)})
                return
            except ReproError as exc:
                self._reply(400, {"error": str(exc)})
                return
            self._reply(202, job.payload())

        def log_message(self, fmt: str, *args) -> None:
            server.log.event("http", client=self.client_address[0],
                             line=fmt % args)

    return Handler


def serve(*, host: str = "127.0.0.1", port: int = 8080,
          workers: int = 2, batch_window: float = 0.05,
          cache_size: int = 256, max_queue: Optional[int] = None,
          backend: Optional[str] = None,
          block: bool = True,
          logger: Optional[StructuredLogger] = None) -> JobServer:
    """Start a :class:`JobServer` on ``host:port``.

    With ``block=True`` (the CLI path) this runs until interrupted or
    remotely shut down, then returns the (stopped) server; with
    ``block=False`` it returns immediately and the caller owns
    shutdown.  ``max_queue`` bounds the scheduler queue — submissions
    past the bound are refused with HTTP 503 + ``Retry-After``.
    """
    server = JobServer(workers=workers, batch_window=batch_window,
                       cache_size=cache_size, max_queue=max_queue,
                       backend=backend, logger=logger)
    server.start(host=host, port=port)
    if not block:
        return server
    try:
        while True:
            thread = server._http_thread
            if thread is None:
                break
            thread.join(0.2)
    except KeyboardInterrupt:
        server.shutdown()
    return server
