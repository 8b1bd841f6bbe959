"""Synchronous HTTP client for the job service.

Stdlib-only (``urllib``), mirroring the server's stdlib-only stance.
HTTP error replies and failed jobs surface as
:class:`repro.errors.ServiceError`; transport-level failures (refused
connection, reset, DNS) surface as the
:class:`repro.errors.ServiceTransportError` subclass so callers can
retry those — and only those — safely.  :meth:`ServiceClient.submit`
already does: job submission is idempotent (the server's fingerprint
cache answers a duplicate of an already-finished job without re-running
it), so the client retries transport errors with capped exponential
backoff before giving up.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from typing import Any, Dict, Optional

from repro import faults
from repro.errors import ServiceError, ServiceTransportError

__all__ = ["ServiceClient"]


class ServiceClient:
    """Talk to a running :class:`repro.service.JobServer`.

    ``base_url`` is the server root, e.g. ``http://127.0.0.1:8080``.
    ``shutdown_token`` is only needed to :meth:`shutdown` a server
    over a non-loopback connection (the server logs its token at
    start); loopback clients never need it.  ``retries`` bounds the
    extra attempts :meth:`submit` makes after a transport-level
    failure (HTTP error replies are never retried).
    """

    def __init__(self, base_url: str, timeout: float = 30.0,
                 shutdown_token: Optional[str] = None,
                 retries: int = 2, backoff: float = 0.05) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = float(timeout)
        self.shutdown_token = shutdown_token
        self.retries = int(retries)
        self.backoff = float(backoff)

    def _request(self, method: str, path: str,
                 payload: Optional[Any] = None,
                 extra_headers: Optional[Dict[str, str]] = None) -> Any:
        url = f"{self.base_url}{path}"
        data = None
        headers = dict(extra_headers or {})
        if payload is not None:
            data = json.dumps(payload).encode()
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(url, data=data,
                                         headers=headers,
                                         method=method)
        faults.sleep_seam("service.latency")
        try:
            if faults.fire("service.transport"):
                raise urllib.error.URLError(
                    "injected transport fault (service.transport)")
            with urllib.request.urlopen(request,
                                        timeout=self.timeout) as reply:
                body = reply.read()
                content_type = reply.headers.get("Content-Type", "")
        except urllib.error.HTTPError as exc:
            detail = exc.read().decode(errors="replace")
            try:
                detail = json.loads(detail).get("error", detail)
            except (ValueError, AttributeError):
                pass
            raise ServiceError(
                f"{method} {path} -> HTTP {exc.code}: {detail}"
            ) from None
        except (urllib.error.URLError, OSError) as exc:
            raise ServiceTransportError(
                f"{method} {path} failed: {exc}") from None
        if content_type.startswith("application/json"):
            return json.loads(body)
        return body.decode()

    def submit(self, spec: Dict[str, Any]) -> Dict[str, Any]:
        """POST a job spec; returns the job document (with ``id``).

        Transport failures are retried up to ``self.retries`` times
        with capped exponential backoff — safe because submission is
        idempotent through the server's fingerprint cache (a duplicate
        of a finished job is answered from cache, never re-run).
        Error replies from the server (HTTP 4xx/5xx) are not retried
        here; a 503 carries the queue-full message and its
        ``Retry-After`` hint for the caller to honour.
        """
        delay = self.backoff
        for attempt in range(self.retries + 1):
            try:
                return self._request("POST", "/jobs", spec)
            except ServiceTransportError:
                if attempt == self.retries:
                    raise
                time.sleep(delay)
                delay = min(delay * 2, 1.0)
        raise AssertionError("unreachable")  # pragma: no cover

    def status(self, job_id: str, wait: float = 0.0) -> Dict[str, Any]:
        """GET one job's current document (result inline when done).

        With ``wait > 0`` the server holds the reply until the job
        finishes or ``wait`` seconds pass, whichever comes first.
        """
        if wait > 0:
            return self._request("GET", f"/jobs/{job_id}?wait={wait:g}")
        return self._request("GET", f"/jobs/{job_id}")

    def cancel(self, job_id: str) -> Dict[str, Any]:
        """POST ``/jobs/<id>/cancel`` — cooperatively cancel a job.

        Returns the job document after the cancel request.  A queued
        job fails immediately; a running job unwinds at its next
        cancellation check; a finished job is left untouched (the
        request is an acknowledged no-op).
        """
        return self._request("POST", f"/jobs/{job_id}/cancel")

    def wait(self, job_id: str, timeout: float = 60.0,
             poll: float = 0.02,
             poll_max: float = 0.5) -> Dict[str, Any]:
        """Poll until the job completes; returns the final document.

        The poll interval starts at ``poll`` and backs off
        exponentially to at most ``poll_max``, so short jobs return
        fast without long-running ones hammering the server.  Each poll
        after the first asks the server to hold its reply for up to one
        interval (``status(wait=...)``), so a finished job is seen as
        soon as it finishes rather than at the next poll.

        Raises :class:`repro.errors.ServiceError` when the job failed
        or ``timeout`` elapsed first.  A wait timeout is a *client*
        timeout only: the job keeps running server-side and can still
        be polled, waited on again, or stopped with :meth:`cancel`
        (:meth:`run` does that automatically).  To bound the work
        itself, submit with ``deadline_s`` so the server enforces the
        budget even if this client goes away.
        """
        deadline = time.monotonic() + timeout
        interval = poll
        hold = 0.0
        while True:
            asked = time.monotonic()
            doc = self.status(job_id, wait=hold)
            if doc["state"] == "done":
                return doc
            if doc["state"] == "failed":
                raise ServiceError(
                    f"job {job_id} failed: {doc.get('error')}")
            if time.monotonic() >= deadline:
                raise ServiceError(
                    f"job {job_id} still {doc['state']} after "
                    f"{timeout:g}s")
            # Sleep out any part of the hold the server did not use,
            # so polls never come faster than one per interval.
            time.sleep(max(0.0, asked + hold - time.monotonic()))
            hold = min(interval, max(0.0, deadline - time.monotonic()))
            interval = min(interval * 1.5, poll_max)

    def run(self, spec: Dict[str, Any], timeout: float = 60.0,
            cancel_on_timeout: bool = True) -> Dict[str, Any]:
        """Submit a job and wait for its final document.

        When the wait times out and ``cancel_on_timeout`` is set (the
        default), the job is cancelled server-side before the timeout
        error propagates, so an abandoned ``run()`` does not leave
        work burning a scheduler slot.  Pass
        ``cancel_on_timeout=False`` to leave the job running (poll or
        :meth:`wait` for it again later).
        """
        doc = self.submit(spec)
        if doc["state"] in ("done", "failed"):
            if doc["state"] == "failed":
                raise ServiceError(
                    f"job {doc['id']} failed: {doc.get('error')}")
            return doc
        try:
            return self.wait(doc["id"], timeout=timeout)
        except ServiceError:
            if cancel_on_timeout:
                try:
                    state = self.status(doc["id"]).get("state")
                    if state in ("queued", "running"):
                        self.cancel(doc["id"])
                except ServiceError:  # pragma: no cover - best effort
                    pass
            raise

    def health(self) -> Dict[str, Any]:
        """GET /healthz."""
        return self._request("GET", "/healthz")

    def metrics_text(self) -> str:
        """GET /metrics (Prometheus text format)."""
        return self._request("GET", "/metrics")

    def metric_value(self, name: str) -> float:
        """Read one un-labelled sample value out of ``/metrics``."""
        for line in self.metrics_text().splitlines():
            if line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) == 2 and parts[0] == name:
                return float(parts[1])
        raise ServiceError(f"no metric {name!r} at /metrics")

    def shutdown(self) -> Dict[str, Any]:
        """POST /shutdown — ask the server to stop cleanly.

        Sends ``X-Shutdown-Token`` when the client holds one; required
        for anything other than a loopback connection.
        """
        headers = ({"X-Shutdown-Token": self.shutdown_token}
                   if self.shutdown_token else None)
        return self._request("POST", "/shutdown",
                             extra_headers=headers)
