"""Coalescing job scheduler: a worker pool over a shared queue.

A worker that pops a coalescable job does not dispatch it
immediately — it holds the job for up to ``batch_window`` seconds,
collecting every other queued job with the same ``group_key``
(identical topology + analysis parameters, the
:class:`repro.circuit.LaneBatch` compatibility contract).  The whole
group then runs as *one* ``batch_transient`` / ``batch_dc_sweep``
call, and per-lane results are demuxed back to their jobs.  Lanes
that fail inside the batch fall back through the engine's own scalar
re-run; a dispatch that fails as a whole is retried per job through
the scalar path, so coalescing can change latency but never turn a
solvable job into a failure.

The window is a latency/throughput trade: requests arriving within
``batch_window`` of each other share one stacked solve (the repo's
lane-batching speedups, applied across clients), at the cost of up to
one window of added latency for the first job of a group.

Each worker thread owns one forked engine process and only queues,
waits and demuxes; the solve itself runs in the process.  The engine
is pure Python in places, and a solve on a thread of the server would
hold the GIL for seconds at a time, so status polls, cancels and
submissions would all wait for it.  Cancellation reaches the process
through a shared-memory flag that its :class:`CancelToken` checks
read, and a process whose dispatch nobody waits for any more is
killed past a short grace period.

An engine process is forked at its worker's first dispatch, not when
the scheduler starts: by then the server has parsed that job, so the
process inherits the device fits the parse built instead of fitting
the same models again.
"""

from __future__ import annotations

import mmap
import multiprocessing
import os
import signal
import threading
import time
import traceback
import uuid
from collections import OrderedDict, deque
from typing import Any, Callable, Dict, List, Optional

from repro import faults
from repro.cancel import CancelToken
from repro.errors import (CancelledError, ParameterError, ReproError,
                          ServiceError, ServiceOverloadError)
from repro.service.jobs import (JobSpec, execute_group, execute_spec,
                                parse_job_spec)

__all__ = ["Job", "JobRegistry", "CoalescingScheduler"]

#: Job lifecycle states.
JOB_STATES = ("pending", "running", "done", "failed")


class Job:
    """Runtime record of one submitted job.

    Carries the validated :class:`repro.service.jobs.JobSpec`, the
    lifecycle state, timing marks and (once finished) the result
    payload or error message.  ``wait`` blocks on an internal event
    that :meth:`finish` / :meth:`fail` set.
    """

    def __init__(self, spec: JobSpec,
                 request_id: Optional[str] = None) -> None:
        self.id = uuid.uuid4().hex[:16]
        self.spec = spec
        self.request_id = request_id or self.id
        self.state = "pending"
        self.cached = False
        self.coalesced = 1
        self.result: Optional[Any] = None
        self.error: Optional[str] = None
        #: ``"timeout"`` / ``"cancelled"`` / ``"error"`` once failed
        self.error_kind: Optional[str] = None
        #: per-job ``deadline_s`` budget (None = unbounded), measured
        #: from submission — queue wait counts against it
        self.deadline_s = spec.payload.get("deadline_s")
        #: cooperative cancellation token threaded into the engine
        self.cancel_token = CancelToken(self.deadline_s)
        self.submitted = time.time()
        self.started: Optional[float] = None
        self.finished: Optional[float] = None
        self._done = threading.Event()

    def mark_running(self) -> None:
        """Transition pending -> running (records the start time)."""
        self.started = time.time()
        self.state = "running"

    def finish(self, result: Any, *, cached: bool = False) -> None:
        """Complete the job successfully with ``result``."""
        self.result = result
        self.cached = cached
        self.finished = time.time()
        if self.started is None:
            self.started = self.finished
        self.state = "done"
        self._done.set()

    def fail(self, error: str, *, kind: str = "error") -> None:
        """Complete the job with an error message.

        ``kind`` structures the failure for clients: ``"timeout"``
        (deadline exceeded), ``"cancelled"`` (explicit cancel) or
        ``"error"`` (everything else).
        """
        self.error = error
        self.error_kind = kind
        self.finished = time.time()
        if self.started is None:
            self.started = self.finished
        self.state = "failed"
        self._done.set()

    def cancel(self, reason: str = "cancelled by client") -> bool:
        """Request cooperative cancellation; ``False`` when the job
        already finished.

        A queued job fails immediately; a running one unwinds at the
        engine's next cancellation check (per Newton iteration).
        """
        if self.state in ("done", "failed"):
            return False
        self.cancel_token.cancel(reason)
        if self.state == "pending":
            self.fail(reason, kind="cancelled")
        return True

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the job finishes; ``False`` on timeout."""
        return self._done.wait(timeout)

    @property
    def queue_wait(self) -> Optional[float]:
        """Seconds spent queued before a worker picked the job up."""
        if self.started is None:
            return None
        return self.started - self.submitted

    @property
    def total_seconds(self) -> Optional[float]:
        """Seconds from submission to completion."""
        if self.finished is None:
            return None
        return self.finished - self.submitted

    def payload(self, include_result: bool = True) -> Dict[str, Any]:
        """JSON-able status document served by ``GET /jobs/<id>``."""
        doc: Dict[str, Any] = {
            "id": self.id,
            "kind": self.spec.kind,
            "state": self.state,
            "fingerprint": self.spec.fingerprint,
            "cached": self.cached,
            "coalesced": self.coalesced,
            "request_id": self.request_id,
        }
        if self.total_seconds is not None:
            doc["timings"] = {
                "queue_wait_s": self.queue_wait,
                "total_s": self.total_seconds,
            }
        if self.deadline_s is not None:
            doc["deadline_s"] = self.deadline_s
        if self.state == "failed":
            doc["error"] = self.error
            doc["error_kind"] = self.error_kind
        elif self.state == "done" and include_result:
            doc["result"] = self.result
        return doc


class JobRegistry:
    """Thread-safe id -> :class:`Job` map with bounded history.

    Finished jobs beyond ``limit`` are evicted oldest-first so a
    long-lived server does not grow without bound; pending/running
    jobs are never evicted.
    """

    def __init__(self, limit: int = 4096) -> None:
        if limit < 1:
            raise ParameterError(f"registry limit must be >= 1: "
                                 f"{limit!r}")
        self.limit = limit
        self._jobs: "OrderedDict[str, Job]" = OrderedDict()
        self._lock = threading.Lock()

    def add(self, job: Job) -> None:
        """Register a job and evict old finished jobs over the limit."""
        with self._lock:
            self._jobs[job.id] = job
            if len(self._jobs) > self.limit:
                for job_id in [jid for jid, j in self._jobs.items()
                               if j.state in ("done", "failed")]:
                    if len(self._jobs) <= self.limit:
                        break
                    del self._jobs[job_id]

    def get(self, job_id: str) -> Optional[Job]:
        """Look up a job by id (``None`` when unknown/evicted)."""
        with self._lock:
            return self._jobs.get(job_id)

    def counts(self) -> Dict[str, int]:
        """Number of jobs per state (for ``/healthz``)."""
        with self._lock:
            counts = dict.fromkeys(JOB_STATES, 0)
            for job in self._jobs.values():
                counts[job.state] += 1
            return counts

    def __len__(self) -> int:
        with self._lock:
            return len(self._jobs)


class CoalescingScheduler:
    """Worker pool that drains a job queue, coalescing compatible jobs
    into lane-batched engine dispatches.

    ``on_group`` (when given) is called with each dispatched group —
    the server uses it for metrics and cache writes; tests use it to
    observe grouping without reaching into internals.
    """

    def __init__(self, *, workers: int = 2, batch_window: float = 0.05,
                 max_lanes: int = 64, max_queue: Optional[int] = None,
                 backend=None,
                 on_group: Optional[Callable[[List[Job], dict],
                                             None]] = None) -> None:
        if workers < 1:
            raise ParameterError(f"workers must be >= 1: {workers!r}")
        if batch_window < 0:
            raise ParameterError(
                f"batch_window must be >= 0: {batch_window!r}")
        if max_lanes < 1:
            raise ParameterError(f"max_lanes must be >= 1: "
                                 f"{max_lanes!r}")
        if max_queue is not None and max_queue < 1:
            raise ParameterError(f"max_queue must be >= 1 or None: "
                                 f"{max_queue!r}")
        self.batch_window = float(batch_window)
        self.max_lanes = int(max_lanes)
        self.max_queue = max_queue
        self.backend = backend
        self._on_group = on_group
        self._queue: "deque[Job]" = deque()
        self._cv = threading.Condition()
        self._stopping = False
        # One engine process per worker thread, forked at its first
        # dispatch; without fork the threads run the engine.
        self._engines: List[Optional[_EngineProcess]] = [
            _EngineProcess(backend, self.max_lanes)
            if hasattr(os, "fork") else None
            for _ in range(workers)
        ]
        self._threads = [
            threading.Thread(target=self._worker_loop, args=(engine,),
                             name=f"repro-service-worker-{i}",
                             daemon=True)
            for i, engine in enumerate(self._engines)
        ]
        for thread in self._threads:
            thread.start()

    def submit(self, job: Job) -> None:
        """Enqueue a job for execution.

        Raises :class:`repro.errors.ServiceOverloadError` when the
        queue already holds ``max_queue`` jobs — the HTTP layer turns
        that into 503 + ``Retry-After`` backpressure.
        """
        with self._cv:
            if self._stopping:
                raise ServiceError("scheduler is shutting down")
            if (self.max_queue is not None
                    and len(self._queue) >= self.max_queue):
                raise ServiceOverloadError(
                    f"job queue is full ({self.max_queue} queued); "
                    f"retry later",
                    retry_after_s=max(1.0, self.batch_window * 2))
            self._queue.append(job)
            self._cv.notify_all()

    def shutdown(self, wait: bool = True,
                 timeout: Optional[float] = None) -> List[str]:
        """Stop accepting work and (optionally) join the workers.

        Queued jobs that no worker has claimed are failed with a
        shutdown error so clients never hang on them.  Returns the
        names of worker threads that failed to join within ``timeout``
        (an empty list means a clean shutdown); the engine process of
        each such wedged worker is then killed, so its job fails and
        the thread exits.
        """
        with self._cv:
            self._stopping = True
            abandoned = list(self._queue)
            self._queue.clear()
            self._cv.notify_all()
        for job in abandoned:
            job.fail("service shut down before the job ran")
        stuck: List[str] = []
        if wait:
            for thread, engine in zip(self._threads, self._engines):
                thread.join(timeout)
                if thread.is_alive():
                    stuck.append(thread.name)
                    if engine is not None:
                        engine.kill()
        return stuck

    @property
    def queued(self) -> int:
        """Number of jobs waiting for a worker."""
        with self._cv:
            return len(self._queue)

    # -- worker internals ---------------------------------------------

    def _pop_matches(self, group_key: str, budget: int) -> List[Job]:
        """Remove up to ``budget`` queued jobs sharing ``group_key``.

        Caller must hold ``self._cv``.
        """
        if budget <= 0:
            return []
        matches: List[Job] = []
        kept: "deque[Job]" = deque()
        while self._queue:
            job = self._queue.popleft()
            if (len(matches) < budget
                    and job.spec.group_key == group_key):
                matches.append(job)
            else:
                kept.append(job)
        self._queue.extend(kept)
        return matches

    def _gather_group(self, first: Job) -> List[Job]:
        """Collect same-``group_key`` jobs for up to ``batch_window``."""
        group = [first]
        key = first.spec.group_key
        deadline = time.monotonic() + self.batch_window
        while len(group) < self.max_lanes:
            with self._cv:
                group.extend(self._pop_matches(
                    key, self.max_lanes - len(group)))
                if len(group) >= self.max_lanes or self._stopping:
                    break
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._cv.wait(remaining)
        return group

    def _worker_loop(self, engine: Optional["_EngineProcess"]) -> None:
        try:
            while True:
                with self._cv:
                    while not self._queue and not self._stopping:
                        self._cv.wait()
                    if self._stopping and not self._queue:
                        return
                    job = self._queue.popleft()
                if job.spec.group_key is None or self.batch_window == 0:
                    group = [job]
                else:
                    group = self._gather_group(job)
                self._run_group(group, engine)
        finally:
            if engine is not None:
                engine.stop()

    def _run_group(self, group: List[Job],
                   engine: Optional["_EngineProcess"]) -> None:
        # Weed out jobs already decided before dispatch: cancelled
        # while queued, or whose deadline expired in the queue (the
        # budget is measured from submission).
        live: List[Job] = []
        for job in group:
            if job.state in ("done", "failed"):
                continue
            token = job.cancel_token
            if token.cancelled or token.expired:
                try:
                    token.check()
                except CancelledError as exc:
                    job.fail(str(exc), kind=exc.kind)
                continue
            live.append(job)
        group = live
        if not group:
            return
        # Chaos seam: injected dispatch latency (results unchanged).
        faults.sleep_seam("service.latency")
        for job in group:
            job.coalesced = len(group)
            job.mark_running()
        if engine is None:
            stats: dict = {}
            reply = _execute([job.spec for job in group],
                             [job.cancel_token for job in group],
                             self.backend, stats)
        else:
            try:
                reply, stats = engine.run(group)
            except Exception as exc:  # pragma: no cover - defensive
                reply, stats = ("internal", f"internal error: {exc!r}"), {}
        if reply[0] == "internal":
            # Never let an unexpected bug take a worker thread (and
            # with it the whole pool) down; the jobs report it.
            for job in group:
                job.fail(reply[1])
            return
        if reply[0] == "cancelled":
            for job in group:
                _fail_cancelled(job, reply[1], reply[2])
        else:
            outcomes = reply[1]
            for job, outcome in zip(group, outcomes):
                if outcome[0] == "done":
                    job.finish(outcome[1])
                elif outcome[2] == "error":
                    job.fail(outcome[1])
                else:
                    _fail_cancelled(job, outcome[1], outcome[2])
            # execute_group contracts one entry per job; if a future
            # batch path ever breaks that, fail the unmatched jobs
            # instead of leaving them "running" until the client's
            # wait times out.
            for job in group[len(outcomes):]:
                job.fail(f"internal error: dispatch returned "
                         f"{len(outcomes)} results for {len(group)} "
                         f"jobs")
        if self._on_group is not None:
            try:
                self._on_group(group, stats)
            except Exception:  # pragma: no cover - defensive
                pass  # accounting must never kill a worker


def _fail_cancelled(job: Job, message: str, kind: str) -> None:
    """Fail ``job`` after the engine unwound it: in its own token's
    words (client reason or deadline) when the token fired, else in
    the engine's."""
    try:
        job.cancel_token.check()
    except CancelledError as exc:
        message, kind = str(exc), exc.kind
    job.fail(message, kind=kind)


def _execute(specs: List[JobSpec], tokens: List[CancelToken], backend,
             stats: dict) -> tuple:
    """Run one dispatch of ``specs`` (one cancel token per spec).

    Returns ``("ok", outcomes)`` with one ``("done", result)`` or
    ``("failed", message, kind)`` per job, ``("cancelled", message,
    kind)`` when the dispatch was cancelled as a whole, or
    ``("internal", message)`` for an unexpected bug.  The reply is
    plain data, so it crosses the engine-process pipe unchanged.
    """
    # Deadline/cancel jobs run solo (parse_job_spec clears their
    # group_key), so the token threads cleanly through the scalar
    # engine instead of the lock-step batch loops.
    cancel = tokens[0] if len(specs) == 1 else None
    try:
        results = execute_group(specs, backend=backend, stats=stats,
                                cancel=cancel)
    except CancelledError as exc:
        return ("cancelled", str(exc), exc.kind)
    except ReproError:
        # Whole-dispatch failure: retry each job scalar so one
        # poisoned lane (or a batching limitation) cannot take the
        # group down.
        stats["group_fallback"] = len(specs)
        results = []
        for spec, token in zip(specs, tokens):
            try:
                results.append(execute_spec(spec, backend=backend,
                                            cancel=token))
            except ReproError as exc:
                results.append(exc)
    except Exception as exc:  # pragma: no cover - defensive
        return ("internal", f"internal error: {exc!r}")
    outcomes: list = []
    for result in results:
        if isinstance(result, CancelledError):
            outcomes.append(("failed", str(result), result.kind))
        elif isinstance(result, ReproError):
            outcomes.append(("failed", str(result), "error"))
        else:
            outcomes.append(("done", result))
    return ("ok", outcomes)


# ---------------------------------------------------------------------
# Engine processes
# ---------------------------------------------------------------------

#: seconds between a busy worker thread's looks at its jobs' tokens
_POLL_S = 0.02
#: seconds a dispatch whose every job was cancelled or timed out may
#: run on before its engine process is killed (the cooperative check
#: normally unwinds it within one Newton iteration)
_KILL_GRACE_S = 1.0
#: seconds an engine process gets to exit after a stop request
_STOP_WAIT_S = 2.0

#: every engine process with a live pipe; a newly forked engine closes
#: its copies of their server-side ends, so each engine sees EOF once
#: the server goes away
_LIVE: "set[_EngineProcess]" = set()


class _SlotToken(CancelToken):
    """The engine-process side of one job's cancel token: the job's
    deadline, plus a shared-memory flag the worker thread sets when
    the job is cancelled."""

    def __init__(self, flags: mmap.mmap, slot: int,
                 deadline_s: Optional[float],
                 deadline: Optional[float]) -> None:
        super().__init__()
        self.deadline_s = deadline_s
        self._deadline = deadline
        self._flags = flags
        self._slot = slot

    @property
    def cancelled(self) -> bool:
        return bool(self._flags[self._slot])

    def check(self) -> None:
        if self._flags[self._slot]:
            raise CancelledError("cancelled", kind="cancelled")
        super().check()


def _engine_main(conn, flags: mmap.mmap, backend) -> None:
    """Engine-process body: run dispatches until told to stop."""
    while True:
        try:
            request = conn.recv()
        except EOFError:
            return
        if request is None:
            return
        stats: dict = {}
        try:
            specs = [parse_job_spec(submitted)
                     for submitted, _, _ in request]
            tokens = [_SlotToken(flags, slot, deadline_s, deadline)
                      for slot, (_, deadline_s, deadline)
                      in enumerate(request)]
            reply = _execute(specs, tokens, backend, stats)
        except Exception as exc:  # pragma: no cover - defensive
            reply = ("internal", f"internal error: {exc!r}")
        try:
            conn.send((reply, stats))
        except Exception as exc:  # e.g. an unpicklable result
            conn.send((("internal", f"internal error: {exc!r}"), {}))


class _EngineProcess:
    """A forked process that runs one worker thread's dispatches.

    The server process only queues, polls and answers HTTP; every
    engine solve runs here, so a long pure-Python transient never
    holds the server's GIL.  The worker thread blocks on the pipe
    (GIL released), watches its jobs' tokens meanwhile, forwards a
    cancel through a shared-memory flag that the engine's
    :class:`CancelToken` checks read, and kills the process when a
    dispatch nobody waits for any more outlives
    ``_KILL_GRACE_S``.  The process is forked at the first dispatch,
    and a dead one is re-forked at the next.
    """

    def __init__(self, backend, slots: int) -> None:
        self.backend = backend
        self.flags = mmap.mmap(-1, slots)
        self.pid: Optional[int] = None
        self.conn = None
        self._lock = threading.Lock()

    def start(self) -> None:
        """Fork the engine process.

        Fork rather than spawn: a spawned engine would re-import the
        stack (about a second) and refit every device model the server
        already fitted.  Fork from a threaded server is safe here
        because the child runs engine code only and takes none of the
        locks the server's threads hold (registry, cache, metrics,
        HTTP); ``logging`` re-creates its locks in a forked child.
        """
        _preload_engine()
        parent_end, child_end = multiprocessing.Pipe()
        pid = os.fork()
        if pid == 0:  # pragma: no cover - runs in the forked child
            code = 0
            try:
                parent_end.close()
                for other in list(_LIVE):
                    other.conn.close()
                # Ctrl-C belongs to the server, which stops us.
                signal.signal(signal.SIGINT, signal.SIG_IGN)
                _engine_main(child_end, self.flags, self.backend)
            except BaseException:
                # Nothing may unwind into the copy of the server's
                # stack that fork left below this frame.
                traceback.print_exc()
                code = 1
            finally:
                os._exit(code)
        child_end.close()
        self.pid, self.conn = pid, parent_end
        _LIVE.add(self)

    def run(self, jobs: List[Job]) -> tuple:
        """Run ``jobs`` as one dispatch; returns ``(reply, stats)``
        with ``reply`` as :func:`_execute` builds it."""
        if self.pid is not None and self.conn.poll():
            # An idle engine sends nothing, so a readable pipe means it
            # died between dispatches (or was killed as it answered).
            self._reap(0.0)
        if self.pid is None:
            self.start()
        self.flags[:len(jobs)] = bytes(len(jobs))
        tokens = [job.cancel_token for job in jobs]
        request = []
        for job, token in zip(jobs, tokens):
            remaining = token.remaining()
            request.append((job.spec.submitted, token.deadline_s,
                            None if remaining is None
                            else time.monotonic() + remaining))
        give_up: Optional[float] = None
        try:
            self.conn.send(request)
            while not self.conn.poll(_POLL_S):
                for slot, token in enumerate(tokens):
                    if token.cancelled:
                        self.flags[slot] = 1
                if not all(t.cancelled or t.expired for t in tokens):
                    continue
                if give_up is None:
                    give_up = time.monotonic() + _KILL_GRACE_S
                elif time.monotonic() > give_up:
                    self.kill()
            return self.conn.recv()
        except (EOFError, OSError):
            code = self._reap(_STOP_WAIT_S)
        if give_up is not None:
            return ("cancelled", "cancelled", "cancelled"), {}
        return ("internal", f"internal error: engine process exited "
                            f"with code {code}"), {}

    def kill(self) -> None:
        """SIGKILL the process; its worker thread sees EOF and fails
        the running dispatch."""
        with self._lock:
            if self.pid is not None:
                os.kill(self.pid, signal.SIGKILL)

    def stop(self) -> None:
        """Ask the process to exit, then reap it."""
        if self.pid is None:
            return
        try:
            self.conn.send(None)
        except OSError:
            pass
        self._reap(_STOP_WAIT_S)

    def _reap(self, grace: float) -> Optional[int]:
        """Close the pipe and collect the exit code, killing the
        process if it is still alive after ``grace`` seconds."""
        with self._lock:
            pid, self.pid = self.pid, None
        _LIVE.discard(self)
        self.conn.close()
        if pid is None:  # pragma: no cover - defensive
            return None
        end = time.monotonic() + grace
        while True:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                return os.waitstatus_to_exitcode(status)
            if time.monotonic() >= end:
                os.kill(pid, signal.SIGKILL)
                _, status = os.waitpid(pid, 0)
                return os.waitstatus_to_exitcode(status)
            time.sleep(0.01)


def _preload_engine() -> None:
    """Import every engine module a job kind reaches, once, in the
    server: each forked engine process then starts with them loaded."""
    import repro.characterize  # noqa: F401
    import repro.circuit.batch_sim  # noqa: F401
    import repro.circuit.dc  # noqa: F401
    import repro.circuit.transient  # noqa: F401
    import repro.experiments.workloads  # noqa: F401
    import repro.variability.campaign  # noqa: F401
