"""``service_mix``: ``repro serve`` in a subprocess, driven open loop.

One benchmark process, two load threads: a *sender* that submits each
seeded job at its due time whatever the server is doing, and a
*prober* that on a fixed schedule asks ``GET /healthz`` and
``GET /jobs/<id>`` for every outstanding job.  A job's latency runs from
its due time (not its send time, so a stalled sender still counts
against the server) to the first poll that sees it finished.  The
nominal phase runs as :data:`WINDOWS` open-loop windows with the
server idle in between, where the host's speed and steal are measured.  The service
is measured only from the HTTP side: per-job ``timings`` and the
``/metrics`` counters.
"""

from __future__ import annotations

import resource
import socket
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from pbench import calib, gen, layers, machine
from pbench.stats import Ledger, median, median_or_zero, tail, tail_value

#: offered load of the measured phase [jobs/s]
NOMINAL_RATE = 3.0
#: fixed rate ladder of the traced run's goodput search [jobs/s]
LADDER = (1.0, 2.0, 3.0, 4.0)
#: job-latency limit a ladder rate must meet at its tail [ms]
LATENCY_LIMIT_MS = 3000.0
#: the nominal phase runs as this many open-loop windows, with the
#: server left idle between them while the host is measured
WINDOWS = 3
#: status-poll schedule period [s]; it bounds how late a finished job
#: is seen, so it must stay well below the typical job latency
PROBE_PERIOD_S = 0.02
#: ``GET /healthz`` rides every this many status-poll ticks (100 ms)
HEALTH_EVERY = 5
SERVER_WORKERS = 2
#: served results re-run in-process and compared per run
CHECK_SAMPLES = 4
#: a job still unfinished this long after its window's last due time
#: timed out (over three times the ladder's latency limit, and short
#: enough that a hung server still lets a traced run end within 180 s)
DRAIN_S = 10.0
#: served vs direct agreement (docs/service.md promises <= 1e-9 V)
PARITY_ABS = 1e-9
PARITY_REL = 1e-9
READY_TIMEOUT_S = 60.0

COUNTERS = ("service_jobs_submitted_total", "service_engine_dispatches_total",
            "service_jobs_coalesced_total", "service_cache_hits_total",
            "service_cache_misses_total", "service_jobs_timeout_total",
            "service_lane_fallbacks_total")


def warmup_specs() -> List[Dict]:
    """One job per kind the mix submits (seed-independent)."""
    return [
        {"kind": "transient", "deck": gen.inverter_deck(5e-17),
         "nodes": ["out"], **gen.GATE_TRAN},
        {"kind": "transient", "deck": gen.nand2_deck(5e-17),
         "nodes": ["out"], **gen.GATE_TRAN},
        {"kind": "dc", "deck": gen.inverter_deck(5e-17), "source": "Vin",
         "start": 0.0, "stop": 0.6, "points": 31, "nodes": ["out"]},
        {"kind": "mc", "workload": "device", "samples": 16, "seed": 7},
    ]


class Server:
    """A ``python -m repro serve`` subprocess on a free loopback port."""

    def __init__(self, env: Dict[str, str]) -> None:
        from repro.service import ServiceClient

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            self.port = probe.getsockname()[1]
        self.url = f"http://127.0.0.1:{self.port}"
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port",
             str(self.port), "--workers", str(SERVER_WORKERS)],
            env=env, cwd=str(machine.ROOT), stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL)
        self.client = ServiceClient(self.url, timeout=60.0)

    def ready(self) -> None:
        """Wait for ``/healthz``, then finish one warm-up job per kind."""
        deadline = time.monotonic() + READY_TIMEOUT_S
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server exited {self.proc.returncode} during start")
            try:
                self.client.health()
                break
            except OSError:
                pass
            except Exception:
                if time.monotonic() > deadline:
                    raise
            time.sleep(0.02)
        for spec in warmup_specs():
            doc = self.client.run(spec, timeout=READY_TIMEOUT_S)
            if doc["state"] != "done":
                raise RuntimeError(f"warm-up {spec['kind']} job "
                                   f"{doc['state']}: {doc.get('error')}")

    def counters(self) -> Dict[str, float]:
        return {name: self.client.metric_value(name) for name in COUNTERS}

    def stop(self) -> None:
        try:
            if self.proc.poll() is None:
                self.client.shutdown()
                self.proc.wait(timeout=15.0)
        except Exception:
            pass
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
            self.proc.wait()


@dataclass
class Record:
    job: gen.Job
    due: float
    sent: Optional[float] = None
    job_id: Optional[str] = None
    done_at: Optional[float] = None
    doc: Optional[Dict] = None
    outcome: str = "pending"    # ok | failed | timeout | refused | error

    @property
    def latency_ms(self) -> Optional[float]:
        if self.done_at is None:
            return None
        return 1e3 * (self.done_at - self.due)

    @property
    def late_ms(self) -> Optional[float]:
        return None if self.sent is None else 1e3 * (self.sent - self.due)


@dataclass
class LoopResult:
    records: List[Record]
    ctrl_ms: List[float] = field(default_factory=list)
    probe_errors: int = 0
    backlog: List[Tuple[float, int]] = field(default_factory=list)


def finish(record: Record, doc: Dict, now: float) -> None:
    """Mark a record finished from a job document seen at ``now``."""
    record.doc = doc
    record.done_at = now
    if doc["state"] == "done":
        record.outcome = "ok"
    elif doc.get("error_kind") == "timeout":
        record.outcome = "timeout"
    else:
        record.outcome = "failed"


def open_loop(url: str, jobs: List[gen.Job],
              drain_s: float = DRAIN_S) -> LoopResult:
    """Send ``jobs`` at their due times; poll until all are finished or
    ``drain_s`` past the last due time."""
    from repro.errors import ServiceError
    from repro.service import ServiceClient

    t0 = time.perf_counter() + 0.2
    records = [Record(job, t0 + job.due_s) for job in jobs]
    result = LoopResult(records)
    lock = threading.Lock()
    outstanding: Dict[str, Record] = {}
    sender_done = threading.Event()
    stop_at = t0 + (jobs[-1].due_s if jobs else 0.0) + drain_s

    def sender() -> None:
        client = ServiceClient(url, timeout=60.0)
        try:
            for rec in records:
                pause = rec.due - time.perf_counter()
                if pause > 0:
                    time.sleep(pause)
                rec.sent = time.perf_counter()
                try:
                    doc = client.submit(rec.job.spec)
                except ServiceError as exc:
                    rec.outcome = "refused" if "HTTP 503" in str(exc) \
                        else "error"
                    continue
                except Exception:
                    rec.outcome = "error"
                    continue
                rec.job_id = doc["id"]
                if doc["state"] in ("done", "failed"):
                    finish(rec, doc, time.perf_counter())
                else:
                    with lock:
                        outstanding[rec.job_id] = rec
        finally:
            sender_done.set()

    def prober() -> None:
        client = ServiceClient(url, timeout=60.0)
        tick = t0
        ticks = 0
        while True:
            now = time.perf_counter()
            if now < tick:
                time.sleep(tick - now)
            tick = max(tick + PROBE_PERIOD_S, time.perf_counter())
            with lock:
                pending = list(outstanding.values())
                result.backlog.append((time.perf_counter(), len(pending)))
            if sender_done.is_set() and not pending:
                return
            if time.perf_counter() > stop_at:
                return
            health = [None] if ticks % HEALTH_EVERY == 0 else []
            ticks += 1
            for path_rec in health + pending:
                start = time.perf_counter()
                try:
                    if path_rec is None:
                        client.health()
                    else:
                        doc = client.status(path_rec.job_id)
                except Exception:
                    result.probe_errors += 1
                    continue
                end = time.perf_counter()
                result.ctrl_ms.append(1e3 * (end - start))
                if path_rec is not None and doc["state"] in ("done",
                                                             "failed"):
                    finish(path_rec, doc, end)
                    with lock:
                        outstanding.pop(path_rec.job_id, None)

    threads = [threading.Thread(target=sender, name="loadgen-sender"),
               threading.Thread(target=prober, name="loadgen-prober")]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for rec in records:
        if rec.outcome == "pending":
            rec.outcome = "timeout"
    return result


def account(loop: LoopResult, ledger: Ledger) -> None:
    """Every job is one operation of the ledger, and so is every control
    probe that failed.  Successful probes are not counted: their number
    grows with how long jobs stay outstanding, so counting them would
    make a slower server look less failure-prone."""
    kinds = {"failed": "error", "error": "error", "timeout": "timeout",
             "refused": "refused"}
    for rec in loop.records:
        if rec.outcome == "ok":
            ledger.ok()
        else:
            ledger.fail(kinds[rec.outcome],
                        f"{rec.job.cls} job {rec.outcome}")
    for _ in range(loop.probe_errors):
        ledger.fail("error", "control probe failed")


def _close(a, b) -> bool:
    """Recursive numeric comparison within the served-parity bound."""
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_close(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(_close(x, y) for x, y in zip(a, b))
    if isinstance(a, (int, float)) and isinstance(b, (int, float)) \
            and not isinstance(a, bool):
        if a != a and b != b:
            return True
        return abs(a - b) <= PARITY_ABS + PARITY_REL * abs(b)
    return a == b


def check_outputs(loop: LoopResult, seed: int, ledger: Ledger) -> None:
    """Re-run a seeded sample of served jobs in-process and compare;
    repeats must return their original's result."""
    from repro.service.jobs import execute_spec, parse_job_spec

    done = [r for r in loop.records if r.outcome == "ok"]
    fresh = [r for r in done if r.job.cls not in ("repeat", "long")]
    picks = gen.rng(seed, "service", 10**6).permutation(len(fresh))
    for idx in picks[:CHECK_SAMPLES]:
        rec = fresh[int(idx)]
        direct = execute_spec(parse_job_spec(rec.job.spec))
        ledger.check(_close(rec.doc["result"], direct),
                     f"served {rec.job.cls} result differs from direct "
                     f"execute_spec")
    results = {}
    for rec in done:
        key = repr(sorted(rec.job.spec.items()))
        if rec.job.cls != "repeat":
            results.setdefault(key, rec.doc["result"])
    for rec in done:
        if rec.job.cls == "repeat":
            key = repr(sorted(rec.job.spec.items()))
            if key in results:
                ledger.check(_close(rec.doc["result"], results[key]),
                             "repeated spec returned a different result")


def _phase_stats(loop: LoopResult) -> Dict[str, List[float]]:
    lat = [r.latency_ms for r in loop.records if r.outcome == "ok"]
    late = [r.late_ms for r in loop.records if r.late_ms is not None]
    queue, dispatch, http = [], [], []
    for r in loop.records:
        timings = (r.doc or {}).get("timings") or {}
        if r.outcome != "ok" or not timings:
            continue
        queue.append(1e3 * timings["queue_wait_s"])
        if not r.doc.get("cached"):
            dispatch.append(1e3 * (timings["total_s"] -
                                   timings["queue_wait_s"]))
        http.append(1e3 * (r.done_at - r.sent) - 1e3 * timings["total_s"])
    return {"job_ms": lat, "late_ms": late, "queue_ms": queue,
            "dispatch_ms": dispatch, "http_ms": http}


def backlog_growing(loop: LoopResult) -> bool:
    """True when the second half of the send window held more
    outstanding jobs than the first (by more than one job on average)."""
    if not loop.records:
        return False
    start = loop.records[0].due
    end = loop.records[-1].due
    mid = (start + end) / 2
    first = [n for t, n in loop.backlog if start <= t < mid]
    second = [n for t, n in loop.backlog if mid <= t <= end]
    if not first or not second:
        return False
    return float(np.mean(second)) > float(np.mean(first)) + 1.0


def _describe_tail(name: str, values: List[float]) -> str:
    t = tail(values)
    if t is None or t[0] < 50.0:
        return f"{name}: n={len(values)}, too few samples for a tail " \
               f"(max {tail_value(values):.1f} ms)"
    return f"{name}: p{t[0]:.1f} = {t[1]:.1f} ms (n={len(values)})"


def start_server(env: Dict[str, str], samples: int, ledger: Ledger
                 ) -> Tuple[Server, List[float], List[float]]:
    """Bring up ``samples`` fresh servers, timing each from spawn to
    warm; all but the last are stopped again.  Returns the last server
    and the raw and speed-scaled set-up times."""
    raw: List[float] = []
    scaled: List[float] = []
    server: Optional[Server] = None
    for _ in range(samples):
        if server is not None:
            server.stop()
        before = calib.probe()
        start = time.perf_counter()
        server = Server(env)
        try:
            server.ready()
        except Exception as exc:
            ledger.fail("error", f"server set-up: {exc!r}")
            server.stop()
            server = None
            continue
        elapsed = time.perf_counter() - start
        ledger.ok()
        raw.append(elapsed)
        scaled.append(calib.scale(elapsed, before, calib.probe()))
    if server is None:
        raise RuntimeError("no server came up")
    return server, raw, scaled


def goodput_ladder(url: str, seed: int, seconds: float
                   ) -> List[Tuple[float, bool, str]]:
    """``(rate, passed, description)`` per rung of :data:`LADDER`; each
    rung offers its rate for half the run length."""
    rungs = []
    for i, rate in enumerate(LADDER):
        loop = open_loop(url, gen.service_jobs(
            seed, rate, seconds / 2, start_index=1000 * (i + 1)))
        lat = [r.latency_ms if r.outcome == "ok" else float("inf")
               for r in loop.records]
        ok = tail_value(lat) <= LATENCY_LIMIT_MS and \
            not backlog_growing(loop)
        rungs.append((rate, ok, _describe_tail(
            f"rate {rate:g}/s job_ms.tail", lat)))
    return rungs


def idle_speed() -> float:
    """Reference-loop time [s] with the server idle, the median of five
    probes (a single probe is too short to track a noisy host)."""
    return statistics.median(calib.probe() for _ in range(5))


def windows(jobs: List[gen.Job], count: int, duration_s: float
            ) -> List[List[gen.Job]]:
    """Cut a stream of ``duration_s`` into ``count`` consecutive windows,
    each with its due times counted from the window's own start."""
    n = len(jobs)
    out = []
    for w in range(count):
        part = jobs[-(-w * n // count):-(-(w + 1) * n // count)]
        shift = w * duration_s / count
        out.append([gen.Job(j.due_s - shift, j.cls, j.spec) for j in part])
    return out


def merge(loops: List[LoopResult]) -> LoopResult:
    return LoopResult([r for lp in loops for r in lp.records],
                      [c for lp in loops for c in lp.ctrl_ms],
                      sum(lp.probe_errors for lp in loops),
                      [b for lp in loops for b in lp.backlog])


def engine_ms(rec: Record) -> float:
    """Server time spent running the job's engine work (its dispatch,
    ``total_s - queue_wait_s``); 0 for a result-cache hit."""
    timings = (rec.doc or {}).get("timings") or {}
    if rec.doc.get("cached") or not timings:
        return 0.0
    return 1e3 * (timings["total_s"] - timings["queue_wait_s"])


def scaled_latency_ms(rec: Record, before: float, after: float,
                      share: float) -> float:
    """Job latency with its engine work taken to the reference speed,
    then all of it to a host that steals no CPU time.

    The probe scaling leaves out the rest of the latency, which is
    mostly waiting that does not follow the probe: the server's batch
    window and the status-poll period.  Stolen CPU time stretches those
    waits too (a sleeping thread wakes late), so ``share``, the CPU
    share the host granted, applies to the whole latency."""
    work = engine_ms(rec)
    return (rec.latency_ms - work + calib.scale(work, before, after)) * share


def run(args, env: Dict[str, str], ledger: Ledger, setup_samples: int):
    """The ``service_mix`` workload: returns ``(e2e, per_layer, info)``.
    ``setup_samples`` fresh servers are timed; the last one is
    measured."""
    cache_before = machine.kernel_cache_files()
    jobs = gen.service_jobs(args.seed, NOMINAL_RATE, args.seconds)
    server, setups, setups_scaled = start_server(
        env, 1 if args.trace else setup_samples, ledger)
    try:
        cache_warm = bool(cache_before) and \
            machine.kernel_cache_files() == cache_before
        before = server.counters()
        speed = [idle_speed()]
        share = [calib.steal_share()]
        loops = []
        for part in windows(jobs, WINDOWS, args.seconds):
            loops.append(open_loop(server.url, part))
            speed.append(idle_speed())
            share.append(calib.steal_share())
        after = server.counters()
        ladder = goodput_ladder(server.url, args.seed, args.seconds) \
            if args.trace else []
    finally:
        server.stop()
    loop = merge(loops)
    account(loop, ledger)
    check_outputs(loop, args.seed, ledger)

    stats = _phase_stats(loop)
    # each window's jobs scaled by the idle measurements around it
    scaled = [scaled_latency_ms(r, speed[w], speed[w + 1],
                                0.5 * (share[w] + share[w + 1]))
              for w, lp in enumerate(loops) for r in lp.records
              if r.outcome == "ok"]
    delta = {k: after[k] - before[k] for k in COUNTERS}
    e2e = {"setup_s": median(setups_scaled),
           "op_ms.p50": median(scaled) if scaled else float("nan"),
           # peak of the server processes (the only children waited on)
           "run_mem_mb": resource.getrusage(
               resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0}
    fresh_jobs = delta["service_cache_misses_total"]
    lookups = delta["service_cache_hits_total"] + fresh_jobs
    dispatches = delta["service_engine_dispatches_total"]
    passing = [rate for rate, ok, _ in ladder if ok]
    per = layers.per_layer(None, Counter(), {
        "service.queue_wait_ms.p50": median_or_zero(stats["queue_ms"]),
        "service.queue_wait_ms.tail": tail_value(stats["queue_ms"]),
        "service.dispatch_ms.p50": median_or_zero(stats["dispatch_ms"]),
        "service.dispatch_ms.tail": tail_value(stats["dispatch_ms"]),
        "service.http_ms.p50": median_or_zero(stats["http_ms"]),
        "service.dispatches": dispatches,
        "service.coalesce_ratio": fresh_jobs / dispatches
        if dispatches else 0.0,
        "service.cache_hit_ratio": delta["service_cache_hits_total"] /
        lookups if lookups else 0.0,
        "service.refused": float(sum(r.outcome == "refused"
                                     for r in loop.records)),
        "service.timeouts": float(sum(r.outcome == "timeout"
                                      for r in loop.records)),
        "service.lane_fallbacks": delta["service_lane_fallbacks_total"],
        "service.job_ms.tail": tail_value(stats["job_ms"]),
        "service.ctrl_ms.p50": median_or_zero(loop.ctrl_ms),
        "service.ctrl_ms.tail": tail_value(loop.ctrl_ms),
        "service.goodput_jobs_s": max(passing) if passing else 0.0,
        "loadgen.late_ms.tail": tail_value(stats["late_ms"]),
        # nothing is wrapped: the service is measured from HTTP only
        "trace.overhead_frac": 0.0,
    })
    lines = [f"jobs at {NOMINAL_RATE:g}/s open loop: {len(jobs)} "
             f"(n latency samples {len(stats['job_ms'])})",
             _describe_tail("job_ms.tail", stats["job_ms"]),
             _describe_tail("ctrl_ms.tail", loop.ctrl_ms),
             _describe_tail("loadgen.late_ms.tail", stats["late_ms"])]
    for cls, _ in gen.MIX:
        lat = [r.latency_ms for r in loop.records
               if r.job.cls == cls and r.outcome == "ok"]
        if lat:
            lines.append(f"raw job_ms {cls}: median {median(lat):.1f} "
                         f"(n={len(lat)})")
    lines += [text + ("  ok" if ok else "  over limit / backlog")
              for _, ok, text in ladder]
    info = {"tier": machine.resolved_tier(), "cache_warm": cache_warm,
            "readings": {"raw_job_ms": stats["job_ms"],
                         "engine_ms": [engine_ms(r) for r in loop.records
                                       if r.outcome == "ok"],
                         "idle_probe_ms": [1e3 * v for v in speed],
                         "steal_share": share,
                         "ctrl_ms": loop.ctrl_ms, "raw_setup_s": setups},
            "lines": lines}
    return e2e, per, info
