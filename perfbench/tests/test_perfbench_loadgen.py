"""Open-loop load generator against a stub job server: latency runs from
the due time, sender lateness is recorded, and refused, timed-out and
wrong-answer jobs all count in ``fail_frac``."""

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from pbench import gen, service
from pbench.stats import Ledger


class StubServer:
    """``POST /jobs`` answers after ``submit_delay[spec tag]`` seconds;
    a job reads done ``run_s`` after submission unless its tag asks for
    a 503 or a deadline failure."""

    def __init__(self, submit_delay=None, run_s=0.05):
        self.submit_delay = submit_delay or {}
        self.run_s = run_s
        self.jobs = {}
        stub = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *args):
                pass

            def _reply(self, code, payload):
                body = json.dumps(payload).encode()
                self.send_response(code)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def do_POST(self):
                length = int(self.headers["Content-Length"])
                spec = json.loads(self.rfile.read(length))
                tag = spec["tag"]
                time.sleep(stub.submit_delay.get(tag, 0.0))
                if tag == "refuse":
                    self._reply(503, {"error": "queue full"})
                    return
                job_id = f"j{len(stub.jobs)}"
                stub.jobs[job_id] = (time.perf_counter(), tag)
                self._reply(202, {"id": job_id, "state": "pending"})

            def do_GET(self):
                if self.path == "/healthz":
                    self._reply(200, {"status": "ok"})
                    return
                job_id = self.path.rsplit("/", 1)[1]
                start, tag = stub.jobs[job_id]
                doc = {"id": job_id, "state": "running"}
                if time.perf_counter() - start >= stub.run_s:
                    if tag == "deadline":
                        doc = {"id": job_id, "state": "failed",
                               "error_kind": "timeout"}
                    else:
                        doc = {"id": job_id, "state": "done",
                               "result": {"v": 1.0},
                               "timings": {"queue_wait_s": 0.0,
                                           "total_s": stub.run_s}}
                self._reply(200, doc)

        self.httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.url = f"http://127.0.0.1:{self.httpd.server_address[1]}"
        self.thread = threading.Thread(target=self.httpd.serve_forever,
                                       daemon=True)

    def __enter__(self):
        self.thread.start()
        return self

    def __exit__(self, *exc):
        self.httpd.shutdown()
        self.httpd.server_close()
        self.thread.join(timeout=5)
        assert not self.thread.is_alive()


def _jobs(*tags, gap=0.1):
    return [gen.Job(i * gap, tag, {"tag": tag}) for i, tag in
            enumerate(tags)]


def test_latency_runs_from_due_time_and_lateness_is_recorded():
    # the first submit stalls 0.4 s, so the second job leaves ~0.3 s late
    with StubServer(submit_delay={"slow": 0.4}) as stub:
        loop = service.open_loop(stub.url, _jobs("slow", "a", "b"),
                                 drain_s=5.0)
    slow, late, _ = loop.records
    assert all(r.outcome == "ok" for r in loop.records)
    assert late.late_ms == pytest.approx(300.0, abs=80.0)
    # latency counts the stall the sender imposed, not just server time
    assert late.latency_ms >= late.late_ms + 1e3 * 0.05 - 1.0
    assert late.latency_ms == pytest.approx(
        1e3 * (late.done_at - late.due))
    assert slow.late_ms < 50.0
    assert loop.ctrl_ms and loop.probe_errors == 0


def test_refused_and_timed_out_jobs_fail():
    with StubServer() as stub:
        loop = service.open_loop(stub.url,
                                 _jobs("a", "refuse", "deadline"),
                                 drain_s=5.0)
    outcomes = [r.outcome for r in loop.records]
    assert outcomes == ["ok", "refused", "timeout"]
    ledger = Ledger()
    service.account(loop, ledger)
    assert ledger.failures["refused"] == 1
    assert ledger.failures["timeout"] == 1
    # successful control probes are not operations; only jobs count
    assert loop.ctrl_ms and loop.probe_errors == 0
    assert ledger.attempted == 3
    assert ledger.fail_frac == pytest.approx(2 / 3)
    assert not ledger.correct


def test_unfinished_jobs_time_out_after_the_drain():
    with StubServer(run_s=10.0) as stub:
        loop = service.open_loop(stub.url, _jobs("a"), drain_s=0.3)
    assert loop.records[0].outcome == "timeout"
    assert loop.records[0].latency_ms is None


def test_check_failures_count():
    ledger = Ledger()
    ledger.check(service._close({"v": [1.0, 2.0]}, {"v": [1.0, 2.0]}))
    ledger.check(service._close({"v": [1.0, 2.0]}, {"v": [1.0, 2.1]}),
                 "served result differs")
    ledger.check(service._close({"v": 1.0}, {"w": 1.0}))
    assert ledger.attempted == 3
    assert ledger.failures["check"] == 2
    assert not ledger.correct


def test_windows_split_the_stream_and_count_from_their_own_start():
    jobs = gen.service_jobs(1, 2.0, 15.0)
    parts = service.windows(jobs, 3, 15.0)
    assert len(parts) == 3
    assert [j.spec for p in parts for j in p] == [j.spec for j in jobs]
    assert [j.due_s for j in parts[1]] == pytest.approx(
        [j.due_s - 5.0 for j in jobs[len(parts[0]):][:len(parts[1])]])
    assert all(0.0 <= j.due_s < 5.0 for p in parts for j in p)


def test_engine_time_is_probe_scaled_and_all_of_it_steal_scaled():
    from pbench import calib

    rec = service.Record(gen.Job(0.0, "dc", {}), due=0.0, done_at=0.2,
                         doc={"timings": {"queue_wait_s": 0.05,
                                          "total_s": 0.15}})
    slow = 2.0 * calib.REF_S    # the host ran at half the reference speed
    # 100 ms of engine work counts as 50 ms; the 100 ms of waiting stays
    assert service.scaled_latency_ms(rec, slow, slow, 1.0) == \
        pytest.approx(150.0)
    # with a fifth of the CPU time stolen, all of the latency shrinks
    assert service.scaled_latency_ms(rec, slow, slow, 0.8) == \
        pytest.approx(120.0)
    rec.doc["cached"] = True
    assert service.scaled_latency_ms(rec, slow, slow, 1.0) == \
        pytest.approx(200.0)


def test_steal_share_is_a_share():
    from pbench import calib

    assert 0.0 < calib.steal_share() <= 1.0
