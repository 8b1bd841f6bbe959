"""Benchmark of the CNFET circuit engine's user-visible paths.

    python3 perfbench/run.py --workload rca32_tran --seed 1 \
        --seconds 15 --trace 0

Workloads, metrics and the layer map are documented in
``perfbench/README.md``.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (every
end-to-end metric with ``--trace 0``, every per-layer metric with
``--trace 1``).  Each result is also appended to
``.bench_build/perfbench/history.jsonl`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from pbench import calib, layers, machine  # noqa: E402
from pbench.stats import Ledger, median  # noqa: E402

WORKLOADS = ("rca32_tran", "rca32_burst_store", "mc_ring_campaign",
             "service_mix")
#: fresh-interpreter set-ups timed per run; setup_s is their median
SETUP_SAMPLES = 5
#: per-probe limit on one set-up [s]
SETUP_TIMEOUT_S = 60.0


def _args(argv) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ----------------------------------------------------------------------
# set-up time: fresh interpreters, timed from spawn to ready
# ----------------------------------------------------------------------

def _setup_probe(args) -> int:
    """Child side: pay the workload's set-up, then say so."""
    from pbench import inproc

    inproc.import_engine()
    wl = inproc.WORKLOADS[args.workload](args.seed, Ledger())
    try:
        wl.setup()
    finally:
        wl.close()
    print("READY", flush=True)
    return 0


def time_setups(workload: str, seed: int, env: Dict[str, str],
                ledger: Ledger) -> Tuple[List[float], List[float]]:
    """``(raw, scaled)`` set-up times of fresh interpreters."""
    raw: List[float] = []
    scaled: List[float] = []
    before = calib.probe()
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", "0", "--setup-probe"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, cwd=str(machine.ROOT))
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.wait(timeout=SETUP_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        after = calib.probe()
        if line.strip() == "READY" and proc.returncode == 0:
            ledger.ok()
            raw.append(elapsed)
            scaled.append(calib.scale(elapsed, before, after))
        else:
            ledger.fail("error", f"set-up probe exited {proc.returncode}")
        before = after
    return raw, scaled


# ----------------------------------------------------------------------
# in-process workloads
# ----------------------------------------------------------------------

def run_inproc(args, env, ledger: Ledger) -> Tuple[Dict, Dict, Dict]:
    from pbench import inproc
    from pbench.spans import SpanRecorder, Tracer

    rec = SpanRecorder() if args.trace else None
    cache_before = machine.kernel_cache_files()
    t0 = time.perf_counter_ns()
    inproc.import_engine()
    t1 = time.perf_counter_ns()
    cache_warm = bool(cache_before) and \
        machine.kernel_cache_files() == cache_before
    info = {"tier": machine.resolved_tier(), "cache_warm": cache_warm}
    wl = inproc.WORKLOADS[args.workload](args.seed, ledger)
    tracer = Tracer(rec) if rec is not None else None
    try:
        if rec is not None:
            rec.add("import", t0, t1)
            layers.install(tracer)
            with rec.span("setup"):
                wl.setup()
                wl.warm()
            tracer.uninstall()
        else:
            wl.setup()
            wl.warm()
        setups, setups_scaled = ([], []) if args.trace else time_setups(
            args.workload, args.seed, env, ledger)

        # (raw wall, scaled wall, traced) per successful operation
        ops: List[Tuple[float, float, bool]] = []
        traced_ns = 0
        before = calib.probe()
        deadline = time.perf_counter() + args.seconds
        k = 0
        while k < 1 + args.trace or time.perf_counter() < deadline:
            traced = bool(args.trace) and k % 2 == 1
            try:
                if traced:
                    layers.install(tracer)
                    w0 = time.perf_counter_ns()
                    try:
                        with rec.span("op"):
                            wall = wl.op(k, traced)
                    finally:
                        traced_ns += time.perf_counter_ns() - w0
                        tracer.uninstall()
                else:
                    wall = wl.op(k, traced)
                ledger.ok()
            except Exception as exc:  # a failed operation, not a crash
                ledger.fail("error", f"op {k}: {exc!r}")
                wall = None
            after = calib.probe()
            if wall is not None:
                ops.append((wall, calib.scale(wall, before, after), traced))
            before = after
            k += 1
    finally:
        wl.close()

    readings = {key: vals for key, vals in wl.readings.items()}
    e2e, per = {}, {}
    if not args.trace:
        e2e = {
            "setup_s": median(setups_scaled) if setups else float("nan"),
            "op_ms.p50": 1e3 * median([s for _, s, _ in ops])
            if ops else float("nan"),
            "run_mem_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        readings["raw_setup_s"] = setups
        readings["raw_op_s"] = [w for w, _, _ in ops]
    else:
        # the layers must explain the traced operations: the op roots'
        # own self time (inside an operation but outside every wrapped
        # entry point) may be at most 5% of the wall timed around them
        selfs = rec.self_times()
        outside = sum(selfs[i] for i in rec.roots() if rec.names[i] == "op")
        ledger.check(outside <= 0.05 * traced_ns,
                     f"{outside / traced_ns:.1%} of the traced operations' "
                     f"wall lies outside every traced layer")
        readings["unattributed_frac"] = [outside / traced_ns]
        traced_s = [s for _, s, t in ops if t]
        plain_s = [s for _, s, t in ops if not t]
        overhead = median(traced_s) / median(plain_s) - 1.0 \
            if traced_s and plain_s else 0.0
        per = layers.per_layer(rec, wl.counts,
                               {"trace.overhead_frac": overhead})
        rec.dump(machine.WORK / f"trace-{args.workload}-{args.seed}.json")
        readings["traced_op_s"] = [w for w, _, t in ops if t]
        readings["untraced_op_s"] = [w for w, _, t in ops if not t]
        readings["spans"] = [len(rec)]
    return e2e, per, dict(info, readings=readings)


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------

def _report(args, ledger: Ledger, metrics: Dict, info: Dict,
            fp: Dict) -> None:
    print(f"# workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds:g}  trace {args.trace}")
    print(f"# machine nproc={fp['nproc']}  cpu={fp['cpu']!r}  "
          f"python {fp['python']}  numpy {fp['numpy']}  "
          f"scipy {fp['scipy']}")
    print(f"# kernel tier {fp['kernel_tier']}  "
          f"(cache {'warm' if fp['kernel_cache_warm'] else 'cold'})")
    for name, m in metrics.items():
        print(f"{args.workload:<18} {name:<36} {m['value']:>14.6g} "
              f"{m['unit']}")
    for key, vals in sorted(info.get("readings", {}).items()):
        if vals:
            print(f"{args.workload:<18} ~{key:<35} "
                  f"{median(vals):>14.6g}  (median of {len(vals)}; "
                  f"{min(vals):.4g} .. {max(vals):.4g})")
    for line in info.get("lines", ()):
        print(f"{args.workload:<18} {line}")
    print(f"{args.workload:<18} {'fail_frac':<36} "
          f"{ledger.fail_frac:>14.6g}  ({ledger.failed} of "
          f"{ledger.attempted})")
    for note in ledger.notes[:10]:
        print(f"# FAILED {note}")


def main(argv=None) -> int:
    args = _args(argv)
    try:
        env = machine.configure()
    except FileNotFoundError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        return _setup_probe(args)
    ledger = Ledger()
    if args.workload == "service_mix":
        from pbench import service

        e2e, per, info = service.run(args, env, ledger, SETUP_SAMPLES)
    else:
        e2e, per, info = run_inproc(args, env, ledger)
    names = layers.PER_LAYER if args.trace else layers.END_TO_END
    values = per if args.trace else e2e
    metrics = {name: {"value": float(values[name]), "unit": unit}
               for name, unit in names}
    fp = machine.fingerprint(info["tier"], info["cache_warm"])
    _report(args, ledger, metrics, info, fp)
    entry = machine.append_history({
        "source": machine.source_hash(), "machine": fp,
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "metrics": metrics, "ledger": ledger.as_dict()})
    if not entry["comparable"]:
        print(f"# NOT COMPARABLE with the previous result: "
              f"{entry['not_comparable_reason']}")
    missing = [n for n, m in metrics.items() if not math.isfinite(m["value"])]
    if missing:
        print(f"perfbench: no measurement for {', '.join(missing)}",
              file=sys.stderr)
        return 1
    print(json.dumps({"correct": ledger.correct,
                      "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
