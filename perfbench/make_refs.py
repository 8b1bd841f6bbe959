"""Regenerate the committed references under ``refs/``.

    python3 perfbench/make_refs.py [workload ...]

With no argument it regenerates all three in-process workloads
(``rca32_tran``, ``rca32_burst_store``, ``mc_ring_campaign``).  Each
reference pins one workload's inputs (``config``), the outputs the
benchmark checks every operation against and, for the transient
workloads, a tighter-tolerance solution of the same circuit used for
the reported waveform error.  Regenerate only when the engine's
arithmetic changes on purpose, and say so in the change that does it.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from pbench import gen, inproc, machine  # noqa: E402
from pbench.stats import Ledger  # noqa: E402

CONFIGS = {
    "rca32_tran": {
        "vdd": 0.6, "bits": 32, "backend": "sparse",
        # (delay, rise, fall, width, period) of the Cin pulse
        "cin_pulse": [5e-12, 1e-12, 1e-12, 4e-11, 1e-10],
        "tstop": 1e-11, "dt0": 5e-13, "warm_tstop": 2e-12,
        "tight": {"rtol": 1e-5, "atol": 1e-8, "dt_max": 1e-13},
    },
    "rca32_burst_store": {
        "vdd": 0.6, "bits": 32, "a": 3, "b": 5,
        "tstop": 2e-10, "dt": 5e-13, "warm_tstop": 5e-12,
    },
    "mc_ring_campaign": {
        "samples": 256, "chunk_size": 128,
        "warm_seed": 1, "warm_samples": 16,
        # the expectation comes from campaigns on seeds of their own
        "expect_seed": 424242, "expect_campaigns": 48,
    },
}

COUNT_KEYS = {
    "rca32_tran": ["steps", "iterations", "rejected_lte",
                   "rejected_newton"],
    "rca32_burst_store": ["steps", "iterations",
                          "partition_block_steps_active",
                          "partition_block_steps_bypassed",
                          "partition_interface_solve_reuses"],
}


def _write(name: str, payload: dict) -> None:
    path = HERE / "refs" / f"{name}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"wrote {path}")


def make_rca32_tran() -> None:
    cfg = CONFIGS["rca32_tran"]
    ref = {"config": cfg,
           "nodes": [f"s{i}" for i in range(0, 13, 2)] + ["cout"],
           "times": [float(t) for t in
                     np.linspace(cfg["tstop"] / 12, cfg["tstop"], 12)]}
    wl = inproc.Rca32Tran(0, Ledger(), ref)
    wl.setup()
    stats: dict = {}
    ds = wl.run(stats)
    ref["expect"] = inproc.probe(ds, ref["nodes"], ref["times"])
    ref["counts"] = {k: int(stats.get(k, 0)) for k in COUNT_KEYS[wl.name]}
    with inproc._kernels():
        tight = inproc._transient_module().transient(
            wl.circuit, tstop=cfg["tstop"], method="trap", adaptive=True,
            dt=cfg["dt0"], x0=wl.x0.copy(), backend=cfg["backend"],
            record_currents=False, **cfg["tight"])
    ref["tight"] = inproc.probe(tight, ref["nodes"], ref["times"])
    _write(wl.name, ref)


def make_rca32_burst_store() -> None:
    cfg = CONFIGS["rca32_burst_store"]
    ref = {"config": cfg,
           "nodes": ["s0", "s1", "s2", "s3", "s4", "s8"],
           "times": [float(t) for t in
                     np.linspace(cfg["tstop"] / 16, cfg["tstop"], 16)],
           "variants": []}
    wl = inproc.Rca32BurstStore(0, Ledger(), ref)
    wl.setup()
    try:
        for variant, delay in enumerate(gen.BURST_DELAYS):
            stats: dict = {}
            with tempfile.TemporaryDirectory(dir=machine.WORK) as tmp:
                ds = wl.run(variant, stats, Path(tmp) / "store")
                part = inproc.probe(ds, ref["nodes"], ref["times"])
            with inproc._kernels():
                mono = inproc._transient_module().transient(
                    wl.circuit, tstop=cfg["tstop"], dt=cfg["dt"],
                    method="trap", x0=wl.x0.copy(), record_currents=False)
            entry = {"delay": delay,
                     "counts": {k: int(stats.get(k, 0))
                                for k in COUNT_KEYS[wl.name]},
                     "monolithic": inproc.probe(mono, ref["nodes"],
                                                ref["times"])}
            print(f"variant {variant}: bypass error "
                  f"{inproc.max_diff(part, entry['monolithic']):.3g} V, "
                  f"{entry['counts']}")
            ref["variants"].append(entry)
    finally:
        wl.close()
    _write(wl.name, ref)


def make_mc_ring_campaign() -> None:
    cfg = CONFIGS["mc_ring_campaign"]
    ref = {"config": cfg}
    wl = inproc.McRingCampaign(0, Ledger(), ref)
    wl.setup()
    medians, fracs = [], []
    try:
        with inproc._kernels():
            for i in range(cfg["expect_campaigns"]):
                result = wl._campaign(cfg["expect_seed"] + i,
                                      cfg["samples"], None)
                med, frac = inproc.period_summary(result)
                medians.append(med)
                fracs.append(frac)
    finally:
        wl.close()
    ref["expect"] = {
        "median_period_mean": float(np.mean(medians)),
        "median_period_std": float(np.std(medians, ddof=1)),
        "campaigns": len(medians),
        # a campaign median this many campaign-to-campaign standard
        # deviations out is a real shift, not sampling noise
        "sigmas": 6.0,
        "valid_frac_min": max(0.0, min(fracs) - 0.02),
    }
    print(f"campaign medians {np.mean(medians):.4g} s +- "
          f"{np.std(medians, ddof=1):.2g}, valid >= {min(fracs):.3f}")
    _write(wl.name, ref)


def main(argv) -> int:
    machine.configure()
    from repro.pwl.kernels import using_kernels

    names = argv or list(CONFIGS)
    with using_kernels("auto"):
        for name in names:
            globals()[f"make_{name}"]()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
