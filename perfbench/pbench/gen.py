"""Seeded input generators.

Every workload input that varies between runs is drawn here from the
``--seed`` argument alone (one independent stream per workload), and
only the generated inputs — pulse schedules, campaign seeds, job specs
and due times — reach the program.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

#: Seed kept out of every tuning run; a later change confirms its claim
#: on this seed after measuring on others.
HELD_OUT_SEED = 9173

_STREAMS = {"burst": 1, "campaign": 2, "service": 3}

#: rca32_burst_store ``va0`` schedules (delay [s]); each has a committed
#: monolithic reference in ``refs/rca32_burst_store.json``.  Same pulse
#: count and width, so every variant does the same amount of work.
BURST_DELAYS = (10e-12, 20e-12, 30e-12, 40e-12)
BURST_WIDTH = 6e-12
BURST_PERIOD = 100e-12


def rng(seed: int, stream: str, *sub: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), _STREAMS[stream],
                                  *map(int, sub)])


def burst_variants(seed: int, count: int) -> List[int]:
    """Index into :data:`BURST_DELAYS` for each of ``count`` runs."""
    return [int(v) for v in
            rng(seed, "burst").integers(len(BURST_DELAYS), size=count)]


def campaign_seeds(seed: int, count: int) -> List[int]:
    """Sampler seed for each of ``count`` campaigns."""
    return [int(v) for v in
            rng(seed, "campaign").integers(1, 2**31 - 1, size=count)]


# ----------------------------------------------------------------------
# service_mix job stream
# ----------------------------------------------------------------------

_MODEL = ".model fast cnfet model=model2 temperature_k=300 " \
         "fermi_level_ev=-0.32"


def inverter_deck(cap_f: float) -> str:
    return "\n".join([
        "* cnfet inverter", _MODEL,
        "Vdd vdd 0 0.6",
        "Vin in 0 pulse(0 0.6 2e-12 1e-12 1e-12 8e-12 2e-11)",
        "Qp out in vdd fast polarity=p",
        "Qn out in 0 fast",
        f"Cl out 0 {cap_f:.6e}", ""])


def nand2_deck(cap_f: float) -> str:
    return "\n".join([
        "* cnfet nand2", _MODEL,
        "Vdd vdd 0 0.6",
        "Va a 0 pulse(0 0.6 2e-12 1e-12 1e-12 8e-12 2e-11)",
        "Vb b 0 0.6",
        "Qpa out a vdd fast polarity=p",
        "Qpb out b vdd fast polarity=p",
        "Qna out a mid fast",
        "Qnb mid b 0 fast",
        f"Cl out 0 {cap_f:.6e}", ""])


def rc_chain_deck(r_ohm: float, stages: int = 4) -> str:
    lines = ["* long rc chain", "V1 in 0 pulse(0 1 1e-9 1e-9 1e-9 1e-8 4e-8)"]
    prev = "in"
    for k in range(stages):
        node = "out" if k == stages - 1 else f"n{k}"
        lines += [f"R{k + 1} {prev} {node} {r_ohm:.6e}",
                  f"C{k + 1} {node} 0 1e-12"]
        prev = node
    return "\n".join(lines) + "\n"


#: job classes and their share of a run's jobs; ``repeat`` resubmits an
#: earlier spec verbatim (a result-cache hit once the original is done).
#: Repeats and MC jobs finish fastest and the transients slowest, so
#: these shares put the median job inside the DC-sweep class.  One long
#: job per run (3%) holds a worker and the GIL for about a second; with
#: two or more, DC sweeps overlapped GIL-holding work often enough that
#: the run median swung between the overlapped and the free latency.
MIX = (("inv_tran", 0.15), ("nand_tran", 0.10), ("dc", 0.45),
       ("mc", 0.07), ("repeat", 0.20), ("long", 0.03))

#: fixed-step transient settings shared by the coalescable classes
GATE_TRAN = {"tstop": 4e-11, "dt": 2e-13, "method": "trap"}
#: the long job: ~7000 pure-Python steps, about a second on one core
LONG_TRAN = {"tstop": 7e-9, "dt": 1e-12, "method": "trap"}


@dataclass(frozen=True)
class Job:
    due_s: float        # offset from the start of the open loop
    cls: str
    spec: Dict


def service_jobs(seed: int, rate: float, duration_s: float,
                 start_index: int = 0) -> List[Job]:
    """Open-loop job stream at ``rate`` jobs/s over ``duration_s``.

    The job count is fixed at ``round(rate * duration_s)``, so runs of
    different seeds carry the same load.  Arrivals are jittered: the
    window is cut into one slot per job and each job is due at a
    uniform draw inside its slot.  Poisson arrivals (sorted uniform
    draws over the window) were tried first; their bursts made the run
    median less steady (at 2 jobs/s, inter-quartile spread 0.18 against
    0.13 over five seeds).  Class counts
    are fixed by :data:`MIX`.  The long jobs (at least one) take
    evenly spaced places in the arrival order, since where a worker-
    and GIL-holding job lands would otherwise decide a short run's
    median; the other classes are shuffled.  ``start_index`` keeps
    load caps distinct across the streams of one run.
    """
    gen = rng(seed, "service", start_index)
    n = max(int(round(rate * duration_s)), 2)
    due = (np.arange(n) + gen.uniform(0.0, 1.0, size=n)) * (duration_s / n)
    n_long = max(int(round(dict(MIX)["long"] * n)), 1)
    others: List[str] = []
    for cls, share in MIX:
        if cls != "long":
            others += [cls] * int(round(share * n))
    others = (others + ["inv_tran"] * n)[:n - n_long]
    gen.shuffle(others)
    # a repeat needs an earlier original: keep the first job fresh
    if others[0] == "repeat":
        swap = next(i for i, c in enumerate(others) if c != "repeat")
        others[0], others[swap] = others[swap], others[0]
    long_at = {int((k + 0.5) * n / n_long) for k in range(n_long)}
    classes = ["long" if i in long_at else others.pop(0) for i in range(n)]
    jobs: List[Job] = []
    fresh: List[Dict] = []
    for k, (t, cls) in enumerate(zip(due, classes)):
        uid = start_index + k
        # distinct load caps keep fresh specs out of the result cache
        cap = 1e-16 * (1.0 + 0.01 * uid + float(gen.uniform(0, 0.005)))
        if cls == "inv_tran":
            spec = {"kind": "transient", "deck": inverter_deck(cap),
                    "nodes": ["out"], **GATE_TRAN}
        elif cls == "nand_tran":
            spec = {"kind": "transient", "deck": nand2_deck(cap),
                    "nodes": ["out"], **GATE_TRAN}
        elif cls == "dc":
            spec = {"kind": "dc", "deck": inverter_deck(cap),
                    "source": "Vin", "start": 0.0, "stop": 0.6,
                    "points": 31, "nodes": ["out"]}
        elif cls == "mc":
            spec = {"kind": "mc", "workload": "device", "samples": 16,
                    "seed": int(gen.integers(1, 2**31 - 1))}
        elif cls == "long":
            spec = {"kind": "transient",
                    "deck": rc_chain_deck(1e3 * (1.0 + 0.01 * uid)),
                    "nodes": ["out"], **LONG_TRAN}
        else:
            spec = dict(fresh[int(gen.integers(len(fresh)))])
        if cls != "repeat":
            fresh.append(spec)
        jobs.append(Job(float(t), cls, spec))
    return jobs
