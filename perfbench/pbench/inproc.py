"""The three in-process workloads: the engine runs in the benchmark's
own interpreter, so its layers can be traced from outside.

Each workload exposes ``setup()`` (what a user pays before the first
useful result, timed in fresh interpreters for ``setup_s``), ``warm()``
(one short untimed run so caches fill before measuring) and ``op(k)``
(one user operation, returning its wall time after checking its
output into the run's :class:`Ledger`).
"""

from __future__ import annotations

import importlib
import json
import shutil
import tempfile
import time
from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from pbench import gen, layers, machine
from pbench.stats import Ledger

REFS = Path(__file__).resolve().parents[1] / "refs"

#: tolerance of the exact-path waveform check [V]
EXACT_TOL_V = 1e-9
#: bypassed-vs-monolithic parity promised by docs/partitioning.md, as a
#: multiple of ``bypass_tol`` (5e-6 V at the default 1e-6 V)
BYPASS_TOL_MULTIPLE = 5.0
DEFAULT_BYPASS_TOL = 1e-6


def import_engine() -> None:
    """The imports a user of the transient and campaign paths pays."""
    import repro.circuit.batch_sim  # noqa: F401
    import repro.circuit.logic  # noqa: F401
    import repro.circuit.transient  # noqa: F401
    import repro.variability.campaign  # noqa: F401
    import repro.variability.circuits  # noqa: F401
    from repro.pwl.kernels import active_kernel_backend

    with _kernels():
        active_kernel_backend()


def _kernels():
    from repro.pwl.kernels import using_kernels

    return using_kernels("auto")


def _transient_module():
    # the package attribute ``repro.circuit.transient`` is the function;
    # calls go through the module global so a tracer can wrap it
    return importlib.import_module("repro.circuit.transient")


def load_ref(name: str) -> Dict:
    return json.loads((REFS / f"{name}.json").read_text())


def probe(dataset, nodes: List[str], times: List[float]
          ) -> Dict[str, List[float]]:
    axis = np.asarray(dataset.axis)
    return {node: [float(v) for v in
                   np.interp(times, axis, dataset.trace(f"v({node})"))]
            for node in nodes}


def max_diff(a: Dict[str, List[float]], b: Dict[str, List[float]]
             ) -> float:
    return max(float(np.max(np.abs(np.asarray(a[n]) - np.asarray(b[n]))))
               for n in b)


class _Base:
    name = ""

    def __init__(self, seed: int, ledger: Ledger,
                 ref: Optional[Dict] = None) -> None:
        self.seed = seed
        self.ledger = ledger
        self.ref = ref if ref is not None else load_ref(self.name)
        #: engine counters of the traced operations
        self.counts: Counter = Counter()
        #: human-readable per-workload readings (not gated)
        self.readings: Dict[str, List[float]] = {}

    def note(self, key: str, value: float) -> None:
        self.readings.setdefault(key, []).append(float(value))

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# rca32_tran
# ----------------------------------------------------------------------

class Rca32Tran(_Base):
    """Adaptive trap transient of the 32-bit adder, Cin carry launch."""

    name = "rca32_tran"

    def setup(self) -> None:
        from repro.circuit.logic import LogicFamily, build_ripple_carry_adder
        from repro.circuit.mna import robust_dc_solve
        from repro.circuit.waveforms import Pulse

        cfg = self.ref["config"]
        with _kernels():
            family = LogicFamily.default(vdd=cfg["vdd"])
            cin = Pulse(0.0, cfg["vdd"], *cfg["cin_pulse"])
            bits = cfg["bits"]
            self.circuit, _ = build_ripple_carry_adder(
                family, bits, a_value=(1 << bits) - 1, b_value=0,
                cin_wave=cin)
            self.x0 = robust_dc_solve(self.circuit, None,
                                      backend=cfg["backend"])

    def run(self, stats: Dict, tstop: Optional[float] = None):
        cfg = self.ref["config"]
        with _kernels():
            return _transient_module().transient(
                self.circuit, tstop=tstop or cfg["tstop"], method="trap",
                adaptive=True, dt=cfg["dt0"], x0=self.x0.copy(),
                backend=cfg["backend"], record_currents=False,
                stats=stats)

    def warm(self) -> None:
        self.run({}, tstop=self.ref["config"]["warm_tstop"])

    def op(self, k: int, traced: bool) -> float:
        stats: Dict = {}
        start = time.perf_counter()
        ds = self.run(stats)
        wall = time.perf_counter() - start
        got = probe(ds, self.ref["nodes"], self.ref["times"])
        err = max_diff(got, self.ref["expect"])
        self.ledger.check(err <= EXACT_TOL_V,
                          f"rca32_tran waveform off by {err:.3g} V")
        counts = {key: int(stats.get(key, 0)) for key in self.ref["counts"]}
        self.ledger.check(counts == self.ref["counts"],
                          f"rca32_tran counts {counts} != "
                          f"{self.ref['counts']}")
        self.note("wave_err_v", max_diff(got, self.ref["tight"]))
        if traced:
            layers.add_engine_stats(self.counts, stats)
        return wall


# ----------------------------------------------------------------------
# rca32_burst_store
# ----------------------------------------------------------------------

class Rca32BurstStore(_Base):
    """Long fixed-step partitioned run with an out-of-core store."""

    name = "rca32_burst_store"

    def setup(self) -> None:
        from repro.circuit.logic import LogicFamily, build_ripple_carry_adder
        from repro.circuit.mna import robust_dc_solve

        cfg = self.ref["config"]
        with _kernels():
            family = LogicFamily.default(vdd=cfg["vdd"])
            self.circuit, _ = build_ripple_carry_adder(
                family, cfg["bits"], a_value=cfg["a"], b_value=cfg["b"])
            self.x0 = robust_dc_solve(self.circuit)
        self.va0 = next(el for el in self.circuit.elements
                        if el.name == "va0")
        self.variants = gen.burst_variants(self.seed, 256)
        self.tmp = Path(tempfile.mkdtemp(prefix="burst-",
                                         dir=machine.WORK))

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)

    def run(self, variant: int, stats: Dict, store: Path,
            tstop: Optional[float] = None):
        from repro.circuit.waveforms import Pulse

        cfg = self.ref["config"]
        self.va0.waveform = Pulse(
            v1=0.0, v2=cfg["vdd"], delay=gen.BURST_DELAYS[variant],
            rise=1e-12, fall=1e-12, width=gen.BURST_WIDTH,
            period=gen.BURST_PERIOD)
        with _kernels():
            return _transient_module().transient(
                self.circuit, tstop=tstop or cfg["tstop"], dt=cfg["dt"],
                method="trap", x0=self.x0.copy(), record_currents=False,
                stats=stats, partition="auto", store=str(store))

    def warm(self) -> None:
        store = self.tmp / "warm"
        self.run(0, {}, store, tstop=self.ref["config"]["warm_tstop"])
        shutil.rmtree(store, ignore_errors=True)

    def op(self, k: int, traced: bool) -> float:
        variant = self.variants[k % len(self.variants)]
        ref = self.ref["variants"][variant]
        store = self.tmp / f"op{k}"
        stats: Dict = {}
        start = time.perf_counter()
        ds = self.run(variant, stats, store)
        wall = time.perf_counter() - start
        got = probe(ds, self.ref["nodes"], self.ref["times"])
        err = max_diff(got, ref["monolithic"])
        bound = BYPASS_TOL_MULTIPLE * DEFAULT_BYPASS_TOL
        self.ledger.check(err <= bound,
                          f"burst variant {variant} off the monolithic "
                          f"reference by {err:.3g} V (> {bound:g})")
        counts = {key: int(stats.get(key, 0)) for key in ref["counts"]}
        self.ledger.check(counts == ref["counts"],
                          f"burst variant {variant} counts {counts} != "
                          f"{ref['counts']}")
        chunks = len(list(store.glob("chunk_*.npy")))
        self.note("wave_err_v", err)
        if traced:
            layers.add_engine_stats(self.counts, stats)
            self.counts["store_chunks"] += chunks
        shutil.rmtree(store, ignore_errors=True)
        return wall


# ----------------------------------------------------------------------
# mc_ring_campaign
# ----------------------------------------------------------------------

class McRingCampaign(_Base):
    """Seeded lane-batched ring-oscillator Monte-Carlo campaigns."""

    name = "mc_ring_campaign"

    def setup(self) -> None:
        from repro.variability.params import default_device_space

        self.space = default_device_space()
        self.seeds = gen.campaign_seeds(self.seed, 256)
        self.tmp = Path(tempfile.mkdtemp(prefix="campaign-",
                                         dir=machine.WORK))

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)

    def _campaign(self, seed: int, samples: int, run_dir: Optional[Path]):
        from repro.variability.campaign import Campaign, CampaignConfig
        from repro.variability.circuits import RingOscillatorEvaluator

        cfg = self.ref["config"]
        evaluator = RingOscillatorEvaluator(self.space, use_batch=True,
                                            workers=1)
        config = CampaignConfig(name=self.name, n_samples=samples,
                                seed=seed, chunk_size=cfg["chunk_size"])
        return Campaign(config, self.space, evaluator,
                        run_dir=run_dir).run(workers=1)

    def warm(self) -> None:
        with _kernels():
            self._campaign(self.ref["config"]["warm_seed"],
                           self.ref["config"]["warm_samples"], None)

    def op(self, k: int, traced: bool) -> float:
        from repro.variability.campaign import quantize_sample
        from repro.variability.sampling import sample_space

        cfg = self.ref["config"]
        seed = self.seeds[k % len(self.seeds)]
        run_dir = self.tmp / f"op{k}"
        start = time.perf_counter()
        with _kernels():
            result = self._campaign(seed, cfg["samples"], run_dir)
        wall = time.perf_counter() - start
        med, frac = period_summary(result)
        expect = self.ref["expect"]
        self.ledger.check(frac >= expect["valid_frac_min"],
                          f"campaign seed {seed}: valid fraction {frac:.3f}")
        limit = expect["sigmas"] * expect["median_period_std"]
        self.ledger.check(
            abs(med - expect["median_period_mean"]) <= limit,
            f"campaign seed {seed}: median period {med:.4g} s vs "
            f"expected {expect['median_period_mean']:.4g} +- {limit:.2g}")
        chunks = len(list((run_dir / "chunks").glob("chunk_*.json")))
        self.ledger.check(
            chunks == -(-cfg["samples"] // cfg["chunk_size"]),
            f"campaign seed {seed}: {chunks} chunk files")
        self.note("mc_samples_per_s", cfg["samples"] / wall)
        if traced:
            samples = sample_space(self.space, cfg["samples"], seed)
            self.counts["samples"] += len(samples)
            self.counts["distinct_keys"] += len(
                {quantize_sample(s) for s in samples})
        shutil.rmtree(run_dir, ignore_errors=True)
        return wall


def period_summary(result) -> Tuple[float, float]:
    """``(median period, oscillating fraction)`` of a campaign result."""
    periods = np.array([r["metrics"]["period"] for r in result.records],
                       dtype=float)
    valid = periods[np.isfinite(periods)]
    med = float(np.median(valid)) if valid.size else float("nan")
    return med, valid.size / periods.size


WORKLOADS = {cls.name: cls for cls in
             (Rca32Tran, Rca32BurstStore, McRingCampaign)}

