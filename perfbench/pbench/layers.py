"""Metric names, the entry points traced per layer, and the per-layer
metric arithmetic.

``END_TO_END`` and ``PER_LAYER`` are the single list of names and units
the benchmark reports; ``BENCHMARK.json`` repeats them (a self-test
keeps the two in step).
"""

from __future__ import annotations

import sys
from collections import Counter
from typing import Dict, List, Optional, Tuple

from pbench.spans import SpanRecorder, Tracer

#: (name, unit) — reported by every untraced run of every workload
END_TO_END: List[Tuple[str, str]] = [
    ("setup_s", "s"),
    ("op_ms.p50", "ms"),
    ("run_mem_mb", "MB"),
]

#: (name, unit) — reported by every traced run; a layer the workload
#: does not exercise reads 0
PER_LAYER: List[Tuple[str, str]] = [
    ("import.s", "s"),
    ("pwl.fitting.s", "s"),
    ("pwl.fitting.fits", "count"),
    ("pwl.kernels.vsc_solve.s", "s"),
    ("pwl.kernels.vsc_solve.calls", "count"),
    ("pwl.kernels.companion.s", "s"),
    ("pwl.kernels.companion.calls", "count"),
    ("pwl.kernels.scatter.s", "s"),
    ("pwl.kernels.scatter.calls", "count"),
    ("circuit.mna.stamp.s", "s"),
    ("circuit.mna.stamp.calls", "count"),
    ("circuit.mna.newton.s", "s"),
    ("circuit.mna.newton.iterations", "count"),
    ("circuit.mna.iters_per_step", "ratio"),
    ("circuit.solvers.factor.s", "s"),
    ("circuit.solvers.factor.calls", "count"),
    ("circuit.solvers.solve.s", "s"),
    ("circuit.solvers.solve.calls", "count"),
    ("circuit.solvers.lu_reuse_ratio", "ratio"),
    ("circuit.transient.step.s", "s"),
    ("circuit.transient.steps", "count"),
    ("circuit.transient.rejected_lte", "count"),
    ("circuit.transient.rejected_newton", "count"),
    ("circuit.transient.accept_ratio", "ratio"),
    ("circuit.store.io.s", "s"),
    ("circuit.store.chunks", "count"),
    ("circuit.partition.s", "s"),
    ("circuit.partition.bypass_ratio", "ratio"),
    ("circuit.partition.interface_reuses", "count"),
    ("circuit.partition.escalations", "count"),
    ("circuit.batch_sim.s", "s"),
    ("circuit.batch_sim.stamp.s", "s"),
    ("circuit.solvers.stacked.s", "s"),
    ("circuit.batch_sim.lane_fallbacks", "count"),
    ("variability.campaign.s", "s"),
    ("variability.campaign.evaluate.s", "s"),
    ("variability.campaign.dedup_ratio", "ratio"),
    ("service.queue_wait_ms.p50", "ms"),
    ("service.queue_wait_ms.tail", "ms"),
    ("service.dispatch_ms.p50", "ms"),
    ("service.dispatch_ms.tail", "ms"),
    ("service.http_ms.p50", "ms"),
    ("service.dispatches", "count"),
    ("service.coalesce_ratio", "ratio"),
    ("service.cache_hit_ratio", "ratio"),
    ("service.refused", "count"),
    ("service.timeouts", "count"),
    ("service.lane_fallbacks", "count"),
    ("service.job_ms.tail", "ms"),
    ("service.ctrl_ms.p50", "ms"),
    ("service.ctrl_ms.tail", "ms"),
    ("service.goodput_jobs_s", "1/s"),
    ("loadgen.late_ms.tail", "ms"),
    ("trace.overhead_frac", "frac"),
]

#: span name -> layer; spans not listed are their own layer
LAYER_OF: Dict[str, str] = {
    "import": "import",
    "CNFET.__init__": "pwl.fitting",
    "fit_piecewise_charge": "pwl.fitting",
    "kernels.vsc_solve": "pwl.kernels.vsc_solve",
    "kernels.cnfet_companion": "pwl.kernels.companion",
    "kernels.scatter_accum": "pwl.kernels.scatter",
    "kernels.scatter_add_pad": "pwl.kernels.scatter",
    "kernels.triplet_append": "pwl.kernels.scatter",
    "kernels.lu_refactor": "circuit.solvers.factor",
    "kernels.lu_solve": "circuit.solvers.solve",
    "TwoPhaseAssembler.begin_step": "circuit.mna.stamp",
    "TwoPhaseAssembler.iterate": "circuit.mna.stamp",
    "TwoPhaseAssembler.solve": "circuit.mna.newton",
    "newton_solve": "circuit.mna.newton",
    "SparseBackend.factorize_csc": "circuit.solvers.factor",
    "SparseBackend.solve_csc": "circuit.solvers.solve",
    "solve_dense": "circuit.solvers.solve",
    "solve_stacked": "circuit.solvers.stacked",
    "transient": "circuit.transient.step",
    "WaveformStore.create": "circuit.store.io",
    "WaveformStore.append": "circuit.store.io",
    "WaveformStore.flush": "circuit.store.io",
    "PartitionedAssembler.begin_step": "circuit.partition",
    "PartitionedAssembler.iterate": "circuit.partition",
    "PartitionedAssembler.solve": "circuit.partition",
    "batch_transient": "circuit.batch_sim",
    "LaneBatch.begin_step": "circuit.batch_sim.stamp",
    "LaneBatch.iterate": "circuit.batch_sim.stamp",
    "Campaign.run": "variability.campaign",
    "evaluator.evaluate": "variability.campaign.evaluate",
}


def layer_of(span_name: str) -> str:
    return LAYER_OF.get(span_name, span_name)


def _count_fallbacks(rec: SpanRecorder, result) -> None:
    rec.counts["lane_fallbacks"] += len(
        getattr(result, "fallback_lanes", ()) or ())


def install(tracer: Tracer) -> None:
    """Wrap every layer's public entry points (modules must be loaded)."""
    from repro.circuit import batch_sim, mna, partition, solvers, store
    from repro.pwl import device, fitting
    from repro.pwl.kernels import active_kernel_backend
    from repro.variability import campaign, circuits

    kern = type(active_kernel_backend())
    for attr in ("vsc_solve", "cnfet_companion", "scatter_accum",
                 "scatter_add_pad", "triplet_append", "lu_refactor",
                 "lu_solve"):
        if hasattr(kern, attr):
            tracer.method(kern, attr, f"kernels.{attr}")
    tracer.method(device.CNFET, "__init__", "CNFET.__init__")
    tracer.function(fitting.fit_piecewise_charge, "fit_piecewise_charge")
    for attr in ("begin_step", "iterate", "solve"):
        tracer.method(mna.TwoPhaseAssembler, attr,
                      f"TwoPhaseAssembler.{attr}")
        tracer.method(partition.PartitionedAssembler, attr,
                      f"PartitionedAssembler.{attr}")
    # newton_solve and transient are looked up as module globals (the
    # transient module binds newton_solve; the package binds transient)
    tracer.function(mna.newton_solve, "newton_solve")
    tracer.function(sys.modules["repro.circuit.transient"].transient,
                    "transient")
    tracer.method(solvers.SparseBackend, "factorize_csc",
                  "SparseBackend.factorize_csc")
    tracer.method(solvers.SparseBackend, "solve_csc",
                  "SparseBackend.solve_csc")
    for cls in (solvers.SparseBackend, solvers.DenseBackend):
        tracer.method(cls, "solve_dense", "solve_dense")
        tracer.method(cls, "solve_stacked", "solve_stacked")
    for attr in ("create", "append", "flush"):
        tracer.method(store.WaveformStore, attr, f"WaveformStore.{attr}")
    tracer.function(batch_sim.batch_transient, "batch_transient",
                    observe=_count_fallbacks)
    for attr in ("begin_step", "iterate"):
        tracer.method(batch_sim.LaneBatch, attr, f"LaneBatch.{attr}")
    tracer.method(campaign.Campaign, "run", "Campaign.run")
    tracer.method(circuits.RingOscillatorEvaluator, "evaluate",
                  "evaluator.evaluate")


def _ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


def per_layer(rec: Optional[SpanRecorder], counts: Counter,
              extra: Optional[Dict[str, float]] = None
              ) -> Dict[str, float]:
    """Every ``PER_LAYER`` metric from the spans, the boundary counts
    and the workload's own measurements (``extra`` wins)."""
    self_ns: Dict[str, int] = {}
    calls: Dict[str, int] = {}
    if rec is not None:
        self_ns, calls = rec.layer_totals(layer_of)

    def secs(layer: str) -> float:
        return self_ns.get(layer, 0) * 1e-9

    out = {name: 0.0 for name, _ in PER_LAYER}
    for layer in ("import", "pwl.fitting", "pwl.kernels.vsc_solve",
                  "pwl.kernels.companion", "pwl.kernels.scatter",
                  "circuit.mna.stamp", "circuit.mna.newton",
                  "circuit.solvers.factor", "circuit.solvers.solve",
                  "circuit.transient.step", "circuit.store.io",
                  "circuit.partition", "circuit.batch_sim",
                  "circuit.batch_sim.stamp", "circuit.solvers.stacked",
                  "variability.campaign",
                  "variability.campaign.evaluate"):
        out[f"{layer}.s"] = secs(layer)
    for layer in ("pwl.kernels.vsc_solve", "pwl.kernels.companion",
                  "pwl.kernels.scatter", "circuit.mna.stamp",
                  "circuit.solvers.factor", "circuit.solvers.solve"):
        out[f"{layer}.calls"] = float(calls.get(layer, 0))
    if rec is not None:
        out["pwl.fitting.fits"] = float(rec.names.count(
            "fit_piecewise_charge"))
    steps = counts["steps"]
    rejected = counts["rejected_lte"] + counts["rejected_newton"]
    out["circuit.mna.newton.iterations"] = float(counts["iterations"])
    out["circuit.mna.iters_per_step"] = _ratio(counts["iterations"], steps)
    solves = calls.get("circuit.solvers.solve", 0)
    out["circuit.solvers.lu_reuse_ratio"] = _ratio(
        max(solves - calls.get("circuit.solvers.factor", 0), 0), solves)
    out["circuit.transient.steps"] = float(steps)
    out["circuit.transient.rejected_lte"] = float(counts["rejected_lte"])
    out["circuit.transient.rejected_newton"] = float(
        counts["rejected_newton"])
    out["circuit.transient.accept_ratio"] = _ratio(steps, steps + rejected)
    out["circuit.store.chunks"] = float(counts["store_chunks"])
    out["circuit.partition.bypass_ratio"] = _ratio(
        counts["block_steps_bypassed"],
        counts["block_steps_bypassed"] + counts["block_steps_active"])
    out["circuit.partition.interface_reuses"] = float(
        counts["interface_reuses"])
    out["circuit.partition.escalations"] = float(counts["escalations"])
    if rec is not None:
        out["circuit.batch_sim.lane_fallbacks"] = float(
            rec.counts["lane_fallbacks"])
    out["variability.campaign.dedup_ratio"] = _ratio(
        counts["distinct_keys"], counts["samples"])
    if extra:
        out.update(extra)
    return out


def add_engine_stats(counts: Counter, stats: Dict) -> None:
    """Fold one transient's ``stats`` dict into the boundary counts."""
    counts["steps"] += int(stats.get("steps", 0))
    counts["iterations"] += int(stats.get("iterations", 0))
    counts["rejected_lte"] += int(stats.get("rejected_lte", 0))
    counts["rejected_newton"] += int(stats.get("rejected_newton", 0))
    counts["block_steps_active"] += int(
        stats.get("partition_block_steps_active", 0))
    counts["block_steps_bypassed"] += int(
        stats.get("partition_block_steps_bypassed", 0))
    counts["interface_reuses"] += int(
        stats.get("partition_interface_solve_reuses", 0))
    counts["escalations"] += int(stats.get("partition_escalated", 0)) + int(
        stats.get("partition_relax_escalations", 0))
