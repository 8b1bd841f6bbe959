"""Transient analysis: adaptive LTE-controlled BE/trapezoidal engine.

Two stepping modes share one Newton back end (the two-phase assembler,
so static stamps are refreshed once per step attempt, never per
iteration):

* **fixed-step** (``dt`` given) — the legacy engine: march at ``dt``,
  halve locally (up to ``max_halvings`` times) when a step's Newton
  iteration fails to converge, then re-double.  Byte-for-byte the
  historical behaviour for circuits without source breakpoints.
* **adaptive** (``dt`` omitted or ``adaptive=True``) — variable-step
  integration with per-step local-truncation-error (LTE) control: a
  polynomial predictor extrapolates the solution history, the implicit
  corrector (BE or trapezoidal) solves the step, and the scaled
  predictor–corrector difference estimates the LTE.  A PI controller
  picks the next step; steps whose error exceeds ``rtol``/``atol`` are
  rejected and retried smaller, and Newton failures feed the same
  rejection path (shrink by 4x).  ``dt_min``/``dt_max`` bound the step.

Both modes are **event-aware**: waveform breakpoints (PULSE edges, PWL
corners — see :meth:`Waveform.breakpoints`) are landed on exactly, so a
source edge falling between two natural steps is never smeared.

The two stepping loops here (:func:`_fixed_loop`, :func:`_adaptive_loop`)
are the only step controllers in the package.  They drive the state as
a ``(lanes, n)`` stack through a small *stepper* seam, so the
monolithic and partitioned engines (:class:`_ScalarStepper`, one lane)
and the lane-batched engine (``batch_sim._RunState``, ``B`` lanes)
share breakpoint landing, prediction, the worst-lane LTE, the PI
update and Newton-failure handling.  A stepper provides:

* ``x`` / ``alive`` / ``n_nodes`` — the accepted ``(lanes, n)`` state
  stack, the live-lane mask and the number of voltage unknowns;
* ``solve(t_next, step, x_start) -> (x_new, failed_lanes)`` — one
  implicit step from ``x`` (``x_start`` seeds Newton; ``None`` starts
  from ``x``);
* ``accept(t_next, x_new, step)`` — commit a converged step;
* ``give_up(failed, t, step)`` — Newton failed at an irreducible step:
  the scalar engine raises, the lane batch drops the failing lanes;
* ``restart_lanes(t)`` — lanes whose predictor history restarts at the
  breakpoint ``t`` just landed on.

See ``docs/transient.md`` for the integrator theory, the controller
constants, and tuning guidance.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro.cancel import CancelToken
from repro.circuit.elements.base import Element, StampContext
from repro.circuit.elements.cnfet import CNFETElement
from repro.circuit.elements.sources import VoltageSource
from repro.circuit.mna import (
    NewtonOptions,
    TwoPhaseAssembler,
    newton_solve,
    robust_dc_solve,
)
from repro.circuit.netlist import Circuit
from repro.circuit.partition import (
    Partition,
    PartitionedAssembler,
    partition_circuit,
)
from repro.circuit.solvers import BackendLike
from repro.circuit.results import Dataset
from repro.circuit.store import WaveformStore
from repro.errors import AnalysisError, ParameterError

__all__ = ["transient", "initial_conditions_from_op",
           "DEFAULT_RTOL", "DEFAULT_ATOL", "DEFAULT_BYPASS_TOL"]

#: Default relative LTE tolerance of the adaptive controller.
DEFAULT_RTOL = 1e-3
#: Default absolute LTE tolerance [V].
DEFAULT_ATOL = 1e-6
#: Default latency-bypass tolerance [V] for partitioned transients —
#: a block whose scope moved less than this since its last solve is
#: carried frozen (see ``docs/partitioning.md``).
DEFAULT_BYPASS_TOL = 1e-6

#: PI controller safety factor and per-step growth/shrink clamps.
_SAFETY = 0.9
_FAC_MIN = 0.2
_FAC_MAX = 5.0
#: Growth cap when no LTE estimate exists (first step, post-breakpoint).
_FAC_BLIND = 2.0
#: Step shrink on a Newton convergence failure.
_NEWTON_SHRINK = 0.25
#: Step shrink when landing on a breakpoint (integration restarts).
_BREAKPOINT_SHRINK = 0.1
#: Hard cap on accepted steps (keeps a runaway dt_min from hanging).
_MAX_ACCEPTED_STEPS = 2_000_000


def _collect_breakpoints(circuit: Circuit, tstop: float) -> List[float]:
    """Sorted, deduplicated source-waveform corner times in (0, tstop)."""
    times = set()
    for el in circuit.elements:
        waveform = getattr(el, "waveform", None)
        if waveform is not None:
            times.update(waveform.breakpoints(0.0, tstop))
    return sorted(times)


def _plan_step(breakpoints: List[float], bp_idx: int, t: float, h: float,
               t_end: float, eps: float
               ) -> Tuple[int, float, float, bool]:
    """Next step from ``t`` of nominal size ``h``.

    Skips breakpoints already passed and truncates the step to land
    exactly on the next one.  Returns ``(bp_idx, t_next, step,
    landing)`` where ``bp_idx`` indexes the first breakpoint after
    ``t`` and ``landing`` says the step ends on it.
    """
    n = len(breakpoints)
    while bp_idx < n and breakpoints[bp_idx] <= t + eps:
        bp_idx += 1
    step = min(h, t_end - t)
    landing = bp_idx < n and breakpoints[bp_idx] - t <= step * (1.0 + 1e-12)
    if landing:
        t_next = breakpoints[bp_idx]
        return bp_idx, t_next, t_next - t, True
    return bp_idx, t + step, step, False


def _predict(hist: List[Tuple[float, np.ndarray]], hist_count: np.ndarray,
             t_next: float, method: str, x: np.ndarray
             ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-lane predictor stack, LTE divisors and has-predictor mask
    for the step ending at ``t_next``.

    ``hist_count[lane]`` counts the smooth history points in ``hist``
    for that lane (a breakpoint restart resets it to 1); lanes without
    a predictor keep their row of ``x``.  The LTE is estimated as
    ``|x_corrector - x_pred| / divisor``, the divisors coming from the
    uniform-step error constants (trapezoidal LTE ``-h^3 x'''/12`` vs
    quadratic-extrapolation error ``h^3 x'''``; BE LTE ``h^2 x''/2``
    vs linear-extrapolation error ``h^2 x''``).
    """
    divisor = np.ones(hist_count.shape[0])
    has_pred = hist_count >= 2
    quad = hist_count >= 3 if method == "trap" \
        else np.zeros_like(has_pred)
    lin = has_pred & ~quad
    x_pred = x
    if lin.any():
        (t1, x1), (t2, x2) = hist[-2], hist[-1]
        x_pred = _select(lin, x2 + (x2 - x1) * ((t_next - t2) / (t2 - t1)),
                         x_pred)
        divisor[lin] = 3.0 if method == "be" else 2.0
    if quad.any():
        (t0, x0), (t1, x1), (t2, x2) = hist[-3], hist[-2], hist[-1]
        l0 = (t_next - t1) * (t_next - t2) / ((t0 - t1) * (t0 - t2))
        l1 = (t_next - t0) * (t_next - t2) / ((t1 - t0) * (t1 - t2))
        l2 = (t_next - t0) * (t_next - t1) / ((t2 - t0) * (t2 - t1))
        x_pred = _select(quad, l0 * x0 + l1 * x1 + l2 * x2, x_pred)
        divisor[quad] = 11.0
    return x_pred, divisor, has_pred


def _select(mask: np.ndarray, new: np.ndarray,
            old: np.ndarray) -> np.ndarray:
    """Rows of ``new`` on the lanes in ``mask``, of ``old`` elsewhere."""
    if mask.all():
        return new
    out = old.copy()
    out[mask] = new[mask]
    return out


class _StepPlan(NamedTuple):
    """Validated stepping arguments of one transient run."""

    adaptive: bool
    dt: Optional[float]
    rtol: Optional[float]
    atol: Optional[float]
    dt_min: Optional[float]
    dt_max: Optional[float]
    max_halvings: Optional[int]


def _step_plan(tstop: float, method: str, dt: Optional[float],
               adaptive: Optional[bool], rtol: Optional[float],
               atol: Optional[float], dt_min: Optional[float],
               dt_max: Optional[float],
               max_halvings: Optional[int]) -> _StepPlan:
    """Validate the stepping arguments shared by :func:`transient` and
    ``batch_transient`` and fill in the mode defaults."""
    if method not in ("be", "trap"):
        raise ParameterError(f"method must be 'be' or 'trap': {method!r}")
    if adaptive is None:
        adaptive = dt is None
    if not adaptive:
        if dt is None:
            raise ParameterError(
                "fixed-step mode needs dt (omit it or pass adaptive=True "
                "for the adaptive engine)"
            )
        if dt <= 0.0 or dt > tstop:
            raise ParameterError(f"dt must be in (0, tstop]: {dt!r}")
        for name, value in (("rtol", rtol), ("atol", atol),
                            ("dt_min", dt_min), ("dt_max", dt_max)):
            if value is not None:
                raise ParameterError(
                    f"{name} is an adaptive-mode option; fixed-step "
                    f"accuracy is set by dt alone"
                )
        return _StepPlan(False, dt, None, None, None, None,
                         8 if max_halvings is None else max_halvings)
    if max_halvings is not None:
        raise ParameterError(
            "max_halvings is a fixed-step option; adaptive step "
            "rejection is governed by rtol/atol/dt_min"
        )
    rtol = DEFAULT_RTOL if rtol is None else float(rtol)
    atol = DEFAULT_ATOL if atol is None else float(atol)
    if rtol < 0.0 or atol < 0.0 or rtol + atol <= 0.0:
        raise ParameterError(
            f"need rtol, atol >= 0 and rtol + atol > 0: "
            f"rtol={rtol!r}, atol={atol!r}"
        )
    dt_max = tstop / 50.0 if dt_max is None else float(dt_max)
    dt_min = tstop * 1e-9 if dt_min is None else float(dt_min)
    if not 0.0 < dt_min <= dt_max <= tstop:
        raise ParameterError(
            f"need 0 < dt_min <= dt_max <= tstop: dt_min={dt_min!r}, "
            f"dt_max={dt_max!r}"
        )
    if dt is not None and dt <= 0.0:
        raise ParameterError(f"initial dt must be > 0: {dt!r}")
    return _StepPlan(True, dt, rtol, atol, dt_min, dt_max, None)


class _StepRecorder:
    """Commits accepted steps: element state plus an in-memory row.

    :meth:`accept` updates the elements that keep per-step state and
    hands the row to :meth:`_record`; :meth:`dataset` finalises the
    Dataset.
    """

    def __init__(self, circuit: Circuit, x0: np.ndarray) -> None:
        self.circuit = circuit
        # One reusable context for the whole run: ``accept`` used to
        # build a throwaway StampContext per accepted step, which on
        # long adaptive runs was allocator churn for no benefit (the
        # empty matrix/rhs are never stamped during acceptance).
        self._ctx = StampContext(
            matrix=np.zeros((0, 0)), rhs=np.zeros(0),
            node_index=circuit.node_index, x=x0, analysis="tran",
        )
        # Most elements inherit the base no-op ``accept_step``; a
        # 32-bit adder is ~1200 elements of which ~30 (the trap
        # capacitors / inductors) keep per-step state, so skipping the
        # no-ops removes the dominant Python-call cost of acceptance.
        self._accepting = [el for el in circuit.elements
                           if type(el).accept_step
                           is not Element.accept_step]
        self.times: List[float] = []
        self.solutions: List[np.ndarray] = []
        self._record(0.0, x0)

    def accept(self, t: float, x: np.ndarray, x_prev: np.ndarray,
               dt: float, method: str) -> None:
        """Commit a converged step: element state update + recording."""
        ctx = self._ctx
        ctx.x = x
        ctx.time = t
        ctx.dt = dt
        ctx.x_prev = x_prev
        ctx.method = method
        for el in self._accepting:
            el.accept_step(ctx)
        self._record(t, x)

    def _record(self, t: float, x: np.ndarray) -> None:
        self.times.append(t)
        self.solutions.append(x.copy())

    def dataset(self, record_currents) -> Dataset:
        return _solution_dataset(self.circuit, self.times,
                                 np.asarray(self.solutions),
                                 record_currents)


def _solution_dataset(circuit: Circuit, times: Sequence[float],
                      data: np.ndarray,
                      record_currents: Union[bool, str]) -> Dataset:
    """Dataset over solution rows ``data`` (one per time point).

    Node voltages always; with ``record_currents`` also the
    voltage-source branch currents (free columns of the solution);
    with ``record_currents is True`` also the CNFET drain currents, in
    one vectorized post-pass per element (the per-row scalar
    re-evaluation used to rival the Newton loop itself on long runs).
    """
    dataset = Dataset("time", times)
    node_index = circuit.node_index
    for node, idx in node_index.items():
        dataset.add_trace(f"v({node})", data[:, idx])
    if record_currents:
        for el in circuit.iter_elements(VoltageSource):
            dataset.add_trace(f"i({el.name})", data[:, el.aux_index])
    if record_currents is True:
        zeros = np.zeros(data.shape[0])

        def node_trace(node: str) -> np.ndarray:
            idx = node_index.get(node, -1)
            return data[:, idx] if idx >= 0 else zeros

        for el in circuit.iter_elements(CNFETElement):
            d_node, g_node, s_node = el.nodes
            vs_col = node_trace(s_node)
            vgs = node_trace(g_node) - vs_col
            vds = node_trace(d_node) - vs_col
            if el.polarity == "p":
                vgs, vds = -vgs, -vds
            series = el.backend.ids_many(vgs, vds)
            if el.polarity == "p":
                series = -series
            dataset.add_trace(f"i({el.name})", series)
    return dataset


class _StoreRecorder(_StepRecorder):
    """Streams accepted steps into a :class:`WaveformStore`.

    Same ``accept`` contract as :class:`_StepRecorder` (element state
    commits included) except rows leave RAM every ``chunk_rows``
    steps; ``dataset()`` returns a lazy Dataset over the finished
    store.
    """

    def __init__(self, circuit: Circuit, x0: np.ndarray,
                 directory, chunk_rows: int,
                 record_currents: Union[bool, str]) -> None:
        n = circuit.dimension()
        columns = [f"aux{i}" for i in range(n + 1)]
        columns[0] = "time"
        for node, idx in circuit.node_index.items():
            columns[1 + idx] = f"v({node})"
        current_names = []
        for el in circuit.iter_elements(VoltageSource):
            columns[1 + el.aux_index] = f"i({el.name})"
            current_names.append(f"i({el.name})")
        exposed = ["time"]
        exposed += [f"v({node})" for node in circuit.node_index]
        if record_currents:
            exposed += current_names
        self.store = WaveformStore.create(directory, columns,
                                          exposed=exposed,
                                          chunk_rows=chunk_rows)
        self._row = np.empty(n + 1)
        super().__init__(circuit, x0)

    def _record(self, t: float, x: np.ndarray) -> None:
        self._row[0] = t
        self._row[1:] = x
        self.store.append(self._row)

    def dataset(self, record_currents) -> Dataset:
        self.store.close()
        return Dataset.from_store(self.store)


def _resolve_partition(circuit: Circuit, partition,
                       bypass_tol: Optional[float]
                       ) -> Tuple[Optional[Partition], float, bool]:
    """Validate/normalise the ``partition``/``bypass_tol`` pair.

    Returns ``(partition_or_None, bypass_tol, escalate)`` where
    ``escalate`` records that ``"auto"`` was requested (a failing
    partitioned run may fall back to the monolithic engine).
    """
    escalate = False
    if partition is None or partition == "off":
        if bypass_tol is not None:
            raise ParameterError(
                "bypass_tol only applies to a partitioned transient "
                "(pass partition='auto' or a Partition)")
        return None, 0.0, escalate
    if isinstance(partition, str):
        if partition != "auto":
            raise ParameterError(
                f"partition must be 'off', 'auto' or a Partition: "
                f"{partition!r}")
        escalate = True
        partition = partition_circuit(circuit)
        if len(partition.blocks) < 2:
            # Nothing to decouple: one block (or all-interface) would
            # just be the monolithic solve with extra indirection.
            return None, 0.0, escalate
    elif not isinstance(partition, Partition):
        raise ParameterError(
            f"partition must be 'off', 'auto' or a Partition: "
            f"{partition!r}")
    tol = DEFAULT_BYPASS_TOL if bypass_tol is None else float(bypass_tol)
    if tol < 0.0:
        raise ParameterError(f"bypass_tol must be >= 0: {bypass_tol!r}")
    return partition, tol, escalate


def transient(
    circuit: Circuit,
    tstop: float,
    dt: Optional[float] = None,
    method: str = "trap",
    options: NewtonOptions = NewtonOptions(),
    record_currents: Union[bool, str] = True,
    x0: Optional[np.ndarray] = None,
    max_halvings: Optional[int] = None,
    stats: Optional[dict] = None,
    *,
    adaptive: Optional[bool] = None,
    rtol: Optional[float] = None,
    atol: Optional[float] = None,
    dt_min: Optional[float] = None,
    dt_max: Optional[float] = None,
    extra_breakpoints: Sequence[float] = (),
    backend: BackendLike = None,
    cancel: Optional[CancelToken] = None,
    partition: "Union[None, str, Partition]" = None,
    bypass_tol: Optional[float] = None,
    store: "Optional[str]" = None,
    store_chunk_rows: int = 256,
) -> Dataset:
    """Integrate the circuit from its DC operating point to ``tstop``.

    Parameters
    ----------
    circuit : Circuit
        The circuit; transient element state is reset first.
    tstop : float
        Stop time [s].
    dt : float, optional
        Fixed step [s].  Giving ``dt`` selects the legacy fixed-step
        mode (unless ``adaptive=True``, where it seeds the initial
        step); omitting it selects the adaptive engine.
    method : {"trap", "be"}
        ``"trap"`` (trapezoidal, 2nd order, SPICE default) or ``"be"``
        (backward Euler, L-stable, more damping).
    options : NewtonOptions
        Newton-loop tuning knobs.
    record_currents : bool or "sources"
        ``True`` also records voltage-source branch currents and CNFET
        drain currents; ``"sources"`` records only the branch currents
        (free columns of the solution, skipping the per-device CNFET
        current post-pass); ``False`` records voltages only.
    x0 : numpy.ndarray, optional
        Initial solution (defaults to the DC operating point at t = 0).
    max_halvings : int, optional
        **Fixed-step only** — how many times a non-convergent step may
        be halved before the run aborts (default 8).  In adaptive mode
        step rejection is owned by the LTE controller (``rtol``/
        ``atol``/``dt_min``), so passing ``max_halvings`` there raises
        :class:`~repro.errors.ParameterError` rather than being
        silently ignored.
    stats : dict, optional
        Accumulates step statistics: ``steps`` (accepted), ``solves``,
        ``iterations`` (Newton), ``rejected_newton``,
        ``breakpoints_hit``, and in adaptive mode additionally
        ``rejected_lte``, ``dt_smallest``, ``dt_largest`` (each key
        created on first use).
    adaptive : bool, optional
        Force the stepping mode; default ``dt is None``.
    rtol, atol : float, optional
        **Adaptive only** — relative / absolute [V] LTE tolerances per
        step (defaults 1e-3 / 1e-6 V).  Tightening them buys waveform
        accuracy with smaller steps; see ``docs/transient.md``.
    dt_min, dt_max : float, optional
        **Adaptive only** — hard step bounds [s].  Defaults:
        ``tstop * 1e-9`` and ``tstop / 50``.
    extra_breakpoints : sequence of float, optional
        Additional time points in ``(0, tstop)`` to land on exactly,
        merged with the source-waveform breakpoints (user-forced
        events; also how the parity suite replays a lane-batched run's
        shared grid, which carries *every* lane's breakpoints).
    backend : None, str or LinearSolverBackend, optional
        Linear-solver backend for every solve of the run (the initial
        DC operating point included) — ``"auto"`` (default),
        ``"dense"`` or ``"sparse"``; see
        :func:`repro.circuit.solvers.resolve_backend`.
    cancel : repro.cancel.CancelToken, optional
        Cooperative cancellation token, checked once per Newton
        iteration — a deadline or an explicit cancel unwinds the run
        with :class:`~repro.errors.CancelledError` within one
        iteration's latency (how the job service enforces per-job
        ``deadline_s``).
    partition : None, "off", "auto" or Partition, optional
        ``"auto"`` partitions the circuit
        (:func:`repro.circuit.partition.partition_circuit`) and solves
        each step block-by-block through a Schur-complement interface
        system with latency bypass; a run that fails to converge
        escalates to the monolithic engine automatically.  Passing a
        prebuilt :class:`~repro.circuit.partition.Partition` uses it
        as-is (no escalation).  Default/``"off"``: monolithic.  See
        ``docs/partitioning.md``.
    bypass_tol : float, optional
        **Partitioned only** — latency-bypass tolerance [V]
        (default 1e-6): a block whose boundary voltages and internal
        state all moved less than this since its last solve is carried
        frozen for the step — no device evaluation, stamping or
        refactorisation.  ``0.0`` disables bypass.
    store : str, optional
        Directory for an out-of-core run: accepted steps stream into a
        chunked :class:`~repro.circuit.store.WaveformStore` there and
        the returned Dataset is lazy (one column resident at a time),
        so peak memory is bounded by ``store_chunk_rows`` rows instead
        of the trace length.  Requires ``record_currents`` ``False``
        or ``"sources"`` (the CNFET current post-pass of ``True``
        needs the full solution matrix in RAM).
    store_chunk_rows : int
        Rows buffered per store chunk (default 256).

    Returns
    -------
    Dataset
        Axis ``time`` plus traces ``v(node)`` / ``i(element)``.  In
        adaptive mode the time axis is non-uniform; use
        :meth:`Dataset.at` for interpolation.
    """
    if tstop <= 0.0:
        raise ParameterError(f"tstop must be > 0: {tstop!r}")
    plan = _step_plan(tstop, method, dt, adaptive, rtol, atol, dt_min,
                      dt_max, max_halvings)
    if store is not None and record_currents is True:
        raise ParameterError(
            "store mode needs record_currents=False or 'sources': the "
            "CNFET current post-pass of record_currents=True would "
            "materialize the full trace the store exists to avoid")
    if store is not None and store_chunk_rows < 1:
        raise ParameterError(
            f"store_chunk_rows must be >= 1: {store_chunk_rows!r}")
    part, tol, escalate = _resolve_partition(circuit, partition,
                                             bypass_tol)

    circuit.reset_state()
    n = circuit.dimension()
    if x0 is None:
        x = robust_dc_solve(circuit, None, options, backend=backend,
                            cancel=cancel)
    else:
        x = np.asarray(x0, dtype=float).copy()
        if x.shape != (n,):
            raise ParameterError(
                f"x0 has shape {x.shape}, expected ({n},)"
            )

    if store is not None:
        recorder = _StoreRecorder(circuit, x, store, store_chunk_rows,
                                  record_currents)
    else:
        recorder = _StepRecorder(circuit, x)
    breakpoints = _collect_breakpoints(circuit, tstop)
    if extra_breakpoints:
        merged = set(breakpoints)
        merged.update(t for t in map(float, extra_breakpoints)
                      if 0.0 < t < tstop)
        breakpoints = sorted(merged)
    # One assembler for the whole run: matrix/rhs buffers (and, for
    # the sparse backend, the symbolic pattern) live across steps;
    # only the static stamps are refreshed per step.
    if part is not None:
        assembler = PartitionedAssembler(circuit, part, bypass_tol=tol)
    else:
        assembler = TwoPhaseAssembler(circuit, backend=backend)
    run_stats = {} if stats is None else stats
    # The caller's counters as they stood before an escalatable
    # attempt: a failed partitioned run must leave no steps or
    # iterations behind for the monolithic re-run to add to.
    before = dict(run_stats) if part is not None and escalate else None
    stepper = _ScalarStepper(circuit, x, recorder, assembler, options,
                             method, run_stats, cancel)
    try:
        loop = _adaptive_loop if plan.adaptive else _fixed_loop
        loop(stepper, tstop, breakpoints, method, plan, run_stats)
    except AnalysisError:
        if before is None:
            raise
        # "auto" contract: a partitioned run that cannot converge is
        # re-run monolithically from scratch (element transient state
        # is reset by the recursive call).
        run_stats.clear()
        run_stats.update(before)
        run_stats["partition_escalated"] = \
            run_stats.get("partition_escalated", 0) + 1
        return transient(
            circuit, tstop, dt, method, options, record_currents, x0,
            max_halvings, run_stats, adaptive=adaptive, rtol=rtol,
            atol=atol, dt_min=dt_min, dt_max=dt_max,
            extra_breakpoints=extra_breakpoints, backend=backend,
            cancel=cancel, partition="off", store=store,
            store_chunk_rows=store_chunk_rows,
        )
    if part is not None:
        for key, value in assembler.stats.items():
            run_stats[f"partition_{key}"] = value
    return recorder.dataset(record_currents)


class _ScalarStepper:
    """One-lane stepper over :func:`newton_solve` (see the module
    docstring): the monolithic :class:`TwoPhaseAssembler` or the
    :class:`PartitionedAssembler`, its state viewed as a ``(1, n)``
    stack so the shared loops treat it like a one-lane batch."""

    def __init__(self, circuit: Circuit, x: np.ndarray, recorder,
                 assembler, options: NewtonOptions, method: str,
                 stats: dict, cancel: Optional[CancelToken]) -> None:
        self.circuit = circuit
        self.x = x[None, :]
        self.alive = np.ones(1, dtype=bool)
        self.n_nodes = len(circuit.node_index)
        self.recorder = recorder
        self.options = options
        self.method = method
        self._newton = dict(analysis="tran", method=method,
                            assembler=assembler, stats=stats,
                            cancel=cancel)

    def solve(self, t_next: float, step: float,
              x_start: Optional[np.ndarray]
              ) -> Tuple[np.ndarray, List[int]]:
        x = self.x[0]
        try:
            x_next = newton_solve(
                self.circuit, x if x_start is None else x_start[0],
                self.options, time=t_next, dt=step, x_prev=x,
                **self._newton)
        except AnalysisError:
            return self.x, [0]
        return x_next[None, :], []

    def accept(self, t_next: float, x_new: np.ndarray,
               step: float) -> None:
        self.recorder.accept(t_next, x_new[0], self.x[0], step,
                             self.method)
        self.x = x_new

    def give_up(self, failed: List[int], t: float, step: float) -> None:
        raise AnalysisError(
            f"transient stalled at t={t:.3e} s: Newton failed at an "
            f"irreducible step ({step:.3e} s)"
        )

    def restart_lanes(self, t: float) -> List[int]:
        return [0]


def _count(stats: dict, key: str) -> None:
    stats[key] = stats.get(key, 0) + 1


def _fixed_loop(stepper, t_end: float, breakpoints: List[float],
                method: str, plan: _StepPlan, stats: dict) -> None:
    """Fixed-step march with local halving on Newton failure.

    Byte-for-byte the historical engine when the circuit has no source
    breakpoints; otherwise steps are truncated to land exactly on each
    breakpoint before resuming the ``dt`` cadence.  A failure with
    ``max_halvings`` spent goes to ``stepper.give_up`` and the step is
    retried by whatever lanes remain.
    """
    dt = current_dt = plan.dt
    max_halvings = plan.max_halvings
    t = 0.0
    halvings = 0
    bp_idx = 0
    eps = 1e-15 * t_end
    while stepper.alive.any() and t < t_end - eps:
        bp_idx, t_next, step, landing = _plan_step(
            breakpoints, bp_idx, t, current_dt, t_end, eps)
        x_new, failed = stepper.solve(t_next, step, None)
        if failed:
            _count(stats, "rejected_newton")
            if halvings >= max_halvings:
                stepper.give_up(failed, t, step)
            else:
                current_dt = step / 2.0
                halvings += 1
            continue
        stepper.accept(t_next, x_new, step)
        t = t_next
        _count(stats, "steps")
        if landing:
            bp_idx += 1
            _count(stats, "breakpoints_hit")
        # Re-double after reductions.  Gating on current_dt (not the
        # halvings counter) matters with breakpoints: one Newton
        # failure on a breakpoint-sliver step can cut current_dt far
        # below dt/2, and recovery must not be capped at 2^halvings.
        # Without breakpoints step always equals current_dt mid-run,
        # halvings > 0 iff current_dt < dt, and this is byte-for-byte
        # the legacy behaviour.
        if current_dt < dt:
            current_dt = min(dt, current_dt * 2.0)
            halvings = max(0, halvings - 1)


def _adaptive_loop(stepper, t_end: float, breakpoints: List[float],
                   method: str, plan: _StepPlan, stats: dict) -> None:
    """Variable-step LTE-controlled integration (see module docstring).

    Controller: predictor–corrector LTE estimate over the voltage
    unknowns, weighted by ``atol + rtol * |v|``, taken as the *largest*
    scaled error over the live lanes that have a predictor; accept
    when ``err <= 1``; PI step update ``h *= 0.9 err^(-0.7/k)
    err_prev^(0.4/k)`` with ``k = order + 1``.  Newton failures shrink
    the step 4x through the same rejection path.  Breakpoints are
    landed on exactly; the predictor history of the lanes
    ``stepper.restart_lanes`` names is restarted across them because
    the derivative is discontinuous there.
    """
    rtol, atol = plan.rtol, plan.atol
    dt_min, dt_max = plan.dt_min, plan.dt_max
    n_nodes = stepper.n_nodes
    k_order = 2 if method == "be" else 3
    t = 0.0
    h = min(dt_max, t_end / 1000.0) if plan.dt is None \
        else min(plan.dt, dt_max)
    err_prev = 1.0
    bp_idx = 0
    eps = 1e-15 * t_end
    accepted = 0
    hist: List[Tuple[float, np.ndarray]] = [(0.0, stepper.x.copy())]
    hist_count = np.ones(stepper.x.shape[0], dtype=int)
    while stepper.alive.any() and t < t_end - eps:
        h = min(max(h, dt_min), dt_max)
        bp_idx, t_next, step, landing = _plan_step(
            breakpoints, bp_idx, t, h, t_end, eps)
        x = stepper.x
        # The predictor doubles as the Newton starting point: an
        # extrapolated start typically converges in 1-2 iterations
        # where restarting from x_prev needs several.
        x_pred, divisor, has_pred = _predict(hist, hist_count, t_next,
                                             method, x)
        x_new, failed = stepper.solve(t_next, step, x_pred)
        if failed:
            _count(stats, "rejected_newton")
            # A retry is only meaningful if the next attempt can be
            # genuinely smaller; dt_min floors the controller, and a
            # breakpoint sliver shorter than dt_min cannot shrink at
            # all (the landing time is fixed), so both give up here.
            shrunk = max(step * _NEWTON_SHRINK, dt_min)
            if shrunk >= step * (1.0 - 1e-12):
                stepper.give_up(failed, t, step)
            else:
                h = shrunk
            continue

        err = None
        scoring = stepper.alive & has_pred
        if scoring.any():
            lanes = np.flatnonzero(scoring)
            v_now = np.abs(x[lanes, :n_nodes])
            v_next = np.abs(x_new[lanes, :n_nodes])
            weight = atol + rtol * np.maximum(v_now, v_next)
            diff = np.abs(x_new[lanes, :n_nodes] - x_pred[lanes, :n_nodes])
            lane_err = (diff / weight).max(axis=1) / divisor[lanes] \
                if n_nodes else np.zeros(lanes.size)
            err = float(lane_err.max())
        if err is not None and err > 1.0:
            shrunk = max(
                step * min(0.5, max(0.1,
                                    _SAFETY * err ** (-1.0 / k_order))),
                dt_min,
            )
            if shrunk < step * (1.0 - 1e-12):
                _count(stats, "rejected_lte")
                h = shrunk
                continue
            # The step cannot shrink (dt_min floor or an irreducible
            # breakpoint sliver): accept it as the best available.

        stepper.accept(t_next, x_new, step)
        t = t_next
        accepted += 1
        if accepted > _MAX_ACCEPTED_STEPS:
            raise AnalysisError(
                f"transient exceeded {_MAX_ACCEPTED_STEPS} accepted "
                f"steps; loosen rtol/atol or raise dt_min"
            )
        _count(stats, "steps")
        stats["dt_smallest"] = min(stats.get("dt_smallest", step), step)
        stats["dt_largest"] = max(stats.get("dt_largest", step), step)
        if err is None or err <= 0.0:
            fac = _FAC_BLIND
        else:
            fac = _SAFETY * err ** (-0.7 / k_order) \
                * err_prev ** (0.4 / k_order)
            fac = min(_FAC_MAX, max(_FAC_MIN, fac))
            err_prev = max(err, 1e-4)
        if (stepper.alive & (hist_count < 2)).any():
            # Some lane is predictor-blind (its history just restarted
            # at a breakpoint): its error is invisible to the worst-
            # lane controller, so growth is capped as for a step with
            # no estimate at all — otherwise the other lanes'
            # plateau-small errors would quintuple the shared step
            # right through the restarting lane's edge.
            fac = min(fac, _FAC_BLIND)
        h = step * fac
        hist.append((t, stepper.x.copy()))
        if len(hist) > 3:
            hist.pop(0)
        hist_count = np.minimum(hist_count + 1, 3)
        if landing:
            bp_idx += 1
            _count(stats, "breakpoints_hit")
            restart = stepper.restart_lanes(t)
            if restart:
                # Source derivative discontinuity: restart the owning
                # lanes' predictor history and re-enter cautiously
                # (the first step after has no LTE estimate for them).
                hist_count[restart] = 1
                h = max(dt_min, h * _BREAKPOINT_SHRINK)
                err_prev = 1.0



def initial_conditions_from_op(circuit: Circuit,
                               overrides: Optional[dict] = None,
                               options: NewtonOptions = NewtonOptions()
                               ) -> np.ndarray:
    """DC operating point with optional per-node voltage overrides [V].

    Useful to kick oscillators out of their unstable symmetric point:
    ``initial_conditions_from_op(ckt, {"n1": 0.0})``.

    Parameters
    ----------
    circuit : Circuit
        The circuit (transient state is reset).
    overrides : dict, optional
        ``{node_name: voltage}`` values forced onto the DC solution.
    options : NewtonOptions
        Newton-loop tuning knobs for the DC solve.

    Returns
    -------
    numpy.ndarray
        A solution vector usable as ``x0`` for :func:`transient`.
    """
    circuit.reset_state()
    x = robust_dc_solve(circuit, None, options)
    if overrides:
        for node, value in overrides.items():
            idx = circuit.node_index.get(node)
            if idx is None:
                raise ParameterError(f"unknown node {node!r} in overrides")
            x[idx] = float(value)
    return x
