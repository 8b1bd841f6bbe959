"""MNA assembly (two-phase) and the damped Newton solver.

Assembly is split into two phases per Newton solve:

* **static phase** — every linear element (``nonlinear = False``:
  resistors, sources, capacitor/inductor companions) is stamped once
  per step context into a preallocated static matrix/rhs pair.  These
  stamps depend on ``(time, dt, x_prev, method, source_scale)`` but not
  on the Newton iterate, so re-stamping them every iteration — as the
  one-phase assembler did — is pure waste.
* **dynamic phase** — each Newton iteration copies the static system
  into preallocated work buffers and stamps only the nonlinear elements
  (CNFETs, diodes) around the current iterate.

:class:`TwoPhaseAssembler` owns the buffers and can be reused across
Newton solves and transient steps, eliminating the per-iteration
matrix allocations as well.  Two orthogonal scaling layers sit on the
same two-phase split:

* **Linear-solver backends** (:mod:`repro.circuit.solvers`): the dense
  path stamps/solves exactly as the engine always has; the sparse
  path has the elements emit COO triplets through a
  :class:`~repro.circuit.elements.base.TripletStampContext`, builds
  the symbolic sparsity pattern (CSC layout) and the static/dynamic
  scatter index maps
  once per run (positions depend only on topology and analysis mode —
  the pattern self-heals if a mode switch changes them), and
  factorises with SuperLU per Newton iteration.
* **The CNFET slab** (:class:`~repro.circuit.elements.cnfet.CNFETSlab`):
  at :data:`CNFET_SLAB_MIN_DEVICES` fast-backend CNFETs and above,
  all of them evaluate as one stacked closed-form pass per iteration
  instead of a Python loop of scalar solves.  Circuits below the
  threshold keep the byte-for-byte historical scalar path.

Robustness aids, in escalation order:

1. per-iteration voltage step damping (clipped to ``max_step`` volts);
2. gmin stepping (decade sweep of the nonlinear shunt conductance);
3. source stepping (ramping all independent sources from 0).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro import faults
from repro.cancel import CancelToken
from repro.circuit.elements.base import StampContext, TripletStampContext
from repro.circuit.elements.capacitor import Capacitor
from repro.circuit.elements.cnfet import CNFETElement, CNFETSlab
from repro.circuit.elements.resistor import Resistor
from repro.circuit.elements.sources import CurrentSource, VoltageSource
from repro.circuit.netlist import Circuit
from repro.circuit.solvers import BackendLike, resolve_backend
from repro.errors import AnalysisError
from repro.pwl.device import CNFET
from repro.pwl.kernels import active_kernel_backend

#: Fast-backend CNFET count at which the assembler switches from the
#: per-element scalar stamp loop to the stacked
#: :class:`~repro.circuit.elements.cnfet.CNFETSlab`.  Below this the
#: stacked pass's fixed costs are not worth it and the historical
#: scalar path is kept bit-for-bit.
CNFET_SLAB_MIN_DEVICES = 16


@dataclass(frozen=True)
class NewtonOptions:
    """Newton-loop tuning knobs (defaults follow SPICE conventions)."""

    max_iterations: int = 100
    #: absolute node-voltage convergence tolerance [V]
    vtol: float = 1e-9
    #: relative convergence tolerance
    reltol: float = 1e-6
    #: maximum voltage change per Newton iteration [V]
    max_step: float = 0.5
    #: shunt conductance for nonlinear elements
    gmin: float = 1e-12
    #: enable gmin stepping fallback
    gmin_stepping: bool = True
    #: enable source stepping fallback
    source_stepping: bool = True
    #: Jacobian-reuse fast path: when > 0, a Newton iteration whose
    #: iterate moved less than this many volts (inf-norm) since the
    #: last nonlinear assembly reuses that assembly's stamps instead of
    #: re-evaluating every nonlinear element.  The static phase is
    #: still refreshed per step, so across transient steps this is a
    #: frozen-linearisation (chord) iteration; the approximation error
    #: is O(curvature * tol^2), and a stalling solve falls back to full
    #: assemblies for its remaining iterations.  The tuned default
    #: (1e-6 V — solution error ~1e-12 V, well under every engine
    #: tolerance) additionally lets the sparse assembler reuse its LU
    #: factorisation whenever the chord freezes the stamps; set 0 to
    #: recover the exact legacy iteration.
    jacobian_reuse_tol: float = 1e-6


def assemble(circuit: Circuit, x: np.ndarray, *, analysis: str = "dc",
             time: Optional[float] = None, dt: Optional[float] = None,
             x_prev: Optional[np.ndarray] = None, method: str = "be",
             gmin: float = 1e-12, source_scale: float = 1.0
             ) -> StampContext:
    """Stamp every element around iterate ``x``; returns the context
    whose ``matrix``/``rhs`` hold the companion system.

    One-phase convenience used by the AC linearisation and tests; the
    Newton loop goes through :class:`TwoPhaseAssembler` instead.
    """
    n = circuit.dimension()
    ctx = StampContext(
        matrix=np.zeros((n, n)),
        rhs=np.zeros(n),
        node_index=circuit.node_index,
        x=x,
        analysis=analysis,
        time=time,
        dt=dt,
        x_prev=x_prev,
        method=method,
        gmin=gmin,
        source_scale=source_scale,
    )
    for el in circuit.elements:
        el.stamp(ctx)
    return ctx


class _LinearStamps:
    """Static phase of plain sources, resistors and capacitors, stamped
    from index templates instead of one ``stamp`` call per element.

    Each analysis mode (DC, or a transient step with capacitor
    companions) gets one template, built on first use: every matrix
    triplet and rhs entry the per-element loop would emit, in the
    loop's order and with grounded entries dropped, as
    ``sign * slot[src]``.  The slot vector is rebuilt per step from
    the quantities that move: source values (read at stamp time, since
    ``dc_sweep`` swaps waveform objects) and capacitor companions
    (trapezoidal history read from the elements).  One
    :meth:`~repro.circuit.elements.base.StampContext.add_flat` then
    lands the entries; its scatter-adds sum in template order, so the
    dense matrix, the triplet stream and the rhs are bit-identical to
    the loop's.
    """

    #: element types a template covers (exact types: a subclass may
    #: override ``stamp``)
    TYPES = (VoltageSource, CurrentSource, Resistor, Capacitor)

    def __init__(self, elements) -> None:
        self.elements = list(elements)
        resistors = [el for el in self.elements if type(el) is Resistor]
        self.sources = [el for el in self.elements
                        if type(el) in (VoltageSource, CurrentSource)]
        self.caps = [el for el in self.elements if type(el) is Capacitor]
        self._cap_c = np.array([el.capacitance for el in self.caps])
        #: per-step constant slots: 1.0, then every conductance
        self._const = np.array(
            [1.0] + [el.conductance for el in resistors])
        # slot layout: const | source values | cap geq | cap ieq
        n_const, n_src = self._const.size, len(self.sources)
        self._slot = {}
        for k, el in enumerate(resistors):
            self._slot[id(el)] = 1 + k
        for k, el in enumerate(self.sources):
            self._slot[id(el)] = n_const + k
        for k, el in enumerate(self.caps):
            self._slot[id(el)] = n_const + n_src + k
        self._n_caps = len(self.caps)
        self._cap_nodes = None
        self._templates = {}

    def _build(self, ctx: StampContext, tran: bool) -> tuple:
        """``(m_flat, m_sign, m_slot, r_row, r_sign, r_slot)`` for one
        mode, replaying each element's ``stamp`` entry sequence."""
        dim = ctx.rhs.size
        m, r = [], []

        def entry(row, col, sign, slot):
            if row >= 0 and col >= 0:
                m.append((row * dim + col, sign, slot))

        def rhs(row, sign, slot):
            if row >= 0:
                r.append((row, sign, slot))

        def conductance(ia, ib, slot):
            entry(ia, ia, 1.0, slot)
            entry(ib, ib, 1.0, slot)
            entry(ia, ib, -1.0, slot)
            entry(ib, ia, -1.0, slot)

        for el in self.elements:
            ia, ib = ctx.idx(el.nodes[0]), ctx.idx(el.nodes[1])
            slot = self._slot[id(el)]
            kind = type(el)
            if kind is VoltageSource:
                k = el.aux_index
                entry(ia, k, 1.0, 0)
                entry(ib, k, -1.0, 0)
                entry(k, ia, 1.0, 0)
                entry(k, ib, -1.0, 0)
                rhs(k, 1.0, slot)
            elif kind is CurrentSource:
                rhs(ia, -1.0, slot)
                rhs(ib, 1.0, slot)
            elif kind is Resistor:
                conductance(ia, ib, slot)
            elif tran:  # Capacitor: open in DC
                conductance(ia, ib, slot)
                rhs(ia, -1.0, slot + self._n_caps)
                rhs(ib, 1.0, slot + self._n_caps)

        def columns(rows):
            flat, sign, slot = zip(*rows) if rows else ((), (), ())
            return (np.array(flat, dtype=np.intp), np.array(sign),
                    np.array(slot, dtype=np.intp))

        if tran:
            # ground reads x_prev's appended 0.0 pad through index -1
            self._cap_nodes = (
                np.array([ctx.idx(el.nodes[0]) for el in self.caps],
                         dtype=np.intp),
                np.array([ctx.idx(el.nodes[1]) for el in self.caps],
                         dtype=np.intp))
        return columns(m) + columns(r)

    def stamp(self, ctx: StampContext) -> None:
        """Land every covered element's static stamps in ``ctx``."""
        tran = ctx.analysis == "tran" and ctx.dt is not None
        template = self._templates.get(tran)
        if template is None:
            template = self._templates[tran] = self._build(ctx, tran)
        m_flat, m_sign, m_slot, r_row, r_sign, r_slot = template
        if ctx.analysis == "tran" and ctx.time is not None:
            time = ctx.time
            values = [el.waveform.value(time) for el in self.sources]
        else:
            values = [el.waveform.dc_value() for el in self.sources]
        parts = [self._const,
                 np.array(values, dtype=float) * ctx.source_scale]
        if tran and self._n_caps:
            c = self._cap_c
            if ctx.x_prev is None:
                v_prev = np.zeros(self._n_caps)
            else:
                xp = np.append(ctx.x_prev, 0.0)
                node_a, node_b = self._cap_nodes
                v_prev = xp[node_a] - xp[node_b]
            if ctx.method == "trap":
                geq = 2.0 * c / ctx.dt
                i_prev = np.array([el._i_prev for el in self.caps])
                ieq = -(geq * v_prev + i_prev)
            else:  # backward Euler
                geq = c / ctx.dt
                ieq = -geq * v_prev
            parts += [geq, ieq]
        slots = np.concatenate(parts)
        ctx.add_flat(m_flat, m_sign * slots[m_slot],
                     r_row, r_sign * slots[r_slot])


class TwoPhaseAssembler:
    """Preallocated two-phase assembly for one circuit.

    Create once per analysis (or let :func:`newton_solve` make a
    throwaway one), call :meth:`begin_step` whenever the step context —
    ``(analysis, time, dt, x_prev, method, source_scale)`` — changes,
    then :meth:`iterate` per Newton iteration and :meth:`solve` for
    the linear solve through the active backend.

    Elements whose stamp reads the Newton iterate must declare
    ``nonlinear = True`` (the documented contract of
    :attr:`Element.nonlinear`); everything else is stamped once per
    step.  When every such static element is a plain
    :class:`VoltageSource`, :class:`CurrentSource`, :class:`Resistor`
    or :class:`Capacitor`, the static phase is array-stamped from
    index templates (:class:`_LinearStamps`, bit-identical to the
    element loop); any other static type (an ``Inductor``, a user
    subclass) keeps the per-element ``stamp`` loop for all of them.

    Parameters
    ----------
    circuit : Circuit
        The circuit to assemble.
    backend : None, str or LinearSolverBackend
        Linear-solver backend (see
        :func:`repro.circuit.solvers.resolve_backend`); ``None`` /
        ``"auto"`` picks dense below
        :data:`~repro.circuit.solvers.SPARSE_AUTO_MIN_DIM` unknowns.
    cnfet_slab : bool, optional
        Force the stacked CNFET evaluation on/off; default (``None``)
        enables it at :data:`CNFET_SLAB_MIN_DEVICES` fast-backend
        devices.
    """

    def __init__(self, circuit: Circuit,
                 backend: BackendLike = None,
                 cnfet_slab: Optional[bool] = None) -> None:
        self.circuit = circuit
        n = circuit.dimension()
        self.n = n
        self.backend = resolve_backend(backend, n)
        self._static = [el for el in circuit.elements if not el.nonlinear]
        #: array-stamped static phase, or None when some static element
        #: is not a plain source, resistor or capacitor (the
        #: per-element loop then stamps them all)
        self._linear: Optional[_LinearStamps] = (
            _LinearStamps(self._static)
            if all(type(el) in _LinearStamps.TYPES for el in self._static)
            else None)
        dynamic = [el for el in circuit.elements if el.nonlinear]
        slab_els = [
            el for el in dynamic
            if isinstance(el, CNFETElement)
            and isinstance(el.backend.device, CNFET)
        ]
        if cnfet_slab is None:
            cnfet_slab = len(slab_els) >= CNFET_SLAB_MIN_DEVICES
        if cnfet_slab and slab_els:
            self.slab: Optional[CNFETSlab] = CNFETSlab(
                slab_els, n, circuit.node_index)
            slab_ids = {id(el) for el in slab_els}
            self._dynamic = [el for el in dynamic
                             if id(el) not in slab_ids]
        else:
            self.slab = None
            self._dynamic = dynamic
        if self.backend.is_sparse:
            self._static_ctx = TripletStampContext(n, circuit.node_index)
            self._dyn_ctx = TripletStampContext(n, circuit.node_index)
            #: sorted unique flat matrix positions (the pattern key;
            #: _indices/_indptr hold its CSC form)
            self._pattern_flat: Optional[np.ndarray] = None
            self._indices: Optional[np.ndarray] = None
            self._indptr: Optional[np.ndarray] = None
            self._static_flat: Optional[np.ndarray] = None
            self._static_map: Optional[np.ndarray] = None
            self._static_data: Optional[np.ndarray] = None
            self._static_dirty = True
            self._dyn_flat: Optional[np.ndarray] = None
            self._dyn_map: Optional[np.ndarray] = None
            self._begun = False
            #: LU-factorisation reuse across iterations with identical
            #: ``data`` (the Jacobian-reuse chord freezes the stamps,
            #: so comparing the scattered values is enough)
            self._lu_data: Optional[np.ndarray] = None
            self._lu = None
        else:
            self._static_matrix = np.zeros((n, n))
            self._static_rhs = np.zeros(n)
            self._matrix = np.zeros((n, n))
            self._rhs = np.zeros(n)
            self._x_static = np.zeros(n)  # placeholder for phase 1
            self._ctx: Optional[StampContext] = None

    def begin_step(self, *, analysis: str = "dc",
                   time: Optional[float] = None, dt: Optional[float] = None,
                   x_prev: Optional[np.ndarray] = None, method: str = "be",
                   gmin: float = 1e-12,
                   source_scale: float = 1.0) -> None:
        """Stamp the static (iterate-independent) part of the system."""
        if self.backend.is_sparse:
            ctx = self._static_ctx
            ctx.clear()
            ctx.analysis = analysis
            ctx.time = time
            ctx.dt = dt
            ctx.x_prev = x_prev
            ctx.method = method
            ctx.gmin = gmin
            ctx.source_scale = source_scale
            self._stamp_static(ctx)
            if self.slab is not None:
                self.slab.begin_step(ctx)
            self._static_dirty = True
            self._begun = True
            return
        ctx = StampContext(
            matrix=self._static_matrix,
            rhs=self._static_rhs,
            node_index=self.circuit.node_index,
            x=self._x_static,  # placeholder; static stamps never read x
            analysis=analysis,
            time=time,
            dt=dt,
            x_prev=x_prev,
            method=method,
            gmin=gmin,
            source_scale=source_scale,
        )
        self._static_matrix[:] = 0.0
        self._static_rhs[:] = 0.0
        self._stamp_static(ctx)
        if self.slab is not None:
            self.slab.begin_step(ctx)
        self._ctx = ctx

    def _stamp_static(self, ctx: StampContext) -> None:
        if self._linear is not None:
            self._linear.stamp(ctx)
        else:
            for el in self._static:
                el.stamp(ctx)

    def iterate(self, x: np.ndarray,
                reuse_tol: float = 0.0) -> StampContext:
        """Companion system around iterate ``x``: static copy plus
        nonlinear stamps.

        ``reuse_tol`` > 0 enables the Jacobian-reuse fast path for
        elements that support it (see
        :attr:`NewtonOptions.jacobian_reuse_tol`): an element whose
        controlling voltages moved less than the tolerance since its
        last evaluation may restamp from that frozen linearisation.
        """
        if self.backend.is_sparse:
            if not self._begun:
                raise AnalysisError(
                    "begin_step must be called before iterate")
            src = self._static_ctx
            ctx = self._dyn_ctx
            ctx.clear()
            ctx.x = x
            ctx.analysis = src.analysis
            ctx.time = src.time
            ctx.dt = src.dt
            ctx.x_prev = src.x_prev
            ctx.method = src.method
            ctx.gmin = src.gmin
            ctx.source_scale = src.source_scale
            ctx.reuse_tol = reuse_tol
            for el in self._dynamic:
                el.stamp(ctx)
            if self.slab is not None:
                self.slab.stamp(ctx)
            return ctx
        ctx = self._ctx
        if ctx is None:
            raise AnalysisError("begin_step must be called before iterate")
        np.copyto(self._matrix, self._static_matrix)
        np.copyto(self._rhs, self._static_rhs)
        ctx.matrix = self._matrix
        ctx.rhs = self._rhs
        ctx.x = x
        ctx.reuse_tol = reuse_tol
        for el in self._dynamic:
            el.stamp(ctx)
        if self.slab is not None:
            self.slab.stamp(ctx)
        return ctx

    # -- sparse pattern bookkeeping -------------------------------------

    def _rebuild_pattern(self, s_flat: np.ndarray,
                         d_flat: np.ndarray) -> None:
        """Symbolic CSC pattern + static/dynamic scatter maps.

        Positions depend only on the topology and the analysis mode
        (each element emits a fixed entry sequence per mode), so this
        runs once per run in steady state; a mode switch (dc -> tran
        adds capacitor and charge-companion entries) is detected by
        the flat-position comparison in :meth:`_sparse_system` and
        rebuilds automatically.  The pattern is stored directly in the
        CSC layout SuperLU consumes and the scatter maps compose the
        row-major -> column-major permutation, so per-iteration work
        is two value scatters — no matrix construction or format
        conversion.
        """
        n = self.n
        union = np.unique(np.concatenate([s_flat, d_flat]))
        rows = union // n
        cols = union % n
        self._pattern_flat = union
        # union is sorted by (row, col); a stable argsort on the
        # column takes it to (col, row) — the CSC entry order.
        perm = np.argsort(cols, kind="stable")
        self._indices = rows[perm].astype(np.intp)
        indptr = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(np.bincount(cols, minlength=n), out=indptr[1:])
        self._indptr = indptr
        csc_pos = np.empty(union.size, dtype=np.intp)
        csc_pos[perm] = np.arange(union.size)
        self._static_flat = s_flat.copy()
        self._dyn_flat = d_flat.copy()
        self._static_map = csc_pos[np.searchsorted(union, s_flat)]
        self._dyn_map = csc_pos[np.searchsorted(union, d_flat)]
        self._static_dirty = True
        self._lu_data = None
        self._lu = None

    def _sparse_system(self):
        """Scatter the recorded triplets into CSC data + rhs."""
        s_flat, s_val = self._static_ctx.triplets()
        d_flat, d_val = self._dyn_ctx.triplets()
        if (self._pattern_flat is None
                or self._static_flat.size != s_flat.size
                or self._dyn_flat.size != d_flat.size
                or not np.array_equal(s_flat, self._static_flat)
                or not np.array_equal(d_flat, self._dyn_flat)):
            self._rebuild_pattern(s_flat, d_flat)
        nnz = self._pattern_flat.size
        if self._static_dirty:
            self._static_data = np.bincount(
                self._static_map, weights=s_val, minlength=nnz)
            self._static_dirty = False
        data = active_kernel_backend().scatter_accum(
            self._static_data, self._dyn_map, d_val)
        rhs = self._static_ctx.rhs + self._dyn_ctx.rhs
        return data, rhs

    def solve(self) -> np.ndarray:
        """Solve the assembled system through the active backend
        (raises :class:`~repro.errors.AnalysisError` when singular)."""
        if self.backend.is_sparse:
            data, rhs = self._sparse_system()
            # Factorisation reuse: when the Jacobian-reuse chord froze
            # every stamp, the scattered values are bit-identical to
            # the previous iteration's and the (dominant) SuperLU
            # factorisation can be skipped outright.
            if self._lu is not None \
                    and data.size == self._lu_data.size \
                    and np.array_equal(data, self._lu_data):
                return self._lu.solve(rhs)
            lu = self.backend.factorize_csc(
                self.n, data, self._indices, self._indptr)
            if lu is not None:
                self._lu = lu
                self._lu_data = data
                return lu.solve(rhs)
            return self.backend.solve_csc(
                self.n, data, self._indices, self._indptr, rhs)
        return self.backend.solve_dense(self._matrix, self._rhs)


def newton_solve(circuit: Circuit, x0: np.ndarray,
                 options: NewtonOptions = NewtonOptions(), *,
                 analysis: str = "dc", time: Optional[float] = None,
                 dt: Optional[float] = None,
                 x_prev: Optional[np.ndarray] = None, method: str = "be",
                 gmin: Optional[float] = None,
                 source_scale: float = 1.0,
                 assembler: Optional[TwoPhaseAssembler] = None,
                 stats: Optional[dict] = None,
                 backend: BackendLike = None,
                 cancel: Optional[CancelToken] = None) -> np.ndarray:
    """Damped Newton iteration; raises :class:`AnalysisError` on failure.

    Pass a reusable ``assembler`` (transient does, once per analysis) to
    amortise buffer allocation across steps; ``backend`` selects the
    linear-solver backend when no assembler is given.  When a ``stats``
    dict is supplied, ``"iterations"`` and ``"solves"`` counters are
    accumulated into it (the benchmark report reads them).  A ``cancel``
    token is checked once per iteration, so a deadline or an explicit
    cancellation unwinds within one iteration's latency.
    """
    x = x0.copy()
    n_nodes = len(circuit.node_index)
    use_gmin = options.gmin if gmin is None else gmin
    if assembler is None:
        assembler = TwoPhaseAssembler(circuit, backend=backend)
    assembler.begin_step(
        analysis=analysis, time=time, dt=dt, x_prev=x_prev, method=method,
        gmin=use_gmin, source_scale=source_scale,
    )
    reuse_tol = options.jacobian_reuse_tol
    # Convergence-stall fallback for the reuse fast path: past half the
    # iteration budget every assembly is forced fresh.
    stall_cap = options.max_iterations // 2
    # Local counters, flushed once per solve — the per-iteration
    # ``stats.get`` dict churn used to show up on long transients.
    iterations = 0
    max_dv = None
    worst = None
    try:
        for iterations in range(1, options.max_iterations + 1):
            if cancel is not None:
                cancel.check()
            assembler.iterate(
                x,
                reuse_tol if iterations <= stall_cap else 0.0,
            )
            try:
                if faults.fire("solver.singular"):
                    raise np.linalg.LinAlgError(
                        "injected singular system (fault seam "
                        "solver.singular)")
                x_new = assembler.solve()
            except np.linalg.LinAlgError as exc:
                # Backends normally diagnose singularity themselves; a
                # raw LinAlgError escaping here must not abort a whole
                # campaign when gmin/source stepping could recover.
                raise AnalysisError(
                    f"singular MNA matrix ({exc}); check for floating "
                    f"nodes"
                ) from exc
            delta = x_new - x
            # Damp voltage unknowns only; branch currents may move
            # freely.
            v_delta = delta[:n_nodes]
            if n_nodes:
                worst = int(np.argmax(np.abs(v_delta)))
                max_dv = float(np.abs(v_delta[worst]))
            else:
                max_dv = 0.0
            if max_dv > options.max_step:
                delta = delta * (options.max_step / max_dv)
            x = x + delta
            converged = np.all(
                np.abs(delta[:n_nodes])
                <= options.vtol + options.reltol * np.abs(x[:n_nodes])
            )
            if converged and max_dv <= options.max_step:
                return x
    finally:
        if stats is not None:
            stats["solves"] = stats.get("solves", 0) + 1
            stats["iterations"] = stats.get("iterations", 0) + iterations
    raise AnalysisError(
        f"Newton did not converge in {options.max_iterations} iterations "
        f"(analysis={analysis}, t={time})",
        residual=max_dv,
        node=_node_name(circuit, worst),
    )


def _node_name(circuit: Circuit, index: Optional[int]) -> Optional[str]:
    """Node name for a voltage-unknown index (``None`` when unknown)."""
    if index is None:
        return None
    for name, position in circuit.node_index.items():
        if position == index:
            return name
    return None


def robust_dc_solve(circuit: Circuit, x0: Optional[np.ndarray] = None,
                    options: NewtonOptions = NewtonOptions(),
                    assembler: Optional[TwoPhaseAssembler] = None,
                    backend: BackendLike = None,
                    cancel: Optional[CancelToken] = None) -> np.ndarray:
    """DC solve with gmin/source-stepping fallbacks.

    ``backend`` selects the linear-solver backend when no reusable
    ``assembler`` is supplied.  Source stepping first continues from
    the last gmin-stepping iterate (when that strategy ran) — the
    partially-converged point is usually a better ramp start — and
    re-ramps from the caller's start point if that fails (a diverged
    gmin iterate can be worse than no warm start at all).  On total
    failure the :class:`AnalysisError` reports
    every strategy tried and the best (smallest) final Newton update
    with its worst node, so the diagnosis names where convergence
    stalled instead of just "diverged".
    """
    n = circuit.dimension()
    x_start = np.zeros(n) if x0 is None else x0.copy()
    if assembler is None:
        assembler = TwoPhaseAssembler(circuit, backend=backend)
    tried: list = []

    def _best() -> "tuple[Optional[float], Optional[str]]":
        known = [(exc.residual, exc.node) for _, exc in tried
                 if exc.residual is not None]
        if not known:
            return None, None
        return min(known, key=lambda pair: pair[0])

    try:
        return newton_solve(circuit, x_start, options, analysis="dc",
                            assembler=assembler, cancel=cancel)
    except AnalysisError as exc:
        tried.append(("newton", exc))
    # Source stepping ramps from the most-converged point available:
    # the last gmin-stepping iterate when that strategy ran, else the
    # caller's start point.
    x_ramp = x_start.copy()
    if options.gmin_stepping:
        x = x_start.copy()
        try:
            for exponent in range(3, 13):
                x = newton_solve(
                    circuit, x, options, analysis="dc",
                    gmin=10.0 ** (-exponent), assembler=assembler,
                    cancel=cancel,
                )
                x_ramp = x
            return newton_solve(circuit, x, options, analysis="dc",
                                assembler=assembler, cancel=cancel)
        except AnalysisError as exc:
            tried.append(("gmin-stepping", exc))
    if options.source_stepping:
        starts = [x_ramp]
        if not np.array_equal(x_ramp, x_start):
            starts.append(x_start.copy())
        failure: Optional[AnalysisError] = None
        for x in starts:
            try:
                for scale in (0.1, 0.2, 0.4, 0.6, 0.8, 0.9, 1.0):
                    x = newton_solve(
                        circuit, x, options, analysis="dc",
                        source_scale=scale, assembler=assembler,
                        cancel=cancel,
                    )
                return x
            except AnalysisError as exc:
                if (failure is None or failure.residual is None
                        or (exc.residual is not None
                            and exc.residual < failure.residual)):
                    failure = exc
        tried.append(("source-stepping", failure))
    strategies = tuple(name for name, _ in tried)
    residual, node = _best()
    detail = ""
    if residual is not None:
        detail = (f"; best residual {residual:.3g} V"
                  + (f" at node {node!r}" if node else ""))
    raise AnalysisError(
        f"DC operating point failed after "
        f"{', '.join(strategies) or 'no strategies'}{detail}",
        residual=residual, node=node, strategies=strategies,
    )
