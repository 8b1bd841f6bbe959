"""CNFET circuit element (the paper's Fig. 1 device in MNA form).

DC: a nonlinear voltage-controlled current source ``IDS(VGS, VDS)``.
The inner self-consistent voltage is solved *inside* the evaluation —
closed-form for the fast piecewise backend, Newton for the reference
backend — and the small-signal stamps (gm, gds) are computed
analytically through the implicit-function theorem on the charge-balance
residual:

``dVSC/dVGS = -CG / (CSum - dDQ/dVSC)``
``dVSC/dVDS = -(CD - Q'(VSC+VDS)) / (CSum - dDQ/dVSC)``

with ``dDQ/dVSC = Q'(VSC) + Q'(VSC+VDS)`` — all quantities the piecewise
model evaluates in closed form, so a Newton iteration of the circuit
engine costs a handful of polynomial evaluations per device.

Transient: terminal charges (gate / drain, with the source taking the
balance so the three displacement currents sum to zero) are companion-
modelled with *analytic* charge partials derived from the same
implicit-function solve — one closed-form solve per Newton iteration
covers current, small-signal and charge stamps (the previous-step
charges are memoised per accepted step, since ``x_prev`` is frozen
while a step iterates).
"""

from __future__ import annotations

import math
from typing import Optional, Tuple, Union

import numpy as np

from repro.circuit.elements.base import (
    GROUND_NAMES,
    Element,
    GenericLaneGroup,
    LaneContext,
    LaneGroup,
    StampContext,
)
from repro.errors import ParameterError
from repro.pwl.batch import StackedCurves, StackedVscSolver
from repro.pwl.device import CNFET, _log1pexp_many
from repro.pwl.kernels import active_kernel_backend
from repro.reference.fettoy import FETToyModel

#: Chord radius [V] of the slab's exact-rhs modified-Newton reuse: the
#: frozen Jacobian is kept while no device's bias moved further than
#: this from the linearisation point.  Unlike the scalar elements'
#: ``jacobian_reuse_tol`` (whose frozen *rhs* carries an O(tol^2)
#: solution error), the slab rebuilds the rhs exactly every iteration,
#: so this radius only trades Newton iteration count against
#: factorisation + companion-evaluation count.  Tuned on the 32-bit
#: carry-ripple benchmark *with* the compiled frozen-pivot
#: refactorisation lane active (which makes factorisations cheap):
#: the chord should only take over in the convergence tail of a step
#: and across quiescent plateau steps, where it converges without
#: extra iterations; wider radii trade quadratic for linear
#: convergence mid-transient and lose outright.
_SLAB_CHORD_RADIUS_V = 1e-4


def _logistic_many(x: np.ndarray) -> np.ndarray:
    """Vectorized twin of :func:`_logistic` (same branch at 0)."""
    out = np.empty_like(x)
    pos = x >= 0.0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def _log1pexp(x: float) -> float:
    """Stable ``log(1 + exp(x))`` (order-0 Fermi-Dirac integral)."""
    if x > 35.0:
        return x
    if x < -35.0:
        return math.exp(x)
    return math.log1p(math.exp(x))


def _logistic(x: float) -> float:
    """``1 / (1 + exp(-x))`` — derivative of ``_log1pexp``."""
    if x >= 0.0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


class _Backend:
    """Uniform view over the fast (CNFET) and reference (FETToyModel)
    devices: vsc solve, mobile-charge curve and derivative, current."""

    def __init__(self, device: Union[CNFET, FETToyModel]) -> None:
        self.device = device
        if isinstance(device, CNFET):
            self.caps = device.capacitances
            self.kt = device._kt
            self.ef = device._ef
            self.pref = device._i_prefactor
            self._solve = lambda vgs, vds: device.solver.solve(vgs, vds, 0.0)
            self._q = device.fitted.curve.value
            self._dq = device.fitted.curve.derivative
        elif isinstance(device, FETToyModel):
            self.caps = device.capacitances
            self.kt = device.kt_ev
            self.ef = device.params.fermi_level_ev
            self.pref = (
                device.params.transmission
                * device.params.temperature_k
                * 2.0 * 1.602176634e-19 * 1.380649e-23
                / (math.pi * 1.054571817e-34)
            )
            self._solve = lambda vgs, vds: device.solve_vsc(vgs, vds, 0.0)
            self._q = lambda u: float(device.charge.qs(u))
            self._dq = lambda u: float(device.charge.dqs_dvsc(u))
        else:
            raise ParameterError(
                f"unsupported CNFET backend {type(device).__name__}; "
                "expected repro.pwl.CNFET or repro.reference.FETToyModel"
            )

    def evaluate(self, vgs: float, vds: float
                 ) -> Tuple[float, float, float, float]:
        """``(ids, gm, gds, vsc)`` at a source-referenced bias point."""
        return self.evaluate_full(vgs, vds)[:4]

    def evaluate_full(self, vgs: float, vds: float,
                      with_charge: bool = False) -> Tuple[
            float, float, float, float, float, float, float, float]:
        """One solve, every stamp ingredient.

        Returns ``(ids, gm, gds, vsc, dvsc_dvgs, dvsc_dvds, q_d, dq_d)``
        where ``q_d = Q(VSC + VDS)`` is the mobile drain charge and
        ``dq_d`` its derivative.  ``q_d`` is only evaluated when
        ``with_charge`` (the transient companion stamps); DC iterations
        skip that extra charge-curve evaluation and receive 0.0 there.
        """
        vsc = self._solve(vgs, vds)
        kt = self.kt
        eta_s = (self.ef - vsc) / kt
        eta_d = eta_s - vds / kt
        ids = self.pref * (_log1pexp(eta_s) - _log1pexp(eta_d))
        sig_s = _logistic(eta_s)
        sig_d = _logistic(eta_d)
        di_dvsc = (self.pref / kt) * (sig_d - sig_s)
        di_dvds_direct = (self.pref / kt) * sig_d
        dq_s = self._dq(vsc)
        dq_d = self._dq(vsc + vds)
        denominator = self.caps.csum - dq_s - dq_d
        dvsc_dvgs = -self.caps.cg / denominator
        dvsc_dvds = -(self.caps.cd - dq_d) / denominator
        gm = di_dvsc * dvsc_dvgs
        gds = di_dvds_direct + di_dvsc * dvsc_dvds
        q_d = self._q(vsc + vds) if with_charge else 0.0
        return ids, gm, gds, vsc, dvsc_dvgs, dvsc_dvds, q_d, dq_d

    def charges(self, vgs: float, vds: float,
                length_m: float) -> Tuple[float, float, float]:
        """Terminal charges (gate, drain, source) [C]; they sum to zero
        by construction so transient displacement currents conserve
        charge."""
        vsc = self._solve(vgs, vds)
        caps = self.caps
        qg = length_m * caps.cg * (vgs + vsc)
        qd = length_m * (caps.cd * (vds + vsc) - self._q(vsc + vds))
        return qg, qd, -(qg + qd)

    def ids_many(self, vgs: np.ndarray, vds: np.ndarray) -> np.ndarray:
        """Vectorized drain currents (n-frame), for waveform post-
        processing; mirrors :meth:`evaluate`'s current arithmetic."""
        device = self.device
        if isinstance(device, CNFET):
            vsc = device.solver.solve_many(vgs, vds, 0.0)
            eta_s = (self.ef - vsc) / self.kt
            eta_d = eta_s - vds / self.kt
            return self.pref * (
                _log1pexp_many(eta_s) - _log1pexp_many(eta_d)
            )
        return np.asarray([
            self.evaluate(float(g), float(d))[0]
            for g, d in zip(vgs, vds)
        ])


class _StackedCNFETBank:
    """Per-device parameter arrays plus the vectorized companion-stamp
    arithmetic shared by the lane-batched group and the single-circuit
    slab.

    ``P`` devices (all fast piecewise backends, possibly all
    different) evaluate as one stacked pass: inner self-consistent
    voltages through :class:`~repro.pwl.batch.StackedVscSolver`
    (hint-warmed closed forms, scalar fallback on region drift),
    charge-curve values/derivatives through
    :class:`~repro.pwl.batch.StackedCurves`, and every downstream
    quantity — currents, analytic small-signal and charge partials,
    companion residuals — is the scalar :meth:`_Backend.evaluate_full`
    arithmetic on ``(P,)`` arrays.
    """

    def _init_bank(self, elements) -> None:
        backends = [el.backend for el in elements]
        self.sign = np.array([
            1.0 if el.polarity == "n" else -1.0 for el in elements])
        self.length = np.array([el.length_m for el in elements])
        self.kt = np.array([b.kt for b in backends])
        self.ef = np.array([b.ef for b in backends])
        self.pref = np.array([b.pref for b in backends])
        self.cg = np.array([b.caps.cg for b in backends])
        self.cd = np.array([b.caps.cd for b in backends])
        self.csum = np.array([b.caps.csum for b in backends])
        self.solver = StackedVscSolver(
            [b.device.solver for b in backends])
        self.curves = StackedCurves(
            [b.device.fitted.curve for b in backends])
        p = len(elements)
        #: warm-start VSC hints: Newton iterates / accepted biases
        self.hint = np.zeros(p)
        #: previous-step terminal charges (gate, drain, source), [C]
        self.q_prev = np.zeros((3, p))
        self.stats: Optional[dict] = None
        #: chord memo: ((tran, dt, gmin), vgs, vds, values) — the
        #: frozen Jacobian of the slab's exact-rhs chord iteration
        #: (see :meth:`CNFETSlab.stamp`).  Only the *matrix* rows are
        #: frozen; the rhs is rebuilt at the current bias every stamp,
        #: so the converged solution is exact regardless of how far the
        #: iterate drifted inside the chord radius, and the assembled
        #: matrix stays bit-identical so the sparse assembler reuses
        #: its LU factorisation across iterations *and* steps.
        self._memo: Optional[Tuple] = None
        #: table addresses bound by the compiled kernel tier (the
        #: tables above are only ever written in place)
        self._kaddr = None

    def _bank_reset(self) -> None:
        self.hint[:] = 0.0
        self.q_prev[:] = 0.0
        self._memo = None

    def _charges_arrays(self, vgs: np.ndarray, vds: np.ndarray,
                        didx: np.ndarray
                        ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Terminal charges (G, D, S) at n-frame biases [C] —
        vectorized :meth:`_Backend.charges`."""
        vsc = self.solver.solve(vgs, vds, self.hint, idx=didx,
                                stats=self.stats)
        length = self.length[didx]
        qg = length * self.cg[didx] * (vgs + vsc)
        qd = length * (self.cd[didx] * (vds + vsc)
                       - self.curves.value(vsc + vds, idx=didx))
        return qg, qd, -(qg + qd)

    def _companion(self, vgs: np.ndarray, vds: np.ndarray,
                   didx: np.ndarray, gmin: float, tran: bool,
                   dt: Optional[float]
                   ) -> Tuple[np.ndarray, np.ndarray]:
        """Stacked companion stamp values around the given biases.

        Returns ``(values, rhs_values, vsc)`` with one row per entry
        kind (see :meth:`_CNFETLaneGroup._build_indices` for the kind
        table): 8 matrix / 2 rhs kinds in DC, 17 / 5 in transient
        (charge companions around the bank's ``q_prev`` state).
        ``vsc`` is the solved inner voltage.
        """
        vsc = self.solver.solve(vgs, vds, self.hint, idx=didx,
                                stats=self.stats)
        # The companion arithmetic lives in the kernel tier (numpy
        # reference or compiled per-lane loops — same lane-for-lane
        # arithmetic either way).
        values, rhs_values = active_kernel_backend().cnfet_companion(
            self, didx, vsc, vgs, vds, gmin, tran, dt)
        return values, rhs_values, vsc


class _CNFETLaneGroup(_StackedCNFETBank, LaneGroup):
    """Stacked CNFET stamping: *every* CNFET slot of the batch, all
    lanes, one vectorized pass per Newton iteration.

    The hot path of the lane-batched engine.  A *devlane* is one
    (element slot, lane) pair; the group flattens all ``S`` CNFET
    slots x ``B`` lanes into ``P = S * B`` devlanes whose devices may
    all be different (a Monte-Carlo batch).  The companion arithmetic
    lives in :class:`_StackedCNFETBank`; the stamp entries land
    through two ``np.bincount`` scatter-adds against precomputed flat
    matrix/rhs indices (the ground pad row/column absorbs grounded
    terminals).

    Previous-step terminal charges are group state, refreshed once per
    accepted step (the batch twin of the element's per-step memo).
    """

    nonlinear = True

    def __init__(self, slots) -> None:
        elements = [el for slot in slots for el in slot]
        LaneGroup.__init__(self, elements)
        self._init_bank(elements)
        self.n_lanes = len(slots[0])
        #: lane of each devlane (slot-major flattening)
        self.lane_of = np.array([
            lane for slot in slots for lane in range(len(slot))])
        self._slots = slots
        self._indices: Optional[Tuple] = None

    def reset(self) -> None:
        self._bank_reset()

    def _build_indices(self, ctx: LaneContext) -> Tuple:
        """Precomputed flat scatter indices (constant per topology).

        Matrix entry kinds (row, col) and rhs kinds per devlane — the
        exact per-entry sums of the scalar ``stamp``:

        ======== ======================  ========================
        kind     entry                   value
        ======== ======================  ========================
        0        (d, g)                  ``+gm``
        1        (s, g)                  ``-(gm + gmin)``
        2        (d, d)                  ``+(gds + gmin)``
        3        (s, s)                  ``+(gm + gds + 2 gmin)``
        4        (d, s)                  ``-(gm + gds + gmin)``
        5        (s, d)                  ``-(gds + gmin)``
        6        (g, g)                  ``+gmin``
        7        (g, s)                  ``-gmin``
        8..16    (t, g|d|s), t=g,d,s     charge companions
        ======== ======================  ========================
        """
        if self._indices is not None:
            return self._indices
        pad = ctx.dim + 1
        lane = self.lane_of
        i_d = np.empty(len(self.elements), dtype=np.intp)
        i_g = np.empty_like(i_d)
        i_s = np.empty_like(i_d)
        pos = 0
        for slot in self._slots:
            d, g, s = slot[0].nodes
            i_d[pos:pos + len(slot)] = ctx.idx(d)
            i_g[pos:pos + len(slot)] = ctx.idx(g)
            i_s[pos:pos + len(slot)] = ctx.idx(s)
            pos += len(slot)
        base = lane * (pad * pad)

        def m_idx(row, col):
            return base + row * pad + col

        matrix_rows = [
            m_idx(i_d, i_g), m_idx(i_s, i_g), m_idx(i_d, i_d),
            m_idx(i_s, i_s), m_idx(i_d, i_s), m_idx(i_s, i_d),
            m_idx(i_g, i_g), m_idx(i_g, i_s),
        ]
        for it in (i_g, i_d, i_s):
            matrix_rows.extend(
                [m_idx(it, i_g), m_idx(it, i_d), m_idx(it, i_s)])
        rhs_base = lane * pad
        rhs_rows = [rhs_base + i_d, rhs_base + i_s,
                    rhs_base + i_g, rhs_base + i_d, rhs_base + i_s]
        self._indices = (np.stack(matrix_rows), np.stack(rhs_rows),
                         i_g, i_d, i_s)
        return self._indices

    def _active(self, ctx: LaneContext) -> np.ndarray:
        """Devlane indices whose lane is active in ``ctx``."""
        mask = np.zeros(self.n_lanes, dtype=bool)
        mask[ctx.lanes] = True
        return np.flatnonzero(mask[self.lane_of])

    def _bias(self, ctx: LaneContext, x: np.ndarray, didx: np.ndarray
              ) -> Tuple[np.ndarray, np.ndarray]:
        """n-frame (mirrored) VGS/VDS per active devlane."""
        _m, _r, i_g, i_d, i_s = self._build_indices(ctx)
        xp = np.concatenate(
            [x, np.zeros((x.shape[0], 1))], axis=1)
        lane = self.lane_of[didx]
        vs = xp[lane, i_s[didx]]
        sign = self.sign[didx]
        return (sign * (xp[lane, i_g[didx]] - vs),
                sign * (xp[lane, i_d[didx]] - vs))

    def _charges(self, ctx: LaneContext, x: np.ndarray,
                 didx: np.ndarray
                 ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Terminal charges (G, D, S) at the biases in ``x`` [C]."""
        vgs, vds = self._bias(ctx, x, didx)
        return self._charges_arrays(vgs, vds, didx)

    def begin_run(self, ctx: LaneContext) -> None:
        """Prime the previous-step charge state at the initial
        solution (the scalar element computes the same values lazily on
        its first transient stamp)."""
        self.accept(ctx)

    def accept(self, ctx: LaneContext) -> None:
        didx = self._active(ctx)
        qg, qd, qs = self._charges(ctx, ctx.x, didx)
        self.q_prev[0, didx] = qg
        self.q_prev[1, didx] = qd
        self.q_prev[2, didx] = qs

    def stamp(self, ctx: LaneContext) -> None:
        matrix_idx, rhs_idx, _ig, _id, _is = self._build_indices(ctx)
        didx = self._active(ctx)
        tran = ctx.analysis == "tran" and ctx.dt is not None
        vgs, vds = self._bias(ctx, ctx.x, didx)
        values, rhs_values, _vsc = self._companion(
            vgs, vds, didx, ctx.gmin, tran, ctx.dt)
        # Two scatter-adds against the precomputed flat indices; the
        # ground pad row/column absorbs grounded terminals.
        backend = active_kernel_backend()
        backend.scatter_add_pad(
            ctx.matrix.reshape(-1),
            matrix_idx[:values.shape[0], didx].ravel(),
            values.ravel())
        backend.scatter_add_pad(
            ctx.rhs.reshape(-1),
            rhs_idx[:rhs_values.shape[0], didx].ravel(),
            rhs_values.ravel())


class CNFETSlab(_StackedCNFETBank):
    """Every fast-backend CNFET of *one* circuit, stamped as a single
    stacked evaluation per Newton iteration.

    The single-circuit twin of :class:`_CNFETLaneGroup`: above a
    handful of devices, looping the scalar ``CNFETElement.stamp`` —
    one Python-level closed-form solve per device per iteration — is
    what dominates large-circuit assembly, so the two-phase assembler
    (see :class:`repro.circuit.mna.TwoPhaseAssembler`) hands all fast
    CNFETs to one slab.  Per iteration the slab gathers every device's
    bias from the iterate, runs one
    :class:`~repro.pwl.batch.StackedVscSolver` pass, and lands the
    companion entries through :meth:`StampContext.add_flat` — a dense
    bincount scatter-add or a sparse triplet append, depending on the
    active backend.

    Previous-step terminal charges are recomputed vectorized once per
    ``begin_step`` from ``x_prev`` (the scalar element memoises the
    same values per step).  The Jacobian-reuse fast path
    (``NewtonOptions.jacobian_reuse_tol`` > 0) runs an exact-rhs
    chord: the companion *matrix* rows are frozen at the last
    linearisation point and restamped verbatim while every device's
    bias stays within :data:`_SLAB_CHORD_RADIUS_V` of it, but the rhs
    is rebuilt from a fresh closed-form solve at the current bias each
    iteration — modified Newton, whose fixed point satisfies exact
    KCL.  The frozen matrix keeps the assembled data bit-identical,
    so the sparse backend reuses its LU factorisation across
    iterations and accepted steps (see
    :meth:`~repro.circuit.mna.TwoPhaseAssembler.solve`).
    """

    nonlinear = True

    def __init__(self, elements, dim: int, node_index) -> None:
        self.elements = list(elements)
        self._init_bank(self.elements)
        p = len(self.elements)
        self.dim = dim
        self._all = np.arange(p)
        pad = dim  # xp gather pad: x extended with one zero for ground
        i_d = np.empty(p, dtype=np.intp)
        i_g = np.empty(p, dtype=np.intp)
        i_s = np.empty(p, dtype=np.intp)
        for k, el in enumerate(self.elements):
            d, g, s = el.nodes
            i_d[k] = node_index.get(d, pad) if d not in GROUND_NAMES \
                else pad
            i_g[k] = node_index.get(g, pad) if g not in GROUND_NAMES \
                else pad
            i_s[k] = node_index.get(s, pad) if s not in GROUND_NAMES \
                else pad
        self._i_d, self._i_g, self._i_s = i_d, i_g, i_s

        def m_idx(row, col):
            # Flattened (row, col) with dim*dim as the grounded-entry
            # discard pad (row/col == dim means ground here).
            grounded = (row >= dim) | (col >= dim)
            return np.where(grounded, dim * dim, row * dim + col)

        matrix_rows = [
            m_idx(i_d, i_g), m_idx(i_s, i_g), m_idx(i_d, i_d),
            m_idx(i_s, i_s), m_idx(i_d, i_s), m_idx(i_s, i_d),
            m_idx(i_g, i_g), m_idx(i_g, i_s),
        ]
        for it in (i_g, i_d, i_s):
            matrix_rows.extend(
                [m_idx(it, i_g), m_idx(it, i_d), m_idx(it, i_s)])
        self._m_idx = np.stack(matrix_rows)
        self._r_idx = np.stack([i_d, i_s, i_g, i_d, i_s])
        # per-device chord memo of the subset path (the partitioned
        # assembler evaluates only the active blocks' devices, so
        # validity must be tracked per device, not slab-wide)
        self._sub_key: Optional[Tuple] = None
        self._sub_vgs = np.zeros(p)
        self._sub_vds = np.zeros(p)
        self._sub_values: Optional[np.ndarray] = None
        self._sub_valid = np.zeros(p, dtype=bool)

    def reset(self) -> None:
        """Forget warm-start hints and previous-step charges."""
        self._bank_reset()
        self._sub_key = None
        self._sub_valid[:] = False

    def _biases(self, x: np.ndarray
                ) -> Tuple[np.ndarray, np.ndarray]:
        """n-frame (mirrored) per-device VGS/VDS gathered from ``x``."""
        xp = np.append(x, 0.0)  # ground pad
        vs = xp[self._i_s]
        return (self.sign * (xp[self._i_g] - vs),
                self.sign * (xp[self._i_d] - vs))

    def begin_step(self, ctx: StampContext) -> None:
        """Refresh the previous-step charge state from ``ctx.x_prev``
        (transient steps only; DC never reads it)."""
        if ctx.analysis != "tran" or ctx.dt is None \
                or ctx.x_prev is None:
            return
        vgs, vds = self._biases(ctx.x_prev)
        qg, qd, qs = self._charges_arrays(vgs, vds, self._all)
        self.q_prev[0] = qg
        self.q_prev[1] = qd
        self.q_prev[2] = qs

    def stamp(self, ctx: StampContext) -> None:
        """One stacked companion stamp for all devices around
        ``ctx.x``."""
        tran = ctx.analysis == "tran" and ctx.dt is not None
        vgs, vds = self._biases(ctx.x)
        # Jacobian-reuse fast path (exact-rhs chord): while every
        # device's bias stays within the chord radius of the memoised
        # linearisation (same tran flavour, dt and gmin), the *matrix*
        # rows restamp frozen while the rhs is rebuilt from a fresh
        # closed-form solve at the current bias with the frozen
        # gm/gds/geq coefficients.  That is the classic modified-
        # Newton split: the fixed point satisfies exact KCL (the frozen
        # coefficients cancel between matrix and rhs at convergence),
        # so the radius trades iteration count against factorisation
        # count, never accuracy — which is why it can be far looser
        # than the scalar elements' O(tol^2) frozen-rhs tolerance.
        # The frozen matrix keeps the assembled data bit-identical, so
        # the sparse assembler reuses one LU factorisation across
        # iterations and across plateau steps.
        memo = self._memo
        key = (tran, ctx.dt, ctx.gmin)
        radius = max(ctx.reuse_tol, _SLAB_CHORD_RADIUS_V) \
            if ctx.reuse_tol > 0.0 else 0.0
        if radius > 0.0 and memo is not None \
                and memo[0] == key \
                and float(np.max(np.abs(vgs - memo[1]))) <= radius \
                and float(np.max(np.abs(vds - memo[2]))) <= radius:
            values = memo[3]
            vsc = self.solver.solve(vgs, vds, self.hint,
                                    idx=self._all, stats=self.stats)
            eta_s = (self.ef - vsc) / self.kt
            eta_d = eta_s - vds / self.kt
            ids = self.pref * (_log1pexp_many(eta_s)
                               - _log1pexp_many(eta_d))
            sign = self.sign
            gm = values[0]
            gds = values[2] - ctx.gmin
            residual = sign * ids - gm * sign * vgs - gds * sign * vds
            rhs_values = np.empty((5 if tran else 2,
                                   len(self.elements)))
            rhs_values[0] = -residual
            rhs_values[1] = residual
            if tran:
                length = self.length
                qg = length * self.cg * (vgs + vsc)
                qd = length * (self.cd * (vds + vsc)
                               - self.curves.value(vsc + vds))
                q0 = (qg, qd, -(qg + qd))
                for t_idx in range(3):
                    geq_gs = values[8 + 3 * t_idx]
                    geq_ds = values[9 + 3 * t_idx]
                    i_now = (q0[t_idx] - self.q_prev[t_idx]) / ctx.dt
                    rhs_values[2 + t_idx] = -(
                        sign * i_now - geq_gs * sign * vgs
                        - geq_ds * sign * vds
                    )
        else:
            values, rhs_values, _vsc = self._companion(
                vgs, vds, self._all, ctx.gmin, tran, ctx.dt)
            self._memo = (key, vgs, vds, values) if radius > 0.0 \
                else None
        ctx.add_flat(
            self._m_idx[:values.shape[0]].ravel(), values.ravel(),
            self._r_idx[:rhs_values.shape[0]].ravel(),
            rhs_values.ravel(),
        )

    # -- device-subset evaluation (partitioned assembly) ---------------

    def _biases_at(self, x: np.ndarray, idx: np.ndarray
                   ) -> Tuple[np.ndarray, np.ndarray]:
        """n-frame per-device VGS/VDS for a device subset."""
        xp = np.append(x, 0.0)  # ground pad
        vs = xp[self._i_s[idx]]
        sign = self.sign[idx]
        return (sign * (xp[self._i_g[idx]] - vs),
                sign * (xp[self._i_d[idx]] - vs))

    def scatter_indices(self, cols: np.ndarray
                        ) -> Tuple[np.ndarray, np.ndarray]:
        """Flat matrix / rhs destination index columns for a device
        subset (global ``dim x dim`` coordinates, grounded entries on
        the discard pad) — precomputed once per block by the
        partitioned assembler."""
        return self._m_idx[:, cols].copy(), self._r_idx[:, cols].copy()

    def refresh_charges(self, x_prev: np.ndarray,
                        idx: np.ndarray) -> None:
        """Per-step ``q_prev`` refresh for a device subset — the
        slab's ``begin_step`` scoped to the blocks active this step
        (a bypassed block's charges stay frozen with the rest of its
        contribution and are refreshed on promotion)."""
        vgs, vds = self._biases_at(x_prev, idx)
        qg, qd, qs = self._charges_arrays(vgs, vds, idx)
        self.q_prev[0][idx] = qg
        self.q_prev[1][idx] = qd
        self.q_prev[2][idx] = qs

    def companion_subset(self, x: np.ndarray, idx: np.ndarray, *,
                         gmin: float, tran: bool,
                         dt: Optional[float],
                         reuse_tol: float = 0.0,
                         seed_qprev: bool = False
                         ) -> Tuple[np.ndarray, np.ndarray]:
        """``(values, rhs_values)`` companion columns for the device
        subset ``idx`` — :meth:`stamp`'s evaluation core without the
        scatter, so the partitioned assembler can run one stacked
        evaluation per Newton iteration across all active blocks and
        land each block's columns in its own triplet context.

        The Jacobian-reuse chord runs per call over the subset: matrix
        rows are reused verbatim while every *selected* device's bias
        stays within the chord radius of its memoised linearisation
        (devices sleeping in bypassed blocks keep their memo
        untouched), and the rhs is rebuilt exactly as in
        :meth:`stamp`.

        With ``seed_qprev=True`` (valid only when ``x`` *is* the
        previous step's solution, i.e. the first Newton iteration of a
        transient step) the charges evaluated at ``x`` double as the
        per-step ``q_prev`` refresh, replacing a separate
        :meth:`refresh_charges` kernel call."""
        vgs, vds = self._biases_at(x, idx)
        key = (tran, dt, gmin)
        if self._sub_key != key:
            self._sub_valid[:] = False
            self._sub_key = key
        radius = max(reuse_tol, _SLAB_CHORD_RADIUS_V) \
            if reuse_tol > 0.0 else 0.0
        n_rows = 17 if tran else 8
        if (radius > 0.0 and self._sub_values is not None
                and self._sub_values.shape[0] == n_rows
                and bool(np.all(self._sub_valid[idx]))
                and float(np.max(np.abs(vgs - self._sub_vgs[idx])))
                <= radius
                and float(np.max(np.abs(vds - self._sub_vds[idx])))
                <= radius):
            values = self._sub_values[:, idx]
            vsc = self.solver.solve(vgs, vds, self.hint, idx=idx,
                                    stats=self.stats)
            kt = self.kt[idx]
            eta_s = (self.ef[idx] - vsc) / kt
            eta_d = eta_s - vds / kt
            ids = self.pref[idx] * (_log1pexp_many(eta_s)
                                    - _log1pexp_many(eta_d))
            sign = self.sign[idx]
            gm = values[0]
            gds = values[2] - gmin
            residual = sign * ids - gm * sign * vgs - gds * sign * vds
            rhs_values = np.empty((5 if tran else 2, idx.size))
            rhs_values[0] = -residual
            rhs_values[1] = residual
            if tran:
                length = self.length[idx]
                qg = length * self.cg[idx] * (vgs + vsc)
                qd = length * (self.cd[idx] * (vds + vsc)
                               - self.curves.value(vsc + vds, idx=idx))
                q0 = (qg, qd, -(qg + qd))
                if seed_qprev:
                    for t_idx in range(3):
                        self.q_prev[t_idx][idx] = q0[t_idx]
                for t_idx in range(3):
                    geq_gs = values[8 + 3 * t_idx]
                    geq_ds = values[9 + 3 * t_idx]
                    i_now = (q0[t_idx]
                             - self.q_prev[t_idx][idx]) / dt
                    rhs_values[2 + t_idx] = -(
                        sign * i_now - geq_gs * sign * vgs
                        - geq_ds * sign * vds
                    )
            return values, rhs_values
        if seed_qprev and tran:
            qg, qd, qs = self._charges_arrays(vgs, vds, idx)
            self.q_prev[0][idx] = qg
            self.q_prev[1][idx] = qd
            self.q_prev[2][idx] = qs
        values, rhs_values, _vsc = self._companion(
            vgs, vds, idx, gmin, tran, dt)
        if radius > 0.0:
            if self._sub_values is None \
                    or self._sub_values.shape[0] != n_rows:
                self._sub_values = np.zeros(
                    (n_rows, len(self.elements)))
                self._sub_valid[:] = False
            self._sub_values[:, idx] = values
            self._sub_vgs[idx] = vgs
            self._sub_vds[idx] = vds
            self._sub_valid[idx] = True
        else:
            self._sub_valid[idx] = False
        return values, rhs_values


class CNFETElement(Element):
    """Three-terminal CNFET for the MNA engine.

    Parameters
    ----------
    name:
        Element name.
    drain, gate, source:
        Node names.
    device:
        A :class:`repro.pwl.CNFET` (fast, the normal case) or a
        :class:`repro.reference.FETToyModel` (baseline; hundreds of
        times slower per Newton iteration — used by the speed-comparison
        benchmarks).
    length_nm:
        Effective channel length for charge scaling (transient only;
        the ballistic current is length-independent).
    polarity:
        ``"n"`` or ``"p"``; p-type mirrors all terminal voltages.  If
        ``device`` is a p-type :class:`CNFET` its polarity is adopted.
    """

    nonlinear = True

    def __init__(self, name: str, drain: str, gate: str, source: str,
                 device: Union[CNFET, FETToyModel],
                 length_nm: float = 30.0,
                 polarity: str | None = None) -> None:
        super().__init__(name, (drain, gate, source))
        if length_nm <= 0.0:
            raise ParameterError(f"{name}: length must be > 0")
        self.backend = _Backend(device)
        self.length_m = length_nm * 1e-9
        if polarity is None:
            polarity = getattr(device, "polarity", "n")
        if polarity not in ("n", "p"):
            raise ParameterError(f"{name}: polarity must be 'n' or 'p'")
        self.polarity = polarity
        #: memoised previous-step charges: (vgs_prev, vds_prev, charges)
        self._prev_charges: Optional[Tuple[float, float, Tuple[
            float, float, float]]] = None
        #: memoised last evaluation for the Jacobian-reuse fast path:
        #: (vgs, vds, full-tuple, was_transient)
        self._eval_memo: Optional[Tuple[float, float, Tuple, bool]] = None

    def reset_state(self) -> None:
        self._prev_charges = None
        self._eval_memo = None

    @classmethod
    def lane_group(cls, elements):
        """Stacked lane group when every lane runs the fast piecewise
        backend; the reference backend falls back to the scalar loop."""
        if all(isinstance(el.backend.device, CNFET) for el in elements):
            return _CNFETLaneGroup([elements])
        return GenericLaneGroup(elements)

    @classmethod
    def lane_groups(cls, slots):
        """One merged stacked group across every fast-backend CNFET
        slot (all devices of the batch evaluate in a single pass);
        reference-backend slots fall back to per-lane scalar groups."""
        stacked = [
            slot for slot in slots
            if all(isinstance(el.backend.device, CNFET) for el in slot)
        ]
        groups = []
        if stacked:
            groups.append(_CNFETLaneGroup(stacked))
        groups.extend(
            GenericLaneGroup(slot) for slot in slots
            if not all(isinstance(el.backend.device, CNFET)
                       for el in slot)
        )
        return groups

    # -- bias helpers ----------------------------------------------------

    def _bias(self, ctx: StampContext) -> Tuple[float, float]:
        d, g, s = self.nodes
        vgs = ctx.voltage(g) - ctx.voltage(s)
        vds = ctx.voltage(d) - ctx.voltage(s)
        if self.polarity == "p":
            return -vgs, -vds
        return vgs, vds

    def ids(self, ctx: StampContext) -> float:
        """Drain-to-source current at the current iterate (reporting)."""
        vgs, vds = self._bias(ctx)
        ids, _, _, _ = self.backend.evaluate(vgs, vds)
        return ids if self.polarity == "n" else -ids

    # -- stamping ---------------------------------------------------------

    def stamp(self, ctx: StampContext) -> None:
        """Stamp the linearised current companion (gm, gds,
        residual) plus, in transient, the charge companions."""
        d, g, s = self.nodes
        vgs, vds = self._bias(ctx)
        tran = ctx.analysis == "tran" and ctx.dt is not None
        # Jacobian-reuse fast path: when the bias moved less than the
        # reuse tolerance since the last evaluation, restamp from that
        # frozen linearisation (companion values at the memoised bias,
        # so the stamp stays a self-consistent Newton-chord step whose
        # solution error is O(curvature * tol^2)).
        memo = self._eval_memo
        if ctx.reuse_tol > 0.0 and memo is not None \
                and memo[3] == tran \
                and abs(vgs - memo[0]) <= ctx.reuse_tol \
                and abs(vds - memo[1]) <= ctx.reuse_tol:
            vgs, vds, full = memo[0], memo[1], memo[2]
        else:
            full = self.backend.evaluate_full(vgs, vds, with_charge=tran)
            self._eval_memo = (vgs, vds, full, tran)
        ids, gm, gds = full[0], full[1], full[2]
        # Mirroring flips both the controlling voltages and the current
        # direction; the conductance signs are invariant (d(-I)/d(-V)).
        sign = 1.0 if self.polarity == "n" else -1.0
        # Linearised current (n-frame): I = ids + gm*dvgs + gds*dvds.
        ctx.add_transconductance(d, s, g, s, gm)
        ctx.add_conductance(d, s, gds)
        ctx.add_conductance(d, s, ctx.gmin)
        ctx.add_conductance(g, s, ctx.gmin)
        residual = sign * ids - gm * sign * vgs - gds * sign * vds
        ctx.add_current(d, s, residual)
        if tran:
            self._stamp_charges(ctx, vgs, vds, full)

    def _stamp_charges(self, ctx: StampContext, vgs: float, vds: float,
                       full: Tuple) -> None:
        """Charge companion stamps from the already-computed solve.

        The charges and their partials come analytically from the
        implicit-function derivatives ``dVSC/dVGS``, ``dVSC/dVDS`` (no
        perturbed re-solves); the previous-step charges are memoised
        because ``x_prev`` is constant across a step's Newton
        iterations.
        """
        d, g, s = self.nodes
        sign = 1.0 if self.polarity == "n" else -1.0
        _ids, _gm, _gds, vsc, dvsc_g, dvsc_d, q_d, dq_d = full
        length = self.length_m
        caps = self.backend.caps
        qg = length * caps.cg * (vgs + vsc)
        qd = length * (caps.cd * (vds + vsc) - q_d)
        q0 = (qg, qd, -(qg + qd))
        # Analytic partials (n-frame): the mobile drain charge moves
        # with Q'(VSC+VDS) times the inner-node sensitivity.
        dg_gs = length * caps.cg * (1.0 + dvsc_g)
        dg_ds = length * caps.cg * dvsc_d
        dd_gs = length * dvsc_g * (caps.cd - dq_d)
        dd_ds = length * (1.0 + dvsc_d) * (caps.cd - dq_d)
        dq_dvgs = (dg_gs, dd_gs, -(dg_gs + dd_gs))
        dq_dvds = (dg_ds, dd_ds, -(dg_ds + dd_ds))
        # Previous-step charges (memoised per accepted step).
        vgs_prev = ctx.previous_voltage(g) - ctx.previous_voltage(s)
        vds_prev = ctx.previous_voltage(d) - ctx.previous_voltage(s)
        if self.polarity == "p":
            vgs_prev, vds_prev = -vgs_prev, -vds_prev
        memo = self._prev_charges
        if memo is not None and memo[0] == vgs_prev \
                and memo[1] == vds_prev:
            q_prev = memo[2]
        else:
            q_prev = self.backend.charges(vgs_prev, vds_prev,
                                          self.length_m)
            self._prev_charges = (vgs_prev, vds_prev, q_prev)
        dt = ctx.dt
        terminals = (g, d, s)
        for t_idx, terminal in enumerate(terminals):
            # Backward-Euler companion for i_t = dq_t/dt, linearised in
            # (vgs, vds).  Mirroring multiplies both q and v by -1, so
            # the conductances are invariant and currents flip.
            geq_gs = dq_dvgs[t_idx] / dt
            geq_ds = dq_dvds[t_idx] / dt
            i_now = (q0[t_idx] - q_prev[t_idx]) / dt
            ctx.add_transconductance(terminal, "0", g, s, geq_gs)
            ctx.add_transconductance(terminal, "0", d, s, geq_ds)
            residual = sign * i_now - geq_gs * sign * vgs \
                - geq_ds * sign * vds
            ctx.add_current(terminal, "0", residual)
