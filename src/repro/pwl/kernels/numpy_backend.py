"""Pure-numpy kernel tier — the byte-identical reference.

These are the vectorized implementations the engine has always run
(moved here verbatim from ``StackedVscSolver.solve``,
``_StackedCNFETBank._companion``, ``StackedCurves.value`` and the
``add_flat`` stamping primitives), so selecting ``kernels="numpy"``
reproduces the historical waveforms bit for bit.  The compiled tier
(:mod:`repro.pwl.kernels.cc_backend`) mirrors this arithmetic lane by
lane; see :doc:`/kernels` for the parity contract.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.pwl.batch import (
    _STACK_EDGE_TOL,
    _STACK_RESIDUAL_TOL,
    _STACK_VDS_QUANTUM,
    _STACK_VDS_SCALE,
    polyval4,
    real_roots_batch,
)


class NumpyKernelBackend:
    """Reference kernel tier: vectorized numpy, no compilation."""

    name = "numpy"
    #: True for tiers whose kernels are compiled (cc)
    compiled = False

    # -- kernel 1: stacked VSC solve -----------------------------------

    def vsc_solve(self, solver, rows: np.ndarray,
                  idx: Optional[np.ndarray], vgs: np.ndarray,
                  vds: np.ndarray, hint: np.ndarray,
                  out: np.ndarray) -> np.ndarray:
        """Two hint-warmed attempts for every selected lane; fills
        ``out`` and returns the selection positions that still need the
        scalar fallback."""
        bps = solver.bps[rows] if idx is not None else solver.bps
        sub = np.arange(len(rows)) if idx is not None else rows
        n = len(rows)
        vds_q = np.floor(vds * _STACK_VDS_SCALE + 0.5) * _STACK_VDS_QUANTUM
        qt = (solver.cg[rows] * vgs + solver.cd[rows] * vds) \
            / solver.csum[rows]
        ok = np.zeros(n, dtype=bool)
        probe_s = hint[rows]
        probe_d = probe_s + vds_q
        old_err = np.seterr(invalid="ignore", divide="ignore",
                            over="ignore")
        try:
            for _attempt in range(2):
                i_s = (bps < probe_s[:, None]).sum(axis=1)
                i_d = (bps < probe_d[:, None]).sum(axis=1)
                qs = solver.polys[rows, i_s]
                qd = solver.polys[rows, i_d]
                # Taylor shift of the drain polynomial by the quantized
                # VDS (the scalar path shifts by the same quantized
                # value inside ``_segments_for_vds``).
                d = vds_q
                s0 = qd[:, 0] + d * (qd[:, 1] + d * (qd[:, 2]
                                                     + d * qd[:, 3]))
                s1 = qd[:, 1] + d * (2.0 * qd[:, 2] + 3.0 * d * qd[:, 3])
                s2 = qd[:, 2] + 3.0 * d * qd[:, 3]
                s3 = qd[:, 3]
                e0 = qt - (qs[:, 0] + s0)
                e1 = 1.0 - (qs[:, 1] + s1)
                e2 = -(qs[:, 2] + s2)
                e3 = -(qs[:, 3] + s3)
                roots = real_roots_batch(e0, e1, e2, e3)
                lo = np.maximum(solver.lo_edges[rows, i_s],
                                solver.lo_edges[rows, i_d] - vds_q)
                hi = np.minimum(solver.hi_edges[rows, i_s],
                                solver.hi_edges[rows, i_d] - vds_q)
                inside = (roots >= (lo - _STACK_EDGE_TOL)[:, None]) \
                    & (roots <= (hi + _STACK_EDGE_TOL)[:, None])
                res = np.abs(polyval4(e0[:, None], e1[:, None],
                                      e2[:, None], e3[:, None], roots))
                res = np.where(inside & np.isfinite(res), res, np.inf)
                pick = res.argmin(axis=1)
                best = roots[sub, pick]
                good = ~ok & (res[sub, pick] <= _STACK_RESIDUAL_TOL)
                out[good] = best[good]
                ok |= good
                if ok.all():
                    break
                # Refinement: re-derive the region pair from the best
                # candidate (handles single-region drift in one pass).
                probe_s = np.where(np.isfinite(best) & ~ok, best, probe_s)
                probe_d = probe_s + vds_q
        finally:
            np.seterr(**old_err)
        return np.flatnonzero(~ok)

    # -- kernel 2: stacked companion bank evaluation -------------------

    def cnfet_companion(self, bank, didx: np.ndarray, vsc: np.ndarray,
                        vgs: np.ndarray, vds: np.ndarray, gmin: float,
                        tran: bool, dt: Optional[float]
                        ) -> Tuple[np.ndarray, np.ndarray]:
        """Stacked companion stamp values around the given biases (see
        ``_StackedCNFETBank._companion`` for the kind-row table)."""
        from repro.circuit.elements.cnfet import _logistic_many
        from repro.pwl.device import _log1pexp_many

        sign = bank.sign[didx]
        kt = bank.kt[didx]
        eta_s = (bank.ef[didx] - vsc) / kt
        eta_d = eta_s - vds / kt
        pref = bank.pref[didx]
        ids = pref * (_log1pexp_many(eta_s) - _log1pexp_many(eta_d))
        sig_s = _logistic_many(eta_s)
        sig_d = _logistic_many(eta_d)
        di_dvsc = (pref / kt) * (sig_d - sig_s)
        dq_s = bank.curves.derivative(vsc, idx=didx)
        dq_d = bank.curves.derivative(vsc + vds, idx=didx)
        cg, cd = bank.cg[didx], bank.cd[didx]
        denominator = bank.csum[didx] - dq_s - dq_d
        dvsc_g = -cg / denominator
        dvsc_d = -(cd - dq_d) / denominator
        gm = di_dvsc * dvsc_g
        gds = (pref / kt) * sig_d + di_dvsc * dvsc_d
        residual = sign * ids - gm * sign * vgs - gds * sign * vds
        n_kinds = 17 if tran else 8
        values = np.empty((n_kinds, didx.size))
        values[0] = gm
        values[1] = -(gm + gmin)
        values[2] = gds + gmin
        values[3] = gm + gds + 2.0 * gmin
        values[4] = -(gm + gds + gmin)
        values[5] = -(gds + gmin)
        values[6] = gmin
        values[7] = -gmin
        rhs_values = np.empty((5 if tran else 2, didx.size))
        rhs_values[0] = -residual
        rhs_values[1] = residual
        if tran:
            # Charge companions (vectorized ``_stamp_charges``).
            length = bank.length[didx]
            q_d_mobile = self.curve_value(bank.curves, vsc + vds, didx)
            qg = length * cg * (vgs + vsc)
            qd = length * (cd * (vds + vsc) - q_d_mobile)
            q0 = (qg, qd, -(qg + qd))
            dg_gs = length * cg * (1.0 + dvsc_g)
            dg_ds = length * cg * dvsc_d
            dd_gs = length * dvsc_g * (cd - dq_d)
            dd_ds = length * (1.0 + dvsc_d) * (cd - dq_d)
            dq_dvgs = (dg_gs, dd_gs, -(dg_gs + dd_gs))
            dq_dvds = (dg_ds, dd_ds, -(dg_ds + dd_ds))
            for t_idx in range(3):
                geq_gs = dq_dvgs[t_idx] / dt
                geq_ds = dq_dvds[t_idx] / dt
                i_now = (q0[t_idx] - bank.q_prev[t_idx, didx]) / dt
                row = 8 + 3 * t_idx
                values[row] = geq_gs
                values[row + 1] = geq_ds
                values[row + 2] = -(geq_gs + geq_ds)
                rhs_values[2 + t_idx] = -(
                    sign * i_now - geq_gs * sign * vgs
                    - geq_ds * sign * vds
                )
        return values, rhs_values

    def curve_value(self, curves, v: np.ndarray,
                    idx: Optional[np.ndarray]) -> np.ndarray:
        """``Q(v)`` per lane of a :class:`~repro.pwl.batch.StackedCurves`
        bank; ``idx`` selects a lane subset (``v`` then carries one
        entry per selected lane)."""
        rows = curves._lanes if idx is None else idx
        region = (curves.bps[rows] < v[:, None]).sum(axis=1)
        c = curves.coeffs[rows, region]
        return ((c[:, 3] * v + c[:, 2]) * v + c[:, 1]) * v + c[:, 0]

    # -- kernel 3: scatter-add stamping --------------------------------

    def scatter_add_pad(self, out: np.ndarray, m_idx: np.ndarray,
                        m_val: np.ndarray) -> None:
        """``out[m_idx] += m_val`` with index ``out.size`` (and above)
        as a discard pad — the historical two-bincount scatter."""
        size = out.size
        out += np.bincount(m_idx, weights=m_val,
                           minlength=size + 1)[:size]

    def triplet_append(self, m_idx: np.ndarray, m_val: np.ndarray,
                       dim2: int, out_idx: np.ndarray,
                       out_val: np.ndarray, offset: int) -> int:
        """Append triplets below the ``dim2`` pad at ``offset``;
        returns the count kept.  Caller guarantees capacity."""
        keep = m_idx < dim2
        idx, val = m_idx[keep], m_val[keep]
        out_idx[offset:offset + idx.size] = idx
        out_val[offset:offset + idx.size] = val
        return int(idx.size)

    def scatter_accum(self, base: np.ndarray, map_idx: np.ndarray,
                      values: np.ndarray) -> np.ndarray:
        """``base + scatter(map_idx, values)`` — the dynamic-value
        scatter of the sparse assembler (``base`` is not mutated)."""
        return base + np.bincount(map_idx, weights=values,
                                  minlength=base.size)
