/* Compiled hot kernels for the stacked CNFET evaluation path.
 *
 * Scalar-per-lane ports of the three measured hot spots of the pure
 * numpy engine (see repro/pwl/kernels/numpy_backend.py for the
 * reference implementations these mirror):
 *
 *   1. stacked_vsc_solve  — the hint-warmed shifted-cubic region solve
 *      plus residual validation of StackedVscSolver.solve;
 *   2. cnfet_companion    — the stacked companion-model bank evaluation
 *      of _StackedCNFETBank._companion (currents, analytic small-signal
 *      and charge partials, companion residuals), plus
 *      stacked_curve_value, the charge-curve bank lookup of
 *      StackedCurves.value;
 *   3. scatter_add_pad / triplet_append / scatter_accum — the dense
 *      bincount and sparse-triplet scatter-add stamping primitives;
 *   4. lu_refactor / lu_solve_factored / csc_residual_inf — frozen-
 *      pivot numeric LU refactorization.  SuperLU re-runs its full
 *      symbolic analysis (ordering, pivoting, supernode detection,
 *      allocation) on every Newton iteration even though the sparsity
 *      pattern is constant per run; these kernels replay only the
 *      numeric phase against the L/U patterns and permutations
 *      extracted from one scipy ``splu`` call, which is ~10x cheaper
 *      for MNA-sized systems.  Static pivoting can go stale as the
 *      Jacobian values drift, so every solve is residual-guarded on
 *      the Python side and falls back to a fresh factorization.
 *
 * Parity contract: every lane follows the same arithmetic sequence as
 * the numpy reference, so results agree to libm-vs-SIMD rounding (a
 * few ulp; the engine-level guarantee is <= 1e-12 V on waveforms, and
 * the residual validation inside kernel 1 bounds the root error by
 * construction).  Compile with -ffp-contract=off: FMA contraction
 * would change the rounding sequence.
 *
 * No Python/numpy headers on purpose — the library is built with a
 * bare C compiler and loaded through ctypes, so the compiled tier
 * needs nothing beyond libm at runtime.
 */

#include <math.h>
#include <stdint.h>

#define EPSILON 2.220446049250313e-16
#define DEGREE_TOL 1e-14
#define RESIDUAL_TOL 1e-12
#define EDGE_TOL 1e-9
#define VDS_QUANTUM 1e-12
#define VDS_SCALE 1e12
/* Viete phase offsets 2*pi*k/3, the exact doubles of the numpy path */
#define PHI1 2.0943951023931953
#define PHI2 4.1887902047863905

typedef int64_t idx_t;

/* ------------------------------------------------------------------ */
/* kernel 1: stacked self-consistent-voltage solve                     */
/* ------------------------------------------------------------------ */

/* number of breakpoints strictly below v (bps padded with +inf) */
static int region_of(const double *bps, idx_t k_bps, double v)
{
    int region = 0;
    for (idx_t j = 0; j < k_bps; j++)
        region += bps[j] < v;
    return region;
}

/* real roots of c0 + c1 x + c2 x^2 + c3 x^3, NaN-padded into roots[3];
 * mirrors real_roots_batch (degree classification, Cardano / Viete,
 * discriminant noise floor) lane by lane. */
static void real_roots_scalar(double c0, double c1, double c2, double c3,
                              double *roots)
{
    roots[0] = roots[1] = roots[2] = NAN;
    double scale = fmax(fmax(fabs(c0), fabs(c1)),
                        fmax(fabs(c2), fabs(c3)));
    double tol = DEGREE_TOL * scale;
    if (fabs(c3) >= tol) {
        /* includes the all-zero lane (tol == 0): the divisions below
         * produce NaN roots exactly as the vectorized path does. */
        double a = c2 / c3;
        double b = c1 / c3;
        double c = c0 / c3;
        double a_third = a / 3.0;
        double p = b - a * a_third;
        double q = 2.0 * a * a * a / 27.0 - a * b / 3.0 + c;
        double half_q = 0.5 * q;
        double third_p = p / 3.0;
        double disc = half_q * half_q + third_p * third_p * third_p;
        double abs_a = fabs(a);
        double mag_q = abs_a * abs_a * abs_a / 27.0
            + fabs(a * b) / 3.0 + fabs(c);
        double mag_p = fabs(b) + a * a / 3.0;
        double disc_noise = 8.0 * EPSILON * (
            fabs(half_q) * mag_q + third_p * third_p * 3.0 * mag_p);
        if (fabs(disc) < disc_noise)
            disc = 0.0;
        if (disc > 0.0) {
            double sqrt_disc = sqrt(disc);
            roots[0] = cbrt(-half_q + sqrt_disc)
                + cbrt(-half_q - sqrt_disc) - a_third;
        } else if (disc < 0.0) {
            /* disc < 0 forces third_p < 0 */
            double m = 2.0 * sqrt(-third_p);
            double pm = p * m;
            double arg = (3.0 * q) / pm;
            if (arg > 1.0) arg = 1.0;
            if (arg < -1.0) arg = -1.0;
            double theta = acos(arg) / 3.0;
            roots[0] = m * cos(theta) - a_third;
            roots[1] = m * cos(theta - PHI1) - a_third;
            roots[2] = m * cos(theta - PHI2) - a_third;
        } else if (disc == 0.0) {
            double u = cbrt(-half_q);
            double r1 = 2.0 * u - a_third;
            double r2 = -u - a_third;
            roots[0] = (half_q == 0.0) ? -a_third : r1;
            if (!(half_q == 0.0 || r1 == r2))
                roots[1] = r2;
        }
        /* disc NaN (all-zero lane): roots stay NaN */
    } else if (fabs(c2) >= tol) {
        double disc = c1 * c1 - 4.0 * c2 * c0;
        double sqrt_disc = sqrt(disc);   /* NaN when disc < 0 */
        double q = -0.5 * (c1 + copysign(sqrt_disc, c1));
        double r0 = q / c2;
        double r1 = (q != 0.0) ? c0 / q : 0.0;
        if (disc == 0.0) {
            r0 = -c1 / (2.0 * c2);
            r1 = NAN;
        }
        roots[0] = r0;
        roots[1] = r1;
    } else if (fabs(c1) >= tol) {
        roots[0] = -c0 / c1;
    }
}

/* Stacked VSC solve: hint-warmed attempts per lane (each re-deriving
 * the region pair from the previous best candidate); lanes that still
 * fail residual validation land in `bad` (selection positions) for
 * the caller's scalar fallback.  The numpy reference stops after two
 * attempts to stay byte-identical with the historical engine; here
 * two more region-refinement rounds cost nanoseconds and resolve
 * almost every drift lane in-kernel, avoiding the ~60 us Python
 * scalar fallback each (the charge-balance residual has a unique
 * in-range root, so a validated root is *the* root either way).
 * Returns the number of bad lanes. */
idx_t stacked_vsc_solve(
    idx_t n, const idx_t *rows,
    const double *vgs, const double *vds,
    const double *bps, const double *lo_edges, const double *hi_edges,
    const double *polys, const double *cg, const double *cd,
    const double *csum, idx_t k_bps,
    const double *hint, double *out, idx_t *bad)
{
    idx_t n_bad = 0;
    idx_t stride_e = k_bps + 1;       /* edges per lane */
    for (idx_t k = 0; k < n; k++) {
        idx_t r = rows[k];
        const double *bps_r = bps + r * k_bps;
        const double *lo_r = lo_edges + r * stride_e;
        const double *hi_r = hi_edges + r * stride_e;
        const double *polys_r = polys + r * stride_e * 4;
        double vds_k = vds[k];
        double vds_q = floor(vds_k * VDS_SCALE + 0.5) * VDS_QUANTUM;
        double qt = (cg[r] * vgs[k] + cd[r] * vds_k) / csum[r];
        double probe_s = hint[r];
        int done = 0;
        for (int attempt = 0; attempt < 4 && !done; attempt++) {
            double probe_d = probe_s + vds_q;
            int i_s = region_of(bps_r, k_bps, probe_s);
            int i_d = region_of(bps_r, k_bps, probe_d);
            const double *qs = polys_r + (idx_t)i_s * 4;
            const double *qd = polys_r + (idx_t)i_d * 4;
            /* Taylor shift of the drain polynomial by quantized VDS */
            double d = vds_q;
            double s0 = qd[0] + d * (qd[1] + d * (qd[2] + d * qd[3]));
            double s1 = qd[1] + d * (2.0 * qd[2] + 3.0 * d * qd[3]);
            double s2 = qd[2] + 3.0 * d * qd[3];
            double s3 = qd[3];
            double e0 = qt - (qs[0] + s0);
            double e1 = 1.0 - (qs[1] + s1);
            double e2 = -(qs[2] + s2);
            double e3 = -(qs[3] + s3);
            double roots[3];
            real_roots_scalar(e0, e1, e2, e3, roots);
            double lo = fmax(lo_r[i_s], lo_r[i_d] - vds_q);
            double hi = fmin(hi_r[i_s], hi_r[i_d] - vds_q);
            /* residual validation; argmin keeps the first minimum the
             * way np.argmin does */
            double res[3];
            for (int j = 0; j < 3; j++) {
                double root = roots[j];
                double rv = fabs(((e3 * root + e2) * root + e1) * root
                                 + e0);
                int inside = root >= lo - EDGE_TOL
                    && root <= hi + EDGE_TOL;
                res[j] = (inside && isfinite(rv)) ? rv : INFINITY;
            }
            int pick = 0;
            if (res[1] < res[pick]) pick = 1;
            if (res[2] < res[pick]) pick = 2;
            double best = roots[pick];
            if (res[pick] <= RESIDUAL_TOL) {
                out[k] = best;
                done = 1;
            } else if (isfinite(best)) {
                /* refinement: re-derive the region pair from the best
                 * candidate root */
                probe_s = best;
            }
        }
        if (!done)
            bad[n_bad++] = k;
    }
    return n_bad;
}

/* ------------------------------------------------------------------ */
/* kernel 2: stacked companion-model bank evaluation                   */
/* ------------------------------------------------------------------ */

static double log1pexp_scalar(double x)
{
    if (x > 35.0)
        return x;
    if (x < -35.0)
        return exp(x);
    return log1p(exp(x));
}

static double logistic_scalar(double x)
{
    if (x >= 0.0)
        return 1.0 / (1.0 + exp(-x));
    double e = exp(x);
    return e / (1.0 + e);
}

/* piecewise-cubic curve value: region lookup + Horner */
static double curve_value(const double *bps_r, const double *coeffs_r,
                          idx_t k_bps, double v)
{
    int region = region_of(bps_r, k_bps, v);
    const double *c = coeffs_r + (idx_t)region * 4;
    return ((c[3] * v + c[2]) * v + c[1]) * v + c[0];
}

static double curve_derivative(const double *bps_r,
                               const double *dcoeffs_r,
                               idx_t k_bps, double v)
{
    int region = region_of(bps_r, k_bps, v);
    const double *c = dcoeffs_r + (idx_t)region * 3;
    return (c[2] * v + c[1]) * v + c[0];
}

/* Stacked curve bank value Q(v) per lane (StackedCurves.value): row
 * k evaluates lane rows[k], or lane k when rows is NULL.  Region
 * lookup and Horner match the numpy gather bit for bit (no
 * transcendentals involved). */
void stacked_curve_value(idx_t n, const idx_t *rows, const double *v,
                         const double *cbps, const double *ccoeffs,
                         idx_t k_bps, double *out)
{
    idx_t stride_c = (k_bps + 1) * 4;
    for (idx_t k = 0; k < n; k++) {
        idx_t r = rows ? rows[k] : k;
        out[k] = curve_value(cbps + r * k_bps, ccoeffs + r * stride_c,
                             k_bps, v[k]);
    }
}

/* Companion stamp values around given biases; vsc comes from kernel 1
 * (or its scalar fallback).  Fills values (17|8, n) and rhs (5|2, n)
 * row-major, matching _StackedCNFETBank._companion row for row. */
void cnfet_companion(
    idx_t n, const idx_t *didx,
    const double *vsc, const double *vgs, const double *vds,
    const double *sign, const double *length, const double *kt,
    const double *ef, const double *pref, const double *cg,
    const double *cd, const double *csum,
    const double *cbps, const double *ccoeffs, const double *cdcoeffs,
    idx_t n_lanes, idx_t k_bps,
    const double *q_prev,
    double gmin, int tran, double dt,
    double *values, double *rhs)
{
    idx_t stride_c = (k_bps + 1) * 4;
    idx_t stride_d = (k_bps + 1) * 3;
    for (idx_t k = 0; k < n; k++) {
        idx_t r = didx[k];
        double s_ = sign[r];
        double v = vsc[k];
        double vg = vgs[k];
        double vd = vds[k];
        double kt_r = kt[r];
        double eta_s = (ef[r] - v) / kt_r;
        double eta_d = eta_s - vd / kt_r;
        double pref_r = pref[r];
        double ids = pref_r * (log1pexp_scalar(eta_s)
                               - log1pexp_scalar(eta_d));
        double sig_s = logistic_scalar(eta_s);
        double sig_d = logistic_scalar(eta_d);
        double di_dvsc = (pref_r / kt_r) * (sig_d - sig_s);
        const double *cbps_r = cbps + r * k_bps;
        double dq_s = curve_derivative(cbps_r, cdcoeffs + r * stride_d,
                                       k_bps, v);
        double dq_d = curve_derivative(cbps_r, cdcoeffs + r * stride_d,
                                       k_bps, v + vd);
        double cg_r = cg[r], cd_r = cd[r];
        double denominator = csum[r] - dq_s - dq_d;
        double dvsc_g = -cg_r / denominator;
        double dvsc_d = -(cd_r - dq_d) / denominator;
        double gm = di_dvsc * dvsc_g;
        double gds = (pref_r / kt_r) * sig_d + di_dvsc * dvsc_d;
        double residual = s_ * ids - gm * s_ * vg - gds * s_ * vd;
        values[0 * n + k] = gm;
        values[1 * n + k] = -(gm + gmin);
        values[2 * n + k] = gds + gmin;
        values[3 * n + k] = gm + gds + 2.0 * gmin;
        values[4 * n + k] = -(gm + gds + gmin);
        values[5 * n + k] = -(gds + gmin);
        values[6 * n + k] = gmin;
        values[7 * n + k] = -gmin;
        rhs[0 * n + k] = -residual;
        rhs[1 * n + k] = residual;
        if (tran) {
            double len = length[r];
            double q_d_mobile = curve_value(cbps_r,
                                            ccoeffs + r * stride_c,
                                            k_bps, v + vd);
            double qg = len * cg_r * (vg + v);
            double qd = len * (cd_r * (vd + v) - q_d_mobile);
            double q0[3];
            q0[0] = qg;
            q0[1] = qd;
            q0[2] = -(qg + qd);
            double dg_gs = len * cg_r * (1.0 + dvsc_g);
            double dg_ds = len * cg_r * dvsc_d;
            double dd_gs = len * dvsc_g * (cd_r - dq_d);
            double dd_ds = len * (1.0 + dvsc_d) * (cd_r - dq_d);
            double dq_dvgs[3], dq_dvds[3];
            dq_dvgs[0] = dg_gs;
            dq_dvgs[1] = dd_gs;
            dq_dvgs[2] = -(dg_gs + dd_gs);
            dq_dvds[0] = dg_ds;
            dq_dvds[1] = dd_ds;
            dq_dvds[2] = -(dg_ds + dd_ds);
            for (int t = 0; t < 3; t++) {
                double geq_gs = dq_dvgs[t] / dt;
                double geq_ds = dq_dvds[t] / dt;
                double i_now = (q0[t] - q_prev[t * n_lanes + r]) / dt;
                idx_t row = 8 + 3 * (idx_t)t;
                values[row * n + k] = geq_gs;
                values[(row + 1) * n + k] = geq_ds;
                values[(row + 2) * n + k] = -(geq_gs + geq_ds);
                rhs[(2 + (idx_t)t) * n + k] = -(
                    s_ * i_now - geq_gs * s_ * vg - geq_ds * s_ * vd);
            }
        }
    }
}

/* ------------------------------------------------------------------ */
/* kernel 3: scatter-add stamping primitives                           */
/* ------------------------------------------------------------------ */

/* out[idx[i]] += val[i], entries with idx >= out_size discarded (the
 * ground pad of the flat stamp index tables). */
void scatter_add_pad(double *out, idx_t out_size,
                     const idx_t *idx, const double *val, idx_t n)
{
    for (idx_t i = 0; i < n; i++) {
        idx_t j = idx[i];
        if (j < out_size)
            out[j] += val[i];
    }
}

/* Copy triplets with idx < dim2 (pad entries dropped); returns the
 * number kept.  Bit-identical to the boolean-mask numpy path. */
idx_t triplet_append(const idx_t *idx, const double *val, idx_t n,
                     idx_t dim2, idx_t *out_idx, double *out_val)
{
    idx_t kept = 0;
    for (idx_t i = 0; i < n; i++) {
        idx_t j = idx[i];
        if (j < dim2) {
            out_idx[kept] = j;
            out_val[kept] = val[i];
            kept++;
        }
    }
    return kept;
}

/* data[map[i]] += val[i] — the dynamic-value scatter of the sparse
 * assembler (data preloaded with the static part by the caller). */
void scatter_accum(double *data, const idx_t *map, const double *val,
                   idx_t n)
{
    for (idx_t i = 0; i < n; i++)
        data[map[i]] += val[i];
}

/* ------------------------------------------------------------------ */
/* kernel 4: frozen-pivot numeric LU refactorization                   */
/* ------------------------------------------------------------------ */

/* Left-looking numeric refactorization of a CSC matrix against frozen
 * L/U patterns and permutations (from one SuperLU factorization of
 * the same pattern, Equil off):
 *
 *     Pr A Pc = L U,   row i of A -> row pr[i],  LU column j draws
 *     from A column pcinv[j].
 *
 * Patterns must be column-sorted with the L diagonal (unit) first and
 * the U diagonal last in each column; the A pattern is structurally
 * contained in L+U by construction.  `work` is an n-sized scratch the
 * caller keeps zeroed between calls (every touched entry is cleared
 * on exit, including the early-return path).
 *
 * Returns 0 on success, j+1 when column j hits a zero / non-finite
 * pivot — the caller then refreshes the symbolic factorization. */
idx_t lu_refactor(
    idx_t n,
    const idx_t *ap, const idx_t *ai, const double *ax,
    const idx_t *pr, const idx_t *pcinv,
    const idx_t *lp, const idx_t *li, double *lx,
    const idx_t *up, const idx_t *ui, double *ux,
    double *work)
{
    for (idx_t j = 0; j < n; j++) {
        idx_t col = pcinv[j];
        for (idx_t p = ap[col]; p < ap[col + 1]; p++)
            work[pr[ai[p]]] = ax[p];
        /* eliminate with the already-factored columns named by the
         * U pattern (ascending, diagonal excluded) */
        for (idx_t p = up[j]; p < up[j + 1] - 1; p++) {
            idx_t k = ui[p];
            double ukj = work[k];
            ux[p] = ukj;
            if (ukj != 0.0)
                for (idx_t q = lp[k] + 1; q < lp[k + 1]; q++)
                    work[li[q]] -= ukj * lx[q];
        }
        double diag = work[j];
        ux[up[j + 1] - 1] = diag;
        int bad = !isfinite(diag) || diag == 0.0;
        lx[lp[j]] = 1.0;
        for (idx_t q = lp[j] + 1; q < lp[j + 1]; q++)
            lx[q] = bad ? 0.0 : work[li[q]] / diag;
        for (idx_t p = ap[col]; p < ap[col + 1]; p++)
            work[pr[ai[p]]] = 0.0;
        for (idx_t p = up[j]; p < up[j + 1]; p++)
            work[ui[p]] = 0.0;
        for (idx_t q = lp[j]; q < lp[j + 1]; q++)
            work[li[q]] = 0.0;
        if (bad)
            return j + 1;
    }
    return 0;
}

/* Solve A x = b from a lu_refactor factorization:
 * permute (prinv), forward L (unit diagonal), backward U, permute
 * back (pc).  `work` is n scratch; out may not alias b. */
void lu_solve_factored(
    idx_t n,
    const idx_t *lp, const idx_t *li, const double *lx,
    const idx_t *up, const idx_t *ui, const double *ux,
    const idx_t *prinv, const idx_t *pc,
    const double *b, double *out, double *work)
{
    for (idx_t i = 0; i < n; i++)
        work[i] = b[prinv[i]];
    for (idx_t j = 0; j < n; j++) {
        double yj = work[j];
        if (yj != 0.0)
            for (idx_t q = lp[j] + 1; q < lp[j + 1]; q++)
                work[li[q]] -= yj * lx[q];
    }
    for (idx_t j = n - 1; j >= 0; j--) {
        double zj = work[j] / ux[up[j + 1] - 1];
        work[j] = zj;
        if (zj != 0.0)
            for (idx_t p = up[j]; p < up[j + 1] - 1; p++)
                work[ui[p]] -= zj * ux[p];
    }
    for (idx_t i = 0; i < n; i++)
        out[i] = work[pc[i]];
}

/* max_i |A x - b| for a CSC matrix — the per-solve staleness guard of
 * the refactorization lane (cheap: one pass over the nonzeros). */
double csc_residual_inf(
    idx_t n,
    const idx_t *ap, const idx_t *ai, const double *ax,
    const double *x, const double *b, double *work)
{
    for (idx_t i = 0; i < n; i++)
        work[i] = -b[i];
    for (idx_t col = 0; col < n; col++) {
        double xc = x[col];
        if (xc != 0.0)
            for (idx_t p = ap[col]; p < ap[col + 1]; p++)
                work[ai[p]] += ax[p] * xc;
    }
    double worst = 0.0;
    for (idx_t i = 0; i < n; i++) {
        double r = fabs(work[i]);
        if (r > worst)
            worst = r;
        work[i] = 0.0;
    }
    return worst;
}
