"""Fitting the piecewise non-linear charge approximation (paper §IV).

The paper's construction, generalised:

* the VSC axis is split into regions by breakpoints expressed *relative
  to* ``EF/q`` (e.g. Model 1: ``EF/q - 0.08`` and ``EF/q + 0.08``);
* the rightmost region is identically zero;
* each region carries a polynomial of prescribed order (<= 3) subject to
  **C1 continuity** at every breakpoint;
* free coefficients minimise the RMS deviation from the theoretical
  curve ("a purely numerical, rather than symbolic, approach");
* optionally, the breakpoints themselves are optimised for RMS
  ("the boundaries are calculated to minimise the RMS deviation").

C1 + the zero right region leave exactly ``order - 1`` free coefficients
per region (``t^2 .. t^order`` in the local coordinate ``t = x - b_right``;
``t^0`` and ``t^1`` are fixed by continuity).  The fitted curve is linear
in those coefficients, so the inner problem is ordinary least squares on
a sampled theoretical curve; the outer boundary optimisation is a small
Nelder-Mead search re-solving the inner problem per step.

Basis construction: the element for (region ``l``, power ``j``) is

* 0 to the right of region ``l`` (it vanishes with two zero derivatives
  at its right boundary, preserving C1),
* ``(x - b_l)^j`` inside region ``l``,
* the straight line continuing value and slope across the left boundary
  everywhere to the left (further-left regions own their own curvature
  parameters, so a linear continuation spans the same function space).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from repro.errors import FittingError, ParameterError
from repro.physics.charge import ChargeModel
from repro.pwl.polynomials import shift_polynomial
from repro.pwl.regions import PiecewiseCharge


@dataclass(frozen=True)
class FitSpec:
    """Region layout of a piecewise charge approximation.

    Attributes
    ----------
    orders:
        Polynomial order per region, left to right.  The last entry must
        be 0 (the zero region); the first should be 1 so the model
        extrapolates linearly under gate overdrive.
    boundaries_rel:
        Breakpoints relative to ``EF/q`` [V], ascending, one fewer than
        ``orders``... exactly ``len(orders) - 1`` entries.
    window_rel:
        Fitting window relative to ``EF/q`` [V]; must contain all
        boundaries.
    samples:
        Number of sample points of the theoretical curve.
    name:
        Display name ("model1", "model2", ...).
    weighting:
        ``"gaussian"`` (default) emphasises the region around ``EF/q``
        with ``w(x) = 0.1 + exp(-((x - EF/q)/0.1 V)^2)`` — the drain
        current is exponentially sensitive to VSC errors there, so
        charge-fit effort is spent where it buys IDS accuracy;
        ``"uniform"`` reproduces a plain unweighted fit (used by the
        weighting ablation benchmark).
    """

    orders: Tuple[int, ...]
    boundaries_rel: Tuple[float, ...]
    window_rel: Tuple[float, float] = (-0.6, 0.32)
    samples: int = 600
    name: str = "custom"
    weighting: str = "gaussian"

    def __post_init__(self) -> None:
        if len(self.orders) < 2:
            raise ParameterError("need at least two regions")
        if self.orders[-1] != 0:
            raise ParameterError(
                f"rightmost region must be the zero region: {self.orders}"
            )
        if any(o < 1 or o > 3 for o in self.orders[:-1]):
            raise ParameterError(
                f"interior region orders must be 1..3: {self.orders}"
            )
        if len(self.boundaries_rel) != len(self.orders) - 1:
            raise ParameterError(
                f"{len(self.orders)} regions need {len(self.orders)-1} "
                f"boundaries, got {len(self.boundaries_rel)}"
            )
        bs = list(self.boundaries_rel)
        if sorted(bs) != bs or len(set(bs)) != len(bs):
            raise ParameterError(f"boundaries must strictly ascend: {bs}")
        lo, hi = self.window_rel
        if not (lo < bs[0] and bs[-1] < hi):
            raise ParameterError(
                f"window {self.window_rel} must contain boundaries {bs}"
            )
        if self.samples < 50:
            raise ParameterError(f"need >= 50 samples: {self.samples}")
        if self.weighting not in ("gaussian", "uniform"):
            raise ParameterError(
                f"weighting must be 'gaussian' or 'uniform': "
                f"{self.weighting!r}"
            )

    @property
    def free_parameters(self) -> int:
        """Number of free polynomial coefficients (paper: 1 for Model 1,
        3 for Model 2)."""
        return sum(max(0, o - 1) for o in self.orders[:-1])


@dataclass(frozen=True)
class FittedCharge:
    """Result of a charge-curve fit.

    ``curve`` is the fitted :class:`PiecewiseCharge` in absolute VSC
    coordinates; the diagnostics record how well it tracks theory.
    """

    curve: PiecewiseCharge
    spec: FitSpec
    fermi_level_ev: float
    temperature_k: float
    rms_error: float            #: absolute RMS deviation [C/m]
    rms_error_relative: float   #: RMS / peak theoretical charge
    boundaries_abs: Tuple[float, ...]
    free_coefficients: Tuple[float, ...] = field(default=())


def _basis_matrix(x: np.ndarray, boundaries: Sequence[float],
                  orders: Sequence[int]) -> Tuple[np.ndarray, list]:
    """Design matrix of the C1 basis described in the module docstring.

    Returns ``(A, index)`` where ``index[k] = (region, power)`` labels
    column ``k``.
    """
    columns = []
    index = []
    n_regions = len(orders)
    for region in range(n_regions - 1):  # zero region has no parameters
        order = orders[region]
        b_right = boundaries[region]
        b_left = boundaries[region - 1] if region > 0 else None
        for power in range(2, order + 1):
            col = np.zeros_like(x)
            inside = x <= b_right
            if b_left is not None:
                inside &= x > b_left
            t = x[inside] - b_right
            col[inside] = t ** power
            if b_left is not None:
                left = x <= b_left
                dt = b_left - b_right
                value = dt ** power
                slope = power * dt ** (power - 1)
                col[left] = value + slope * (x[left] - b_left)
            columns.append(col)
            index.append((region, power))
    if not columns:
        raise FittingError(
            "fit spec has no free coefficients (all regions linear); "
            "at least one region of order >= 2 is required"
        )
    return np.column_stack(columns), index


def _build_curve(boundaries: Sequence[float], orders: Sequence[int],
                 coeffs: Sequence[float],
                 index: Sequence[Tuple[int, int]],
                 tail_value: float = 0.0) -> PiecewiseCharge:
    """Assemble the absolute-coordinate piecewise polynomial from the
    fitted free coefficients, region by region, right to left.

    ``tail_value`` is the constant of the rightmost ("zero") region: the
    paper uses 0, which is exact for EF well below the band edge; the
    theoretical curve actually saturates at ``-q N0 / 2`` (see
    ``fit_piecewise_charge``), and a C1 constant tail simply adds that
    constant to every region.
    """
    n_regions = len(orders)
    region_polys: list = [None] * n_regions
    region_polys[n_regions - 1] = (tail_value,)
    # Local polynomials first (local coordinate t = x - b_right).
    for region in range(n_regions - 2, -1, -1):
        b_right = boundaries[region]
        local = [tail_value, 0.0, 0.0, 0.0]
        for (reg, power), a in zip(index, coeffs):
            if reg == region:
                local[power] += a
            elif reg > region:
                # Linear continuation of a right-region basis element:
                # chain through every intermediate boundary.  Because the
                # continuation is linear from the first crossing on, its
                # restriction to this region is the same line.
                b_owner = boundaries[reg]
                b_cross = boundaries[reg - 1]
                dt = b_cross - b_owner
                value = a * dt ** power
                slope = a * power * dt ** (power - 1)
                # Express the line value+slope*(x-b_cross) in local t:
                # x = t + b_right  ->  x - b_cross = t + (b_right - b_cross)
                offset = b_right - b_cross
                local[0] += value + slope * offset
                local[1] += slope
        region_polys[region] = tuple(local)
    # Convert local coordinates to absolute: p_local(x - b_right).
    abs_polys = []
    for region in range(n_regions):
        if region == n_regions - 1:
            abs_polys.append((tail_value,))
            continue
        coeffs_local = region_polys[region]
        abs_polys.append(
            tuple(shift_polynomial(coeffs_local, -boundaries[region]))
        )
    # Trim to the declared order (drop trailing zeros beyond it).
    trimmed = []
    for region, poly in enumerate(abs_polys):
        order = orders[region]
        keep = max(1, order + 1)
        trimmed.append(tuple(poly[:keep]) if region < n_regions - 1
                       else (tail_value,))
    return PiecewiseCharge(tuple(boundaries), tuple(trimmed))


#: Gaussian weighting shape parameters (volts): emphasis width around
#: EF/q and the floor keeping the far linear region constrained.
_WEIGHT_SIGMA = 0.1
_WEIGHT_FLOOR = 0.1


def _fit_at_boundaries(
    x: np.ndarray, y: np.ndarray, boundaries: Sequence[float],
    orders: Sequence[int], tail_value: float = 0.0,
    sqrt_weights: Optional[np.ndarray] = None,
) -> Tuple[PiecewiseCharge, float, Tuple[float, ...]]:
    """Inner (weighted) least-squares problem at fixed boundaries."""
    a_matrix, index = _basis_matrix(x, boundaries, orders)
    target = y - tail_value
    if sqrt_weights is not None:
        a_matrix = a_matrix * sqrt_weights[:, None]
        target = target * sqrt_weights
    solution, *_ = np.linalg.lstsq(a_matrix, target, rcond=None)
    residual = a_matrix @ solution - target
    rms = float(np.sqrt(np.mean(residual**2)))
    curve = _build_curve(boundaries, orders, solution, index, tail_value)
    return curve, rms, tuple(float(c) for c in solution)


def fit_piecewise_charge(
    charge: ChargeModel,
    spec: FitSpec,
    optimize_boundaries: bool = False,
    theoretical: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    tail: str = "saturation",
) -> FittedCharge:
    """Fit a piecewise charge approximation to the theoretical curve.

    Parameters
    ----------
    charge:
        Theoretical charge model providing ``qs(vsc)`` (and the Fermi
        level the breakpoints are anchored to).
    spec:
        Region layout; see :class:`FitSpec`.  The paper's layouts are in
        :mod:`repro.pwl.model1` / :mod:`repro.pwl.model2`.
    optimize_boundaries:
        When True, refine ``spec.boundaries_rel`` by Nelder-Mead on the
        RMS objective (the paper's numerically-optimised boundaries);
        when False, use the spec's boundaries as given.
    theoretical:
        Override of the theoretical curve (used by tests to fit known
        synthetic shapes).  Defaults to ``charge.qs``.
    tail:
        Value of the rightmost region.  ``"zero"`` is the paper's
        published structure (exact only for EF well below the band
        edge); ``"saturation"`` (default) uses the theoretical asymptote
        ``QS(+inf) = -q N0 / 2``, which the paper's own eq. (1) implies
        and which coincides with zero to ~1e-16 C/m at EF = -0.32 eV but
        is essential at EF = 0 (see DESIGN.md §6).

    Returns
    -------
    FittedCharge

    Raises
    ------
    FittingError
        If the least-squares problem is degenerate or optimisation moves
        boundaries out of the window.
    """
    if tail not in ("zero", "saturation"):
        raise ParameterError(f"tail must be 'zero' or 'saturation': {tail!r}")
    ef = charge.fermi_level_ev
    lo = ef + spec.window_rel[0]
    hi = ef + spec.window_rel[1]
    x = np.linspace(lo, hi, spec.samples)
    curve_fn = theoretical if theoretical is not None else charge.qs
    y = np.asarray(curve_fn(x), dtype=float)
    if not np.all(np.isfinite(y)):
        raise FittingError("theoretical charge curve contains non-finite "
                           "values inside the fit window")
    peak = float(np.max(np.abs(y)))
    if peak == 0.0:
        raise FittingError("theoretical charge curve is identically zero")
    if tail == "saturation" and theoretical is None:
        # QS(VSC -> +inf) = q (0 - N0/2): the occupied +k states empty
        # out and only the equilibrium offset remains.
        from repro.constants import ELEMENTARY_CHARGE

        tail_value = -0.5 * ELEMENTARY_CHARGE * charge.n_equilibrium()
    else:
        tail_value = 0.0
    if spec.weighting == "gaussian":
        weights = _WEIGHT_FLOOR + np.exp(-((x - ef) / _WEIGHT_SIGMA) ** 2)
        sqrt_weights = np.sqrt(weights)
    else:
        sqrt_weights = None

    def solve(boundaries_rel: Sequence[float]):
        boundaries = [ef + b for b in boundaries_rel]
        return _fit_at_boundaries(x, y, boundaries, spec.orders, tail_value,
                                  sqrt_weights)

    boundaries_rel = list(spec.boundaries_rel)
    if optimize_boundaries:
        # imported here: scipy.optimize costs ~0.35 s of cold start and
        # only boundary optimisation uses it
        from scipy.optimize import minimize

        window = spec.window_rel
        margin = 0.01

        def objective(b: np.ndarray) -> float:
            bs = sorted(b.tolist())
            if bs[0] <= window[0] + margin or bs[-1] >= window[1] - margin:
                return 1e3 * peak
            if min(np.diff(bs)) < 0.02:
                return 1e3 * peak
            try:
                _, rms, _ = solve(bs)
            except (FittingError, np.linalg.LinAlgError):
                return 1e3 * peak
            return rms

        result = minimize(
            objective, np.asarray(boundaries_rel), method="Nelder-Mead",
            options={"xatol": 1e-4, "fatol": 1e-3 * peak, "maxiter": 400},
        )
        candidate = sorted(result.x.tolist())
        if objective(np.asarray(candidate)) < objective(
                np.asarray(boundaries_rel)):
            boundaries_rel = candidate

    curve, rms, free = solve(boundaries_rel)
    return FittedCharge(
        curve=curve,
        spec=spec,
        fermi_level_ev=ef,
        temperature_k=charge.temperature_k,
        rms_error=rms,
        rms_error_relative=rms / peak,
        boundaries_abs=tuple(ef + b for b in boundaries_rel),
        free_coefficients=free,
    )
