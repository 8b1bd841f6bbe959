"""Pluggable linear-solver backends for the MNA engine.

Every analysis solves ``A x = z`` systems produced by the two-phase
assembler.  Historically that solve was a hard-wired dense
``np.linalg.solve`` — adequate for tens of nodes, cubic-wall-time
suicide for the thousand-node blocks the hierarchy layer can now
build.  This module abstracts the solve (and, for the sparse backend,
the matrix *representation*) behind :class:`LinearSolverBackend`:

* :class:`DenseBackend` — the historical path, byte-for-byte: dense
  preallocated stamping buffers, ``np.linalg.solve``.  Fastest below a
  couple hundred unknowns where LAPACK's constant factors win.
* :class:`SparseBackend` — the assembler emits COO triplets instead of
  writing a dense matrix, the symbolic sparsity pattern (stored in
  the CSC layout SuperLU consumes) and the static/dynamic scatter
  index maps are built **once per run** (they only depend on the
  circuit topology and the analysis mode, mirroring the
  static/dynamic split of the two-phase assembler), and each Newton
  iteration scatters values and factorises with
  ``scipy.sparse.linalg.splu``.  When scipy is absent the same
  triplets are scattered into a dense matrix and solved with pure
  numpy, so the backend stays importable and correct everywhere.

:func:`resolve_backend` picks a backend: explicit ``"dense"`` /
``"sparse"`` strings (or instances) are honoured, ``"auto"`` /
``None`` selects sparse at or above :data:`SPARSE_AUTO_MIN_DIM`
unknowns when scipy is importable — the measured dense/sparse
crossover for MNA-shaped matrices on this codebase's workloads.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional, Union

import numpy as np

from repro.errors import AnalysisError, ParameterError
from repro.pwl.kernels import active_kernel_backend

try:  # pragma: no cover - exercised via the scipy-absent fallback test
    from scipy.sparse import csc_matrix
    from scipy.sparse.linalg import splu

    HAVE_SCIPY = True
except ImportError:  # pragma: no cover
    csc_matrix = None
    splu = None
    HAVE_SCIPY = False

__all__ = [
    "LinearSolverBackend",
    "DenseBackend",
    "SparseBackend",
    "resolve_backend",
    "SPARSE_AUTO_MIN_DIM",
    "HAVE_SCIPY",
]

#: ``"auto"`` switches from dense to sparse at this system dimension.
#: Measured crossover for this engine's MNA matrices: a dense
#: ``np.linalg.solve`` beats SuperLU below ~250 unknowns (LAPACK
#: constant factors), loses by an order of magnitude at 800+.
SPARSE_AUTO_MIN_DIM = 256


class LinearSolverBackend:
    """Interface of a linear-solver backend.

    A backend owns the *solve* of the assembled MNA system; the sparse
    backend additionally changes how the assembler represents the
    matrix (COO triplets instead of a dense buffer — see
    :class:`repro.circuit.mna.TwoPhaseAssembler`).  Backends are
    stateless across solves and may be shared between assemblers.
    """

    #: registry name (``"dense"`` / ``"sparse"``)
    name: str = "?"
    #: True when the assembler should emit COO triplets for this
    #: backend instead of stamping a dense matrix.
    is_sparse: bool = False

    def solve_dense(self, matrix: np.ndarray, rhs: np.ndarray
                    ) -> np.ndarray:
        """Solve one dense system (raises
        :class:`~repro.errors.AnalysisError` when singular)."""
        raise NotImplementedError

    def solve_csc(self, n: int, data: np.ndarray, indices: np.ndarray,
                  indptr: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Solve one CSC-represented system (sparse assembly path).

        The assembler hands over its cached symbolic structure
        (``indices``/``indptr``, constant per run) with a freshly
        scattered ``data`` vector — already in the column-major order
        SuperLU consumes, so no format conversion happens here.
        """
        raise NotImplementedError

    def solve_stacked(self, matrices: np.ndarray, rhs: np.ndarray
                      ) -> np.ndarray:
        """Solve a ``(B, n, n)`` stack of dense systems lane by lane.

        Singular lanes come back as NaN rows (the lane-batched engine
        routes non-finite lanes through its per-lane failure path)
        rather than poisoning the whole stack.
        """
        raise NotImplementedError

    def factorize_csc(self, n: int, data: np.ndarray,
                      indices: np.ndarray, indptr: np.ndarray):
        """Factorise one CSC system; the returned object exposes
        ``.solve(rhs)`` reusable across right-hand sides.

        ``None`` means the backend has no reusable factorisation (the
        caller must go through :meth:`solve_csc` instead) — the
        assembler uses this to reuse a factorisation across Newton
        iterations whose ``data`` vector is unchanged (the Jacobian-
        reuse chord path freezes the stamps, so the comparison is a
        cheap ``np.array_equal``).
        """
        return None


def _nan_fill_singular(matrices: np.ndarray, rhs: np.ndarray
                       ) -> np.ndarray:
    """Per-lane dense solves with NaN rows for singular lanes."""
    out = np.empty_like(rhs)
    for i in range(matrices.shape[0]):
        try:
            out[i] = np.linalg.solve(matrices[i], rhs[i])
        except np.linalg.LinAlgError:
            out[i] = np.nan
    return out


#: Relative residual ceiling of the frozen-pivot refactorization lane.
#: The guarded quantity is ``max|Ax-b| / (max|b| + max|A| * max|x|)``;
#: healthy solves sit at ~1e-16 (at or below SuperLU's own), a stale
#: pivot order shows up orders of magnitude above this line.
REFACTOR_GUARD_REL = 1e-11


class _LuSymbolic:
    """Frozen symbolic factorization for the compiled refactor lane.

    Holds the L/U sparsity patterns, permutations and numeric buffers
    that :meth:`CcKernelBackend.lu_refactor` replays against — all
    int64 / float64 contiguous so the C kernel consumes them directly.
    ``refresh`` re-derives everything from one scipy ``splu`` of the
    current values (``Equil=False`` so no hidden row/column scaling:
    ``Pr A Pc = L U`` exactly).
    """

    __slots__ = ("n", "indices", "indptr", "pr", "prinv", "pc", "pcinv",
                 "lp", "li", "lx", "up", "ui", "ux", "work", "refreshes",
                 "_kaddr")

    def __init__(self, n: int, indices: np.ndarray,
                 indptr: np.ndarray) -> None:
        self.n = n
        self.indices = np.ascontiguousarray(indices, dtype=np.int64)
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.work = np.zeros(n)
        self.refreshes = 0
        #: buffer addresses bound by the compiled kernel tier; reset
        #: whenever :meth:`refresh` rebinds the arrays
        self._kaddr = None

    def refresh(self, matrix) -> None:
        """Rebuild patterns/permutations from a fresh ``splu`` of
        ``matrix`` (a csc_matrix holding the current values)."""
        lu = splu(matrix, options=dict(Equil=False))
        lower, upper = lu.L.tocsc(), lu.U.tocsc()
        lower.sort_indices()
        upper.sort_indices()
        n = self.n
        self.pr = lu.perm_r.astype(np.int64)
        self.pc = lu.perm_c.astype(np.int64)
        self.prinv = np.empty(n, dtype=np.int64)
        self.prinv[self.pr] = np.arange(n)
        self.pcinv = np.empty(n, dtype=np.int64)
        self.pcinv[self.pc] = np.arange(n)
        self.lp = lower.indptr.astype(np.int64)
        self.li = lower.indices.astype(np.int64)
        self.lx = np.ascontiguousarray(lower.data)
        self.up = upper.indptr.astype(np.int64)
        self.ui = upper.indices.astype(np.int64)
        self.ux = np.ascontiguousarray(upper.data)
        self._kaddr = None
        self.refreshes += 1


class _RefactorLU:
    """Factorization handle of the compiled refactor lane.

    Duck-types the SuperLU object the assembler expects
    (``.solve(rhs)``), but every solve is residual-guarded: the frozen
    pivot order can lose accuracy as the Jacobian values drift, in
    which case the handle transparently refreshes the symbolics from
    a fresh ``splu`` and re-solves.  Only the newest handle per
    pattern is valid — a later ``factorize_csc`` on the same pattern
    reuses (overwrites) the shared numeric buffers.
    """

    __slots__ = ("owner", "kern", "sym", "data", "scale")

    def __init__(self, owner: "SparseBackend", kern, sym: _LuSymbolic,
                 data: np.ndarray) -> None:
        self.owner = owner
        self.kern = kern
        self.sym = sym
        self.data = data
        self.scale = float(np.max(np.abs(data))) if data.size else 0.0

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        sym = self.sym
        x = self.kern.lu_solve(sym, rhs)
        err = self.kern.csc_residual(sym, self.data, x, rhs)
        rhs_inf = float(np.max(np.abs(rhs))) if rhs.size else 0.0
        x_inf = float(np.max(np.abs(x))) if x.size else 0.0
        if err <= REFACTOR_GUARD_REL * (rhs_inf + self.scale * x_inf):
            return x
        # Stale pivot order: re-pivot on the current values and retry.
        try:
            matrix = self.owner._template(sym.n, self.data,
                                          sym.indices, sym.indptr)
            sym.refresh(matrix)
            if self.kern.lu_refactor(sym, self.data) == 0:
                x = self.kern.lu_solve(sym, rhs)
                err = self.kern.csc_residual(sym, self.data, x, rhs)
                if err <= REFACTOR_GUARD_REL * (
                        rhs_inf + self.scale * x_inf):
                    return x
            return splu(matrix).solve(rhs)  # pragma: no cover
        except RuntimeError as exc:  # pragma: no cover - singular
            raise AnalysisError(
                f"singular MNA matrix ({exc}); check for floating nodes"
            ) from exc


class DenseBackend(LinearSolverBackend):
    """Dense LAPACK solves on the assembler's preallocated buffers.

    The historical engine behaviour, byte for byte — every analysis
    that predates the backend layer ran exactly this path.
    """

    name = "dense"
    is_sparse = False

    def solve_dense(self, matrix: np.ndarray, rhs: np.ndarray
                    ) -> np.ndarray:
        """``np.linalg.solve`` with the singular-matrix diagnosis."""
        try:
            return np.linalg.solve(matrix, rhs)
        except np.linalg.LinAlgError as exc:
            raise AnalysisError(
                f"singular MNA matrix ({exc}); check for floating nodes"
            ) from exc

    def solve_stacked(self, matrices: np.ndarray, rhs: np.ndarray
                      ) -> np.ndarray:
        """One batched LAPACK call; singular lanes re-solved one by
        one so a single bad lane cannot fail the stack."""
        try:
            return np.linalg.solve(matrices, rhs[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            return _nan_fill_singular(matrices, rhs)


class SparseBackend(LinearSolverBackend):
    """SuperLU factorisation of the triplet-assembled CSC system.

    The assembler hands over the (per-run constant) CSC pattern plus a
    freshly scattered data vector each Newton iteration;
    ``scipy.sparse.linalg.splu`` factorises and solves.  Without scipy
    the triplets are scattered into a dense matrix and solved with
    numpy — same answers, none of the asymptotic win, zero hard
    dependency.
    """

    name = "sparse"
    is_sparse = True

    #: retained CSC templates (the matrix-shell cache in
    #: :meth:`_template` keeps one per live assembler pattern)
    _TEMPLATE_CACHE_MAX = 8

    def __init__(self) -> None:
        # (id(indices), id(indptr), n) -> (indices, indptr, csc) — the
        # strong refs pin the keyed arrays so their ids stay valid.
        self._templates: "OrderedDict[tuple, tuple]" = OrderedDict()
        # same keying -> (indices, indptr, _LuSymbolic) for the
        # compiled frozen-pivot refactorization lane
        self._symbolics: "OrderedDict[tuple, tuple]" = OrderedDict()

    def _template(self, n: int, data: np.ndarray, indices: np.ndarray,
                  indptr: np.ndarray):
        """Cached ``csc_matrix`` shell for a (per-run constant)
        symbolic pattern.

        Building a ``csc_matrix`` from raw arrays re-runs index-dtype
        selection, downcast copies and format validation on every
        call — ~20% of a factorisation for MNA-sized systems.  The
        pattern arrays are constant per assembler, so the shell is
        built once and only its ``data`` vector is swapped per solve.
        """
        key = (id(indices), id(indptr), n)
        hit = self._templates.get(key)
        if hit is not None and hit[0] is indices and hit[1] is indptr:
            matrix = hit[2]
            self._templates.move_to_end(key)
        else:
            matrix = csc_matrix(
                (data, indices.astype(np.int32),
                 indptr.astype(np.int32)), shape=(n, n))
            self._templates[key] = (indices, indptr, matrix)
            while len(self._templates) > self._TEMPLATE_CACHE_MAX:
                self._templates.popitem(last=False)
        matrix.data = data
        return matrix

    def solve_csc(self, n: int, data: np.ndarray, indices: np.ndarray,
                  indptr: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Factorise-and-solve one CSC system."""
        if not HAVE_SCIPY:  # pure-numpy fallback: scatter dense
            matrix = np.zeros((n, n), dtype=data.dtype)
            for col in range(n):
                matrix[indices[indptr[col]:indptr[col + 1]], col] = \
                    data[indptr[col]:indptr[col + 1]]
            return DenseBackend().solve_dense(matrix, rhs)
        try:
            lu = splu(self._template(n, data, indices, indptr))
            return lu.solve(rhs)
        except RuntimeError as exc:  # "Factor is exactly singular"
            raise AnalysisError(
                f"singular MNA matrix ({exc}); check for floating nodes"
            ) from exc

    def factorize_csc(self, n: int, data: np.ndarray,
                      indices: np.ndarray, indptr: np.ndarray):
        """Factor object (``.solve(rhs)``), or ``None`` without scipy
        (the dense fallback has nothing to reuse).

        With the compiled kernel tier active this is the frozen-pivot
        refactorization lane: the (per-run constant) L/U patterns and
        permutations come from one SuperLU factorization, every
        subsequent Newton iteration replays only the numeric phase in
        C (~10x cheaper than ``splu`` for MNA-sized systems) and each
        solve is residual-guarded against pivot staleness.  The numpy
        kernel tier — and any zero-pivot pathology — takes the plain
        SuperLU path, byte for byte the historical behaviour.
        """
        if not HAVE_SCIPY:
            return None
        kern = active_kernel_backend()
        if getattr(kern, "lu_refactor", None) is None:
            try:
                return splu(self._template(n, data, indices, indptr))
            except RuntimeError as exc:
                raise AnalysisError(
                    f"singular MNA matrix ({exc}); check for floating "
                    f"nodes") from exc
        key = (id(indices), id(indptr), n)
        hit = self._symbolics.get(key)
        if hit is not None and hit[0] is indices and hit[1] is indptr:
            sym = hit[2]
            self._symbolics.move_to_end(key)
        else:
            sym = _LuSymbolic(n, indices, indptr)
            self._symbolics[key] = (indices, indptr, sym)
            while len(self._symbolics) > self._TEMPLATE_CACHE_MAX:
                self._symbolics.popitem(last=False)
        try:
            if sym.refreshes == 0:
                sym.refresh(self._template(n, data, indices, indptr))
            if kern.lu_refactor(sym, data) != 0:
                # zero pivot under the frozen order: re-pivot once on
                # the current values before giving up on the lane
                sym.refresh(self._template(n, data, indices, indptr))
                if kern.lu_refactor(sym, data) != 0:
                    return splu(self._template(n, data, indices, indptr))
            return _RefactorLU(self, kern, sym, data)
        except RuntimeError as exc:
            raise AnalysisError(
                f"singular MNA matrix ({exc}); check for floating nodes"
            ) from exc

    def solve_dense(self, matrix: np.ndarray, rhs: np.ndarray
                    ) -> np.ndarray:
        """Dense systems still solve (AC hands the backend dense
        ``G``/``C`` buffers); scipy converts, numpy falls back."""
        if not HAVE_SCIPY:
            return DenseBackend().solve_dense(matrix, rhs)
        try:
            lu = splu(csc_matrix(matrix))
            return lu.solve(rhs)
        except RuntimeError as exc:
            raise AnalysisError(
                f"singular MNA matrix ({exc}); check for floating nodes"
            ) from exc

    def solve_stacked(self, matrices: np.ndarray, rhs: np.ndarray
                      ) -> np.ndarray:
        """Per-lane SuperLU solves of a dense-stamped stack.

        The lane-batched engine stamps dense stacks (vectorized
        scatter-adds need rectangular buffers); converting one lane's
        ``(n, n)`` buffer to CSC is O(n^2) against the O(n^3) dense
        solve it replaces, so the conversion pays for itself from a
        few hundred unknowns — exactly where :func:`resolve_backend`
        starts picking this backend.
        """
        if not HAVE_SCIPY:
            return DenseBackend().solve_stacked(matrices, rhs)
        out = np.empty_like(rhs)
        for i in range(matrices.shape[0]):
            try:
                out[i] = splu(csc_matrix(matrices[i])).solve(rhs[i])
            except RuntimeError:
                out[i] = np.nan
        return out


_DENSE = DenseBackend()
_SPARSE = SparseBackend()

BackendLike = Union[None, str, LinearSolverBackend]


def resolve_backend(backend: BackendLike,
                    dimension: Optional[int] = None
                    ) -> LinearSolverBackend:
    """Resolve a backend spec to an instance.

    Parameters
    ----------
    backend : None, str or LinearSolverBackend
        ``None`` / ``"auto"`` — dense below
        :data:`SPARSE_AUTO_MIN_DIM` unknowns or when scipy is missing,
        sparse otherwise.  ``"dense"`` / ``"sparse"`` force a backend
        (``"sparse"`` works without scipy through its numpy fallback).
        Instances pass through.
    dimension : int, optional
        System size used by the auto rule (``None`` means unknown and
        resolves dense).
    """
    if isinstance(backend, LinearSolverBackend):
        return backend
    if backend is None or backend == "auto":
        if HAVE_SCIPY and dimension is not None \
                and dimension >= SPARSE_AUTO_MIN_DIM:
            return _SPARSE
        return _DENSE
    if backend == "dense":
        return _DENSE
    if backend == "sparse":
        return _SPARSE
    raise ParameterError(
        f"unknown linear-solver backend {backend!r}; expected 'auto', "
        f"'dense', 'sparse' or a LinearSolverBackend instance"
    )
