"""Compiled kernel tier backed by a C shared library.

The C source (``_kernels.c``, pure C99 + libm) is compiled **on
demand** with the system C compiler into a cache directory and loaded
through :mod:`ctypes` — no build-time extension machinery, no runtime
dependency beyond a compiler being present once.  The build is keyed
by a hash of the source, so editing ``_kernels.c`` transparently
rebuilds; concurrent builds are safe (compile to a unique temp name,
``os.replace`` into place).

Float contraction is disabled (``-ffp-contract=off``): FMA fusion
would change the rounding sequence relative to the numpy reference
the parity suite compares against.  Remaining differences come from
libm-vs-SIMD transcendentals (a few ulp) and are bounded engine-side
by the residual validation and the <= 1e-12 V waveform parity gate.

``build_library`` raises :class:`KernelBuildError` when no compiler is
available; :func:`repro.pwl.kernels.resolve_kernel_backend` treats
that as "tier unavailable" and falls back to numpy.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path
from typing import Optional, Tuple

import numpy as np


class KernelBuildError(RuntimeError):
    """The compiled kernel library could not be built or loaded."""


_SOURCE = Path(__file__).resolve().parent / "_kernels.c"
_CFLAGS = ["-O2", "-fPIC", "-shared", "-ffp-contract=off", "-fno-fast-math"]

_lib: Optional[ctypes.CDLL] = None
_build_error: Optional[str] = None


def _compiler() -> Optional[str]:
    for name in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if name and shutil.which(name):
            return name
    return None


def _cache_dir() -> Path:
    override = os.environ.get("REPRO_KERNEL_CACHE")
    if override:
        return Path(override)
    base = os.environ.get("XDG_CACHE_HOME") or str(Path.home() / ".cache")
    return Path(base) / "repro-kernels"


def build_library(force: bool = False) -> ctypes.CDLL:
    """Compile (if needed) and load the kernel shared library."""
    global _lib, _build_error
    if _lib is not None and not force:
        return _lib
    if _build_error is not None and not force:
        raise KernelBuildError(_build_error)
    try:
        _lib = _build_library()
        _build_error = None
        return _lib
    except KernelBuildError as exc:
        _build_error = str(exc)
        raise


def _build_library() -> ctypes.CDLL:
    if not _SOURCE.exists():
        raise KernelBuildError(f"kernel source missing: {_SOURCE}")
    source = _SOURCE.read_bytes()
    key = hashlib.sha256(
        source + " ".join(_CFLAGS).encode()).hexdigest()[:16]
    cache = _cache_dir()
    lib_path = cache / f"repro_kernels_{key}.so"
    if not lib_path.exists():
        cc = _compiler()
        if cc is None:
            raise KernelBuildError(
                "no C compiler found (set $CC, or install gcc/clang)")
        try:
            cache.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise KernelBuildError(
                f"cannot create kernel cache {cache}: {exc}") from exc
        fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache)
        os.close(fd)
        cmd = [cc, *_CFLAGS, str(_SOURCE), "-o", tmp, "-lm"]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=120)
        except (OSError, subprocess.TimeoutExpired) as exc:
            os.unlink(tmp)
            raise KernelBuildError(f"kernel compile failed: {exc}") from exc
        if proc.returncode != 0:
            os.unlink(tmp)
            raise KernelBuildError(
                f"kernel compile failed ({' '.join(cmd)}):\n{proc.stderr}")
        os.replace(tmp, lib_path)
    try:
        lib = ctypes.CDLL(str(lib_path))
    except OSError as exc:
        raise KernelBuildError(
            f"cannot load kernel library {lib_path}: {exc}") from exc
    _declare(lib)
    return lib


def _declare(lib: ctypes.CDLL) -> None:
    # Pointers are declared ``c_void_p`` so a call passes plain integer
    # addresses: bound table addresses (see :func:`_bound`) and
    # ``ndarray.ctypes.data`` for per-call arrays, never a
    # ``data_as`` pointer object.
    c_idx = ctypes.c_int64
    p = ctypes.c_void_p
    lib.stacked_vsc_solve.restype = c_idx
    lib.stacked_vsc_solve.argtypes = [
        c_idx, p, p, p, p, p, p, p, p, p, p, c_idx, p, p, p,
    ]
    lib.cnfet_companion.restype = None
    lib.cnfet_companion.argtypes = [
        c_idx, p, p, p, p, p, p, p, p, p, p, p, p, p, p, p, c_idx, c_idx,
        p, ctypes.c_double, ctypes.c_int, ctypes.c_double, p, p,
    ]
    lib.stacked_curve_value.restype = None
    lib.stacked_curve_value.argtypes = [
        c_idx, p, p, p, p, c_idx, p,
    ]
    lib.scatter_add_pad.restype = None
    lib.scatter_add_pad.argtypes = [p, c_idx, p, p, c_idx]
    lib.triplet_append.restype = c_idx
    lib.triplet_append.argtypes = [p, p, c_idx, c_idx, p, p]
    lib.scatter_accum.restype = None
    lib.scatter_accum.argtypes = [p, p, p, c_idx]
    lib.lu_refactor.restype = c_idx
    lib.lu_refactor.argtypes = [c_idx, p, p, p, p, p, p, p, p, p, p, p, p]
    lib.lu_solve_factored.restype = None
    lib.lu_solve_factored.argtypes = [
        c_idx, p, p, p, p, p, p, p, p, p, p, p,
    ]
    lib.csc_residual_inf.restype = ctypes.c_double
    lib.csc_residual_inf.argtypes = [c_idx, p, p, p, p, p, p]


def _as_f64(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64)


def _as_i64(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.int64)


#: table attributes whose addresses each kind of persistent owner
#: binds, in kernel-argument order
_SOLVER_TABLES = ("bps", "lo_edges", "hi_edges", "polys", "cg", "cd",
                  "csum")
_BANK_TABLES = ("sign", "length", "kt", "ef", "pref", "cg", "cd", "csum",
                "q_prev")
_CURVE_TABLES = ("bps", "coeffs", "dcoeffs")
_LU_TABLES = ("indptr", "indices", "pr", "pcinv", "lp", "li", "lx",
              "up", "ui", "ux", "work", "prinv", "pc")


def _bound(owner, names: Tuple[str, ...]) -> Tuple[int, ...]:
    """Buffer addresses of ``owner``'s persistent tables.

    ``ndarray.ctypes.data`` costs microseconds per call and a hot
    solve passes ~20 persistent tables per Newton iteration, so each
    owner (:class:`~repro.pwl.batch.StackedVscSolver`,
    :class:`~repro.pwl.batch.StackedCurves`, the CNFET banks and
    :class:`~repro.circuit.solvers._LuSymbolic`) carries its own
    addresses in a ``_kaddr`` attribute, filled on the first compiled
    call.  The owner keeps the arrays alive, so the addresses live
    exactly as long as it does and nothing process-global pins them.
    An owner that rebinds one of its tables must reset ``_kaddr`` to
    ``None`` (``_LuSymbolic.refresh`` does); the tables are otherwise
    only written in place.
    """
    addrs = owner._kaddr
    if addrs is None:
        addrs = owner._kaddr = tuple(
            getattr(owner, name).ctypes.data for name in names)
    return addrs


class CcKernelBackend:
    """Compiled kernel tier: per-lane C loops through ctypes."""

    name = "cc"
    compiled = True

    def __init__(self) -> None:
        self._lib = build_library()

    # -- kernel 1: stacked VSC solve -----------------------------------

    def vsc_solve(self, solver, rows: np.ndarray, idx, vgs: np.ndarray,
                  vds: np.ndarray, hint: np.ndarray,
                  out: np.ndarray) -> np.ndarray:
        n = len(rows)
        rows64 = _as_i64(rows)
        vgs = _as_f64(vgs)
        vds = _as_f64(vds)
        bad = np.empty(n, dtype=np.int64)
        bps, lo, hi, polys, cg, cd, csum = _bound(solver, _SOLVER_TABLES)
        n_bad = self._lib.stacked_vsc_solve(
            n, rows64.ctypes.data, vgs.ctypes.data, vds.ctypes.data,
            bps, lo, hi, polys, cg, cd, csum, solver.bps.shape[1],
            hint.ctypes.data, out.ctypes.data, bad.ctypes.data,
        )
        return bad[:n_bad]

    # -- kernel 2: stacked companion bank evaluation -------------------

    def cnfet_companion(self, bank, didx: np.ndarray, vsc: np.ndarray,
                        vgs: np.ndarray, vds: np.ndarray, gmin: float,
                        tran: bool, dt
                        ) -> Tuple[np.ndarray, np.ndarray]:
        n = didx.size
        didx64 = _as_i64(didx)
        vsc = _as_f64(vsc)
        vgs = _as_f64(vgs)
        vds = _as_f64(vds)
        curves = bank.curves
        values = np.empty((17 if tran else 8, n))
        rhs_values = np.empty((5 if tran else 2, n))
        sign, length, kt, ef, pref, cg, cd, csum, q_prev = _bound(
            bank, _BANK_TABLES)
        cbps, coeffs, dcoeffs = _bound(curves, _CURVE_TABLES)
        self._lib.cnfet_companion(
            n, didx64.ctypes.data, vsc.ctypes.data, vgs.ctypes.data,
            vds.ctypes.data, sign, length, kt, ef, pref, cg, cd, csum,
            cbps, coeffs, dcoeffs,
            curves.bps.shape[0], curves.bps.shape[1], q_prev,
            float(gmin), int(bool(tran)),
            float(dt) if dt is not None else 0.0,
            values.ctypes.data, rhs_values.ctypes.data,
        )
        return values, rhs_values

    def curve_value(self, curves, v: np.ndarray,
                    idx: Optional[np.ndarray]) -> np.ndarray:
        """``Q(v)`` per lane of a :class:`~repro.pwl.batch.StackedCurves`
        bank (``idx`` selects a lane subset)."""
        v = _as_f64(v)
        if v.size != (curves.n_lanes if idx is None else len(idx)):
            raise ValueError("curve_value: one v entry per selected lane")
        out = np.empty(v.size)
        rows = None if idx is None else _as_i64(idx).ctypes.data
        cbps, coeffs, _dcoeffs = _bound(curves, _CURVE_TABLES)
        self._lib.stacked_curve_value(
            v.size, rows, v.ctypes.data, cbps, coeffs,
            curves.bps.shape[1], out.ctypes.data)
        return out

    # -- kernel 3: scatter-add stamping --------------------------------

    def scatter_add_pad(self, out: np.ndarray, m_idx: np.ndarray,
                        m_val: np.ndarray) -> None:
        m_idx = _as_i64(m_idx)
        m_val = _as_f64(m_val)
        self._lib.scatter_add_pad(out.ctypes.data, out.size,
                                  m_idx.ctypes.data, m_val.ctypes.data,
                                  m_idx.size)

    def triplet_append(self, m_idx: np.ndarray, m_val: np.ndarray,
                       dim2: int, out_idx: np.ndarray,
                       out_val: np.ndarray, offset: int) -> int:
        m_idx = _as_i64(m_idx)
        m_val = _as_f64(m_val)
        kept = self._lib.triplet_append(
            m_idx.ctypes.data, m_val.ctypes.data, m_idx.size, dim2,
            out_idx[offset:].ctypes.data, out_val[offset:].ctypes.data,
        )
        return int(kept)

    def scatter_accum(self, base: np.ndarray, map_idx: np.ndarray,
                      values: np.ndarray) -> np.ndarray:
        data = base.copy()
        map_idx = _as_i64(map_idx)
        values = _as_f64(values)
        self._lib.scatter_accum(data.ctypes.data, map_idx.ctypes.data,
                                values.ctypes.data, map_idx.size)
        return data

    # -- kernel 4: frozen-pivot LU refactorization ---------------------

    def lu_refactor(self, sym, data: np.ndarray) -> int:
        """Numeric refactorization into ``sym``'s L/U buffers.

        ``sym`` is the symbolic-factorization record built by
        :class:`repro.circuit.solvers.SparseBackend` (frozen patterns,
        permutations and value buffers, all int64 / float64
        contiguous).  Returns 0 on success, a 1-based column index on
        a zero pivot — the caller refreshes the symbolics.
        """
        ap, ai, pr, pcinv, lp, li, lx, up, ui, ux, work, _prinv, _pc = \
            _bound(sym, _LU_TABLES)
        return int(self._lib.lu_refactor(
            sym.n, ap, ai, data.ctypes.data, pr, pcinv,
            lp, li, lx, up, ui, ux, work))

    def lu_solve(self, sym, rhs: np.ndarray) -> np.ndarray:
        """Permute-forward-backward solve from ``lu_refactor``."""
        rhs = _as_f64(rhs)
        out = np.empty(sym.n)
        _ap, _ai, _pr, _pcinv, lp, li, lx, up, ui, ux, work, prinv, pc = \
            _bound(sym, _LU_TABLES)
        self._lib.lu_solve_factored(
            sym.n, lp, li, lx, up, ui, ux, prinv, pc,
            rhs.ctypes.data, out.ctypes.data, work)
        return out

    def csc_residual(self, sym, data: np.ndarray, x: np.ndarray,
                     rhs: np.ndarray) -> float:
        """``max|A x - rhs|`` — the staleness guard of the lane."""
        x = _as_f64(x)
        rhs = _as_f64(rhs)
        addrs = _bound(sym, _LU_TABLES)
        ap, ai, work = addrs[0], addrs[1], addrs[10]
        return float(self._lib.csc_residual_inf(
            sym.n, ap, ai, data.ctypes.data, x.ctypes.data,
            rhs.ctypes.data, work))
