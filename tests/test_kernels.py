"""Kernel-tier resolution, parity across tiers, and worker sharding.

The compiled tier (C loaded through ctypes) must be a pure
performance change: the numpy tier is the reference, the compiled
loops must agree with it to float noise at the kernel level
(``<= 1e-12`` V on the stacked-VSC solve — the same gate ``make
bench`` enforces) and to Newton-convergence noise at the engine
level.  The sharding helpers must be pure orchestration: same
results, any worker count.
"""

import os

import numpy as np
import pytest

from repro.circuit.logic import LogicFamily, build_ring_oscillator
from repro.circuit.mna import NewtonOptions, robust_dc_solve
from repro.circuit.transient import initial_conditions_from_op, transient
from repro.errors import ParameterError
from repro.experiments.workloads import default_device_parameters
from repro.parallel import WORKERS_ENV, fork_map, resolve_workers
from repro.pwl.device import CNFET
from repro.pwl.kernels import (
    active_kernel_backend,
    compiled_backend_available,
    resolve_kernel_backend,
    set_kernel_backend,
    using_kernels,
)

KERNEL_PARITY_TOL_V = 1e-12     # stacked-VSC solve, numpy vs compiled
WAVEFORM_PARITY_TOL_V = 1e-9    # engine level: Newton-convergence noise

TIGHT = NewtonOptions(vtol=1e-12, reltol=1e-10)

#: characterization metrics agree within the LTE tolerance of the
#: adaptive transients when the batch grouping changes (tiers flip
#: step-acceptance decisions, tiles change the shared pulse
#: envelope); the energy integral is the noisiest of the three.
_ARC_RTOL = {"delay": 5e-2, "out_slew": 5e-2, "energy": 0.35}


def _assert_arcs_close(got, ref):
    for key, arcs in ref["arcs"].items():
        for metric, rows in arcs.items():
            np.testing.assert_allclose(
                got["arcs"][key][metric], rows,
                rtol=_ARC_RTOL[metric], atol=1e-18,
                err_msg=f"{key}.{metric}")


def _require_compiled():
    if not compiled_backend_available():
        pytest.skip("no compiled kernel tier (no working C compiler)")


@pytest.fixture(params=["numpy", "compiled"])
def tier(request):
    """Run the decorated test under each kernel tier in turn."""
    if request.param == "compiled":
        _require_compiled()
    with using_kernels(request.param):
        yield request.param


@pytest.fixture(scope="module")
def family():
    return LogicFamily.default(vdd=0.6)


def _ring_waveforms(family, options=TIGHT):
    ring, nodes = build_ring_oscillator(family, stages=3)
    x0 = initial_conditions_from_op(ring, {"n0": 0.0, "n1": 0.6},
                                    options)
    ds = transient(ring, tstop=6e-11, dt=2e-12, x0=x0, method="be",
                   options=options, record_currents=False)
    return np.stack([ds.trace(f"v({n})") for n in nodes])


class TestResolution:
    def test_numpy_tier_resolves(self):
        backend = resolve_kernel_backend("numpy")
        assert type(backend).__name__ == "NumpyKernelBackend"
        # The reference tier is a process-wide singleton.
        assert resolve_kernel_backend("numpy") is backend

    def test_unknown_spec_raises(self):
        with pytest.raises(ParameterError):
            resolve_kernel_backend("fortran")
        with pytest.raises(ParameterError):
            resolve_kernel_backend(42)

    def test_instance_passes_through(self):
        backend = resolve_kernel_backend("numpy")
        assert resolve_kernel_backend(backend) is backend

    def test_env_forces_numpy_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNELS", "numpy")
        assert type(resolve_kernel_backend(None)).__name__ == \
            "NumpyKernelBackend"
        assert type(resolve_kernel_backend("auto")).__name__ == \
            "NumpyKernelBackend"

    def test_env_ignored_by_explicit_spec(self, monkeypatch):
        _require_compiled()
        monkeypatch.setenv("REPRO_KERNELS", "numpy")
        backend = resolve_kernel_backend("compiled")
        assert type(backend).__name__ != "NumpyKernelBackend"

    def test_using_kernels_restores_active(self):
        before = active_kernel_backend()
        with using_kernels("numpy") as backend:
            assert active_kernel_backend() is backend
        assert active_kernel_backend() is before

    def test_set_kernel_backend_returns_active(self):
        before = active_kernel_backend()
        try:
            assert set_kernel_backend("numpy") is \
                active_kernel_backend()
        finally:
            set_kernel_backend(before)


class TestKernelParity:
    """The compiled loops against the numpy reference, kernel level."""

    def test_stacked_vsc_dense_grid(self):
        _require_compiled()
        devices = [CNFET(default_device_parameters(), model=m)
                   for m in ("model1", "model2")]
        from repro.pwl.batch import StackedVscSolver

        def sweep(spec):
            stacked = StackedVscSolver([d.solver for d in devices])
            hint = np.zeros(stacked.n_lanes)
            rows = []
            with using_kernels(spec):
                for vg in np.linspace(0.0, 0.6, 13):
                    for vd in np.linspace(0.0, 0.6, 13):
                        rows.append(stacked.solve(
                            np.full(stacked.n_lanes, vg),
                            np.full(stacked.n_lanes, vd),
                            hint).copy())
            return np.stack(rows)

        dv = np.max(np.abs(sweep("numpy") - sweep("compiled")))
        assert dv <= KERNEL_PARITY_TOL_V

    def test_triplet_append_bitwise(self):
        _require_compiled()
        rng = np.random.default_rng(3)
        m_idx = rng.integers(0, 120, size=200)
        m_val = rng.standard_normal(200)
        results = []
        for spec in ("numpy", "compiled"):
            out_idx = np.zeros(256, dtype=m_idx.dtype)
            out_val = np.zeros(256)
            kept = resolve_kernel_backend(spec).triplet_append(
                m_idx, m_val, 100, out_idx, out_val, 7)
            results.append((kept, out_idx.copy(), out_val.copy()))
        assert results[0][0] == results[1][0]
        assert np.array_equal(results[0][1], results[1][1])
        assert np.array_equal(results[0][2], results[1][2])

    def test_curve_value_bitwise(self):
        """The compiled charge-curve lookup is the numpy gather bit for
        bit: exact breakpoints, the ``+inf`` pad past a lane's last
        breakpoint, NaN, lane subsets, and lanes whose breakpoint
        counts differ."""
        _require_compiled()
        from repro.pwl.batch import StackedCurves

        curves = [CNFET(default_device_parameters(), model=m).fitted.curve
                  for m in ("model1", "model2", "model1")]
        assert len({len(c.breakpoints) for c in curves}) > 1
        bank = StackedCurves(curves)
        bps = np.concatenate([c.breakpoints for c in curves])
        grid = np.concatenate([np.linspace(-1.5, 1.5, 301), bps,
                               [np.nan, np.inf, -np.inf, 10.0]])
        numpy_tier = resolve_kernel_backend("numpy")
        compiled = resolve_kernel_backend("compiled")
        rng = np.random.default_rng(5)
        idx = rng.integers(0, bank.n_lanes, size=grid.size)
        # inf * 0 in the Horner pass warns; both tiers return NaN there
        with np.errstate(invalid="ignore"):
            for v0 in grid:
                v = np.full(bank.n_lanes, v0)
                assert np.array_equal(numpy_tier.curve_value(bank, v, None),
                                      compiled.curve_value(bank, v, None),
                                      equal_nan=True)
            ref = numpy_tier.curve_value(bank, grid, idx)
            assert np.array_equal(compiled.curve_value(bank, grid, idx),
                                  ref, equal_nan=True)
            with using_kernels("compiled"):
                assert np.array_equal(bank.value(grid, idx=idx), ref,
                                      equal_nan=True)

    def test_scatter_accum_close(self):
        _require_compiled()
        rng = np.random.default_rng(4)
        base = rng.standard_normal(64)
        map_idx = rng.integers(0, 64, size=400)
        values = rng.standard_normal(400)
        outs = [np.asarray(resolve_kernel_backend(spec).scatter_accum(
            base, map_idx, values)) for spec in ("numpy", "compiled")]
        # Accumulation order may differ between the tiers; float noise
        # only.
        np.testing.assert_allclose(outs[0], outs[1], rtol=0, atol=1e-12)


@pytest.mark.slow
class TestEngineParity:
    """DC / transient / batch / characterize under both tiers."""

    def test_dc_parity(self, family, tier):
        ring, _nodes = build_ring_oscillator(family, stages=3)
        x = robust_dc_solve(ring, None, TIGHT, backend="sparse")
        with using_kernels("numpy"):
            ref = robust_dc_solve(ring, None, TIGHT, backend="sparse")
        if tier == "numpy":
            assert np.array_equal(x, ref)
        else:
            np.testing.assert_allclose(x, ref, rtol=0,
                                       atol=WAVEFORM_PARITY_TOL_V)

    def test_transient_parity(self, family, tier):
        waves = _ring_waveforms(family)
        with using_kernels("numpy"):
            ref = _ring_waveforms(family)
        if tier == "numpy":
            # The numpy tier is the historical code verbatim:
            # byte-identical waveforms, not merely close.
            assert np.array_equal(waves, ref)
        else:
            assert np.max(np.abs(waves - ref)) <= WAVEFORM_PARITY_TOL_V

    def test_batch_transient_parity(self, family, tier):
        from repro.circuit.batch_sim import batch_transient

        circuits, all_nodes = [], []
        for _ in range(3):
            ring, nodes = build_ring_oscillator(family, stages=3)
            circuits.append(ring)
            all_nodes.append(nodes)
        x0 = np.zeros((3, circuits[0].dimension()))
        for lane, ring in enumerate(circuits):
            ring.dimension()            # populates the node index
            x0[lane, ring.node_index[all_nodes[lane][1]]] = 0.6

        def run():
            result = batch_transient(circuits, 3e-11, dt=2e-12,
                                     method="be", options=TIGHT,
                                     x0=x0.copy(),
                                     record_currents=False)
            return np.stack([
                np.stack([result[lane].trace(f"v({n})")
                          for n in all_nodes[lane]])
                for lane in range(3)
            ])

        waves = run()
        with using_kernels("numpy"):
            ref = run()
        if tier == "numpy":
            assert np.array_equal(waves, ref)
        else:
            assert np.max(np.abs(waves - ref)) <= WAVEFORM_PARITY_TOL_V

    def test_characterize_parity(self, family, tier):
        from repro.characterize import characterize_gate

        def table():
            result = characterize_gate(
                family, "inverter", loads=(1e-17, 4e-17),
                slews=(1e-12, 4e-12))
            return result.to_json_dict()

        got = table()
        with using_kernels("numpy"):
            ref = table()
        if tier == "numpy":
            assert got == ref
        else:
            _assert_arcs_close(got, ref)


class TestRefactorLane:
    """The frozen-pivot LU refactorization behind ``factorize_csc``."""

    @staticmethod
    def _random_csc(n, rng):
        dense = np.eye(n) * (2.0 + rng.random(n))
        for _ in range(4 * n):
            i, j = rng.integers(0, n, size=2)
            dense[i, j] += rng.standard_normal() * 0.3
        from scipy.sparse import csc_matrix
        matrix = csc_matrix(dense)
        return (matrix.data.copy(), matrix.indices.astype(np.int64),
                matrix.indptr.astype(np.int64), dense)

    def test_replay_matches_direct_solve(self):
        _require_compiled()
        pytest.importorskip("scipy")
        from repro.circuit.solvers import SparseBackend

        rng = np.random.default_rng(11)
        n = 40
        data, indices, indptr, dense = self._random_csc(n, rng)
        rhs = rng.standard_normal(n)
        backend = SparseBackend()
        with using_kernels("compiled"):
            lu = backend.factorize_csc(n, data, indices, indptr)
            assert type(lu).__name__ == "_RefactorLU"
            x = lu.solve(rhs)
            np.testing.assert_allclose(dense @ x, rhs, rtol=0,
                                       atol=1e-9 * np.abs(rhs).max())
            # Same pattern, perturbed values: the numeric replay path
            # (no fresh symbolic factorization).
            refreshes = lu.sym.refreshes
            data2 = data * (1.0 + 1e-3 * rng.standard_normal(data.size))
            lu2 = backend.factorize_csc(n, data2, indices, indptr)
            assert lu2.sym.refreshes == refreshes
            x2 = lu2.solve(rhs)
            dense2 = np.zeros_like(dense)
            for col in range(n):
                dense2[indices[indptr[col]:indptr[col + 1]], col] = \
                    data2[indptr[col]:indptr[col + 1]]
            np.testing.assert_allclose(dense2 @ x2, rhs, rtol=0,
                                       atol=1e-9 * np.abs(rhs).max())

    def test_refresh_rebinds_addresses(self):
        """``refresh`` rebinds every L/U array; the compiled kernels
        must then read and write the new buffers, not the freed ones
        whose addresses were bound before."""
        _require_compiled()
        pytest.importorskip("scipy")
        from scipy.sparse import csc_matrix
        from scipy.sparse.linalg import splu

        from repro.circuit.solvers import SparseBackend

        rng = np.random.default_rng(14)
        n = 30
        data, indices, indptr, _dense = self._random_csc(n, rng)
        rhs = rng.standard_normal(n)
        backend = SparseBackend()

        def reference(values):
            matrix = csc_matrix((values, indices, indptr), shape=(n, n))
            return splu(matrix).solve(rhs)

        with using_kernels("compiled") as kern:
            sym = backend.factorize_csc(n, data, indices, indptr).sym
            kern.lu_solve(sym, rhs)         # binds the first buffers
            data2 = data * (1.0 + 0.5 * rng.standard_normal(data.size))
            sym.refresh(backend._template(n, data2, indices, indptr))
            np.testing.assert_allclose(kern.lu_solve(sym, rhs),
                                       reference(data2), rtol=1e-9,
                                       atol=1e-12)
            data3 = data2 * (1.0 + 1e-3 * rng.standard_normal(data.size))
            assert kern.lu_refactor(sym, data3) == 0
            np.testing.assert_allclose(kern.lu_solve(sym, rhs),
                                       reference(data3), rtol=1e-9,
                                       atol=1e-12)

    def test_numpy_tier_takes_plain_superlu(self):
        pytest.importorskip("scipy")
        from repro.circuit.solvers import SparseBackend

        rng = np.random.default_rng(12)
        n = 20
        data, indices, indptr, dense = self._random_csc(n, rng)
        backend = SparseBackend()
        with using_kernels("numpy"):
            lu = backend.factorize_csc(n, data, indices, indptr)
        assert type(lu).__name__ != "_RefactorLU"
        rhs = rng.standard_normal(n)
        np.testing.assert_allclose(dense @ lu.solve(rhs), rhs, rtol=0,
                                   atol=1e-9 * np.abs(rhs).max())

    def test_singular_matrix_raises_analysis_error(self):
        _require_compiled()
        pytest.importorskip("scipy")
        from repro.circuit.solvers import SparseBackend
        from repro.errors import AnalysisError

        rng = np.random.default_rng(13)
        n = 10
        data, indices, indptr, _dense = self._random_csc(n, rng)
        backend = SparseBackend()
        with using_kernels("compiled"):
            with pytest.raises(AnalysisError):
                backend.factorize_csc(n, np.zeros_like(data), indices,
                                      indptr)


def test_dropped_assembler_is_collected(family):
    """Bound kernel addresses live on their owners: no process-global
    map may keep an assembler, its CNFET slab, its VSC solver or its
    LU symbolics alive after the caller drops them."""
    _require_compiled()
    import gc
    import weakref

    from repro.circuit.logic import build_inverter_chain
    from repro.circuit.mna import TwoPhaseAssembler, newton_solve
    from repro.circuit.solvers import SparseBackend

    circuit, _out = build_inverter_chain(family, 4)
    n = circuit.dimension()
    with using_kernels("compiled"):
        asm = TwoPhaseAssembler(circuit, backend=SparseBackend(),
                                cnfet_slab=True)
        x = newton_solve(circuit, np.zeros(n), assembler=asm)
        newton_solve(circuit, x, analysis="tran", time=1e-12, dt=1e-12,
                     x_prev=x, method="trap", assembler=asm)
    owners = [asm, asm.slab, asm.slab.solver, asm.backend]
    refs = [weakref.ref(obj) for obj in owners]
    del asm, owners
    gc.collect()
    assert [ref() for ref in refs] == [None] * len(refs)


class TestWorkers:
    def test_resolve_workers_specs(self):
        assert resolve_workers(3) == 3
        assert resolve_workers("3") == 3
        auto = resolve_workers(None)
        assert auto == (os.cpu_count() or 1)
        assert resolve_workers(0) == auto
        assert resolve_workers("auto") == auto

    def test_resolve_workers_env_override(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "5")
        assert resolve_workers(None) == 5
        assert resolve_workers("auto") == 5
        assert resolve_workers(2) == 2        # explicit beats env
        monkeypatch.setenv(WORKERS_ENV, "zero")
        with pytest.raises(ParameterError):
            resolve_workers(None)
        monkeypatch.setenv(WORKERS_ENV, "0")
        with pytest.raises(ParameterError):
            resolve_workers(None)

    def test_resolve_workers_rejects_bad_specs(self):
        for bad in (-1, "none", 1.5):
            with pytest.raises(ParameterError):
                resolve_workers(bad)

    def test_fork_map_matches_serial(self):
        items = list(range(23))
        assert fork_map(lambda x: x * x, items, workers=4) == \
            [x * x for x in items]

    def test_fork_map_serial_when_one_worker(self):
        calls = []

        def fn(x):
            calls.append(x)          # visible only when run in-process
            return -x

        assert fork_map(fn, [1, 2, 3], workers=1) == [-1, -2, -3]
        assert calls == [1, 2, 3]

    def test_fork_map_inherits_parent_state(self):
        if "fork" not in __import__("multiprocessing") \
                .get_all_start_methods():
            pytest.skip("no fork on this platform")
        big = np.arange(1000)

        def fn(i):
            return int(big[i])       # closure over parent memory

        assert fork_map(fn, [0, 500, 999], workers=2) == [0, 500, 999]

    def test_fork_map_propagates_exceptions(self):
        def fn(x):
            if x == 2:
                raise ValueError("boom")
            return x

        with pytest.raises(ValueError):
            fork_map(fn, [1, 2, 3], workers=2)

    def test_nested_fork_map_degrades_to_serial(self):
        def inner(x):
            return x + 1

        def outer(xs):
            return fork_map(inner, xs, workers=4)

        assert fork_map(outer, [[1, 2], [3]], workers=2) == \
            [[2, 3], [4]]


@pytest.mark.slow
class TestShardedCampaign:
    def test_campaign_workers_match_serial(self, tmp_path):
        from repro.variability.campaign import (
            Campaign,
            CampaignConfig,
            DeviceMetricsEvaluator,
        )
        from repro.variability.params import default_device_space

        space = default_device_space()
        config = CampaignConfig(name="t", n_samples=32, seed=5,
                                sampler="mc", chunk_size=8)

        serial = Campaign(config, space,
                          DeviceMetricsEvaluator(space)).run(workers=1)
        sharded_dir = tmp_path / "run"
        sharded = Campaign(config, space, DeviceMetricsEvaluator(space),
                           run_dir=sharded_dir).run(workers=2)
        assert len(serial.records) == len(sharded.records) == 32
        for a, b in zip(serial.records, sharded.records):
            for metric, value in a["metrics"].items():
                # Forked chunks build their own evaluator memo, so
                # identical devices may converge from different warm
                # starts — float noise, not a numerics change.
                assert value == pytest.approx(b["metrics"][metric],
                                              rel=1e-9)
        # The sharded run dir must stay resume-compatible.
        resumed = Campaign(config, space, DeviceMetricsEvaluator(space),
                           run_dir=sharded_dir).run(workers=2)
        assert resumed.resumed_chunks == 4
        assert resumed.computed_chunks == 0

    def test_characterize_tiles_match_single_batch(self, family):
        from repro.characterize import characterize_gate

        tables = [
            characterize_gate(family, "inverter", loads=(1e-17, 4e-17),
                              slews=(1e-12, 4e-12),
                              workers=workers).to_json_dict()
            for workers in (1, 2)
        ]
        # Each tile computes its own shared pulse envelope: agreement
        # is within the LTE tolerance of the transients, the
        # batch-vs-scalar contract.
        _assert_arcs_close(tables[1], tables[0])
