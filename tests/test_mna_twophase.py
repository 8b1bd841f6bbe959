"""Two-phase assembly must reproduce the one-phase companion system.

The static/dynamic split is an implementation detail of the Newton
loop: for any circuit and any iterate, copying the static stamps and
re-stamping only the nonlinear elements must produce the same matrix
and right-hand side as stamping everything from scratch (up to
summation-order rounding).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.circuit import (
    Capacitor,
    Circuit,
    CNFETElement,
    CurrentSource,
    Diode,
    Inductor,
    Resistor,
    VoltageSource,
    dc_sweep,
    transient,
)
from repro.circuit.logic import LogicFamily, build_ring_oscillator
from repro.circuit.mna import TwoPhaseAssembler, assemble
from repro.circuit.transient import initial_conditions_from_op
from repro.circuit.waveforms import DC as DCWave
from repro.circuit.waveforms import Pulse, PWLWaveform
from repro.errors import AnalysisError
from repro.experiments.workloads import default_device_parameters
from repro.pwl.device import CNFET


def _mixed_circuit() -> Circuit:
    c = Circuit("mixed linear/nonlinear")
    c.add(VoltageSource("vdd", "vdd", "0", 0.6))
    c.add(VoltageSource("vin", "in", "0", 0.25))
    c.add(Resistor("r1", "vdd", "out", 2e5))
    c.add(Capacitor("cl", "out", "0", 1e-15))
    c.add(Diode("d1", "out", "0"))
    c.add(CNFETElement("q1", "out", "in", "0",
                       device=CNFET(default_device_parameters())))
    return c


class TestAssemblyEquivalence:
    @pytest.mark.parametrize("analysis,kwargs", [
        ("dc", {}),
        ("tran", {"time": 1e-12, "dt": 1e-12, "method": "be"}),
        ("tran", {"time": 1e-12, "dt": 1e-12, "method": "trap"}),
    ])
    def test_matches_one_phase(self, analysis, kwargs):
        c = _mixed_circuit()
        n = c.dimension()
        rng = np.random.default_rng(7)
        x = 0.3 * rng.standard_normal(n)
        x_prev = 0.3 * rng.standard_normal(n) if analysis == "tran" \
            else None
        ref = assemble(c, x, analysis=analysis, x_prev=x_prev, **kwargs)
        asm = TwoPhaseAssembler(c)
        asm.begin_step(analysis=analysis, x_prev=x_prev, **kwargs)
        got = asm.iterate(x)
        np.testing.assert_allclose(got.matrix, ref.matrix, rtol=1e-12,
                                   atol=1e-30)
        np.testing.assert_allclose(got.rhs, ref.rhs, rtol=1e-12,
                                   atol=1e-30)

    def test_iterate_is_repeatable(self):
        """Re-iterating at the same x must not accumulate stamps."""
        c = _mixed_circuit()
        x = np.zeros(c.dimension())
        asm = TwoPhaseAssembler(c)
        asm.begin_step()
        first = asm.iterate(x)
        m1 = first.matrix.copy()
        z1 = first.rhs.copy()
        second = asm.iterate(x)
        np.testing.assert_array_equal(second.matrix, m1)
        np.testing.assert_array_equal(second.rhs, z1)

    def test_iterate_before_begin_rejected(self):
        c = _mixed_circuit()
        with pytest.raises(AnalysisError):
            TwoPhaseAssembler(c).iterate(np.zeros(c.dimension()))

    def test_source_scale_applies_to_static_phase(self):
        c = _mixed_circuit()
        asm = TwoPhaseAssembler(c)
        asm.begin_step(source_scale=0.5)
        half = asm.iterate(np.zeros(c.dimension())).rhs.copy()
        asm.begin_step(source_scale=1.0)
        full = asm.iterate(np.zeros(c.dimension())).rhs.copy()
        vdd = c.element("vdd")
        assert half[vdd.aux_index] == pytest.approx(
            0.5 * full[vdd.aux_index])


class TestEndToEndConsistency:
    def test_dc_sweep_reuses_buffers(self):
        """A sweep with the shared assembler equals fresh solves."""
        c = _mixed_circuit()
        values = np.linspace(0.0, 0.6, 7)
        ds = dc_sweep(c, "vin", values)
        from repro.circuit import operating_point
        from repro.circuit.waveforms import DC as DCWave

        vin = c.element("vin")
        original = vin.waveform
        try:
            for k, v in enumerate(values):
                vin.waveform = DCWave(float(v))
                op = operating_point(c)
                assert ds.voltage("out")[k] == pytest.approx(
                    op.voltage("out"), abs=1e-9)
        finally:
            vin.waveform = original

    def test_ring_oscillator_waveforms_stable(self):
        """The two-phase engine + analytic charge partials keep the
        ring-oscillator waveform (regression guard for the perf PR)."""
        family = LogicFamily.default(vdd=0.6)
        ring, _ = build_ring_oscillator(family, stages=3)
        x0 = initial_conditions_from_op(ring, {"n0": 0.0, "n1": 0.6})
        ds = transient(ring, tstop=6e-11, dt=2e-12, x0=x0, method="be")
        swing = ds.swing("v(n0)")
        assert swing > 0.2
        # Current traces exist and are finite (vectorized post-pass).
        for name in ds.names:
            assert np.all(np.isfinite(ds.trace(name)))


# ----------------------------------------------------------------------
# Array-stamped static phase vs the per-element loop
# ----------------------------------------------------------------------

_NODES = ("0", "n1", "n2", "n3", "n4")


@st.composite
def _waveforms(draw):
    level = st.floats(-1.0, 1.0, allow_nan=False)
    kind = draw(st.sampled_from(("dc", "pulse", "pwl")))
    if kind == "dc":
        return DCWave(draw(level))
    if kind == "pulse":
        return Pulse(v1=draw(level), v2=draw(level), delay=1e-12,
                     rise=2e-12, fall=2e-12, width=5e-12, period=2e-11)
    times = sorted(draw(st.lists(st.floats(0.0, 3e-11), min_size=2,
                                 max_size=4, unique=True)))
    return PWLWaveform(tuple((t, draw(level)) for t in times))


@st.composite
def _linear_circuits(draw):
    """Sources, resistors and capacitors between random node pairs,
    grounded and floating.  The assembled static systems are compared
    entry for entry, never solved, so well-posedness is not needed."""
    c = Circuit("generated linear")
    c.add(Resistor("rg", "n1", "0", 1e3))  # the ground reference
    count = draw(st.integers(1, 9))
    for k in range(count):
        a, b = draw(st.lists(st.sampled_from(_NODES), min_size=2,
                             max_size=2, unique=True))
        kind = draw(st.sampled_from(("v", "i", "r", "c")))
        if kind == "v":
            c.add(VoltageSource(f"v{k}", a, b, draw(_waveforms())))
        elif kind == "i":
            c.add(CurrentSource(f"i{k}", a, b, draw(_waveforms())))
        elif kind == "r":
            c.add(Resistor(f"r{k}", a, b, draw(st.floats(1.0, 1e6))))
        else:
            c.add(Capacitor(f"c{k}", a, b, draw(st.floats(1e-16, 1e-12))))
    return c


def _static_system(asm):
    """The static phase exactly as the next Newton iteration sees it."""
    if asm.backend.is_sparse:
        flat, val = asm._static_ctx.triplets()
        return flat.copy(), val.copy(), asm._static_ctx.rhs.copy()
    return asm._static_matrix.copy(), asm._static_rhs.copy()


class TestArrayStampedStatics:
    """``TwoPhaseAssembler`` stamps plain sources, resistors and
    capacitors from index templates; the result must be bit-identical
    to the per-element loop it replaces (same triplet order, so every
    later scatter sums in the same order)."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(circuit=_linear_circuits(), backend=st.sampled_from(
        ("sparse", "dense")), seed=st.integers(0, 2**16))
    def test_templates_match_element_loop(self, circuit, backend, seed):
        rng = np.random.default_rng(seed)
        n = circuit.dimension()
        templated = TwoPhaseAssembler(circuit, backend=backend)
        looped = TwoPhaseAssembler(circuit, backend=backend)
        assert templated._linear is not None
        looped._linear = None
        caps = [el for el in circuit.elements if isinstance(el, Capacitor)]
        steps = [
            dict(analysis="dc"),
            dict(analysis="dc", source_scale=0.4),
            dict(analysis="tran", time=3e-12, dt=1e-12, method="be",
                 x_prev=rng.standard_normal(n)),
            dict(analysis="tran", time=7e-12, dt=5e-13, method="trap",
                 x_prev=rng.standard_normal(n), source_scale=0.7),
            dict(analysis="tran", time=0.0, dt=1e-12, method="trap"),
        ]
        for step in steps:
            for cap in caps:
                cap._i_prev = float(rng.standard_normal())
            templated.begin_step(**step)
            looped.begin_step(**step)
            for got, want in zip(_static_system(templated),
                                 _static_system(looped)):
                assert got.dtype == want.dtype
                assert np.array_equal(got, want)

    def test_other_static_types_take_the_loop(self):
        class MyResistor(Resistor):
            pass

        for extra in (Inductor("l1", "n1", "0", 1e-9),
                      MyResistor("rx", "n1", "0", 1e3)):
            c = _mixed_circuit()
            c.add(extra)
            asm = TwoPhaseAssembler(c)
            assert asm._linear is None
            x = np.zeros(c.dimension())
            asm.begin_step(analysis="tran", time=1e-12, dt=1e-12,
                           x_prev=x, method="be")
            ref = assemble(c, x, analysis="tran", time=1e-12, dt=1e-12,
                           x_prev=x, method="be")
            got = asm.iterate(x)
            np.testing.assert_allclose(got.matrix, ref.matrix,
                                       rtol=1e-12, atol=1e-30)
            np.testing.assert_allclose(got.rhs, ref.rhs, rtol=1e-12,
                                       atol=1e-30)

    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    def test_dc_sweep_and_transient_equal_loop(self, backend,
                                               monkeypatch):
        """``dc_sweep`` swaps the swept source's waveform object per
        point; the templates read source values at stamp time, so the
        sweep (and a pulsed trapezoidal transient) equals the loop's
        bit for bit."""
        from repro.circuit.mna import _LinearStamps

        def run():
            c = _mixed_circuit()
            sweep = dc_sweep(c, "vin", np.linspace(0.0, 0.6, 7),
                             backend=backend)
            c.element("vin").waveform = Pulse(
                v1=0.0, v2=0.6, delay=2e-12, rise=1e-12, fall=1e-12,
                width=4e-12, period=1.0)
            tran = transient(c, tstop=1.2e-11, dt=1e-12, method="trap",
                             backend=backend)
            return [sweep.trace(name) for name in sweep.names] + \
                [tran.trace(name) for name in tran.names]

        templated = run()
        monkeypatch.setattr(_LinearStamps, "TYPES", ())
        looped = run()
        assert len(templated) == len(looped)
        for got, want in zip(templated, looped):
            assert np.array_equal(got, want)
