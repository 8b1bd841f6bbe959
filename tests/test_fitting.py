"""Piecewise charge fitting (paper §IV)."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.pwl.fitting import FitSpec, fit_piecewise_charge
from repro.pwl.model1 import MODEL1_SPEC, build_model1
from repro.pwl.model2 import MODEL2_SPEC, build_model2


class TestFitSpec:
    def test_free_parameter_counts_match_paper(self):
        assert MODEL1_SPEC.free_parameters == 1
        assert MODEL2_SPEC.free_parameters == 3

    @pytest.mark.parametrize("kwargs", [
        dict(orders=(1,), boundaries_rel=()),
        dict(orders=(1, 2, 1), boundaries_rel=(-0.1, 0.1)),  # last not 0
        dict(orders=(4, 0), boundaries_rel=(0.0,)),          # order > 3
        dict(orders=(1, 2, 0), boundaries_rel=(0.1, -0.1)),  # not ascending
        dict(orders=(1, 2, 0), boundaries_rel=(-0.1,)),      # wrong count
        dict(orders=(1, 2, 0), boundaries_rel=(-0.7, 0.1)),  # outside window
        dict(orders=(1, 2, 0), boundaries_rel=(-0.1, 0.1), samples=10),
        dict(orders=(1, 2, 0), boundaries_rel=(-0.1, 0.1),
             weighting="bogus"),
    ])
    def test_validation(self, kwargs):
        kwargs.setdefault("window_rel", (-0.6, 0.32))
        with pytest.raises(ParameterError):
            FitSpec(**kwargs)


class TestFitQuality:
    def test_model1_charge_rms(self, charge300):
        fitted = build_model1(charge300)
        assert fitted.rms_error_relative < 0.10

    def test_model2_charge_rms(self, charge300):
        fitted = build_model2(charge300)
        assert fitted.rms_error_relative < 0.02

    def test_model2_beats_model1(self, charge300):
        f1 = build_model1(charge300)
        f2 = build_model2(charge300)
        assert f2.rms_error < f1.rms_error

    def test_c1_continuity_exact(self, charge300):
        for fitted in (build_model1(charge300), build_model2(charge300)):
            peak = float(np.max(np.abs(
                fitted.curve.value(np.linspace(-0.7, 0.0, 50))
            )))
            for dv, ds in fitted.curve.continuity_defects():
                assert dv < 1e-12 * peak
                assert ds < 1e-10 * peak

    def test_boundaries_at_paper_positions_without_optimisation(
            self, charge300):
        fitted = fit_piecewise_charge(charge300, MODEL2_SPEC,
                                      optimize_boundaries=False)
        rel = [b - charge300.fermi_level_ev
               for b in fitted.boundaries_abs]
        np.testing.assert_allclose(rel, [-0.28, -0.03, 0.12], atol=1e-12)

    def test_optimisation_does_not_hurt(self, charge300):
        plain = fit_piecewise_charge(charge300, MODEL2_SPEC,
                                     optimize_boundaries=False)
        tuned = fit_piecewise_charge(charge300, MODEL2_SPEC,
                                     optimize_boundaries=True)
        assert tuned.rms_error <= plain.rms_error * 1.001

    def test_leftmost_region_is_linear(self, charge300):
        fitted = build_model2(charge300)
        assert len(fitted.curve.coefficients[0]) == 2

    def test_rightmost_region_is_saturation_constant(self, charge300):
        from repro.constants import ELEMENTARY_CHARGE

        fitted = build_model2(charge300)
        tail = fitted.curve.coefficients[-1]
        assert len(tail) == 1
        expected = -0.5 * ELEMENTARY_CHARGE * charge300.n_equilibrium()
        assert tail[0] == pytest.approx(expected, rel=1e-9)

    def test_zero_tail_option(self, charge300):
        fitted = fit_piecewise_charge(charge300, MODEL2_SPEC, tail="zero")
        assert fitted.curve.coefficients[-1] == (0.0,)

    def test_invalid_tail(self, charge300):
        with pytest.raises(ParameterError):
            fit_piecewise_charge(charge300, MODEL2_SPEC, tail="soft")


class TestSyntheticCurves:
    def test_exact_recovery_of_representable_curve(self, charge300):
        """Fitting a curve that IS a C1 piecewise quadratic of the same
        layout must recover it (near) exactly."""
        ef = charge300.fermi_level_ev
        b1, b2 = ef - 0.08, ef + 0.08

        def synthetic(x):
            x = np.asarray(x, dtype=float)
            quad = 2e-9 * (x - b2) ** 2
            line = (2e-9 * (b1 - b2) ** 2
                    + 2 * 2e-9 * (b1 - b2) * (x - b1))
            return np.where(x > b2, 0.0, np.where(x > b1, quad, line))

        spec = FitSpec(orders=(1, 2, 0), boundaries_rel=(-0.08, 0.08),
                       window_rel=(-0.3, 0.3), name="synthetic",
                       weighting="uniform")
        fitted = fit_piecewise_charge(charge300, spec,
                                      theoretical=synthetic, tail="zero")
        assert fitted.rms_error_relative < 1e-10

    def test_rejects_zero_curve(self, charge300):
        spec = FitSpec(orders=(1, 2, 0), boundaries_rel=(-0.08, 0.08),
                       window_rel=(-0.3, 0.3))
        from repro.errors import FittingError

        with pytest.raises(FittingError):
            fit_piecewise_charge(
                charge300, spec,
                theoretical=lambda x: np.zeros_like(np.asarray(x)),
            )

    def test_rejects_nonfinite_curve(self, charge300):
        spec = FitSpec(orders=(1, 2, 0), boundaries_rel=(-0.08, 0.08),
                       window_rel=(-0.3, 0.3))
        from repro.errors import FittingError

        with pytest.raises(FittingError):
            fit_piecewise_charge(
                charge300, spec,
                theoretical=lambda x: np.full_like(np.asarray(x), np.nan),
            )

    def test_all_linear_spec_has_no_free_parameters(self, charge300):
        from repro.errors import FittingError

        spec = FitSpec(orders=(1, 0), boundaries_rel=(0.0,),
                       window_rel=(-0.3, 0.3))
        with pytest.raises(FittingError):
            fit_piecewise_charge(charge300, spec)


class TestAcrossConditions:
    @pytest.mark.parametrize("temperature", [150.0, 450.0])
    @pytest.mark.parametrize("fermi", [-0.5, 0.0])
    def test_fit_succeeds_over_paper_ranges(self, temperature, fermi):
        """The paper fits over 150-450 K and -0.5..0 eV."""
        from repro.reference.fettoy import FETToyModel, FETToyParameters

        model = FETToyModel(FETToyParameters(
            temperature_k=temperature, fermi_level_ev=fermi,
        ))
        fitted = build_model2(model.charge)
        assert fitted.rms_error_relative < 0.05


def test_engine_import_leaves_scipy_optimize_unloaded():
    """Only boundary optimisation needs ``scipy.optimize`` (~0.35 s of
    cold start), so importing the engine must not load it."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r})\n"
        "import repro.circuit.transient, repro.circuit.batch_sim\n"
        "import repro.variability.campaign, repro.circuit.logic\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.split('.')[:2] == ['scipy', 'optimize']))\n"
    )
    out = subprocess.run([sys.executable, "-c", code],
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
