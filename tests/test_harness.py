import math

import numpy as np
import pytest

from excomp import dgeom, harness
from excomp.errors import CoverageError, DomainError
from excomp.harness import FAIL, INCONCLUSIVE, PASS, QuotientCurve, Study
from excomp.modelspace import ModelSpace, WarpingSpec


def flat_model():
    return ModelSpace(2, WarpingSpec.space_form(0.0))


def sinh_model():
    return ModelSpace(2, WarpingSpec.space_form(-1.0))


class TestQuotientCurves:
    def test_plane_both_one(self, plane_256):
        curve = harness.quotient_curves(plane_256, flat_model(), np.linspace(0.5, 3, 6))
        assert np.allclose(curve.vol_quot, 1.0, atol=5e-3)
        assert np.allclose(curve.flux_quot, 1.0, atol=5e-3)

    def test_model_dimension_gate(self, plane_128):
        with pytest.raises(DomainError):
            harness.quotient_curves(plane_128, ModelSpace(3, WarpingSpec.space_form(0.0)),
                                    np.linspace(0.5, 3, 4))

    def test_catenoid_volume_increasing_toward_two(self, catenoid_96):
        curve = harness.quotient_curves(catenoid_96, flat_model(), np.linspace(2, 20, 10))
        assert curve.vol_quot[0] > 1.0
        assert np.all(np.diff(curve.vol_quot) > -1e-6)
        assert curve.vol_quot[-1] == pytest.approx(1.9485, rel=0.02)

    @pytest.mark.parametrize("grid,error", [
        ([3.0, 3.2, 4.0], "radius 3.2 outside"),  # the sphere's Lambda = pi comes first
        ([3.0, 4.0], "intrudes"),  # at 4, the ball leaks before the model is asked
    ])
    def test_the_first_failing_radius_names_the_error(self, plane_128, grid, error):
        # the plane's window ends at r = 3.52
        with pytest.raises(DomainError if "outside" in error else CoverageError, match=error):
            harness.quotient_curves(plane_128, ModelSpace(2, WarpingSpec.space_form(1.0)),
                                    np.array(grid))


class TestStudy:
    def test_capacity_computed_once(self, plane_128):
        study = Study(plane_128, flat_model())
        cap = study.capacity(1.0, 2.0, "reflect")
        assert study.capacity(1.0, 2.0, "reflect") is cap
        assert study.capacity(1.0, 2.5, "reflect") is not cap

    def test_gates_shared_between_checks(self, plane_128):
        study = Study(plane_128, flat_model())
        capacity = harness.verify_capacity_sandwich(study, 1.0, 2.0)
        exit_time = harness.exit_time_comparison(study, 2.0)
        assert capacity[0] is exit_time[0] and capacity[1] is exit_time[1]


class TestVerifyIsoperimetric:
    def test_plane_passes_with_tiny_margins(self, plane_128):
        curve = harness.quotient_curves(plane_128, flat_model(), np.linspace(0.5, 3, 6))
        checks = harness.verify_isoperimetric(curve)
        assert all(c.verdict == PASS for c in checks)

    def test_tampered_curve_fails_at_that_radius(self):
        grid = np.linspace(1, 5, 5)
        vol = np.array([1.0, 1.1, 1.2, 1.3, 1.4])
        flx = vol.copy()
        flx[2] = 0.9  # tamper: flux quotient pulled below the volume quotient
        checks = harness.verify_isoperimetric(QuotientCurve(grid, vol, flx))
        ordering = [c for c in checks if c.check_id == "isoperimetric.ordering"][0]
        assert ordering.verdict == FAIL
        assert "R=3" in ordering.notes
        mono = [c for c in checks if c.check_id == "isoperimetric.monotone.flux"][0]
        assert mono.verdict == FAIL


class TestCapacitySandwich:
    def test_plane_flat_model_passes(self, plane_256):
        checks = harness.verify_capacity_sandwich(Study(plane_256, flat_model()), 1.0, math.e)
        verdicts = {c.check_id: c.verdict for c in checks}
        assert verdicts["capacity.lower"] == PASS
        assert verdicts["capacity.upper"] == PASS

    def test_hyperbolic_model_gated_inconclusive(self, plane_128):
        # K_N = 0 > -w''/w = -1: the curvature hypothesis fails, so the
        # check must be inconclusive, never pass
        checks = harness.verify_capacity_sandwich(Study(plane_128, sinh_model()), 1.0, 2.0)
        verdicts = {c.check_id: c.verdict for c in checks}
        assert verdicts["gate.curvature_bound"] == INCONCLUSIVE
        assert verdicts["capacity.sandwich"] == INCONCLUSIVE
        assert all(c.verdict != FAIL for c in checks)

    def test_catenoid_ratio_between_flux_quotients(self, catenoid_192):
        checks = harness.verify_capacity_sandwich(Study(catenoid_192, flat_model()), 1.5, 6.0)
        assert all(c.verdict == PASS for c in checks)


class TestEuclideanSandwich:
    def test_plane(self, plane_256):
        checks = harness.verify_euclidean_sandwich(Study(plane_256, flat_model()), 1.0, math.e)
        assert all(c.verdict == PASS for c in checks)

    def test_catenoid(self, catenoid_192):
        checks = harness.verify_euclidean_sandwich(Study(catenoid_192, flat_model()), 1.5, 8.0)
        assert all(c.verdict == PASS for c in checks)


class TestExitTimeComparison:
    def test_plane_equality_case(self, plane_256):
        checks = harness.exit_time_comparison(Study(plane_256, flat_model()), 2.0)
        verdicts = {c.check_id: c.verdict for c in checks}
        assert verdicts["exit_time.domination"] == PASS
        assert verdicts["exit_time.equality_case"] == PASS

    def test_catenoid_domination(self, catenoid_192):
        checks = harness.exit_time_comparison(Study(catenoid_192, flat_model()), 6.0)
        verdicts = {c.check_id: c.verdict for c in checks}
        assert verdicts["exit_time.domination"] == PASS
        # growing quotients: the equality proxy must not trigger
        assert verdicts["exit_time.equality_case"] == INCONCLUSIVE


class TestEndsBound:
    def test_plane_formula_value(self, plane_128):
        # (2/(1 - R/t))^2 with R=1, t=10 and quotients at 1
        report = harness.ends_bound(Study(plane_128, flat_model()), 1.0, 3.0)
        assert report.count == 1
        bound_check = [c for c in report.checks if c.check_id == "ends.bound"][0]
        assert bound_check.verdict == PASS
        expected = (2.0 / (1.0 - 1.0 / 3.0)) ** 2  # coefficient factor is 1 for w=r
        assert report.bound == pytest.approx(expected, rel=0.01)

    def test_catenoid(self, catenoid_96):
        curve = harness.quotient_curves(catenoid_96, flat_model(), np.linspace(2, 20, 10))
        report = harness.ends_bound(Study(catenoid_96, flat_model()), 2.0, 20.0, curve=curve)
        assert report.count == 2
        assert report.bound >= 2.0
        assert report.asymptotic_bound == pytest.approx(4.0 * 1.0 * curve.w_volume_estimate(),
                                                        rel=1e-6)
        assert report.asymptotic_bound_unit_constant == pytest.approx(
            report.asymptotic_bound / 4.0, rel=1e-12)

    def test_gate_failure_inconclusive(self, plane_128):
        # w = sin has w' < 0 past pi/2: hypothesis gate must trip
        model = ModelSpace(2, WarpingSpec.custom("sin(r)", lam=math.pi))
        report = harness.ends_bound(Study(plane_128, model), 1.0, 3.0)
        assert any(c.verdict == INCONCLUSIVE for c in report.checks)
        assert all(c.verdict != FAIL for c in report.checks)

    def test_needs_t_beyond_R(self, plane_128):
        with pytest.raises(DomainError):
            harness.ends_bound(Study(plane_128, flat_model()), 2.0, 2.0)


class TestToneReport:
    def test_model_only_sinh(self):
        report = harness.tone_report(Study(None, sinh_model()), 1.0, np.linspace(0.5, 30, 100))
        assert report.upper == pytest.approx(1.0, abs=1e-3)
        assert report.lower == pytest.approx(0.25, abs=1e-6)
        assert report.end_factor == 1.0

    def test_model_only_flat(self):
        report = harness.tone_report(Study(None, flat_model()), 1.0, np.linspace(0.5, 30, 100))
        assert report.upper == 0.0
        assert report.lower == 0.0

    def test_catenoid_flat(self, catenoid_96):
        report = harness.tone_report(Study(catenoid_96, flat_model()), 2.0,
                                     np.linspace(2, 20, 10))
        assert report.upper == 0.0
        assert report.lower == 0.0
        assert len(report.end_factors) == 2  # one factor per end
        lams = [lam for _, lam in report.eigenvalues]
        assert all(b <= a * 1.02 for a, b in zip(lams, lams[1:]))
        assert all(c.verdict == PASS for c in report.checks)

    def test_eigenvalue_lus_run_with_the_radial_index_released(self, monkeypatch, catenoid_96):
        # the end-restricted curves build an index; the LUs must not hold it
        held = []
        real = dgeom.splu

        def watched(*args, **kwargs):
            held.append(catenoid_96.radial_index_memo is not None)
            return real(*args, **kwargs)
        monkeypatch.setattr(dgeom, "splu", watched)
        report = harness.tone_report(Study(catenoid_96, flat_model()), 2.0,
                                     np.linspace(2, 20, 10))
        assert len(report.end_factors) == 2
        assert held == [False] * 4


class TestVolumeFluxTail:
    def test_plane_passes(self, plane_128):
        curve = harness.quotient_curves(plane_128, flat_model(), np.linspace(0.5, 3, 8))
        assert harness.volume_flux_tail(curve).verdict == PASS

    def test_catenoid_passes(self, catenoid_96):
        curve = harness.quotient_curves(catenoid_96, flat_model(), np.linspace(2, 20, 10))
        check = harness.volume_flux_tail(curve)
        assert check.verdict == PASS
        assert check.margin <= 0.01

    def test_divergent_curve_inconclusive(self):
        grid = np.linspace(1, 10, 10)
        vol = np.exp(grid)  # diverging volume quotient
        check = harness.volume_flux_tail(QuotientCurve(grid, vol, vol.copy()))
        assert check.verdict == INCONCLUSIVE


class TestReport:
    def test_json_is_strict_and_deterministic(self, plane_128):
        import json
        curve = harness.quotient_curves(plane_128, flat_model(), np.linspace(0.5, 3, 5))
        rep = harness.VerificationReport(harness.verify_isoperimetric(curve),
                                         scalars={"inf_value": math.inf})
        text1 = rep.to_json()
        text2 = rep.to_json()
        assert text1 == text2
        parsed = json.loads(text1)  # strict JSON (Infinity encoded as a string)
        assert parsed["scalars"]["inf_value"] == "inf"
