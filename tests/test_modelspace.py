import math

import numpy as np
import pytest
from scipy import integrate

from excomp import modelspace
from excomp.errors import DomainError
from excomp.modelspace import ModelSpace, QuadratureConfig, WarpingSpec, _cumulative_trapezoid


def flat(m=2):
    return ModelSpace(m, WarpingSpec.space_form(0.0))


def hyperbolic(m=2, b=-1.0):
    return ModelSpace(m, WarpingSpec.space_form(b))


def custom(src, m=2, lam=math.inf):
    return ModelSpace(m, WarpingSpec.custom(src, lam=lam))


class TestWarpingSpec:
    def test_space_form_normalization(self):
        for b in (0.0, -1.0, -2.0, 1.0):
            w = WarpingSpec.space_form(b)
            assert w.w(0.0) == 0.0
            assert w.dw(0.0) == 1.0

    @pytest.mark.parametrize("b", [0.0, 1.0, -1.0, -0.3, 4.0])
    def test_space_form_values_are_the_closed_forms_bit_for_bit(self, b):
        def saturating(f, x):
            try:
                return f(x)
            except OverflowError:
                return math.inf

        w = WarpingSpec.space_form(b)
        a = math.sqrt(abs(b))
        rs = np.concatenate([[0.0], np.geomspace(1e-300, 1e300, 601), np.linspace(0, 1e3, 1001)])
        for r in map(float, rs):
            if b == 0:
                want = (r, 1.0, 0.0)
            elif b < 0:
                w_r = saturating(math.sinh, a * r) / a
                want = (w_r, saturating(math.cosh, a * r), -b * w_r)
            else:
                w_r = math.sin(a * r) / a
                want = (w_r, math.cos(a * r), -b * w_r)
            assert repr((w.w(r), w.dw(r), w.d2w(r))) == repr(want), r

    def test_custom_normalization_enforced(self):
        with pytest.raises(DomainError):
            WarpingSpec.custom("r + 1")  # w(0) != 0
        with pytest.raises(DomainError):
            WarpingSpec.custom("2*r")  # w'(0) != 1

    def test_custom_positivity_enforced(self):
        with pytest.raises(DomainError):
            WarpingSpec.custom("sin(r)")  # vanishes at pi inside default Lambda
        WarpingSpec.custom("sin(r)", lam=math.pi)  # fine with the right bound

    def test_positive_curvature_domain(self):
        w = WarpingSpec.space_form(4.0)
        assert w.lam == pytest.approx(math.pi / 2)

    def test_dimension_validated(self):
        with pytest.raises(DomainError):
            ModelSpace(1, WarpingSpec.space_form(0.0))

    def test_unit_sphere_measures(self):
        assert flat(2).V0 == pytest.approx(2 * math.pi, rel=1e-15)
        assert flat(3).V0 == pytest.approx(4 * math.pi, rel=1e-15)


class TestEta:
    def test_flat(self):
        assert flat().eta(4.0) == 0.25

    def test_coth(self):
        assert hyperbolic().eta(1.0) == pytest.approx(1.3130352854993312, rel=1e-12)

    def test_sin_at_half_pi(self):
        ms = ModelSpace(2, WarpingSpec.space_form(1.0))
        assert abs(ms.eta(math.pi / 2)) < 1e-12

    def test_series_fallback_near_zero(self):
        ms = hyperbolic()
        r = 1e-9
        assert ms.eta(r) == pytest.approx(1.0 / r, rel=1e-6)

    def test_domain(self):
        with pytest.raises(DomainError):
            flat().eta(0.0)
        with pytest.raises(DomainError):
            ModelSpace(2, WarpingSpec.space_form(1.0)).eta(4.0)  # beyond pi


class TestVolumes:
    def test_sphere_flat(self):
        assert flat(2).vol_sphere(3.0) == pytest.approx(6 * math.pi, rel=1e-14)
        assert flat(3).vol_sphere(2.0) == pytest.approx(16 * math.pi, rel=1e-14)

    def test_sphere_sinh(self):
        assert hyperbolic().vol_sphere(1.0) == pytest.approx(
            2 * math.pi * math.sinh(1.0), rel=1e-14)
        assert hyperbolic().vol_sphere(1.0) == pytest.approx(7.384006872882645, rel=1e-13)

    def test_ball_flat(self):
        assert flat(2).vol_ball(2.0) == pytest.approx(4 * math.pi, rel=1e-14)
        assert flat(3).vol_ball(1.0) == pytest.approx(4 * math.pi / 3, rel=1e-14)

    def test_ball_sinh_closed_form(self):
        # analytic antiderivative: 2 pi (cosh r - 1)
        assert hyperbolic().vol_ball(1.0) == pytest.approx(
            2 * math.pi * (math.cosh(1.0) - 1.0), rel=1e-14)
        assert hyperbolic().vol_ball(1.0) == pytest.approx(3.412276265284902, rel=1e-13)

    def test_custom_ball_matches_quadrature_oracle(self):
        ms = custom("sinh(r)")
        oracle, _ = integrate.quad(lambda t: 2 * math.pi * math.sinh(t), 0, 1.5)
        assert ms.vol_ball(1.5) == pytest.approx(oracle, rel=1e-10)

    def test_ball_derivative_is_sphere(self):
        # d/dr volB = volS by finite differences
        for ms in (flat(2), hyperbolic(3), custom("r + r^3/6")):
            for r in (0.8, 2.1):
                h = 1e-6
                fd = (ms.vol_ball(r + h) - ms.vol_ball(r - h)) / (2 * h)
                assert fd == pytest.approx(ms.vol_sphere(r), rel=1e-6)


class TestIsoQuotient:
    def test_flat_is_r_over_m(self):
        assert flat(2).iso_quotient(4.0) == pytest.approx(2.0, rel=1e-14)

    def test_vanishes_at_zero(self):
        assert flat(2).iso_quotient(1e-12) < 1e-11

    def test_sinh_tends_to_one(self):
        assert hyperbolic().iso_quotient(20.0) == pytest.approx(1.0, abs=1e-6)


class TestBalance:
    def test_flat_equality_case(self):
        # q * eta is identically 1/m for w = r
        for m in (2, 3):
            ms = flat(m)
            res = ms.balance_check(np.linspace(0.01, 10, 100))
            assert res.below
            assert abs(res.worst_below_margin) <= 1e-12

    def test_sinh_balanced_below(self):
        res = hyperbolic().balance_check(np.linspace(0.01, 30, 200))
        assert res.below
        assert res.worst_below_margin >= -1e-12

    def test_sin_fails_past_half_pi(self):
        ms = ModelSpace(2, WarpingSpec.space_form(1.0))
        res = ms.balance_check(np.linspace(0.05, 3.0, 120))
        assert not res.below
        assert res.worst_below_r > math.pi / 2

    def test_empty_grid(self):
        with pytest.raises(DomainError):
            flat().balance_check([])


class TestCapacity:
    def test_flat_m2(self):
        assert flat(2).capacity(1.0, math.e) == pytest.approx(2 * math.pi, rel=1e-12)

    def test_flat_m3(self):
        assert flat(3).capacity(1.0, 2.0) == pytest.approx(8 * math.pi, rel=1e-12)

    def test_sinh_value(self):
        # frozen from the analytic antiderivative ln tanh(s/2) and confirmed
        # by adaptive quadrature of 1/(2 pi sinh)
        got = hyperbolic().capacity(1.0, 2.0)
        assert got == pytest.approx(12.576548463051132, rel=1e-12)
        oracle, _ = integrate.quad(lambda s: 1 / (2 * math.pi * math.sinh(s)), 1, 2,
                                   epsabs=1e-13, epsrel=1e-13)
        assert got == pytest.approx(1.0 / oracle, rel=1e-10)

    def test_custom_matches_space_form(self):
        assert custom("sinh(r)").capacity(1.0, 2.0) == pytest.approx(
            hyperbolic().capacity(1.0, 2.0), rel=1e-9)

    @pytest.mark.parametrize("b", [-1e-300, -1e-24, -1e-12])
    def test_faint_hyperbolic_tends_to_flat(self, b):
        # ln tanh(s r / 2) where e^(-s r) rounds to or near 1
        assert hyperbolic(b=b).capacity(1.0, math.e) == pytest.approx(2 * math.pi, rel=1e-9)

    def test_preconditions(self):
        with pytest.raises(DomainError):
            flat().capacity(2.0, 1.0)
        with pytest.raises(DomainError):
            flat().capacity(1.0, 1.0)


class TestMeanExit:
    def test_flat_center(self):
        assert flat(2).mean_exit(2.0, 0.0) == pytest.approx(1.0, rel=1e-14)

    def test_zero_at_boundary(self):
        assert hyperbolic().mean_exit(2.0, 2.0) == 0.0

    def test_flat_m3(self):
        assert flat(3).mean_exit(3.0, 1.0) == pytest.approx(8.0 / 6.0, rel=1e-14)

    def test_additivity(self):
        # E(R,0) - E(R,r) equals the integral of q from 0 to r
        ms = hyperbolic()
        R, r = 2.5, 1.2
        lhs = ms.mean_exit(R, 0.0) - ms.mean_exit(R, r)
        rhs, _ = integrate.quad(lambda t: ms.iso_quotient(t) if t > 0 else 0.0, 0.0, r,
                                epsabs=1e-12)
        assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_profile_matches_scalar(self):
        ms = custom("sinh(r)")
        rs = np.array([0.0, 0.7, 1.9, 2.5])
        prof = ms.mean_exit_profile(2.5, rs)
        for r, p in zip(rs, prof):
            assert p == pytest.approx(ms.mean_exit(2.5, float(r)), abs=5e-7)

    def test_r_above_R(self):
        with pytest.raises(DomainError):
            flat().mean_exit(1.0, 2.0)

    @pytest.mark.parametrize("samples", [4097, 2])
    def test_cumulative_trapezoid_is_scipys_bit_for_bit(self, samples):
        # mean_exit_profile's grid and sphere volumes under a quadrature warp
        ms = custom("sinh(r)")
        t = np.linspace(0.0, 2.5, samples)
        y = ms.V0 * np.array([ms.warp.w(float(s)) for s in t])
        expected = integrate.cumulative_trapezoid(y, t, initial=0.0)
        got = _cumulative_trapezoid(y, t)
        assert got.shape == expected.shape
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


class TestParabolicity:
    def test_flat_m2_parabolic(self):
        assert flat(2).parabolicity().verdict == "parabolic"

    def test_flat_m3_hyperbolic(self):
        assert flat(3).parabolicity().verdict == "hyperbolic"

    def test_sinh_hyperbolic(self):
        assert hyperbolic().parabolicity().verdict == "hyperbolic"
        assert custom("sinh(r)").parabolicity().verdict == "hyperbolic"

    def test_bounded_warp_parabolic(self):
        assert custom("r/(1+r)").parabolicity().verdict == "parabolic"

    def test_requires_unbounded_domain(self):
        with pytest.raises(DomainError):
            ModelSpace(2, WarpingSpec.space_form(1.0)).parabolicity()

    def test_evidence_attached(self):
        res = flat(3).parabolicity()
        assert len(res.ladder) == 4
        assert len(res.increments) == 4
        # increments of (1 - 1/T)/(4 pi): ratios 0.1 per decade
        assert res.ratios[0] == pytest.approx(0.1, rel=1e-6)


class TestTone:
    def test_sinh_limit_one(self):
        ts = hyperbolic().tone_upper_limit(np.linspace(0.5, 30, 100))
        assert ts.reported_limsup == pytest.approx(1.0, abs=1e-3)
        assert not ts.divergent_tail
        assert "not a proven limit" in ts.note

    def test_flat_divergent_branch(self):
        ts = flat(2).tone_upper_limit(np.linspace(0.5, 30, 100))
        assert ts.reported_limsup == 0.0
        assert ts.divergent_tail
        assert np.all(ts.samples == 0.0)

    def test_m3_scaled_curvature(self):
        # (m-1)^2 |b| with m=3, b=-2
        ms = custom("sinh(sqrt(2)*r)/sqrt(2)", m=3)
        ts = ms.tone_upper_limit(np.linspace(0.5, 30, 60))
        assert ts.reported_limsup == pytest.approx(8.0, rel=1e-6)


class TestCheeger:
    def test_sinh(self):
        res = hyperbolic().cheeger_bound(np.linspace(0.5, 30, 100))
        assert res.L == pytest.approx(1.0, abs=1e-6)
        assert res.lower_bound == pytest.approx(0.25, abs=1e-6)

    def test_flat_unbounded(self):
        res = flat(2).cheeger_bound(np.linspace(0.5, 30, 100))
        assert res.L == math.inf
        assert res.lower_bound == 0.0

    def test_scaled_sinh(self):
        res = custom("sinh(2*r)/2").cheeger_bound(np.linspace(0.25, 15, 100))
        assert res.L == pytest.approx(0.5, abs=1e-6)
        assert res.lower_bound == pytest.approx(1.0, abs=1e-5)


class TestEndsCoefficient:
    def test_flat_exactly_one(self):
        res = flat(2).ends_coefficient(np.linspace(0.5, 30, 60))
        assert np.allclose(res.samples, 1.0, rtol=0, atol=1e-13)
        assert res.reported_limsup == pytest.approx(1.0, abs=1e-13)

    def test_sinh_divergent(self):
        res = hyperbolic().ends_coefficient(np.linspace(0.5, 30, 60))
        assert res.divergent
        assert res.reported_limsup == math.inf

    def test_bounded_warp_tends_to_zero(self):
        res = custom("r/(1+r)").ends_coefficient(np.linspace(0.5, 80, 120))
        assert not res.divergent
        assert res.reported_limsup < 0.05


class TestQuadratureConfig:
    def test_validation(self):
        with pytest.raises(DomainError):
            QuadratureConfig(abs_tol=0.0)
        with pytest.raises(DomainError):
            QuadratureConfig(rel_tol=-1.0)

    @pytest.mark.parametrize("kwargs", [
        {"abs_tol": math.nan}, {"rel_tol": math.nan}, {"abs_tol": math.inf},
        {"rel_tol": math.inf}, {"rel_tol": 1e-300}, {"rel_tol": 50 * np.finfo(float).eps},
    ])
    def test_non_finite_or_below_quadpack_floor(self, kwargs):
        with pytest.raises(DomainError, match="quadrature tolerances"):
            QuadratureConfig(**kwargs)

    def test_smallest_relative_tolerance_integrates(self, monkeypatch):
        # the parsed sinh(r), not the space form b=-1 whose integrals are
        # closed forms, so that the tolerance reaches quadpack
        calls = {"_quad": 0, "_quad_tail": 0}
        for name in calls:
            real = getattr(modelspace, name)

            def counted(*args, _real=real, _name=name):
                calls[_name] += 1
                return _real(*args)
            monkeypatch.setattr(modelspace, name, counted)
        model = ModelSpace(2, WarpingSpec.custom("sinh(r)"),
                           QuadratureConfig(rel_tol=51 * np.finfo(float).eps))
        assert model.capacity(1.0, 2.0) == pytest.approx(12.576548463051132, rel=1e-12)
        tone = model.tone_upper_limit(np.linspace(0.5, 4, 5))  # tail integrals
        assert len(tone.samples) == 5
        assert calls["_quad"] > 0 and calls["_quad_tail"] > 0, calls
