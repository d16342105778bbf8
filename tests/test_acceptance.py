"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Criterion 5's quotient target is asserted verbatim and is expected to fail;
the measured value is pinned against an independent continuum oracle in
test_enneper_quotient_matches_continuum_oracle.
"""

import math
import time

import numpy as np
import pytest
from scipy import integrate

from excomp import builtin, clip, dgeom, end_components, harness, tessellate
from excomp.harness import FAIL, INCONCLUSIVE, PASS, QuotientCurve, Study
from excomp.modelspace import ModelSpace, WarpingSpec


def _criterion(n, label, body):
    t0 = time.perf_counter()
    try:
        body()
    except AssertionError as exc:
        first = str(exc).splitlines()[0] if str(exc) else ""
        print(f"[criterion {n}] FAIL - {label}: {first}")
        raise
    print(f"[criterion {n}] PASS - {label} ({time.perf_counter() - t0:.2f}s)")


def flat(m=2):
    return ModelSpace(m, WarpingSpec.space_form(0.0))


def hyp(m=2, b=-1.0):
    return ModelSpace(m, WarpingSpec.space_form(b))


# -- criterion 1: model-space closed forms ----------------------------------

def test_criterion_1_model_closed_forms():
    def body():
        t0 = time.perf_counter()
        R, rho, r = 2.0, 1.0, 0.5
        cases = {}

        # m=2, b=0
        ms = flat(2)
        cases["m2 b0 ball"] = (ms.vol_ball(R), math.pi * R * R)
        cases["m2 b0 sphere"] = (ms.vol_sphere(R), 2 * math.pi * R)
        cases["m2 b0 cap"] = (ms.capacity(rho, math.e), 2 * math.pi)
        cases["m2 b0 exit"] = (ms.mean_exit(R, r), (R * R - r * r) / 4.0)

        # m=2, b=-1
        ms = hyp(2)
        cases["m2 b-1 ball"] = (ms.vol_ball(R), 2 * math.pi * (math.cosh(R) - 1.0))
        cases["m2 b-1 sphere"] = (ms.vol_sphere(R), 2 * math.pi * math.sinh(R))
        cap_oracle, _ = integrate.quad(lambda s: 1 / (2 * math.pi * math.sinh(s)),
                                       rho, R, epsabs=1e-13, epsrel=1e-13)
        cases["m2 b-1 cap"] = (ms.capacity(rho, R), 1.0 / cap_oracle)
        exit_oracle, _ = integrate.quad(
            lambda t: (math.cosh(t) - 1.0) / math.sinh(t), r, R, epsabs=1e-13, epsrel=1e-13)
        cases["m2 b-1 exit"] = (ms.mean_exit(R, r), exit_oracle)

        # m=3, b=0
        ms = flat(3)
        cases["m3 b0 ball"] = (ms.vol_ball(R), 4 * math.pi * R ** 3 / 3)
        cases["m3 b0 sphere"] = (ms.vol_sphere(R), 4 * math.pi * R * R)
        cases["m3 b0 cap"] = (ms.capacity(1.0, 2.0), 8 * math.pi)
        cases["m3 b0 exit"] = (ms.mean_exit(R, r), (R * R - r * r) / 6.0)

        # m=3, b=-1 (independent quadrature oracles)
        ms = hyp(3)
        ball_oracle, _ = integrate.quad(lambda t: 4 * math.pi * math.sinh(t) ** 2,
                                        0, R, epsabs=1e-13, epsrel=1e-13)
        cases["m3 b-1 ball"] = (ms.vol_ball(R), ball_oracle)
        cap3_oracle, _ = integrate.quad(lambda s: 1 / (4 * math.pi * math.sinh(s) ** 2),
                                        rho, R, epsabs=1e-13, epsrel=1e-13)
        cases["m3 b-1 cap"] = (ms.capacity(rho, R), 1.0 / cap3_oracle)

        for name, (got, expected) in cases.items():
            assert got == pytest.approx(expected, rel=1e-8), \
                f"{name}: {got} vs {expected}"
        assert time.perf_counter() - t0 < 1.0, "runtime over 1 s"

    _criterion(1, "model-space closed forms", body)


# -- criterion 2: balance ----------------------------------------------------

def test_criterion_2_balance():
    def body():
        grid = np.linspace(0.05, 10.0, 100)
        for m in (2, 3):
            res = flat(m).balance_check(grid)
            assert res.below and abs(res.worst_below_margin) <= 1e-12, \
                f"w=r m={m}: margin {res.worst_below_margin}"
        assert hyp(2).balance_check(grid).below
        sin_model = ModelSpace(2, WarpingSpec.custom("sin(r)", lam=math.pi))
        res = sin_model.balance_check(np.linspace(0.05, 3.0, 100))
        assert not res.below and res.worst_below_r > math.pi / 2

    _criterion(2, "balance equality and gates", body)


# -- criterion 3: plane self-test -------------------------------------------

def _plane_suite(mesh, tol_quot=0.01, tol_other=0.02):
    model = flat(2)
    curve = harness.quotient_curves(Study(mesh, model), np.linspace(0.5, 3.0, 6))
    assert np.abs(curve.vol_quotient - 1.0).max() <= tol_quot, "volume quotient off 1"
    assert np.abs(curve.flux_quotient - 1.0).max() <= tol_quot, "flux quotient off 1"

    cap = dgeom.capacity_discrete(clip(mesh, 1.0, math.e)).capacity
    assert abs(cap / (2 * math.pi) - 1.0) <= tol_other, "capacity ratio off 1"

    reg = clip(mesh, 0.0, 2.0)
    E = dgeom.exit_time_discrete(reg)
    expected = (4.0 - reg.r ** 2) / 4.0
    assert np.abs(E - expected).max() <= tol_other * expected.max(), "exit time off"

    lam, = dgeom.first_eigenvalue_estimates(mesh, [1.0])
    assert lam == pytest.approx(5.7832, rel=tol_other), f"disc eigenvalue {lam}"
    return cap


def test_criterion_3_plane_self_test():
    def body():
        t0 = time.perf_counter()
        mesh = tessellate(builtin("plane", cover_radius=3.2), 256, 256)
        _plane_suite(mesh)
        assert time.perf_counter() - t0 < 30.0, "runtime over 30 s"

    _criterion(3, "plane self-test at 256^2", body)


# -- criterion 4: catenoid suite ---------------------------------------------

def _catenoid_suite(mesh):
    model = flat(2)
    grid = np.linspace(2.0, 20.0, 10)
    study = Study(mesh, model)
    curve = harness.quotient_curves(study, grid)

    # (a) volume quotient monotone within 1% slack, and 2 +- 5% at R=20
    ratios = curve.vol_quotient[1:] / curve.vol_quotient[:-1]
    assert ratios.min() >= 1.0 - 0.01, "volume quotient not monotone"
    assert abs(curve.vol_quotient[-1] - 2.0) <= 0.10, \
        f"volume quotient at 20 is {curve.vol_quotient[-1]}"

    # (b) flux quotient equals volume quotient within 1% at each R >= 2
    gap = np.abs(curve.flux_quotient - curve.vol_quotient) / curve.vol_quotient
    assert gap.max() <= 0.01, f"flux/volume gap {gap.max():.4f}"

    # (c) capacity ratio in [1*(1-3%), 2*(1+3%)]
    cap = dgeom.capacity_discrete(clip(mesh, 1.5, 6.0)).capacity
    ratio = cap / model.capacity(1.5, 6.0)
    assert 1.0 * (1 - 0.03) <= ratio <= 2.0 * (1 + 0.03), f"capacity ratio {ratio}"

    # (d) mean exit time dominates the transplanted model profile
    reg = clip(mesh, 0.0, 6.0)
    E = dgeom.exit_time_discrete(reg)
    Ew = model.mean_exit_profile(6.0, reg.r)
    assert (E - Ew).min() >= -0.02 * Ew.max(), "exit-time domination failed"

    # (e) two ends; finite-radius and asymptotic bounds dominate the count
    report = harness.ends_bound(study, 2.0, 20.0, curve=curve)
    assert report.count == 2, f"end count {report.count}"
    assert report.bound >= 2.0
    assert report.asymptotic_bound is not None
    assert report.asymptotic_bound >= 2.0
    assert report.asymptotic_bound == pytest.approx(8.0, rel=0.06), \
        f"asymptotic bound {report.asymptotic_bound}"
    assert all(c.verdict == PASS for c in report.checks)


def test_criterion_4_catenoid_suite():
    def body():
        t0 = time.perf_counter()
        mesh = tessellate(builtin("catenoid", a=1.0, cover_radius=21.0), 192, 192)
        _catenoid_suite(mesh)
        assert time.perf_counter() - t0 < 120.0, "runtime over 2 min"

    _criterion(4, "catenoid suite at 192^2", body)


# -- criterion 5: Enneper suite ----------------------------------------------

# continuum value of the Enneper volume quotient at R=12, computed by two
# independent oracles (polar boundary quadrature of the exact parametrization
# and brute-force 2D quadrature of the conformal area element)
ENNEPER_QUOT_12 = 2.5775


def _enneper_sandwich_and_ends(mesh):
    checks = harness.verify_euclidean_sandwich(Study(mesh, flat(2)), 1.0, 5.0)
    assert all(c.verdict == PASS for c in checks), "Euclidean sandwich failed"
    assert end_components(mesh, 3.0).count == 1


def _enneper_quotient(mesh):
    reg = clip(mesh, 0.0, 12.0)
    return reg.area() / (math.pi * 144.0)


def test_criterion_5_enneper_sandwich_and_ends():
    def body():
        t0 = time.perf_counter()
        mesh = tessellate(builtin("enneper", cover_radius=12.0), 192, 192)
        _enneper_sandwich_and_ends(mesh)
        assert time.perf_counter() - t0 < 120.0, "runtime over 2 min"

    _criterion(5, "Enneper sandwich and end count at 192^2", body)


def test_enneper_quotient_matches_continuum_oracle(enneper_192):
    # the mesh measurement agrees with the independent continuum oracle
    quot = _enneper_quotient(enneper_192)
    assert quot == pytest.approx(ENNEPER_QUOT_12, rel=0.01)


def test_criterion_5_enneper_quotient_target(enneper_192):
    # Stated target: volume quotient 3 +- 5% at R=12.  The continuum value
    # at R=12 is 2.5775 (see the oracle test above), so this criterion is
    # expected to fail; kept verbatim rather than loosened.
    def body():
        quot = _enneper_quotient(enneper_192)
        assert abs(quot - 3.0) <= 0.15, f"volume quotient at R=12 is {quot:.4f}"

    _criterion(5, "Enneper volume quotient 3 +- 5% at R=12", body)


# -- criterion 6: tone bounds -------------------------------------------------

def test_criterion_6_tone_bounds():
    def body():
        t0 = time.perf_counter()
        grid = np.linspace(0.5, 30.0, 100)
        for model in (hyp(2), ModelSpace(2, WarpingSpec.custom("sinh(r)"))):
            tone = model.tone_upper_limit(grid)
            cheeger = model.cheeger_bound(grid)
            assert tone.reported_limsup == pytest.approx(1.0, abs=1e-3)
            assert cheeger.lower_bound == pytest.approx(0.25, abs=1e-6)
        tone0 = flat(2).tone_upper_limit(grid)
        cheeger0 = flat(2).cheeger_bound(grid)
        assert tone0.reported_limsup == 0.0
        assert cheeger0.lower_bound == 0.0
        assert time.perf_counter() - t0 < 1.0, "runtime over 1 s"

    _criterion(6, "tone bounds (Cartan-Hadamard pair)", body)


# -- criterion 7: parabolicity -------------------------------------------------

def test_criterion_7_parabolicity():
    def body():
        assert flat(2).parabolicity().verdict == "parabolic"
        assert flat(3).parabolicity().verdict == "hyperbolic"
        assert hyp(2).parabolicity().verdict == "hyperbolic"

    _criterion(7, "conformal type classification", body)


# -- criterion 8: negative controls --------------------------------------------

def test_criterion_8_negative_controls(plane_128):
    def body():
        grid = np.linspace(1.0, 5.0, 5)
        vol = np.array([1.0, 1.1, 1.2, 1.3, 1.4])
        flx = vol.copy()
        flx[2] = 0.9
        checks = harness.verify_isoperimetric(QuotientCurve(grid, vol, flx))
        assert any(c.verdict == FAIL for c in checks), "tampered curve must fail"

        gated = harness.verify_capacity_sandwich(Study(plane_128, hyp(2)), 1.0, 2.0)
        assert any(c.verdict == INCONCLUSIVE for c in gated)
        assert all(c.verdict != FAIL for c in gated)
        assert all(c.verdict != PASS or c.id.startswith("gate.")
                   for c in gated), "gated theorem must not pass"

    _criterion(8, "negative controls", body)


# -- criterion 9: convergence ---------------------------------------------------

def test_criterion_9_convergence(plane_512, catenoid_384, enneper_384):
    def body():
        base = tessellate(builtin("plane", cover_radius=3.2), 256, 256)
        cap_base = dgeom.capacity_discrete(clip(base, 1.0, math.e)).capacity
        cap_fine = dgeom.capacity_discrete(clip(plane_512, 1.0, math.e)).capacity
        err_base = abs(cap_base - 2 * math.pi)
        err_fine = abs(cap_fine - 2 * math.pi)
        assert err_base / err_fine >= 1.5, \
            f"capacity error ratio {err_base / err_fine:.2f}"

        # the resolution-bearing criteria must also hold at doubled resolution
        _plane_suite(plane_512)
        _catenoid_suite(catenoid_384)
        _enneper_sandwich_and_ends(enneper_384)
        quot = _enneper_quotient(enneper_384)
        assert quot == pytest.approx(ENNEPER_QUOT_12, rel=0.01)

    _criterion(9, "convergence under doubled resolution", body)
