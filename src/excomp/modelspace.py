"""Rotationally symmetric comparison spaces.

A model space is a warped product over [0, Lambda) with fiber the unit
(m-1)-sphere and a warping function w with w(0)=0, w'(0)=1.  Everything
here reduces to one-dimensional integrals of powers of w: sphere and ball
volumes, the isoperimetric quotient q = volB/volS, the distance-sphere mean
curvature eta = w'/w, annulus capacity, the mean exit time, conformal type
by tail resistance, and the asymptotic quantities feeding the tone and ends
bounds.

Every warping function, space form or parsed, evaluates w, w' and w''
through wexpr expressions.  Only the integrals tell them apart: space forms
(curvature b) use closed-form antiderivatives, written in cancellation-safe
form so the deep tails stay accurate, where they exist; everything else goes
through adaptive quadrature, at the tolerances the model holds.

The asymptotic results (ParabolicityResult, ToneSamples, CheegerResult,
EndsCoefficient) reach report.json field by field; the sample arrays behind
a grid limsup are marked report: False and stay out of it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import wexpr
from .errors import DomainError, EvalDomainError, QuadratureError

_INF = float("inf")
_REL_TOL_FLOOR = float(50 * np.finfo(float).eps)
_MAX_SUBDIVISIONS = 200  # quadpack's interval limit
_LADDER = (10.0, 100.0, 1000.0, 10000.0)  # the radii T probing integrals to infinity
_EXIT_SAMPLES = 4097  # radii of the dense grid under mean_exit_profile


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances for the adaptive quadratures and improper-integral probes."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10

    def __post_init__(self):
        # quadpack rejects a relative tolerance of 50 eps or less when, as in
        # the tail integrals, there is no absolute one
        if not (0 < self.abs_tol < math.inf and _REL_TOL_FLOOR < self.rel_tol < math.inf):
            raise DomainError(f"quadrature tolerances must be finite with abs_tol > 0 and "
                              f"rel_tol > 50 eps = {_REL_TOL_FLOOR!r}, got "
                              f"abs_tol={self.abs_tol!r}, rel_tol={self.rel_tol!r}")


DEFAULT_QUAD = QuadratureConfig()


def _quad(f, a, b, cfg: QuadratureConfig) -> float:
    from scipy import integrate  # here, so that closed-form runs never load scipy

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, err = integrate.quad(
            f, a, b, epsabs=cfg.abs_tol, epsrel=cfg.rel_tol, limit=_MAX_SUBDIVISIONS
        )
    if not math.isfinite(val):
        raise QuadratureError(f"integral over [{a}, {b}] did not evaluate to a finite value")
    if err > 1e3 * max(cfg.abs_tol, abs(val) * cfg.rel_tol):
        raise QuadratureError(f"quadrature over [{a}, {b}] did not converge", achieved=err)
    return val


def _quad_tail(f, t: float, cfg: QuadratureConfig) -> float:
    """Integral of f over [t, infinity) under pure relative-error control
    (an absolute floor would let quadpack stop before resolving deep tails)."""
    from scipy import integrate

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, err = integrate.quad(f, t, _INF, epsabs=0.0, epsrel=cfg.rel_tol,
                                  limit=_MAX_SUBDIVISIONS)
    if not math.isfinite(val):
        raise QuadratureError(f"tail integral from {t} did not evaluate to a finite value")
    if val != 0.0 and err > 1e3 * abs(val) * cfg.rel_tol:
        raise QuadratureError(f"tail quadrature from {t} did not converge", achieved=err)
    return val


def _cumulative_trapezoid(y: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Running trapezoid integral of y over t from 0 at t[0]; the formula of
    scipy.integrate.cumulative_trapezoid(y, t, initial=0.0), bit for bit."""
    return np.concatenate(([0.0], np.cumsum(np.diff(t) * (y[1:] + y[:-1]) / 2.0)))


def _pow_sat(x: float, n: int) -> float:
    """x**n with IEEE saturation instead of Python's OverflowError."""
    try:
        return x ** n
    except OverflowError:
        return _INF if (x > 0 or n % 2 == 0) else -_INF


def _log_tanh(x: float) -> float:
    # ln tanh x = ln(1 - e) - log1p(e), e = e^(-2x); ln(1 - e) is log1p(-e) for
    # large x and ln(-expm1(-2x)) for small x, where 1 - e would cancel
    e = math.exp(-2.0 * x)
    head = math.log1p(-e) if x > 0.5 else math.log(-math.expm1(-2.0 * x))
    return head - math.log1p(e)


def _coth_minus_one(x: float) -> float:
    # coth x - 1 = 2 e^(-2x) / (1 - e^(-2x)); accurate for large x
    e = math.exp(-2.0 * x)
    return 2.0 * e / (-math.expm1(-2.0 * x)) if e > 0.0 else 0.0


class WarpingSpec:
    """A warping function with its first two derivatives and domain bound.

    kind is 'space_form' (constant curvature b, closed-form integrals
    available) or 'custom' (parsed expression, differentiated symbolically).
    Either way w, w' and w'' are three wexpr trees built here: a space form's
    are written out by hand, r, 1, 0 for b = 0 and, with a = sqrt|b|,
    sin(a*r)/a, cos(a*r), (-b)*w (sinh and cosh for b < 0).  Construction
    validates w(0)=0 and w'(0)=1 to 1e-8 and that a custom w stays positive
    on a sample of (0, Lambda).
    """

    __slots__ = ("kind", "b", "lam", "expr", "_d1", "_d2", "_sqrt_abs_b", "source")

    def __init__(self, kind, b=None, expr=None, lam=_INF, source=None):
        self.kind = kind
        self.b = b
        self.lam = float(lam)
        self.source = source
        self._sqrt_abs_b = math.sqrt(abs(b)) if b else 0.0
        if kind == "custom":
            self.expr = expr
            self._d1 = wexpr.differentiate(expr)
            self._d2 = wexpr.differentiate(self._d1)
        elif b == 0:
            self.expr = wexpr.R
            self._d1, self._d2 = wexpr.Num(Fraction(1)), wexpr.Num(Fraction(0))
        else:
            a = wexpr.Num(Fraction(self._sqrt_abs_b))
            ar = wexpr.BinOp("*", a, wexpr.R)
            self.expr = wexpr.BinOp("/", wexpr.Call("sinh" if b < 0 else "sin", ar), a)
            self._d1 = wexpr.Call("cosh" if b < 0 else "cos", ar)
            self._d2 = wexpr.BinOp("*", wexpr.Num(Fraction(-b)), self.expr)
        self._validate()

    @classmethod
    def space_form(cls, b: float) -> "WarpingSpec":
        b = float(b)
        lam = math.pi / math.sqrt(b) if b > 0 else _INF
        return cls("space_form", b=b, lam=lam, source=f"b={b!r}")

    @classmethod
    def custom(cls, source: str, lam: float = _INF) -> "WarpingSpec":
        return cls("custom", expr=wexpr.parse(source), lam=lam, source=source)

    def _validate(self):
        if not (self.lam > 0):
            raise DomainError("domain bound Lambda must be positive")
        try:
            w0 = self.w(0.0)
            d0 = self.dw(0.0)
        except EvalDomainError as exc:
            raise DomainError(f"warping function undefined at r=0: {exc}") from exc
        if abs(w0) > 1e-8:
            raise DomainError(f"warping function must satisfy w(0)=0, got {w0!r}")
        if abs(d0 - 1.0) > 1e-8:
            raise DomainError(f"warping function must satisfy w'(0)=1, got {d0!r}")
        if self.kind == "custom":
            top = self.lam if math.isfinite(self.lam) else 100.0
            sample = np.concatenate(
                [np.geomspace(1e-6, top * (1 - 1e-9), 96), np.linspace(top / 64, top * (1 - 1e-9), 64)]
            )
            for s in sample:
                if self.w(float(s)) <= 0.0:
                    raise DomainError(
                        f"warping function must be positive on (0, Lambda); w({float(s)!r}) <= 0"
                    )

    # pointwise values -----------------------------------------------------

    def w(self, r: float) -> float:
        return wexpr.evaluate(self.expr, r)

    def dw(self, r: float) -> float:
        return wexpr.evaluate(self._d1, r)

    def d2w(self, r: float) -> float:
        return wexpr.evaluate(self._d2, r)

    def describe(self) -> str:
        return self.source if self.source is not None else self.kind


# ---------------------------------------------------------------------------


@dataclass(eq=False)
class BalanceResult:
    below: bool
    worst_below_r: float
    worst_below_margin: float  # min over grid of q*eta - 1/m


@dataclass(eq=False)
class ParabolicityResult:
    verdict: str  # 'parabolic' | 'hyperbolic' | 'inconclusive'
    ladder: tuple
    increments: tuple
    ratios: tuple


@dataclass(eq=False)
class ToneSamples:
    samples: np.ndarray = field(metadata={"report": False})
    reported_limsup: float
    divergent_tail: bool
    note: str


@dataclass(eq=False)
class CheegerResult:
    L: float  # sup of q over the grid, +inf when q still grows at the end
    lower_bound: float  # 1/(4 L^2), 0 when L is unbounded
    increasing_at_end: bool
    log_slope: float


@dataclass(eq=False)
class EndsCoefficient:
    samples: np.ndarray = field(metadata={"report": False})
    reported_limsup: float  # +inf when the quotient keeps growing
    divergent: bool
    w_monotone: bool


def _top_slice(n: int) -> slice:
    """Last tenth of the grid points (at least two when available)."""
    return slice(max(0, n - max(2, n // 10)), n)


def _log_slope(t: np.ndarray, y: np.ndarray) -> float:
    """d(ln y)/d(ln t) at the end of the grid, measured over the last ~10%."""
    e = len(t) - 1
    j = int(np.searchsorted(t, 0.9 * t[e], side="right")) - 1
    j = min(max(j, 0), e - 1)
    if not (np.isfinite(y[e]) and np.isfinite(y[j])) or y[e] <= 0 or y[j] <= 0:
        return _INF
    return float((math.log(y[e]) - math.log(y[j])) / (math.log(t[e]) - math.log(t[j])))


_UNBOUNDED_SLOPE = 0.1  # log-log end slope above which a grid limsup is called divergent


class ModelSpace:
    """Dimension m >= 2 together with a warping function, and the tolerances
    of every quadrature the model runs."""

    def __init__(self, m: int, warp: WarpingSpec, quad: QuadratureConfig = DEFAULT_QUAD):
        if int(m) != m or m < 2:
            raise DomainError(f"model dimension must be an integer >= 2, got {m!r}")
        self.m = int(m)
        self.warp = warp
        self.quad = quad
        # surface measure of the unit (m-1)-sphere
        self.V0 = 2.0 * math.pi ** (self.m / 2.0) / math.gamma(self.m / 2.0)

    # -- basic radial quantities ------------------------------------------

    def _check_radius(self, r: float, allow_zero=False):
        lo_ok = r >= 0.0 if allow_zero else r > 0.0
        if not (lo_ok and r < self.warp.lam):
            raise DomainError(f"radius {r!r} outside [0, Lambda={self.warp.lam!r})")

    def eta(self, r: float) -> float:
        """Mean curvature w'/w of the distance sphere of radius r."""
        self._check_radius(r)
        if r < 1e-8:
            # one-sided expansion from w(0)=0, w'(0)=1: eta = 1/r + w''(0)/2 + O(r)
            return 1.0 / r + 0.5 * self.warp.d2w(0.0)
        return self.warp.dw(r) / self.warp.w(r)

    def vol_sphere(self, r: float) -> float:
        self._check_radius(r, allow_zero=True)
        return self.V0 * _pow_sat(self.warp.w(r), self.m - 1)

    def _ball_closed(self, r: float) -> float | None:
        w = self.warp
        if w.kind != "space_form":
            return None
        m, V0, b = self.m, self.V0, w.b
        if b == 0:
            return V0 * r ** m / m
        a = w._sqrt_abs_b
        if m == 2:
            if b < 0:
                return V0 * (math.cosh(a * r) - 1.0) / (a * a)
            return V0 * (1.0 - math.cos(a * r)) / (a * a)
        if m == 3:
            if b < 0:
                return V0 / (a * a) * (math.sinh(2 * a * r) / (4 * a) - r / 2.0)
            return V0 / (a * a) * (r / 2.0 - math.sin(2 * a * r) / (4 * a))
        return None

    def vol_ball(self, r: float) -> float:
        self._check_radius(r, allow_zero=True)
        if r == 0.0:
            return 0.0
        closed = self._ball_closed(r)
        if closed is not None:
            return closed
        m = self.m
        return self.V0 * _quad(lambda t: _pow_sat(self.warp.w(t), m - 1), 0.0, r, self.quad)

    def iso_quotient(self, r: float) -> float:
        """q(r) = volB(r)/volS(r); vanishes as r -> 0."""
        self._check_radius(r)
        return self.vol_ball(r) / self.vol_sphere(r)

    def balance_check(self, grid) -> BalanceResult:
        grid = _validated_grid(grid, self.warp.lam)
        qe = np.array([self.iso_quotient(float(r)) * self.eta(float(r)) for r in grid])
        below_margin = qe - 1.0 / self.m
        ib = int(np.argmin(below_margin))
        return BalanceResult(
            below=bool(below_margin[ib] >= -1e-12),
            worst_below_r=float(grid[ib]),
            worst_below_margin=float(below_margin[ib]),
        )

    # -- resistance integrals (1 / sphere volume) --------------------------

    def _resistance_closed(self, a: float, b: float) -> float | None:
        w = self.warp
        if w.kind != "space_form":
            return None
        m, V0, curv = self.m, self.V0, w.b
        if curv == 0:
            if m == 2:
                return math.log(b / a) / V0
            return (a ** (2 - m) - b ** (2 - m)) / ((m - 2) * V0)
        s = w._sqrt_abs_b
        if m == 2:
            if curv < 0:
                return (_log_tanh(s * b / 2.0) - _log_tanh(s * a / 2.0)) / V0
            return (math.log(math.tan(s * b / 2.0)) - math.log(math.tan(s * a / 2.0))) / V0
        if m == 3:
            if curv < 0:
                return s * (_coth_minus_one(s * a) - _coth_minus_one(s * b)) / V0
            return s * (1.0 / math.tan(s * a) - 1.0 / math.tan(s * b)) / V0
        return None

    def _resistance(self, a: float, b: float) -> float:
        """Integral of ds / volS(s) over [a, b]."""
        closed = self._resistance_closed(a, b)
        if closed is not None:
            return closed
        return _quad(self._inverse_sphere, a, b, self.quad)

    def _inverse_sphere(self, s: float) -> float:
        """The resistance integrand 1/volS(s), 0 where volS is 0 or infinite."""
        ws = _pow_sat(self.warp.w(s), self.m - 1)
        return 1.0 / (self.V0 * ws) if ws > 0 and math.isfinite(ws) else 0.0

    def _resistance_tail(self, t: float) -> float:
        """Integral of ds / volS(s) over [t, infinity)."""
        w = self.warp
        if w.kind == "space_form":
            m, V0, curv = self.m, self.V0, w.b
            if curv == 0:
                if m == 2:
                    return _INF
                return t ** (2 - m) / ((m - 2) * V0)
            if curv < 0:
                s = w._sqrt_abs_b
                if m == 2:
                    return -_log_tanh(s * t / 2.0) / V0
                if m == 3:
                    return s * _coth_minus_one(s * t) / V0
        return _quad_tail(self._inverse_sphere, t, self.quad)

    # -- capacity, exit time ------------------------------------

    def capacity(self, rho: float, R: float) -> float:
        """Capacity of the annulus between the spheres of radii rho < R."""
        if not (0.0 < rho < R):
            raise DomainError(f"need 0 < rho < R, got rho={rho!r}, R={R!r}")
        self._check_radius(R)
        return 1.0 / self._resistance(rho, R)

    def mean_exit(self, R: float, r: float) -> float:
        """Mean exit time from the ball of radius R, started at radius r."""
        if r > R:
            raise DomainError(f"start radius {r!r} exceeds ball radius {R!r}")
        if r < 0:
            raise DomainError(f"start radius {r!r} negative")
        self._check_radius(R, allow_zero=True)
        if r == R:
            return 0.0
        if self.warp.kind == "space_form" and self.warp.b == 0:
            return (R * R - r * r) / (2.0 * self.m)
        return _quad(lambda t: self.iso_quotient(t) if t > 0 else 0.0, r, R, self.quad)

    def mean_exit_profile(self, R: float, rs) -> np.ndarray:
        """Mean exit time at many radii at once (dense-grid cumulative rule)."""
        rs = np.asarray(rs, dtype=float)
        if rs.size and (rs.min() < 0 or rs.max() > R * (1 + 1e-12)):
            raise DomainError("profile radii must lie in [0, R]")
        self._check_radius(R, allow_zero=True)
        if self.warp.kind == "space_form" and self.warp.b == 0:
            return (R * R - np.minimum(rs, R) ** 2) / (2.0 * self.m)
        t = np.linspace(0.0, R, _EXIT_SAMPLES)
        wt = np.array([self.warp.w(float(s)) for s in t])
        sphere = self.V0 * wt ** (self.m - 1)
        ball = _cumulative_trapezoid(sphere, t)
        with np.errstate(divide="ignore", invalid="ignore"):
            q = np.where(sphere > 0, ball / sphere, 0.0)
        q[0] = 0.0
        cum = _cumulative_trapezoid(q, t)
        return cum[-1] - np.interp(np.minimum(rs, R), t, cum)

    # -- asymptotics --------------------------------------------------------

    def parabolicity(self) -> ParabolicityResult:
        """Classify the conformal type by probing the resistance to infinity.

        Integrates 1/volS over [1, T] for T on a geometric ladder and looks
        at the increments: geometric decay means finite resistance
        (hyperbolic); non-decreasing increments, or decay no faster than the
        harmonic pattern, mean divergence (parabolic).
        """
        if math.isfinite(self.warp.lam):
            raise DomainError("conformal-type probe requires Lambda = infinity")
        incs = []
        prev = 1.0
        for T in _LADDER:
            incs.append(max(self._resistance(prev, T), 0.0))
            prev = T
        incs_arr = np.array(incs)
        ratios = []
        for k in range(len(incs) - 1):
            ratios.append(float(incs[k + 1] / incs[k]) if incs[k] > 0 else 0.0)
        if incs_arr.max() <= 10 * self.quad.abs_tol:
            verdict = "hyperbolic"  # resistance already exhausted below tolerance
        else:
            non_decreasing = all(
                incs[k + 1] >= incs[k] * (1 - 1e-9) for k in range(len(incs) - 1)
            )
            harmonic_floor = all(
                ratios[k] >= (k + 1) / (k + 2) - 1e-9 for k in range(len(ratios))
            )
            positive = [x for x in ratios if x > 0]
            if len(positive) < len(ratios):
                fitted = 0.0
            else:
                fitted = float(np.exp(np.mean(np.log(positive)))) if positive else 0.0
            if non_decreasing or harmonic_floor:
                verdict = "parabolic"
            elif fitted < 0.5:
                verdict = "hyperbolic"
            else:
                verdict = "inconclusive"
        return ParabolicityResult(
            verdict=verdict,
            ladder=_LADDER,
            increments=tuple(float(x) for x in incs),
            ratios=tuple(ratios),
        )

    def tone_upper_limit(self, grid) -> ToneSamples:
        """Samples of 1/(volB(t) * resistance tail(t)) and their grid limsup.

        The limsup estimate is the maximum over the last tenth of the grid
        points; it is an estimate at finite t, not a proven limit.  When the
        tail resistance diverges (parabolic model) the samples are
        identically zero.
        """
        grid = _validated_grid(grid, self.warp.lam)
        parab = self.parabolicity()
        if parab.verdict != "hyperbolic":
            note = "tail resistance diverges; tone limit 0"
            if parab.verdict == "inconclusive":
                note = "tail classification inconclusive; reporting 0 samples"
            return ToneSamples(np.zeros_like(grid), 0.0, True, note)
        samples = np.empty_like(grid)
        for i, t in enumerate(grid):
            ball = self.vol_ball(float(t))
            tail = self._resistance_tail(float(t))
            val = 1.0 / (ball * tail) if ball > 0 and tail > 0 else _INF
            samples[i] = val if math.isfinite(val) else np.nan
        window = samples[_top_slice(len(grid))]
        finite = window[np.isfinite(window)]
        limsup = float(finite.max()) if finite.size else float("nan")
        return ToneSamples(samples, limsup, False, "estimate at finite t, not a proven limit")

    def cheeger_bound(self, grid) -> CheegerResult:
        """L = sup of the isoperimetric quotient over the grid and the
        resulting lower bound 1/(4 L^2) for the fundamental tone."""
        grid = _validated_grid(grid, self.warp.lam)
        q = np.array([self.iso_quotient(float(r)) for r in grid])
        slope = _log_slope(grid, q)
        increasing = bool(len(q) > 1 and q[-1] > q[-2] * (1 + 1e-12))
        if slope > _UNBOUNDED_SLOPE:
            return CheegerResult(_INF, 0.0, increasing, slope)
        L = float(q.max())
        return CheegerResult(L, 1.0 / (4.0 * L * L), increasing, slope)

    def ends_coefficient(self, grid) -> EndsCoefficient:
        """Samples of m * int_0^t w^(m-1) / t^m with a grid limsup estimate."""
        if math.isfinite(self.warp.lam):
            raise DomainError("ends coefficient is an asymptotic quantity; "
                              "it needs Lambda = infinity")
        grid = _validated_grid(grid, self.warp.lam)
        monotone = all(self.warp.dw(float(r)) >= -1e-12 for r in grid)
        samples = np.empty_like(grid)
        for i, t in enumerate(grid):
            ball = self.vol_ball(float(t))
            val = self.m * ball / (self.V0 * float(t) ** self.m)
            samples[i] = val if math.isfinite(val) else np.nan
        window = samples[_top_slice(len(grid))]
        if np.isnan(window).any() or _log_slope(grid, samples) > _UNBOUNDED_SLOPE:
            return EndsCoefficient(samples, _INF, True, monotone)
        return EndsCoefficient(samples, float(np.nanmax(window)), False, monotone)


def _validated_grid(grid, lam: float) -> np.ndarray:
    arr = np.asarray(grid, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise DomainError("grid must be a nonempty 1-d array")
    if np.any(np.diff(arr) <= 0):
        raise DomainError("grid must be strictly increasing")
    if arr[0] <= 0 or arr[-1] >= lam:
        raise DomainError(f"grid must lie inside (0, Lambda={lam!r})")
    return arr
