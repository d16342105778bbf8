"""Comparison checks between a triangulated minimal surface and a model space.

Turns the discrete measurements (areas, fluxes, capacities, exit times,
eigenvalues, end counts) and the corresponding model quantities into
machine-checkable verdicts: ordering and monotonicity of the volume and flux
quotients, the capacity sandwich, exit-time domination, the ends bound with
its asymptotic variant, and the two-sided tone bounds.

Every check records both numeric sides, the tolerance it was judged at, and
a verdict in {pass, fail, inconclusive}; hypothesis gates (balance from
below, sign of w', ambient curvature bound) are evaluated first and a failed
gate yields inconclusive, never pass.

The checks read their mesh and model from a `Study`, which computes each
gate, annulus capacity and end split once per run, however many checks read
it.  The model holds the quadrature tolerances.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import dgeom
from .errors import CoverageError, DomainError
from .modelspace import ModelSpace, WarpingSpec, _top_slice
from .surfaces import TriMesh

PASS, FAIL, INCONCLUSIVE = "pass", "fail", "inconclusive"

# Relative slacks of the checks
_STABLE_TOL = 0.01  # spread of the volume quotient over the last tenth of the grid
_ISO_TOL = 0.01  # volume quotient below flux quotient
_MONO_SLACK = 0.01  # steps of a nondecreasing quotient
_TAIL_TOL = 0.02  # flux against volume quotient at the top radius
_SANDWICH_TOL = 0.03  # capacity ratio between the flux or volume quotients
_EXIT_TOL = 0.02  # exit time against the model's, as a share of the centre value


@dataclass(eq=False)
class Check:
    check_id: str
    statement: str
    left: float
    right: float
    margin: float
    tolerance: float
    verdict: str
    notes: str = ""

    def to_dict(self):
        return {
            "id": self.check_id,
            "statement": self.statement,
            "left": self.left,
            "right": self.right,
            "margin": self.margin,
            "tolerance": self.tolerance,
            "verdict": self.verdict,
            "notes": self.notes,
        }


def _leq_check(check_id, statement, left, right, tol, notes="") -> Check:
    """left <= right up to a relative slack of tol on the right-hand side."""
    scale = max(abs(left), abs(right), 1e-300)
    margin = (right - left) / scale
    verdict = PASS if left <= right + tol * scale + 1e-14 else FAIL
    return Check(check_id, statement, float(left), float(right), float(margin),
                 tol, verdict, notes)


def _gate_check(check_id, statement, ok: bool, notes="") -> Check:
    return Check(check_id, statement, float(ok), 1.0, 0.0, 0.0,
                 PASS if ok else INCONCLUSIVE, notes)


def gate_verdicts(gates: list, checks: list) -> list:
    """Prefix theorem checks with their hypothesis gates.

    When a gate is inconclusive the theorem simply does not apply, so every
    downstream verdict is downgraded to inconclusive (testing out of
    hypothesis must never report pass or fail)."""
    failed = [g.check_id for g in gates if g.verdict == INCONCLUSIVE]
    if not failed:
        return list(gates) + list(checks)
    note = "hypothesis gate failed: " + ", ".join(failed)
    downgraded = [
        Check(c.check_id, c.statement, c.left, c.right, c.margin, c.tolerance,
              INCONCLUSIVE, (c.notes + "; " if c.notes else "") + note)
        for c in checks
    ]
    return list(gates) + downgraded


@dataclass(eq=False)
class QuotientCurve:
    """Volume and flux comparison quotients sampled on a radius grid."""

    grid: np.ndarray
    vol_quot: np.ndarray
    flux_quot: np.ndarray

    def w_volume_estimate(self) -> float:
        return float(self.vol_quot.max())

    def w_flux_estimate(self) -> float:
        return float(self.flux_quot.max())

    def stable(self) -> bool:
        """Whether the volume quotient moved less than _STABLE_TOL (relative)
        over the last tenth of the grid; grid maxima are supremum estimates
        only when this holds."""
        window = self.vol_quot[_top_slice(len(self.grid))]
        if len(window) < 2:
            return False
        return float(window.max() - window.min()) <= _STABLE_TOL * float(abs(window.max()))


def quotient_curves(mesh: TriMesh, model: ModelSpace, grid, end_mask=None) -> QuotientCurve:
    """Sample Vol(D_R)/Vol(B_R) and J(R)/volS(R) over the grid, optionally
    restricted to the faces of one end, by one sweep of the mesh's radial
    index."""
    if model.m != 2:
        raise DomainError("discrete meshes are surfaces; the model must have m = 2")
    grid = np.asarray(grid, dtype=float)
    if np.any(np.diff(grid) <= 0) or grid[0] <= 0:
        raise DomainError("grid must be positive and strictly increasing")

    radii = [float(R) for R in grid]
    try:
        areas, fluxes = dgeom.radial_index(mesh).sweep(grid, end_mask)
    except CoverageError as exc:
        # radius by radius, a model volume failing below the leaking ball comes first
        for R in radii[:radii.index(exc.radius)]:
            model.vol_ball(R)
        raise
    vol = areas / np.array([model.vol_ball(R) for R in radii])
    flx = fluxes / np.array([model.vol_sphere(R) for R in radii])
    return QuotientCurve(grid, vol, flx)


# ---------------------------------------------------------------------------
# individual theorem checks


def verify_isoperimetric(curve: QuotientCurve) -> list[Check]:
    """Volume quotient below flux quotient at every radius, and both
    quotients nondecreasing (up to mesh-dependent relative slack)."""
    checks = []
    worst = int(np.argmin(curve.flux_quot - curve.vol_quot))
    checks.append(_leq_check(
        "isoperimetric.ordering",
        "Vol(D_R)/Vol(B_R) <= J(R)/J_w(R) at every grid radius",
        float(curve.vol_quot[worst]), float(curve.flux_quot[worst]), _ISO_TOL,
        notes=f"worst radius R={curve.grid[worst]:.6g}"))
    for name, series in (("volume", curve.vol_quot), ("flux", curve.flux_quot)):
        if len(series) < 2:
            continue
        ratios = series[1:] / np.maximum(series[:-1], 1e-300)
        worst_i = int(np.argmin(ratios))
        checks.append(_leq_check(
            f"isoperimetric.monotone.{name}",
            f"{name} quotient nondecreasing in R (slack {_MONO_SLACK:.2%})",
            float(series[worst_i]) * (1.0 - _MONO_SLACK), float(series[worst_i + 1]), 0.0,
            notes=f"worst step R={curve.grid[worst_i]:.6g} -> {curve.grid[worst_i + 1]:.6g}"))
    return checks


def _curvature_gate(model: ModelSpace, R: float) -> Check:
    """Euclidean ambient: the radial curvature bound needs -w''/w >= 0."""
    vals = [-model.warp.d2w(float(r)) / model.warp.w(float(r))
            for r in np.linspace(R / 64.0, R, 64)]
    ok = min(vals) >= -1e-9
    return _gate_check(
        "gate.curvature_bound",
        "ambient curvature 0 <= -w''/w (Euclidean immersion against this model)",
        ok, notes=f"min of -w''/w over samples: {min(vals):.6g}")


def _balance_gate(model: ModelSpace, R: float) -> Check:
    top = min(R, model.warp.lam * 0.999)
    grid = np.linspace(top / 256.0, top, 256)
    res = model.balance_check(grid)
    return _gate_check(
        "gate.balance_below",
        "model balanced from below: q_w * eta_w >= 1/m",
        res.below,
        notes=f"worst margin {res.worst_below_margin:.3e} at r={res.worst_below_r:.6g}")


def _monotone_w_gate(model: ModelSpace, R: float, strict: bool = False) -> Check:
    rs = np.linspace(R / 256.0, R, 256)
    dw = np.array([model.warp.dw(float(r)) for r in rs])
    ok = bool(np.all(dw > 0)) if strict else bool(np.all(dw >= -1e-12))
    relation = "w' > 0" if strict else "w' >= 0"
    return _gate_check("gate.w_monotone", f"warping function satisfies {relation}",
                       ok, notes=f"min w' over samples: {float(dw.min()):.6g}")


@dataclass(eq=False)
class Study:
    """One run's mesh (None for a model-only tone report) and model.  Each
    gate, annulus capacity and end split is computed on first use and
    memoised in a dict keyed by its arguments; only results are kept
    (`Check`, `CapacityResult`, `EndsResult`), never a region."""

    mesh: TriMesh | None
    model: ModelSpace
    _memo: dict = field(default_factory=dict, init=False, repr=False)

    def _once(self, key: tuple, compute):
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def curvature_gate(self, R: float) -> Check:
        return self._once(("curvature", R), lambda: _curvature_gate(self.model, R))

    def balance_gate(self, R: float) -> Check:
        return self._once(("balance", R), lambda: _balance_gate(self.model, R))

    def monotone_gate(self, R: float, strict: bool = False) -> Check:
        return self._once(("monotone", R, strict),
                          lambda: _monotone_w_gate(self.model, R, strict))

    def capacity(self, rho: float, R: float,
                 truncation: str = "reflect") -> dgeom.CapacityResult:
        """Discrete capacity of the extrinsic annulus rho < r < R."""
        return self._once(("capacity", rho, R, truncation), lambda: dgeom.capacity_discrete(
            dgeom.clip(self.mesh, rho, R), truncation=truncation))

    def ends(self, R: float) -> dgeom.EndsResult:
        """Components of {r > R} that reach the truncation boundary."""
        return self._once(("ends", R), lambda: dgeom.end_components(self.mesh, R))


def comparison_gates(study: Study, R: float, monotone: bool = True) -> list[Check]:
    """Hypotheses shared by the comparison theorems for a Euclidean
    immersion: curvature bound, balance from below, optionally w' >= 0."""
    gates = [study.curvature_gate(R), study.balance_gate(R)]
    if monotone:
        gates.append(study.monotone_gate(R))
    return gates


def verify_capacity_sandwich(study: Study, rho: float, R: float,
                             truncation: str = "reflect") -> list[Check]:
    """Flux quotient at rho <= capacity quotient <= flux quotient at R,
    gated on the model hypotheses for each side."""
    gates = comparison_gates(study, R)
    if any(g.verdict == INCONCLUSIVE for g in gates):
        return gate_verdicts(gates, [Check(
            "capacity.sandwich", "capacity quotient sandwiched by flux quotients",
            math.nan, math.nan, math.nan, _SANDWICH_TOL, INCONCLUSIVE)])
    checks = list(gates)
    model, mesh = study.model, study.mesh
    ratio = study.capacity(rho, R, truncation).capacity / model.capacity(rho, R)
    lower = dgeom.flux(mesh, rho) / model.vol_sphere(rho)
    upper = dgeom.flux(mesh, R) / model.vol_sphere(R)
    checks.append(_leq_check(
        "capacity.lower", "J(rho)/J_w(rho) <= Cap/Cap_w", lower, ratio, _SANDWICH_TOL,
        notes=f"rho={rho:.6g}, R={R:.6g}"))
    checks.append(_leq_check(
        "capacity.upper", "Cap/Cap_w <= J(R)/J_w(R)", ratio, upper, _SANDWICH_TOL,
        notes=f"capacity ratio {ratio:.6g}"))
    return checks


def verify_euclidean_sandwich(study: Study, rho: float, R: float,
                              truncation: str = "reflect") -> list[Check]:
    """Volume-quotient sandwich for the capacity against the flat plane
    model (Euclidean ambient, m = 2), whatever the study's model."""
    model = ModelSpace(2, WarpingSpec.space_form(0.0), study.model.quad)
    ratio = study.capacity(rho, R, truncation).capacity / model.capacity(rho, R)
    lower = dgeom.ball_area(study.mesh, rho) / model.vol_ball(rho)
    upper = dgeom.ball_area(study.mesh, R) / model.vol_ball(R)
    return [
        _leq_check("euclidean.lower", "Vol(D_rho)/(pi rho^2) <= Cap/Cap_flat",
                   lower, ratio, _SANDWICH_TOL, notes=f"rho={rho:.6g}"),
        _leq_check("euclidean.upper", "Cap/Cap_flat <= Vol(D_R)/(pi R^2)",
                   ratio, upper, _SANDWICH_TOL, notes=f"R={R:.6g}"),
    ]


def exit_time_comparison(study: Study, R: float) -> list[Check]:
    """Discrete mean exit time dominates the transplanted model exit time;
    near-equality is additionally required when the quotients are flat
    (stability proxy for the equality case)."""
    gates = comparison_gates(study, R, monotone=False)
    if any(g.verdict == INCONCLUSIVE for g in gates):
        return gate_verdicts(gates, [Check(
            "exit_time.domination", "E_P >= E_w(r) pointwise",
            math.nan, math.nan, math.nan, _EXIT_TOL, INCONCLUSIVE)])
    checks = list(gates)
    mesh, model = study.mesh, study.model
    region = dgeom.clip(mesh, 0.0, R)
    field = dgeom.exit_time_discrete(region)
    ew = model.mean_exit_profile(R, region.r)
    scale = float(ew.max())
    slack = _EXIT_TOL * scale
    gap = field - ew
    worst = int(np.argmin(gap))
    checks.append(_leq_check(
        "exit_time.domination",
        f"E_P >= E_w(r) - {_EXIT_TOL:.0%} of the center value, pointwise",
        float(ew[worst]) - slack, float(field[worst]), 0.0,
        notes=f"worst vertex r={region.r[worst]:.6g}, slack {slack:.4g}"))

    def quots(radius):
        return (dgeom.ball_area(mesh, radius) / model.vol_ball(radius),
                dgeom.flux(mesh, radius) / model.vol_sphere(radius))

    vR, fR = quots(R)
    try:
        vH, fH = quots(R / 2.0)
    except DomainError as exc:  # such as a ball of no face below a catenoid's neck
        stable, notes = False, f"no volume/flux quotients at R/2: {exc}"
    else:
        stable = (abs(vR - fR) <= _EXIT_TOL * abs(fR)
                  and abs(vR - vH) <= _EXIT_TOL * abs(vR)
                  and abs(fR - fH) <= _EXIT_TOL * abs(fR))
        notes = "volume/flux quotients not stable at R and R/2"
    if stable:
        dev = float(np.abs(gap).max())
        checks.append(_leq_check(
            "exit_time.equality_case",
            "quotients stable: E_P matches E_w(r) pointwise",
            dev, slack, 0.0,
            notes=f"max |E_P - E_w| = {dev:.4g} against slack {slack:.4g}"))
    else:
        checks.append(Check(
            "exit_time.equality_case", "equality proxy not triggered",
            float(abs(vR - fR)), _EXIT_TOL * abs(fR), 0.0, _EXIT_TOL, INCONCLUSIVE,
            notes=notes))
    return checks


@dataclass(eq=False)
class EndsReport:
    R: float
    t: float
    bound: float
    count: int
    asymptotic_bound: float | None
    asymptotic_bound_unit_constant: float | None
    checks: list
    warning: str | None

    def to_dict(self):
        return {
            "R": self.R,
            "t": self.t,
            "bound": self.bound,
            "count": self.count,
            "asymptotic_bound": self.asymptotic_bound,
            "asymptotic_bound_unit_constant": self.asymptotic_bound_unit_constant,
            "warning": self.warning,
            "checks": [c.to_dict() for c in self.checks],
        }


def ends_bound(study: Study, R: float, t: float,
               curve: QuotientCurve | None = None) -> EndsReport:
    """Upper bound (2/(1-R/t))^m * (int_0^t w^(m-1) / (t^m/m)) * volume
    quotient at t, compared against the discrete end count at R; also the
    asymptotic form 2^m * C_w * Vol_w when the coefficient is finite."""
    if not t > R:
        raise DomainError(f"need t > R, got R={R!r}, t={t!r}")
    mesh, model = study.mesh, study.model
    gates = [
        study.curvature_gate(t),
        study.balance_gate(t),
        study.monotone_gate(t, strict=True),
        _gate_check(
            "gate.nonpositive_model_curvature",
            "-w''/w <= 0 beyond R (flat-or-negative model curvature)",
            max(-model.warp.d2w(float(s)) / model.warp.w(float(s))
                for s in np.linspace(R * 1.001, t, 64)) <= 1e-9),
    ]
    checks = list(gates)
    ends = study.ends(R)
    if any(g.verdict == INCONCLUSIVE for g in gates):
        checks = gate_verdicts(gates, [Check(
            "ends.bound", "end count within the volume bound",
            float(ends.count), math.nan, math.nan, 0.0, INCONCLUSIVE)])
        return EndsReport(R, t, math.nan, ends.count, None, None, checks, ends.warning)
    m = model.m
    coeff = m * model.vol_ball(t) / (model.V0 * t ** m)
    vol_quot_t = dgeom.ball_area(mesh, t) / model.vol_ball(t)
    bound = (2.0 / (1.0 - R / t)) ** m * coeff * vol_quot_t
    checks.append(_leq_check(
        "ends.bound",
        "number of ends at R within (2/(1-R/t))^m * C(t) * VolQuot(t)",
        float(ends.count), bound, 0.0,
        notes=f"count={ends.count}, coefficient factor {coeff:.6g}"))
    asym = asym_unit = None
    ec = model.ends_coefficient(np.linspace(t / 16.0, t, 64))
    if not ec.divergent:
        vol_w = curve.w_volume_estimate() if curve is not None else vol_quot_t
        asym = (2.0 ** m) * ec.reported_limsup * vol_w
        asym_unit = ec.reported_limsup * vol_w
        checks.append(_leq_check(
            "ends.asymptotic",
            "global end count within 2^m * C_w * Vol_w",
            float(ends.count), asym, 0.0,
            notes=f"C_w ~ {ec.reported_limsup:.6g}, Vol_w ~ {vol_w:.6g}; "
                  "the unit-constant variant is reported alongside"))
    return EndsReport(R, t, float(bound), ends.count, asym, asym_unit, checks, ends.warning)


@dataclass(eq=False)
class ToneReport:
    upper: float
    lower: float
    end_factor: float
    end_factors: list
    tone_limsup: float
    eigenvalues: list
    checks: list

    def to_dict(self):
        return {
            "upper": self.upper,
            "lower": self.lower,
            "end_factor": self.end_factor,
            "end_factors": self.end_factors,
            "tone_limsup": self.tone_limsup,
            "eigenvalues": self.eigenvalues,
            "checks": [c.to_dict() for c in self.checks],
        }


def tone_report(study: Study, R0: float, grid) -> ToneReport:
    """Two-sided fundamental-tone report: the model upper limit scaled by the
    flux/volume factor of the best end, the Cheeger lower bound 1/(4 L^2),
    and (with a mesh) the trend of discrete first eigenvalues."""
    mesh, model = study.mesh, study.model
    grid = np.asarray(grid, dtype=float)
    # with a mesh, the discrete trend compares a Euclidean immersion to the model
    gates = [study.curvature_gate(float(grid[-1]))] if mesh is not None else []
    gates.append(study.balance_gate(float(grid[-1])))
    checks = list(gates)
    gated = any(g.verdict == INCONCLUSIVE for g in gates)
    tone = model.tone_upper_limit(grid)
    cheeger = model.cheeger_bound(grid)
    factors = []
    if mesh is not None:
        ends = study.ends(R0)
        sub = grid[grid > R0 * 1.05]
        if len(sub) < 2:
            raise DomainError("grid must extend beyond R0 for end-restricted quotients")
        for mask in ends.face_masks:
            c = quotient_curves(mesh, model, sub, end_mask=mask)
            factors.append(c.w_flux_estimate() / c.w_volume_estimate())
        # the sweeps are done: the eigenvalue LUs below peak without their index
        mesh.radial_index_memo = None
    factor = min(factors) if factors else 1.0
    upper = factor * tone.reported_limsup
    lower = cheeger.lower_bound
    if gated:
        checks = gate_verdicts(gates, [Check(
            "tone.consistency", "Cheeger lower bound below the upper tone bound",
            lower, upper, math.nan, 0.0, INCONCLUSIVE)])
        return ToneReport(float(upper), float(lower), float(factor), factors,
                          float(tone.reported_limsup), [], checks)
    if math.isfinite(upper):
        checks.append(_leq_check(
            "tone.consistency", "Cheeger lower bound below the upper tone bound",
            lower, upper, 1e-9,
            notes=f"factor {factor:.6g} * limit {tone.reported_limsup:.6g}"))
    eigenvalues = []
    if mesh is not None:
        radii = np.linspace(grid[0] + (grid[-1] - grid[0]) * 0.25, grid[-1], 4)
        # the balls are nested, so the largest one's order serves them all
        rank = dgeom.elimination_rank(mesh, float(radii[-1]))
        for R in radii:
            eigenvalues.append((float(R), dgeom.first_eigenvalue_estimate(
                dgeom.clip(mesh, 0.0, float(R)), rank)))
        lams = np.array([lam for _, lam in eigenvalues])
        if len(lams) >= 2:
            worst = int(np.argmax(lams[1:] / lams[:-1]))
            checks.append(_leq_check(
                "tone.trend", "discrete eigenvalues nonincreasing along the exhaustion",
                float(lams[worst + 1]), float(lams[worst]), 0.02,
                notes=f"step R={eigenvalues[worst][0]:.6g} -> {eigenvalues[worst + 1][0]:.6g}"))
        checks.append(_leq_check(
            "tone.lower_vs_discrete", "Cheeger bound below every discrete eigenvalue",
            lower, float(lams.min()), 0.02))
    return ToneReport(float(upper), float(lower), float(factor), factors,
                      float(tone.reported_limsup), eigenvalues, checks)


def volume_flux_tail(curve: QuotientCurve) -> Check:
    """When the volume quotient has stabilized over the last tenth of the
    grid (finite w-volume detected), the flux and volume quotients must
    agree at the largest radius."""
    window = curve.vol_quot[_top_slice(len(curve.grid))]
    spread = float(window.max() - window.min()) / max(float(window.max()), 1e-300)
    if len(window) < 2 or spread > _STABLE_TOL:
        return Check("volume_flux.tail", "w-flux equals w-volume for finite w-volume",
                     spread, _STABLE_TOL, 0.0, _STABLE_TOL, INCONCLUSIVE,
                     notes="volume quotient not stable over the last tenth of the grid")
    v, f = float(curve.vol_quot[-1]), float(curve.flux_quot[-1])
    gap = abs(f - v) / max(abs(v), 1e-300)
    return Check("volume_flux.tail", "w-flux equals w-volume for finite w-volume",
                 f, v, gap, _TAIL_TOL, PASS if gap <= _TAIL_TOL else FAIL,
                 notes=f"relative gap {gap:.4g} at R={curve.grid[-1]:.6g}")


# ---------------------------------------------------------------------------
# report container


@dataclass(eq=False)
class VerificationReport:
    checks: list
    scalars: dict = field(default_factory=dict)
    curves: dict = field(default_factory=dict)
    config: dict = field(default_factory=dict)

    def extend(self, checks):
        self.checks.extend(checks)

    def counts(self):
        out = {PASS: 0, FAIL: 0, INCONCLUSIVE: 0}
        for c in self.checks:
            out[c.verdict] += 1
        return out

    def to_json(self) -> str:
        payload = {
            "config": self.config,
            "scalars": self.scalars,
            "curves": self.curves,
            "checks": [c.to_dict() for c in self.checks],
            "summary": self.counts(),
        }
        return json.dumps(_json_safe(payload), sort_keys=True, indent=2, allow_nan=False)


def _json_safe(obj):
    """Strict-JSON encoding: non-finite floats become strings."""
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    if isinstance(obj, np.floating):
        return _json_safe(float(obj))
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return _json_safe(obj.tolist())
    return obj
