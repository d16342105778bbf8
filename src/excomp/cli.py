"""Command-line front end.

Subcommands: model (pure model-space quantities), surface (mesh generation
and ingestion), quotients, capacity, exit-time, ends, tone, and verify (the
full check suite).  Output goes to <outdir>/<run-name>/ as report.json,
curves.csv, mesh.off and meta.json; identical configurations produce
byte-identical report.json (wall-clock data, the placement keys out and
name, and the directory of --mesh live only in meta.json).

Flag values override --config file entries, which override defaults; a
config key must name a flag and its value must pass that flag's own type and
choices.  Exit codes: 0 clean, 1 failed checks (or inconclusive under
--strict), 2 usage, 3 computation error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import harness, surfaces
from .errors import ExcompError
from .modelspace import DEFAULT_QUAD, ModelSpace, QuadratureConfig, WarpingSpec
from .harness import FAIL, INCONCLUSIVE, PASS, VerificationReport, _json_safe

# Keys that place a run without changing its results: they go to meta.json,
# so report.json does not depend on them.
_PLACEMENT_KEYS = ("out", "name")


class UsageError(ExcompError):
    """A flag or config value that does not parse (exit code 2)."""


def _parse_numbers(spec, sep: str, kind, what: str) -> tuple:
    try:
        return tuple(kind(x) for x in str(spec).split(sep))
    except ValueError:
        raise UsageError(f"{what} must be {kind.__name__} values separated by "
                         f"{sep!r}, got {spec!r}") from None


_MAX_GRID = 10 ** 6  # radii per --grid; np.linspace of 1e308 radii raises ValueError


def _parse_grid(spec: str) -> np.ndarray:
    parts = _parse_numbers(spec, ":", float, "--grid")
    if len(parts) != 3 or not all(map(math.isfinite, parts)) or not parts[2].is_integer():
        raise UsageError(f"--grid must be a:b:n with finite a, b and a whole number n, "
                         f"got {spec!r}")
    a, b, n = parts
    if n < 2 or a <= 0 or b <= a:
        raise ExcompError(f"grid bounds must be positive and increasing, got {spec!r}")
    if n > _MAX_GRID:
        raise ExcompError(f"grid of {n:.6g} radii is more than {_MAX_GRID}, got {spec!r}")
    return np.linspace(a, b, int(n))


def _parse_finite(spec, sep: str, what: str, form: str, counts) -> tuple:
    """The numbers of spec, separated by sep: each finite, and as many as
    one of counts names."""
    parts = _parse_numbers(spec, sep, float, what)
    if len(parts) not in counts or not all(map(math.isfinite, parts)):
        raise UsageError(f"{what} must be {form} with every number finite, got {spec!r}")
    return parts


def make_model(dim: int, warp: str, lam: float = math.inf,
               quad: QuadratureConfig = DEFAULT_QUAD) -> ModelSpace:
    warp = warp.strip()
    if warp.startswith("b="):
        b, = _parse_finite(warp[2:], ",", "--warp b=<curvature>", "one number", (1,))
        spec = WarpingSpec.space_form(b)
    elif warp == "r":
        spec = WarpingSpec.space_form(0.0)
    else:
        return ModelSpace(dim, WarpingSpec.custom(warp, lam=lam), quad)
    if lam != math.inf:  # a space form's domain follows from its curvature
        raise UsageError(f"--lambda applies to a custom --warp only, got --lambda {lam!r} "
                         f"with the space form --warp {warp!r}")
    return ModelSpace(dim, spec, quad)


def make_surface(args) -> surfaces.TriMesh:
    pole = _parse_finite(args.pole, ",", "--pole", "x,y,z", (3,))
    if args.mesh:
        if not os.path.exists(args.mesh):
            raise ExcompError(f"mesh file not found: {args.mesh}")
        return surfaces.load_mesh(args.mesh, fmt=args.format, pole=pole)
    if not args.surface:
        raise ExcompError("either --surface or --mesh is required")
    res = _parse_numbers(args.res, ":", int, "--res")
    if len(res) > 2:
        raise UsageError(f"--res must be NU or NU:NV, got {args.res!r}")
    nu, nv = res[0], res[-1]
    surf = surfaces.builtin(args.surface, a=args.a, c=args.c, cover_radius=args.cover)
    return surfaces.tessellate(surf, nu, nv, pole=pole)


def _model_flags(p: argparse.ArgumentParser):
    p.add_argument("--dim", type=int, default=None, help="model dimension m >= 2")
    p.add_argument("--warp", default=None,
                   help="warping function: expression in r, or b=<curvature>")
    p.add_argument("--lambda", dest="lam", default=None,
                   type=_checked_float("--lambda", "a finite number or inf",
                                       lambda value: math.isfinite(value) or value == math.inf),
                   help="domain bound for custom warping functions (default: infinity)")


def _surface_flags(p: argparse.ArgumentParser):
    p.add_argument("--surface", choices=surfaces.BUILTIN_NAMES, default=None)
    p.add_argument("--a", type=float, default=None, help="catenoid neck radius")
    p.add_argument("--c", type=float, default=None, help="helicoid pitch")
    p.add_argument("--cover", type=float, default=None,
                   help="extrinsic radius the window must cover")
    p.add_argument("--res", default=None, help="grid resolution NU[:NV]")
    p.add_argument("--mesh", default=None, help="path to an OFF/OBJ mesh to ingest")
    p.add_argument("--format", choices=("off", "obj"), default=None)
    p.add_argument("--pole", default=None, help="pole position x,y,z")


def _checked_float(flag: str, what: str = "a finite number", ok=math.isfinite):
    """The argparse type of a flag that takes one float for which ok holds."""
    def parse(text: str) -> float:
        value = float(text)
        if not ok(value):
            raise UsageError(f"{flag} must be {what}, got {text!r}")
        return value
    parse.__name__ = "float"  # argparse's message for a value that is no number
    return parse


def _radius_flags(p: argparse.ArgumentParser, *flags: str):
    for flag in flags:
        p.add_argument(flag, type=_checked_float(flag), default=None)


def _r0_flag(p: argparse.ArgumentParser):
    """--R0, the ends split radius: absent takes the command's default, and a
    given value must be positive."""
    p.add_argument("--R0", default=None,
                   type=_checked_float("--R0", "a positive finite number",
                                       lambda value: 0 < value < math.inf))


def _common_flags(p: argparse.ArgumentParser):
    p.add_argument("--config", default=None, help="JSON file with default flag values")
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--name", default=None, help="run name (subdirectory)")
    p.add_argument("--strict", action="store_true", default=None,
                   help="inconclusive checks also fail the run")
    for flag in ("--quad-abs-tol", "--quad-rel-tol"):
        p.add_argument(flag, type=_checked_float(flag), default=None)


_DEFAULTS = {
    "dim": 2, "warp": "r", "lam": math.inf,
    "a": 1.0, "c": 1.0, "cover": None, "res": "128",
    "mesh": None, "format": None, "pole": "0,0,0", "surface": None,
    "out": None, "name": None, "strict": False,
    "quad_abs_tol": DEFAULT_QUAD.abs_tol, "quad_rel_tol": DEFAULT_QUAD.rel_tol,
    "grid": None, "capacity": None, "exit_time": None,
    "rho": None, "R": None, "t": None, "R0": None,
}


def _config_value(action: argparse.Action, key: str, val):
    """A --config value checked and converted as the flag's own parser would
    check and convert it on the command line."""
    if action.nargs == 0:  # a switch such as --strict takes a JSON boolean
        ok = isinstance(val, bool)
    else:
        try:
            val = action.type(str(val)) if action.type else str(val)
            ok = action.choices is None or val in action.choices
        except (TypeError, ValueError, argparse.ArgumentTypeError, UsageError):
            ok = False
    if not ok:
        raise UsageError(f"config key {key!r} has an invalid value {val!r}")
    return val


def _resolve(args: argparse.Namespace, parser: argparse.ArgumentParser) -> argparse.Namespace:
    """Layer flag values over --config entries over defaults."""
    merged = dict(_DEFAULTS)
    if getattr(args, "config", None):
        if not os.path.exists(args.config):
            raise ExcompError(f"config file not found: {args.config}")
        try:
            with open(args.config) as fh:
                cfg = json.load(fh)
        except ValueError as exc:
            raise UsageError(f"config file {args.config} is not valid JSON: {exc}") from None
        if not isinstance(cfg, dict):
            raise UsageError(f"config file {args.config} must hold a JSON object")
        subcommands = next(a for a in parser._actions if a.dest == "command").choices
        actions = {a.dest: a for p in subcommands.values() for a in p._actions}
        for key, val in cfg.items():
            key = key.replace("-", "_")
            if key not in _DEFAULTS:
                raise UsageError(f"unknown config key {key!r} "
                                 f"(known: {', '.join(sorted(_DEFAULTS))})")
            if val is not None:  # null keeps the default
                merged[key] = _config_value(actions[key], key, val)
    for key, val in vars(args).items():
        if val is not None:
            merged[key] = val
    out = merged.get("out") or os.environ.get("EXCOMP_OUTDIR") or "runs"
    merged["out"] = out
    ns = argparse.Namespace(**merged)
    ns.command = args.command
    return ns


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="excomp",
        description="model-space comparison quantities and discrete verification "
                    "on triangulated minimal surfaces")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("model", help="model-space quantities (no mesh)")
    _model_flags(p)
    _common_flags(p)
    p.add_argument("--grid", default=None, help="radius grid a:b:n for the CSV table")
    p.add_argument("--capacity", default=None, help="annulus rho:R")
    p.add_argument("--exit-time", dest="exit_time", default=None,
                   help="ball radius R or R:r for a start radius")

    p = sub.add_parser("surface", help="generate or ingest a mesh; writes OFF + sidecar")
    _surface_flags(p)
    _common_flags(p)

    p = sub.add_parser("quotients", help="volume and flux quotient curves")
    _surface_flags(p)
    _model_flags(p)
    _common_flags(p)
    p.add_argument("--grid", default=None)

    p = sub.add_parser("capacity", help="discrete vs model capacity of an annulus")
    _surface_flags(p)
    _model_flags(p)
    _common_flags(p)
    _radius_flags(p, "--rho", "--R")

    p = sub.add_parser("exit-time", help="discrete vs model mean exit time of a ball")
    _surface_flags(p)
    _model_flags(p)
    _common_flags(p)
    _radius_flags(p, "--R")

    p = sub.add_parser("ends", help="end count against the volume bound")
    _surface_flags(p)
    _model_flags(p)
    _common_flags(p)
    _radius_flags(p, "--R", "--t")
    p.add_argument("--grid", default=None)

    p = sub.add_parser("tone", help="fundamental tone bounds (model, optionally mesh)")
    _surface_flags(p)
    _model_flags(p)
    _common_flags(p)
    _r0_flag(p)
    p.add_argument("--grid", default=None)

    p = sub.add_parser("verify", help="full comparison suite on one surface")
    _surface_flags(p)
    _model_flags(p)
    _common_flags(p)
    _radius_flags(p, "--rho", "--R", "--t")
    _r0_flag(p)
    p.add_argument("--grid", default=None)
    return parser


def _model(args) -> ModelSpace:
    # the tolerances are checked before --warp is parsed, and reported first
    quad = QuadratureConfig(abs_tol=args.quad_abs_tol, rel_tol=args.quad_rel_tol)
    return make_model(args.dim, args.warp, args.lam, quad)


def _rundir(args) -> Path:
    name = args.name or args.command
    path = Path(args.out) / name
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_outputs(args, report: VerificationReport, mesh=None, started=None):
    rundir = _rundir(args)
    (rundir / "report.json").write_text(report.to_json() + "\n")
    if report.curves:
        lines = ["R [ambient length],vol_quotient [1],flux_quotient [1]"]
        curve = report.curves
        for R, vol, flx in zip(curve.grid.tolist(), curve.vol_quotient.tolist(),
                               curve.flux_quotient.tolist()):
            lines.append(f"{R!r},{vol!r},{flx!r}")
        (rundir / "curves.csv").write_text("\n".join(lines) + "\n")
    if mesh is not None:
        mesh.save_off(rundir / "mesh.off")
    meta = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "runtime_sec": None if started is None else time.perf_counter() - started,
        # CPU of the whole process and of this (main) thread: the difference
        # is what library worker threads spent
        "cpu_sec": time.process_time(),
        "main_thread_cpu_sec": time.thread_time(),
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__},
        **{key: getattr(args, key) for key in _PLACEMENT_KEYS},
        "mesh": args.mesh,
    }
    (rundir / "meta.json").write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n")
    return rundir


def _print_checks(report: VerificationReport):
    for c in report.checks:
        mark = {PASS: "PASS", FAIL: "FAIL", INCONCLUSIVE: "INCONCLUSIVE"}[c.verdict]
        print(f"[{mark}] {c.id}: {c.statement}"
              + (f" ({c.notes})" if c.notes else ""))


def _exit_code(args, report: VerificationReport) -> int:
    counts = report.counts()
    if counts[FAIL]:
        return 1
    if args.strict and counts[INCONCLUSIVE]:
        return 1
    return 0


# ---------------------------------------------------------------------------
# subcommand bodies


def _cmd_model(args) -> int:
    started = time.perf_counter()
    model = _model(args)
    grid = _parse_grid("0.5:30:100" if args.grid is None else args.grid)
    scalars: dict = {"dim": model.m, "warp": model.warp.describe(), "V0": model.V0}
    if math.isinf(model.warp.lam):
        scalars["parabolicity"] = model.parabolicity()
        scalars["tone"] = model.tone_upper_limit(grid)
        scalars["cheeger"] = model.cheeger_bound(grid)
        scalars["ends_coefficient"] = model.ends_coefficient(grid)
    if args.capacity is not None:
        rho, R = _parse_finite(args.capacity, ":", "--capacity", "rho:R", (2,))
        scalars["capacity"] = model.capacity(rho, R)
        print(f"capacity({rho}, {R}) = {scalars['capacity']:.6g}")
    if args.exit_time is not None:
        R, *start = _parse_finite(args.exit_time, ":", "--exit-time", "R or R:r", (1, 2))
        r = start[0] if start else 0.0
        scalars["exit_time"] = model.mean_exit(R, r)
        print(f"mean_exit({R}, start={r}) = {scalars['exit_time']:.6g}")
    # the table is computed before any output is written, so that a radius out
    # of range leaves no report behind
    table = None
    if args.grid is not None:
        table = ["r [length],w [length],eta [1/length],volS [length^(m-1)],"
                 "volB [length^m],q [length],q_eta [1]"]
        for r in grid:
            r = float(r)
            w = model.warp.w(r)
            eta = model.eta(r)
            vs = model.vol_sphere(r)
            vb = model.vol_ball(r)
            q = vb / vs
            table.append(f"{r!r},{w!r},{eta!r},{vs!r},{vb!r},{q!r},{q * eta!r}")
    report = VerificationReport([], scalars=scalars, config=_config_dict(args))
    rundir = _write_outputs(args, report, started=started)
    if table is not None:
        (rundir / "model.csv").write_text("\n".join(table) + "\n")
    print(json.dumps(_json_safe(scalars), sort_keys=True, indent=2))
    return 0


def _cmd_surface(args) -> int:
    mesh = make_surface(args)
    rundir = _rundir(args)
    mesh.save_off(rundir / "mesh.off")
    sidecar = {
        # an ingested mesh by its file name alone, as config.mesh in report.json
        "name": Path(args.mesh).name if args.mesh else mesh.name,
        "pole": list(map(float, mesh.pole)),
        "vertices": len(mesh.verts),
        "faces": len(mesh.faces),
        "max_radius": mesh.max_r(),
        "minimality_residual_p95": surfaces.minimality_residual(mesh),
    }
    (rundir / "mesh.json").write_text(json.dumps(sidecar, sort_keys=True, indent=2) + "\n")
    print(json.dumps(sidecar, sort_keys=True, indent=2))
    return 0


def _study_command(body, mesh_optional: bool = False):
    """A subcommand over one `harness.Study` of the model and mesh the flags
    name.  `body(args, study, report)` adds its checks, scalars and curves to
    the report and returns a line to print after the checks, or None."""
    def run(args) -> int:
        started = time.perf_counter()
        model = _model(args)
        mesh = make_surface(args) if args.surface or args.mesh or not mesh_optional else None
        report = VerificationReport([], config=_config_dict(args))
        closing = body(args, harness.Study(mesh, model), report)
        _write_outputs(args, report, mesh, started)
        _print_checks(report)
        if closing:
            print(closing)
        return _exit_code(args, report)
    return run


def _quotient_checks(study: harness.Study, grid, report: VerificationReport):
    """The quotient curves over the grid, their gated isoperimetric and tail
    checks, and the curve itself, added to the report."""
    curve = harness.quotient_curves(study, grid)
    report.curves = curve
    report.extend(harness.gate_verdicts(
        harness.comparison_gates(study, float(grid[-1])),
        harness.verify_isoperimetric(curve) + [harness.volume_flux_tail(curve)]))
    return curve


def _curve_scalars(curve: harness.QuotientCurve) -> dict:
    return {"w_volume_estimate": curve.w_volume_estimate(),
            "w_flux_estimate": curve.w_flux_estimate(),
            "suprema_stable": curve.stable()}


def _cmd_quotients(args, study, report):
    grid = _parse_grid("0.5:3:8" if args.grid is None else args.grid)
    curve = _quotient_checks(study, grid, report)
    report.scalars = _curve_scalars(curve)


def _cmd_capacity(args, study, report):
    if args.rho is None or args.R is None:
        raise ExcompError("--rho and --R are required")
    report.extend(harness.verify_capacity_sandwich(study, args.rho, args.R))
    cap = study.capacity(args.rho, args.R)
    model_cap = study.model.capacity(args.rho, args.R)
    report.scalars = {
        "capacity_discrete": cap.capacity,
        "effective_resistance": cap.effective_resistance,
        "capacity_model": model_cap,
    }
    return f"capacity: discrete {cap.capacity:.6g}, model {model_cap:.6g}"


def _cmd_exit_time(args, study, report):
    if args.R is None:
        raise ExcompError("--R is required")
    report.extend(harness.exit_time_comparison(study, args.R))


def _cmd_ends(args, study, report):
    if args.R is None or args.t is None:
        raise ExcompError("--R and --t are required")
    curve = None
    if args.grid is not None:
        curve = harness.quotient_curves(study, _parse_grid(args.grid))
        report.curves = curve
    ends = harness.ends_bound(study, args.R, args.t, curve=curve)
    report.extend(ends.checks)
    report.scalars = ends
    return f"ends: count {ends.count}, bound {ends.bound:.6g}"


def _cmd_tone(args, study, report):
    grid = _parse_grid("0.5:30:100" if args.grid is None else args.grid)
    tone = harness.tone_report(study, float(grid[0]) if args.R0 is None else args.R0, grid)
    report.extend(tone.checks)
    report.scalars = tone
    return f"tone: lower {tone.lower:.6g}, upper {tone.upper:.6g}"


def _cmd_verify(args, study, report):
    mesh = study.mesh
    window = mesh.r[mesh.tags == surfaces.TAG_TRUNCATION]
    reach = float(window.min()) if len(window) else mesh.max_r()
    if args.grid is not None:
        grid = _parse_grid(args.grid)
    else:
        # a twentieth of the way out from the pole or, where that is further
        # out (past a catenoid's neck), from the mesh's smallest radius
        r_min = float(mesh.r.min())
        grid = np.linspace(max(reach / 20.0, r_min + (0.95 * reach - r_min) / 20.0),
                           0.95 * reach, 10)
    rho = args.rho if args.rho is not None else float(grid[0])
    R = args.R if args.R is not None else float(grid[len(grid) // 2])
    t = args.t if args.t is not None else float(grid[-1])
    R0 = args.R0 if args.R0 is not None else rho

    curve = _quotient_checks(study, grid, report)
    report.extend(harness.verify_capacity_sandwich(study, rho, R))
    if args.surface:  # builtin surfaces are immersed in Euclidean 3-space
        report.extend(harness.verify_euclidean_sandwich(study, rho, R))
    report.extend(harness.exit_time_comparison(study, R))
    ends = harness.ends_bound(study, R0, t, curve=curve)
    report.extend(ends.checks)
    tone = harness.tone_report(study, R0, grid)
    report.extend(tone.checks)
    report.scalars = {**_curve_scalars(curve), "ends": ends, "tone": tone}
    counts = report.counts()
    return (f"summary: {counts[PASS]} pass, {counts[FAIL]} fail, "
            f"{counts[INCONCLUSIVE]} inconclusive")


def _config_dict(args) -> dict:
    """Every setting but --config and the placement keys, with the mesh file
    by its name alone: the directory it was read from places the input."""
    cfg = {k: v for k, v in vars(args).items() if k not in ("config",) + _PLACEMENT_KEYS}
    if cfg["mesh"] is not None:
        cfg["mesh"] = Path(cfg["mesh"]).name
    return cfg


_COMMANDS = {
    "model": _cmd_model,
    "surface": _cmd_surface,
    "quotients": _study_command(_cmd_quotients),
    "capacity": _study_command(_cmd_capacity),
    "exit-time": _study_command(_cmd_exit_time),
    "ends": _study_command(_cmd_ends),
    "tone": _study_command(_cmd_tone, mesh_optional=True),
    "verify": _study_command(_cmd_verify),
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = _resolve(parser.parse_args(argv), parser)
        # a numpy overflow or invalid operation raises FloatingPointError, an
        # ArithmeticError, instead of warning and carrying on with inf or NaN
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ExcompError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ArithmeticError as exc:  # a float overflow or division by zero
        print(f"error: numeric {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:  # an output path that is a file, a mesh path that is a directory
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:  # e.g. a --res whose grid numpy cannot allocate
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
