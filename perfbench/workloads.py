"""Workloads of the excomp benchmark: CLI arguments, seeded inputs,
expected verdicts and continuum oracles.

Each workload is one `excomp` invocation.  The seed shifts the radius grid
by less than one mesh edge (so the verdicts cannot change) and, for the
ingested mesh, permutes the vertex and face order of the OFF file.  The
oracles are closed forms or quadratures of the continuum surface, computed
here without importing excomp, and are evaluated at the seeded top radius.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import integrate, optimize

# Largest grid shift; below the smallest edge length near the grid radii of
# every workload mesh (about 0.04 for the catenoid and Enneper at res 192).
MAX_SHIFT = 0.02

# Relative tolerance of the volume quotient against its continuum oracle.
# The workload meshes are within 2e-4 (catenoid, Enneper) and 2e-3 (helicoid).
ORACLE_RTOL = 0.01


def catenoid_quotient(R: float) -> float:
    """Vol(D_R)/(pi R^2) of the unit-neck catenoid: the extrinsic ball is
    |v| < v* with cosh(v*)^2 + v*^2 = R^2, of area 2 pi (v* + sinh(2 v*)/2)."""
    v = optimize.brentq(lambda s: math.cosh(s) ** 2 + s * s - R * R, 0.0, math.acosh(R),
                        xtol=1e-14)
    return 2.0 * (v + math.sinh(2.0 * v) / 2.0) / (R * R)


def enneper_quotient(R: float, n: int = 4096) -> float:
    """Vol(D_R)/(pi R^2) of Enneper's surface.  In polar parameters with
    s = rho^2, |X|^2 = s + s^2 (1/2 - cos(4 theta)/6) + s^3/9 and the area
    element is (1+s)^2 rho drho dtheta, so the radial integral is
    ((1+s*)^3 - 1)/6 at the root s*(theta) of |X|^2 = R^2; the periodic
    theta integral uses the trapezoid rule."""
    theta = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    b = 0.5 - np.cos(4.0 * theta) / 6.0
    s = np.full(n, R * R)  # Newton from the right converges on this convex cubic
    for _ in range(100):
        step = (s ** 3 / 9.0 + b * s * s + s - R * R) / (s * s / 3.0 + 2.0 * b * s + 1.0)
        s -= step
        if np.abs(step).max() <= 1e-15 * R * R:
            break
    area = 2.0 * math.pi * float((((1.0 + s) ** 3 - 1.0) / 6.0).mean())
    return area / (math.pi * R * R)


def helicoid_quotient(R: float) -> float:
    """Vol(D_R)/(pi R^2) of the helicoid (v cos u, v sin u, u): the ball is
    u^2 + v^2 < R^2 with area element sqrt(v^2 + 1)."""
    area, _ = integrate.quad(
        lambda v: 2.0 * math.sqrt(R * R - v * v) * math.sqrt(v * v + 1.0), -R, R,
        epsabs=1e-13, epsrel=1e-13, limit=200)
    return area / (math.pi * R * R)


def write_helicoid_off(path, res: int, seed: int, cover: float = 12.0):
    """Write a helicoid (pitch 1) grid mesh covering extrinsic radius 1.1 *
    cover as ASCII OFF, with vertex order, face order and the starting
    corner of each face permuted by the seed.  The grid of the workload
    that reads it must end below 1.1 * cover."""
    ext = 1.1 * cover
    s = np.linspace(-ext, ext, res + 1)
    U, V = np.meshgrid(s, s, indexing="ij")
    verts = np.column_stack([(V * np.cos(U)).ravel(), (V * np.sin(U)).ravel(), U.ravel()])
    idx = np.arange(len(verts)).reshape(res + 1, res + 1)
    a, b = idx[:-1, :-1].ravel(), idx[1:, :-1].ravel()
    c, d = idx[1:, 1:].ravel(), idx[:-1, 1:].ravel()
    faces = np.concatenate([np.column_stack([a, b, c]), np.column_stack([a, c, d])])

    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(verts))
    new_id = np.empty_like(perm)
    new_id[perm] = np.arange(len(perm))
    verts = verts[perm]
    faces = new_id[faces][rng.permutation(len(faces))]
    roll = (rng.integers(0, 3, len(faces))[:, None] + np.arange(3)) % 3
    faces = np.take_along_axis(faces, roll, axis=1)
    with open(path, "w") as fh:
        fh.write(f"OFF\n{len(verts)} {len(faces)} 0\n")
        np.savetxt(fh, verts, fmt="%.17g")
        np.savetxt(fh, faces, fmt="3 %d %d %d")


_GATES = ("gate.curvature_bound", "gate.balance_below", "gate.w_monotone")
_QUOTIENT_CHECKS = ("isoperimetric.ordering", "isoperimetric.monotone.volume",
                    "isoperimetric.monotone.flux")


def _verdicts(*groups) -> tuple:
    """Flatten (ids, verdict) groups into the ordered verdict vector."""
    return tuple((check_id, verdict) for ids, verdict in groups for check_id in ids)


def _verify_verdicts(tail: str, euclidean: bool) -> tuple:
    return _verdicts(
        (_GATES + _QUOTIENT_CHECKS, "pass"),
        (("volume_flux.tail",), tail),
        (_GATES + ("capacity.lower", "capacity.upper")
         + (("euclidean.lower", "euclidean.upper") if euclidean else ())
         + _GATES[:2] + ("exit_time.domination",), "pass"),
        (("exit_time.equality_case",), "inconclusive"),
        (_GATES + ("gate.nonpositive_model_curvature", "ends.bound", "ends.asymptotic")
         + _GATES[:2] + ("tone.consistency", "tone.trend", "tone.lower_vs_discrete"), "pass"),
    )


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    argv: tuple          # excomp arguments; {res}, {grid} and {mesh} are filled in
    grid: tuple          # (first radius, last radius, count) before the seeded shift
    res: int             # mesh resolution
    smoke_res: int       # small resolution with the same verdicts, for --smoke
    oracle: Callable[[float], float]
    expected: tuple      # ordered (check id, verdict) pairs of report.json
    ingest: bool = False  # the mesh is a seeded helicoid OFF written during set-up

    def grid_spec(self, seed: int) -> str:
        shift = MAX_SHIFT * random.Random(seed).random()
        a, b, n = self.grid
        return f"{a + shift!r}:{b + shift!r}:{n}"

    def top_radius(self, seed: int) -> float:
        return float(self.grid_spec(seed).split(":")[1])

    def cli_args(self, seed: int, res: int, mesh: str | None) -> list:
        fill = {"res": str(res), "grid": self.grid_spec(seed), "mesh": mesh}
        return [arg.format(**fill) for arg in self.argv]


WORKLOADS = {w.name: w for w in (
    Workload(
        name="verify-catenoid",
        why="the README verify run: every layer, 3 quotient curves, CG and LU solves, "
            "and the clips and solves that callers repeat",
        argv=("verify", "--surface", "catenoid", "--a", "1", "--res", "{res}",
              "--cover", "21", "--dim", "2", "--warp", "r", "--grid", "{grid}",
              "--rho", "1.5", "--R", "6", "--t", "20", "--R0", "2"),
        grid=(2.0, 20.0, 10), res=192, smoke_res=192,
        oracle=catenoid_quotient,
        expected=_verify_verdicts(tail="pass", euclidean=True)),
    Workload(
        name="sweep-enneper",
        why="a long radial sweep of clips and fluxes with no solves, so solver "
            "changes must read no change here",
        argv=("quotients", "--surface", "enneper", "--res", "{res}", "--cover", "12",
              "--dim", "2", "--warp", "r", "--grid", "{grid}"),
        grid=(1.0, 12.0, 80), res=192, smoke_res=64,
        oracle=enneper_quotient,
        expected=_verdicts((_GATES + _QUOTIENT_CHECKS + ("volume_flux.tail",), "pass"))),
    Workload(
        name="ingest-helicoid",
        why="reads a permuted OFF mesh instead of generating one, with few radii, "
            "so mesh loading and badly ordered solves take a large share",
        argv=("verify", "--mesh", "{mesh}", "--dim", "2", "--warp", "r",
              "--grid", "{grid}", "--rho", "1", "--R", "6", "--t", "12", "--R0", "2"),
        grid=(2.0, 12.0, 3), res=256, smoke_res=192,
        oracle=helicoid_quotient,
        expected=_verify_verdicts(tail="inconclusive", euclidean=False),
        ingest=True),
)}
