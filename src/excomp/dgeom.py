"""Discrete operators on triangulated immersed surfaces.

Everything is driven by the per-vertex extrinsic distance r: marching-
triangle clipping between level sets (extrinsic balls and annuli), ball
areas and level polyline fluxes of r, cotangent-Laplacian Dirichlet and
Poisson solves (capacity, mean exit time), a membrane eigenvalue estimate,
and counting of ends as unbounded complement components.  Clipping is the
only path to a solve.  Ball areas and fluxes come from a radial index of
the (mesh, face mask), which the mesh keeps until another mask is asked for:
the faces sorted by their largest vertex radius with prefix sums of their
areas, so a level R cuts only the faces that straddle it and builds no
region; ball_area equals clip(mesh, 0, R).area() to within 1e-12 relative
(the summation order differs).

Conventions: level comparisons treat a vertex with r exactly equal to the
level as lying above it (symbolic perturbation by one ulp), interpolated cut
vertices carry r equal to the level exactly, a cut that lands within 1e-12
(in edge parameter) of a mesh vertex reuses that vertex instead of leaving a
zero-area fragment, boundary vertices of a clipped region carry per-vertex
labels (inner level, outer level, truncation) rather than traced loops, and
negative cotangent weights are clamped to zero so solves obey the discrete
maximum principle.

Solves make no BLAS vector call: the conjugate gradients (cg) are numpy code
and every inner product goes through _dot, so no solve wakes BLAS worker
threads.  scipy supplies the sparse matrices, SuperLU (splu) and csgraph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import (CoverageError, DomainError, SolveError, TruncationContactError)
from .surfaces import (TAG_TRUNCATION, TriMesh, _edge_counts, cotangent_laplacian, edge_keys,
                       face_areas)

if TYPE_CHECKING:
    from scipy import sparse

LABEL_INTERIOR = 0
LABEL_INNER = 1
LABEL_OUTER = 2
LABEL_TRUNCATION = 3

_CG_RTOL = 1e-10  # relative residual at which conjugate gradients stop
_EIGEN_TOL = 1e-8  # relative eigenvalue change at which inverse power iteration stops
_EIGEN_MAXITER = 500  # inverse power steps before it gives up


@dataclass(eq=False)
class ClippedRegion:
    """Submesh between the extrinsic radii rho and R of a parent mesh.

    Cut triangles are split along the linear interpolant of r on edges; cut
    vertices carry r equal to the cut level exactly, except that a cut within
    1e-12 of an edge end reuses that end.  vertex_label marks the inner level
    set, outer level set and inherited truncation boundary.
    """

    verts: np.ndarray
    faces: np.ndarray
    r: np.ndarray
    parent_face: np.ndarray
    rho: float
    R: float
    vertex_label: np.ndarray

    def area(self) -> float:
        return float(face_areas(self.verts, self.faces).sum())

    def has_label(self, label: int) -> bool:
        return bool(np.any(self.vertex_label == label))


def _roll_rows(rows: np.ndarray, shift: np.ndarray) -> np.ndarray:
    cols = (shift[:, None] + np.arange(3)[None, :]) % 3
    return np.take_along_axis(rows, cols, axis=1)


def _interp_edges(verts, r, pairs, level):
    """The vertex where the linear interpolant of r reaches `level` on each
    edge in `pairs`: one new vertex per unique undirected edge, or the edge
    end itself when the crossing lies within 1e-12 of it in the edge
    parameter (so a cut through a vertex leaves no zero-area fragment).
    Returns (new points, vertex index per row of pairs)."""
    n = len(verts)
    keys, inverse = np.unique(edge_keys(pairs, n), return_inverse=True)
    i, j = keys // n, keys % n
    t = np.clip((level - r[i]) / (r[j] - r[i]), 0.0, 1.0)
    new = (t > 1e-12) & (t < 1.0 - 1e-12)
    ids = np.where(t <= 1e-12, i, j)
    ids[new] = len(verts) + np.arange(int(new.sum()))
    i, j, t = i[new], j[new], t[new]
    pts = verts[i] + t[:, None] * (verts[j] - verts[i])
    return pts, ids[inverse]


def _clip_half(verts, r, faces, parent, level, keep_below):
    """Keep the part of each triangle on one side of the r = level line."""
    above = r >= level  # a vertex exactly at the level counts as above
    inside = ~above if keep_below else above
    fin = inside[faces]
    cnt = fin.sum(axis=1)

    out_faces = [faces[cnt == 3]]
    out_parent = [parent[cnt == 3]]
    new_pairs = []
    pending = []  # (kind, rotated faces, parent, slice of pair rows)

    m1 = cnt == 1
    if m1.any():
        f1 = _roll_rows(faces[m1], np.argmax(fin[m1], axis=1))
        new_pairs.append(np.column_stack([f1[:, 0], f1[:, 1]]))  # edge A-B
        new_pairs.append(np.column_stack([f1[:, 2], f1[:, 0]]))  # edge C-A
        pending.append(("tri", f1, parent[m1]))

    m2 = cnt == 2
    if m2.any():
        f2 = _roll_rows(faces[m2], np.argmax(~fin[m2], axis=1))  # v0 outside
        new_pairs.append(np.column_stack([f2[:, 0], f2[:, 1]]))  # edge v0-v1
        new_pairs.append(np.column_stack([f2[:, 2], f2[:, 0]]))  # edge v2-v0
        pending.append(("quad", f2, parent[m2]))

    if not new_pairs:
        return verts, r, np.concatenate(out_faces), np.concatenate(out_parent)

    pts, ids = _interp_edges(verts, r, np.concatenate(new_pairs), level)
    verts = np.concatenate([verts, pts])
    r = np.concatenate([r, np.full(len(pts), level)])

    cursor = 0
    for kind, f, par in pending:
        k = len(f)
        e1 = ids[cursor:cursor + k]
        e2 = ids[cursor + k:cursor + 2 * k]
        cursor += 2 * k
        if kind == "tri":
            tris = np.column_stack([f[:, 0], e1, e2])
            out_faces.append(tris)
            out_parent.append(par)
        else:
            # kept quad (v1, v2, I20, I01) fanned from v1
            out_faces.append(np.column_stack([f[:, 1], f[:, 2], e2]))
            out_faces.append(np.column_stack([f[:, 1], e2, e1]))
            out_parent.append(par)
            out_parent.append(par)
    return verts, r, np.concatenate(out_faces), np.concatenate(out_parent)


def clip(mesh: TriMesh, rho: float, R: float, face_mask=None,
         allow_truncation: bool = False) -> ClippedRegion:
    """Extrinsic annulus {rho <= r <= R} (ball when rho = 0) as a submesh.

    face_mask restricts the cut to a subset of parent faces.  Raises
    CoverageError when the truncation boundary of the mesh intrudes into
    the radius band (the region would leak through the computational
    window); allow_truncation accepts such windowed regions instead, for
    solves that handle the truncation boundary explicitly.
    """
    if not (0.0 <= rho < R):
        raise DomainError(f"need 0 <= rho < R, got rho={rho!r}, R={R!r}")
    faces = mesh.faces
    parent = np.arange(len(faces))
    if face_mask is not None:
        faces = faces[face_mask]
        parent = parent[face_mask]
    if not allow_truncation:
        _check_coverage(mesh, R, faces, rho=rho)
    verts = mesh.verts
    r = mesh.r
    verts, r, faces, parent = _clip_half(verts, r, faces, parent, R, keep_below=True)
    if rho > 0.0:
        verts, r, faces, parent = _clip_half(verts, r, faces, parent, rho, keep_below=False)

    areas = face_areas(verts, faces)
    keep = _nondegenerate(areas, areas.sum(), len(areas))
    faces, parent = faces[keep], parent[keep]

    used = np.unique(faces)
    remap = np.full(len(verts), -1, dtype=np.int64)
    remap[used] = np.arange(len(used))
    region = ClippedRegion(verts[used], remap[faces], r[used], parent, rho, R,
                           np.zeros(len(used), dtype=np.uint8))
    _label_boundary(region)
    return region


def _nondegenerate(areas: np.ndarray, total: float, count: int) -> np.ndarray:
    """Mask dropping the fragments of cuts through ties: those under 1e-13 of
    the mean area total / count of all the faces the cut left."""
    return areas > 1e-13 * max(total / max(count, 1), 1e-300)


def _check_coverage(mesh: TriMesh, R: float, faces: np.ndarray, rho: float = 0.0):
    """The window leaks if a truncation vertex of the faces in use lies
    strictly inside the radius band (rho, R); vertices at or below rho are
    wholly outside the requested region and do not count."""
    rv = mesh.r[faces[mesh.tags[faces] == TAG_TRUNCATION]]
    rv = rv[(rv > rho) & (rv < R)]
    if len(rv):
        raise _coverage_error(mesh.name, rv.min(), rho, R)


def _coverage_error(name: str, r: float, rho: float, R: float) -> CoverageError:
    return CoverageError(f"truncation boundary of {name!r} intrudes at r={r:.6g} "
                         f"inside the requested band ({rho:.6g}, {R:.6g})", R)


def _label_boundary(region: ClippedRegion):
    """Label the ends of each boundary edge: inner (both ends on r = rho,
    rho > 0), else outer (both on r = R), else truncation.  Level labels win
    over truncation at corner vertices."""
    if len(region.faces) == 0:
        raise DomainError("clip produced an empty region")
    i, j, counts = _edge_counts(region.faces, len(region.verts))
    ends = np.column_stack([i, j])[counts == 1]
    rv = region.r[ends]
    inner = (region.rho > 0) & np.all(
        np.abs(rv - region.rho) <= 1e-9 * max(1.0, region.rho), axis=1)
    outer = ~inner & np.all(np.abs(rv - region.R) <= 1e-9 * max(1.0, region.R), axis=1)
    labels = region.vertex_label
    labels[ends[~(inner | outer)]] = LABEL_TRUNCATION
    labels[ends[outer]] = LABEL_OUTER
    labels[ends[inner]] = LABEL_INNER


# ---------------------------------------------------------------------------
# radial gradient, ball areas and flux


def radial_gradient_norms(verts, faces, pole) -> np.ndarray:
    """|grad of r along the surface| per face: the ambient unit radial
    direction at the face centroid projected onto the face plane."""
    a, b, c = verts[faces[:, 0]], verts[faces[:, 1]], verts[faces[:, 2]]
    centroid = (a + b + c) / 3.0
    d = centroid - np.asarray(pole, float)
    dn = np.linalg.norm(d, axis=1)
    if np.any(dn < 1e-14):
        raise DomainError("face centroid coincides with the pole")
    d /= dn[:, None]
    nrm = np.cross(b - a, c - a)
    nn = np.linalg.norm(nrm, axis=1)
    if np.any(nn < 1e-300):
        raise DomainError("degenerate face in radial gradient computation")
    nrm /= nn[:, None]
    dot = (d * nrm).sum(axis=1)
    vals = np.sqrt(np.clip(1.0 - dot * dot, 0.0, 1.0))
    return vals


class RadialIndex:
    """The faces of a mesh, or of a face mask, sorted by their largest vertex
    radius, with prefix sums of their areas.  A level R is answered in
    O(log F + cut faces): the faces wholly below R count through the prefix
    sum and only the faces R straddles are cut or marched.  Meshes are
    immutable, so an index never goes stale."""

    def __init__(self, mesh: TriMesh, face_mask=None):
        # 32-bit face ids: the mesh keeps its index alive through later solves
        ids = np.arange(len(mesh.faces), dtype=np.int32)
        if face_mask is not None:
            ids = ids[face_mask]
        faces = mesh.faces[ids]
        rf = mesh.r[faces.T]  # one row per corner: reductions over rows are fast
        max_r = rf.max(axis=0)
        order = np.argsort(max_r)
        self.verts, self.faces, self.r, self.pole = mesh.verts, mesh.faces, mesh.r, mesh.pole
        self.name = mesh.name
        self.ids = ids[order]
        self.max_r = max_r[order]
        self.min_r = rf.min(axis=0)[order]
        # a float64 running sum drifts by up to F ulps; extended precision (where
        # the platform has it) keeps the prefix sums as accurate as clip's sum
        below = np.cumsum(face_areas(self.verts, faces[order]), dtype=np.longdouble)
        self.area_below = np.concatenate([[0.0], below.astype(float)])
        self.span = float((self.max_r - self.min_r).max()) if len(ids) else 0.0
        # only the nearest truncation vertex decides whether a ball leaks
        rv = rf[mesh.tags[faces.T] == TAG_TRUNCATION]
        rv = rv[rv > 0]
        self.truncation_r = float(rv.min()) if len(rv) else math.inf

    def _straddling(self, R: float):
        """The number of faces wholly below R (a vertex at R counts as above)
        and the faces R cuts, those with min r < R <= max r."""
        if not R > 0:  # NaN too, which searchsorted would place at an end
            raise DomainError(f"level radius must be positive, got {R!r}")
        if self.truncation_r < R:
            raise _coverage_error(self.name, self.truncation_r, 0.0, R)
        k = int(np.searchsorted(self.max_r, R, "left"))
        # a cut face has max r <= min r + span < R + span; the factor covers
        # the rounding of max r - min r and of R + span
        hi = int(np.searchsorted(self.max_r, (R + self.span) * (1.0 + 1e-12), "right"))
        return k, self.faces[self.ids[k:hi][self.min_r[k:hi] < R]]

    def ball_area(self, R: float) -> float:
        k, cut = self._straddling(R)
        used, local = np.unique(cut, return_inverse=True)
        verts, _, pieces, _ = _clip_half(self.verts[used], self.r[used], local.reshape(-1, 3),
                                         np.zeros(len(cut), np.int64), R, keep_below=True)
        areas = face_areas(verts, pieces)
        whole = float(self.area_below[k])
        areas = areas[_nondegenerate(areas, whole + areas.sum(), k + len(areas))]
        if k + len(areas) == 0:
            raise DomainError(f"the ball of radius {R!r} contains no face")
        return whole + float(areas.sum())

    def flux(self, R: float) -> float:
        _, f = self._straddling(R)
        fin = self.r[f] >= R
        odd = fin ^ (fin.sum(axis=1) == 2)[:, None]  # the vertex alone on its side of R
        f = _roll_rows(f, np.argmax(odd, axis=1))
        r0, r1, r2 = self.r[f[:, 0]], self.r[f[:, 1]], self.r[f[:, 2]]
        v0 = self.verts[f[:, 0]]
        p1 = v0 + ((R - r0) / (r1 - r0))[:, None] * (self.verts[f[:, 1]] - v0)
        p2 = v0 + ((R - r0) / (r2 - r0))[:, None] * (self.verts[f[:, 2]] - v0)
        seg = np.linalg.norm(p1 - p2, axis=1)
        w = radial_gradient_norms(self.verts, f, self.pole)
        return float((w * seg).sum())


def radial_index(mesh: TriMesh, face_mask=None) -> RadialIndex:
    """The RadialIndex of the mesh's faces, or of those face_mask selects.
    The mesh keeps the last one built, so a sweep over one mask builds it
    once and the memory held stays one index however many masks are swept."""
    if face_mask is None:
        key = None
    else:
        face_mask = np.asarray(face_mask)
        key = (face_mask.dtype.str, face_mask.shape, face_mask.tobytes())
    memo = mesh.radial_index_memo
    if memo is None or memo[0] != key:
        memo = mesh.radial_index_memo = (key, RadialIndex(mesh, face_mask))
    return memo[1]


def ball_area(mesh: TriMesh, R: float, face_mask=None) -> float:
    """Area of the extrinsic ball {r <= R}: clip(mesh, 0, R).area() to within
    1e-12 relative, without building the region."""
    return radial_index(mesh, face_mask).ball_area(R)


def flux(mesh: TriMesh, R: float, face_mask=None) -> float:
    """Flux of the extrinsic distance through the level r = R: the level
    polyline is extracted by marching triangles and |grad r| (per face, by
    ambient projection) is integrated against segment length."""
    return radial_index(mesh, face_mask).flux(R)


def radial_energy(mesh: TriMesh, region: ClippedRegion) -> float:
    """Integral of |grad r|^2 over the region (per-face ambient projection)."""
    w = radial_gradient_norms(mesh.verts, mesh.faces[region.parent_face], mesh.pole)
    areas = face_areas(region.verts, region.faces)
    return float((w * w * areas).sum())


# ---------------------------------------------------------------------------
# Laplacian systems

def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """a . b by einsum's own summation loop.  np.dot, @, np.vecdot and
    np.linalg.norm hand a vector of more than about 10 000 entries to BLAS,
    whose worker threads then spin on the other cores for no gain."""
    return float(np.einsum("i,i->", a, b))


def _norm(a: np.ndarray) -> float:
    return math.sqrt(_dot(a, a))


# The solvers call the module-level names cg and splu, which a tracer may
# wrap (perfbench/traced.py does).  splu imports scipy when called, so a run
# that only clips and sweeps never loads it.
def cg(A, b, *, rtol, atol, maxiter, M, callback=None):
    """Conjugate gradients for the SPD system A x = b from x = 0, with M the
    Jacobi preconditioner as a vector (the inverse of A's diagonal).  The
    algorithm and stopping rule are scipy's: stop once
    ||r|| < max(atol, rtol ||b||), call callback(x) after each iteration, and
    return (x, 0), or (x, maxiter) when the iterations run out.  Every inner
    product goes through _dot, so no step calls BLAS."""
    x = np.zeros_like(b)
    bnorm = _norm(b)
    if bnorm == 0.0:
        return x, 0
    tol = max(atol, rtol * bnorm)
    r = b.copy()
    z = np.empty_like(b)
    p = np.empty_like(b)
    for it in range(maxiter):
        if _norm(r) < tol:
            return x, 0
        np.multiply(M, r, out=z)
        rz = _dot(r, z)
        if it == 0:
            p[:] = z
        else:
            p *= rz / rz_prev
            p += z
        q = A @ p
        alpha = rz / _dot(p, q)
        x += alpha * p
        r -= alpha * q
        rz_prev = rz
        if callback is not None:
            callback(x)
    return x, maxiter


def splu(*args, **kwargs):
    from scipy.sparse.linalg import splu
    return splu(*args, **kwargs)


@dataclass(eq=False)
class SparseSPDSystem:
    """Cotangent stiffness with Dirichlet data and a lumped mass vector."""

    K: sparse.csr_matrix
    mass: np.ndarray
    constrained: np.ndarray
    values: np.ndarray

    def free_mask(self) -> np.ndarray:
        mask = np.ones(self.K.shape[0], dtype=bool)
        mask[self.constrained] = False
        return mask


def assemble_laplacian(region: ClippedRegion, boundary_spec: dict) -> SparseSPDSystem:
    """Stiffness and lumped mass for the region; boundary_spec maps the loop
    labels 'inner', 'outer', 'truncation' to Dirichlet values.  Labels not
    in the spec are left free (natural zero-Neumann in the weak form)."""
    unknown = set(boundary_spec) - {"inner", "outer", "truncation"}
    if unknown:
        raise DomainError(f"unknown boundary labels {sorted(unknown)}")
    K, mass = cotangent_laplacian(region.verts, region.faces)
    code = {"inner": LABEL_INNER, "outer": LABEL_OUTER, "truncation": LABEL_TRUNCATION}
    cons = []
    vals = []
    for label in ("inner", "outer", "truncation"):
        if label in boundary_spec:
            idx = np.flatnonzero(region.vertex_label == code[label])
            cons.append(idx)
            vals.append(np.full(len(idx), float(boundary_spec[label])))
    constrained = np.concatenate(cons) if cons else np.zeros(0, dtype=np.int64)
    values = np.concatenate(vals) if vals else np.zeros(0)
    if len(constrained) == 0:
        raise DomainError("system has no Dirichlet constraints")
    return SparseSPDSystem(K, mass, constrained, values)


def solve_dirichlet(system: SparseSPDSystem, source: np.ndarray | None = None) -> np.ndarray:
    """Solve K u = source with the stored Dirichlet values in place, by
    Jacobi-preconditioned conjugate gradients (cg above, numpy code that makes
    no BLAS call) to the relative residual _CG_RTOL.  With clamped weights the
    harmonic case obeys the discrete maximum principle."""
    # scipy's sparse solvers load at the first solve, not at the first splu:
    # loaded that late, they raised a verify run's peak memory by about 5 MB
    import scipy.sparse.linalg  # noqa: F401

    n = system.K.shape[0]
    free = system.free_mask()
    nfree = int(free.sum())
    field = np.zeros(n)
    field[system.constrained] = system.values
    if nfree == 0:
        return field
    Kf = system.K[free]
    Kff = Kf[:, free]
    rhs = -Kf[:, ~free] @ field[~free]
    if source is not None:
        rhs = rhs + source[free]
    diag = Kff.diagonal()
    diag = np.where(diag > 0, diag, 1.0)
    maxiter = max(5000, int(40 * math.sqrt(nfree)))
    x, info = cg(Kff, rhs, rtol=_CG_RTOL, atol=0.0, maxiter=maxiter, M=1.0 / diag)
    if info != 0:
        res = _norm(Kff @ x - rhs) / max(_norm(rhs), 1e-300)
        raise SolveError(f"conjugate gradients did not converge in {maxiter} iterations",
                         residual=res)
    field[free] = x
    return field


@dataclass(eq=False)
class CapacityResult:
    capacity: float
    effective_resistance: float


def capacity_discrete(region: ClippedRegion, truncation: str = "reflect") -> CapacityResult:
    """Capacity of the annulus: the Dirichlet energy of the potential that
    is 0 on the inner level set and 1 on the outer one.  Truncation
    boundary is either reflected (natural condition) or a hard error."""
    if truncation not in ("reflect", "error"):
        raise DomainError(f"unknown truncation policy {truncation!r}")
    if not region.has_label(LABEL_INNER):
        raise DomainError("capacity needs an inner level boundary (rho > 0)")
    if not region.has_label(LABEL_OUTER):
        raise DomainError("capacity needs an outer level boundary")
    if truncation == "error" and region.has_label(LABEL_TRUNCATION):
        raise TruncationContactError(
            "region touches the mesh truncation boundary under policy 'error'")
    h = _mean_edge_length(region)
    if region.R - region.rho < 2.0 * h:
        raise DomainError(
            f"annulus width {region.R - region.rho:.4g} under 2 mesh edge lengths ({2 * h:.4g})")
    system = assemble_laplacian(region, {"inner": 0.0, "outer": 1.0})
    psi = solve_dirichlet(system)
    cap = _dot(psi, system.K @ psi)
    return CapacityResult(cap, 1.0 / cap)


def exit_time_discrete(region: ClippedRegion) -> np.ndarray:
    """Per-vertex mean exit time of the extrinsic ball: K E = M 1 with E = 0
    on the outer level set."""
    if region.has_label(LABEL_INNER):
        raise DomainError("exit time is defined on an extrinsic ball (rho = 0)")
    if region.has_label(LABEL_TRUNCATION):
        raise TruncationContactError("extrinsic ball touches the truncation boundary")
    system = assemble_laplacian(region, {"outer": 0.0})
    return solve_dirichlet(system, source=system.mass)


def first_eigenvalue_estimate(region: ClippedRegion) -> float:
    """Smallest Dirichlet eigenvalue of (K, M) on the region by inverse
    power iteration (direct factorization of the free block)."""
    system = assemble_laplacian(region, {"inner": 0.0, "outer": 0.0, "truncation": 0.0})
    free = system.free_mask()
    nfree = int(free.sum())
    if nfree == 0:
        raise DomainError("region has no interior vertices")
    Kff = system.K[free][:, free].tocsc()
    mf = system.mass[free]
    lu = splu(Kff)
    x = np.ones(nfree)
    x /= math.sqrt(float((x * x * mf).sum()))
    lam_prev = None
    for _ in range(_EIGEN_MAXITER):
        x = lu.solve(mf * x)
        x /= math.sqrt(float((x * x * mf).sum()))
        lam = _dot(x, Kff @ x) / float((x * x * mf).sum())
        if lam_prev is not None and abs(lam - lam_prev) <= _EIGEN_TOL * abs(lam):
            return lam
        lam_prev = lam
    raise SolveError("inverse power iteration did not converge",
                     residual=abs(lam - lam_prev))


def _mean_edge_length(region: ClippedRegion) -> float:
    i, j, _ = _edge_counts(region.faces, len(region.verts))
    return float(np.linalg.norm(region.verts[i] - region.verts[j], axis=1).mean())


# ---------------------------------------------------------------------------
# ends


@dataclass(eq=False)
class EndsResult:
    count: int
    face_masks: list  # per counted component, boolean over parent faces
    warning: str | None


def end_components(mesh: TriMesh, R: float) -> EndsResult:
    """Connected components of the complement submesh {r > R} that touch the
    truncation boundary (the discrete proxy for non-compact closure)."""
    from scipy import sparse
    from scipy.sparse.csgraph import connected_components

    if R <= 0:
        raise DomainError(f"level radius must be positive, got {R!r}")
    warning = None
    if mesh.max_r() < 2.0 * R:
        warning = (f"complement components probed at R={R:.4g} but the window only "
                   f"reaches r={mesh.max_r():.4g} (< 2R); the count may be unstable")
    above = mesh.r > R
    keep = above[mesh.faces].all(axis=1)
    sub = mesh.faces[keep]
    if len(sub) == 0:
        return EndsResult(0, [], warning)
    n = len(mesh.verts)
    edges = np.concatenate([sub[:, [0, 1]], sub[:, [1, 2]], sub[:, [2, 0]]])
    graph = sparse.coo_matrix(
        (np.ones(len(edges)), (edges[:, 0], edges[:, 1])), shape=(n, n))
    ncomp, labels = connected_components(graph, directed=False)
    face_label = labels[sub[:, 0]]
    trunc = mesh.tags == TAG_TRUNCATION
    masks = []
    for comp in np.unique(face_label):
        comp_verts = np.unique(sub[face_label == comp])
        if trunc[comp_verts].any():
            mask = np.zeros(len(mesh.faces), dtype=bool)
            mask[np.flatnonzero(keep)[face_label == comp]] = True
            masks.append(mask)
    return EndsResult(len(masks), masks, warning)
