"""Discrete operators on triangulated immersed surfaces.

Everything is driven by the per-vertex extrinsic distance r: marching-
triangle clipping between level sets (extrinsic balls and annuli), ball
areas and level polyline fluxes of r, cotangent-Laplacian Dirichlet and
Poisson solves (capacity, mean exit time), a membrane eigenvalue estimate,
and counting of ends as unbounded complement components.  Clipping is the
only path to a solve.  Ball areas and fluxes come from one radial index per
mesh, which the mesh keeps until a caller releases it: the faces sorted by
their largest vertex radius, with the area and |grad r| of each and prefix
sums of the areas.  RadialIndex.sweep answers a whole radius grid, with or
without a face mask, in one array pass over the (face, radius) pairs where
the radius straddles the face; no region is built.  ball_area and flux are
its one-radius forms, and ball_area equals clip(mesh, 0, R).area() to within
1e-12 relative (the summation order differs).

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
threads.  The eigenvalue LU eliminates in a nested-dissection order of the
mesh graph (elimination_rank), which one caller computes once for the
largest of a family of nested balls and passes to each.  scipy supplies the
sparse matrices, SuperLU (splu) and csgraph (the breadth-first searches of
that order and the end components).
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import (CoverageError, DomainError, SolveError, TruncationContactError)
from .surfaces import (TAG_TRUNCATION, TriMesh, _edge_counts, cotangent_laplacian, edge_keys,
                       face_areas, norms, triangle_normals)

if TYPE_CHECKING:
    from scipy import sparse

LABEL_INTERIOR = 0
LABEL_INNER = 1
LABEL_OUTER = 2
LABEL_TRUNCATION = 3

_CG_RTOL = 1e-10  # relative residual at which conjugate gradients stop
_EIGEN_TOL = 1e-8  # relative eigenvalue change at which inverse power iteration stops
_EIGEN_MAXITER = 500  # inverse power steps before it gives up
_ND_LEAF = 16  # nested dissection splits no part of at most this many vertices
_SNAP = 1e-12  # a cut this close to an edge end (in edge parameter) reuses the end


@dataclass(eq=False)
class ClippedRegion:
    """Submesh between the extrinsic radii rho and R of a parent mesh.

    Cut triangles are split along the linear interpolant of r on edges; cut
    vertices carry r equal to the cut level exactly, except that a cut within
    1e-12 of an edge end reuses that end.  vertex_label marks the inner level
    set, outer level set and inherited truncation boundary.  vertex_parent
    is the parent-mesh index of each vertex, -1 for a cut vertex.
    """

    verts: np.ndarray
    faces: np.ndarray
    r: np.ndarray
    parent_face: np.ndarray
    rho: float
    R: float
    vertex_label: np.ndarray
    vertex_parent: np.ndarray

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
    t = _edge_parameter(r[i], r[j], level)
    new = (t > _SNAP) & (t < 1.0 - _SNAP)
    ids = np.where(t <= _SNAP, i, j)
    ids[new] = len(verts) + np.arange(int(new.sum()))
    i, j, t = i[new], j[new], t[new]
    pts = verts[i] + t[:, None] * (verts[j] - verts[i])
    return pts, ids[inverse]


def _edge_parameter(ri, rj, level) -> np.ndarray:
    """Where the linear interpolant of r reaches level on each edge from a
    vertex of radius ri to one of radius rj, as a parameter in [0, 1]."""
    return np.clip((level - ri) / (rj - ri), 0.0, 1.0)


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

    used = np.flatnonzero(np.bincount(faces.ravel(), minlength=len(verts)))
    remap = np.full(len(verts), -1, dtype=np.int64)
    remap[used] = np.arange(len(used))
    region = ClippedRegion(verts[used], remap[faces], r[used], parent, rho, R,
                           np.zeros(len(used), dtype=np.uint8),
                           np.where(used < len(mesh.verts), used, -1))
    _label_boundary(region)
    return region


def _nondegenerate(areas: np.ndarray, total, count) -> np.ndarray:
    """Mask dropping the fragments of cuts through ties: those under 1e-13 of
    the mean area total / count of all the faces the cut left (per face, when
    total and count are arrays)."""
    return areas > 1e-13 * np.maximum(total / np.maximum(count, 1), 1e-300)


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

# |grad r| in place of a value on the faces where it is undefined
_AT_POLE = -1.0  # the face centroid coincides with the pole
_DEGENERATE = -2.0  # the face has no area


def _gradient_codes(a, b, c, normal, pole) -> np.ndarray:
    """|grad r| on each triangle with corners a, b, c and the normal
    triangle_normals(a, b, c): the ambient unit radial direction at the
    centroid projected onto the face plane.  A face with its centroid at the
    pole reads _AT_POLE, and otherwise a face of no area reads _DEGENERATE."""
    d = (a + b + c) / 3.0 - pole
    dn = norms(*d.T)
    nn = norms(*normal)
    at_pole, degenerate = dn < 1e-14, nn < 1e-300
    dn[at_pole] = 1.0
    nn[degenerate] = 1.0
    d /= dn[:, None]
    cos = d[:, 0] * (normal[0] / nn) + d[:, 1] * (normal[1] / nn) + d[:, 2] * (normal[2] / nn)
    w = np.sqrt(np.clip(1.0 - cos * cos, 0.0, 1.0))
    w[degenerate] = _DEGENERATE
    w[at_pole] = _AT_POLE
    return w


def _check_gradients(w: np.ndarray):
    if np.any(w == _AT_POLE):
        raise DomainError("face centroid coincides with the pole")
    if np.any(w == _DEGENERATE):
        raise DomainError("degenerate face in radial gradient computation")


def radial_gradient_norms(verts, faces, pole) -> np.ndarray:
    """|grad of r along the surface| per face: the ambient unit radial
    direction at the face centroid projected onto the face plane."""
    a, b, c = verts[faces[:, 0]], verts[faces[:, 1]], verts[faces[:, 2]]
    w = _gradient_codes(a, b, c, triangle_normals(a, b, c), np.asarray(pole, float))
    _check_gradients(w)
    return w


def _prefix_sums(values: np.ndarray) -> np.ndarray:
    # a float64 running sum drifts by up to F ulps; extended precision (where
    # the platform has it) keeps the prefix sums as accurate as clip's sum
    return np.concatenate([[0.0], np.cumsum(values, dtype=np.longdouble).astype(float)])


def _mapped(*arrays) -> list:
    """Copies of the arrays, all in one anonymous memory map, which is
    unmapped once no copy is referenced."""
    buf = mmap.mmap(-1, max(sum(a.nbytes for a in arrays), 1))
    copies, offset = [], 0
    for a in arrays:  # each of 8-byte items, so every copy stays aligned
        copy = np.frombuffer(buf, a.dtype, a.size, offset).reshape(a.shape)
        copy[...] = a
        copies.append(copy)
        offset += a.nbytes
    return copies


@dataclass(eq=False)
class _Cuts:
    """The faces that the levels of a sweep straddle, as (face, level) pairs
    in level order, for the levels before the first unusable one.  Each
    face's corners are rolled to put first the one alone on its side of the
    level."""

    levels: np.ndarray
    whole_area: np.ndarray  # per level, of the selected faces wholly below it
    whole_count: np.ndarray  # and their number
    label: np.ndarray  # per pair, the level's position
    faces: np.ndarray  # per pair, the face's rolled corners
    r: np.ndarray  # per pair, r at those corners
    area: np.ndarray  # per pair, the face's area
    grad: np.ndarray  # per pair, the face's |grad r| (or its code)
    error: Exception | None  # of the first unusable level, if any


class RadialIndex:
    """The faces of a mesh sorted by their largest vertex radius, with the
    area and |grad r| of each (from one cross product per face) and
    extended-precision prefix sums of the areas.  A sweep answers a whole
    radius grid in one array pass: the faces wholly below a level count
    through the prefix sums, and only the (face, level) pairs where the level
    straddles the face are cut or marched.  A face mask costs one more prefix
    sum, so one index serves every mask.  Meshes are immutable, so an index
    never goes stale."""

    def __init__(self, mesh: TriMesh):
        rf = mesh.r[np.ascontiguousarray(mesh.faces.T)]  # one row per corner
        max_r = rf.max(axis=0)
        self.ids = np.argsort(max_r)
        self.verts, self.r, self.name = mesh.verts, mesh.r, mesh.name
        self.faces = faces = mesh.faces[self.ids]
        self.max_r = max_r[self.ids]
        self.min_r = rf.min(axis=0)[self.ids]
        # from each position on, the least min r: no face past the first
        # position where it reaches R is cut by R
        self.min_r_after = np.minimum.accumulate(self.min_r[::-1])[::-1]
        a, b, c = (self.verts[faces[:, i]] for i in range(3))
        normal = triangle_normals(a, b, c)
        self.area = 0.5 * norms(*normal)  # face_areas, bit for bit
        self.grad = _gradient_codes(a, b, c, normal, mesh.pole)
        self.area_below = _prefix_sums(self.area)
        # per face with a truncation vertex at r > 0, the least such r: a ball
        # of the selected faces leaks through the window beyond the least one
        window = (mesh.tags == TAG_TRUNCATION) & (mesh.r > 0)
        self.truncation_pos = np.flatnonzero(window[faces].any(axis=1))
        edge = faces[self.truncation_pos]
        self.truncation_r = np.where(window[edge], mesh.r[edge], math.inf).min(axis=1)
        # The index outlives the solves after the first sweep and is released
        # before the eigenvalue LUs.  From the heap, its freed arrays can stay
        # resident as holes that the LUs do not reuse, which raised the peak
        # memory of verify runs; in a mapping of their own, their pages are
        # returned to the system when the index goes.
        (self.ids, self.faces, self.max_r, self.min_r, self.min_r_after, self.area, self.grad,
         self.area_below) = _mapped(self.ids, self.faces, self.max_r, self.min_r,
                                    self.min_r_after, self.area, self.grad, self.area_below)

    def sweep(self, radii, face_mask=None) -> tuple[np.ndarray, np.ndarray]:
        """The ball area (of {r <= R}) and the level flux of r through r = R
        at each radius R, over the faces face_mask selects (all by default).

        Each value is the one ball_area or flux returns at that radius alone,
        bit for bit.  So are the errors: those of ball_area at each radius in
        turn (a radius that is not positive, a window that the ball leaks
        through, a ball of no face), then those of flux (a level cutting a
        face with no radial gradient); the first radius in grid order wins."""
        cuts = self._cuts(radii, face_mask)
        return self._areas(cuts), self._fluxes(cuts)

    def _cuts(self, radii, face_mask) -> _Cuts:
        radii = np.asarray(radii, dtype=float).reshape(-1)
        truncation_r = self.truncation_r
        if face_mask is None:
            area_below = self.area_below
        else:
            keep = np.zeros(len(self.faces), dtype=bool)
            keep[face_mask] = True
            selected = keep[self.ids]
            chosen = np.flatnonzero(selected)  # the selected positions, in order
            area_below = _prefix_sums(self.area[chosen])
            truncation_r = truncation_r[selected[self.truncation_pos]]
        truncation_r = float(truncation_r.min(initial=math.inf))
        # a NaN is not positive either (searchsorted would place it at an end)
        usable = (radii > 0) & ~(truncation_r < radii)
        n = len(radii) if usable.all() else int(np.argmin(usable))
        error = None
        if n < len(radii):
            R = float(radii[n])
            error = (DomainError(f"level radius must be positive, got {R!r}") if not R > 0
                     else _coverage_error(self.name, truncation_r, 0.0, R))
        levels = radii[:n]
        # R cuts the faces with min r < R <= max r (a vertex at R counts as
        # above it), which all lie between these two positions
        k = np.searchsorted(self.max_r, levels, "left")
        counts = np.searchsorted(self.min_r_after, levels, "left") - k
        label = np.repeat(np.arange(n), counts)
        pos = np.arange(int(counts.sum())) + np.repeat(k - (np.cumsum(counts) - counts), counts)
        cut = self.min_r[pos] < levels[label]
        if face_mask is not None:
            cut &= selected[pos]
        pos, label = pos[cut], label[cut]
        faces = self.faces[pos]
        level = levels[label]
        above = self.r[faces] >= level[:, None]
        two = above.sum(axis=1) == 2
        alone = np.where(above[:, 0] ^ two, 0, np.where(above[:, 1] ^ two, 1, 2))
        faces = _roll_rows(faces, alone)
        whole = k if face_mask is None else np.searchsorted(chosen, k)  # faces wholly below
        return _Cuts(levels, area_below[whole], whole, label, faces, self.r[faces],
                     self.area[pos], self.grad[pos], error)

    def _areas(self, cuts: _Cuts) -> np.ndarray:
        """Ball areas.  Each straddled face is cut at its level into the
        pieces clip cuts it into, with clip's cut points: the triangle at the
        corner alone inside the ball, or the rest of the face fanned from the
        corner after the one alone outside.  Each piece's area is the face's
        scaled by the edge parameters of its cut points, and the pieces pass
        clip's degenerate-fragment filter."""
        f, r, label, levels = cuts.faces, cuts.r, cuts.label, cuts.levels
        level = levels[label]
        s1 = _cut_parameter(f[:, 0], f[:, 1], r[:, 0], r[:, 1], level)
        s2 = _cut_parameter(f[:, 0], f[:, 2], r[:, 0], r[:, 2], level)
        inside = r[:, 0] < level
        out = ~inside
        areas = np.concatenate([(s1 * s2 * cuts.area)[inside], ((1.0 - s2) * cuts.area)[out],
                                (s2 * (1.0 - s1) * cuts.area)[out]])
        piece = np.concatenate([label[inside], label[out], label[out]])
        n = len(levels)
        total = cuts.whole_area + np.bincount(piece, areas, minlength=n)
        count = cuts.whole_count + np.bincount(piece, minlength=n)
        keep = _nondegenerate(areas, total[piece], count[piece])
        piece, areas = piece[keep], areas[keep]
        empty = np.flatnonzero(cuts.whole_count + np.bincount(piece, minlength=n) == 0)
        if len(empty):
            raise DomainError(f"the ball of radius {float(levels[empty[0]])!r} contains no face")
        if cuts.error is not None:
            raise cuts.error
        return cuts.whole_area + np.bincount(piece, areas, minlength=n)

    def _fluxes(self, cuts: _Cuts) -> np.ndarray:
        """Level fluxes: the level segment of each straddled face, by
        marching triangles, times the face's |grad r|."""
        if cuts.error is not None:
            raise cuts.error
        bad = cuts.grad < 0
        if bad.any():
            _check_gradients(cuts.grad[cuts.label == cuts.label[bad][0]])
        f, r, level = cuts.faces, cuts.r, cuts.levels[cuts.label]
        v0 = self.verts[f[:, 0]]
        p1 = v0 + ((level - r[:, 0]) / (r[:, 1] - r[:, 0]))[:, None] * (self.verts[f[:, 1]] - v0)
        p2 = v0 + ((level - r[:, 0]) / (r[:, 2] - r[:, 0]))[:, None] * (self.verts[f[:, 2]] - v0)
        return np.bincount(cuts.label, cuts.grad * norms(*(p1 - p2).T),
                           minlength=len(cuts.levels))


def _cut_parameter(p, q, rp, rq, level) -> np.ndarray:
    """Where clip places the cut point of each edge from vertex p to vertex q
    (with radii rp, rq) at its level, as a fraction of the way from p: from
    the lower vertex index, and at an end within _SNAP of it."""
    lo = p < q
    t = _edge_parameter(np.where(lo, rp, rq), np.where(lo, rq, rp), level)
    t = np.where(t <= _SNAP, 0.0, np.where(t >= 1.0 - _SNAP, 1.0, t))
    return np.where(lo, t, 1.0 - t)


def radial_index(mesh: TriMesh) -> RadialIndex:
    """The mesh's RadialIndex: built once, and kept on the mesh until a
    caller releases it by clearing mesh.radial_index_memo."""
    if mesh.radial_index_memo is None:
        mesh.radial_index_memo = RadialIndex(mesh)
    return mesh.radial_index_memo


def ball_area(mesh: TriMesh, R: float, face_mask=None) -> float:
    """Area of the extrinsic ball {r <= R}: clip(mesh, 0, R).area() to within
    1e-12 relative, without building the region."""
    index = radial_index(mesh)
    return float(index._areas(index._cuts([R], face_mask))[0])


def flux(mesh: TriMesh, R: float, face_mask=None) -> float:
    """Flux of the extrinsic distance through the level r = R: the level
    polyline is extracted by marching triangles and |grad r| (per face, by
    ambient projection) is integrated against segment length."""
    index = radial_index(mesh)
    return float(index._fluxes(index._cuts([R], face_mask))[0])


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


def _breadth_first(indptr, indices, sources, levels=False):
    """Breadth-first order of the vertices that the CSR graph (indptr,
    indices) reaches from any of `sources`, by one search from a super-source
    joined to each source; with levels, also the level of each (1 at the
    sources)."""
    from scipy import sparse
    from scipy.sparse.csgraph import breadth_first_order

    m = len(indptr) - 1
    g = sparse.csr_matrix((np.ones(len(indices) + len(sources)),
                           np.concatenate([indices, sources]),
                           np.append(indptr, indptr[-1] + len(sources))), shape=(m + 1, m + 1))
    if not levels:
        return breadth_first_order(g, m, return_predecessors=False)[1:]
    order, pred = breadth_first_order(g, m, return_predecessors=True)
    # each level is a run of the order, and the positions of the
    # predecessors never decrease along it
    pos = np.empty(m + 1, np.int64)
    pos[order] = np.arange(len(order))
    parent = pos[pred[order[1:]]]
    ends = [1]
    while ends[-1] < len(order):
        ends.append(int(np.searchsorted(parent, ends[-1])) + 1)
    return order[1:], np.repeat(np.arange(1, len(ends)), np.diff(ends))


def _first_of_each(labels: np.ndarray, items: np.ndarray) -> np.ndarray:
    """The first item of each distinct label, labels[k] labelling items[k]."""
    first = np.full(int(labels.max()) + 1, len(items))
    np.minimum.at(first, labels, np.arange(len(items)))
    return items[first[first < len(items)]]


def elimination_rank(mesh: TriMesh, R: float) -> np.ndarray:
    """The rank of each mesh vertex in a nested-dissection elimination order
    of the vertices with r < R; the other vertices rank after them.

    Each connected part of the graph of mesh edges among those vertices is
    split at the breadth-first level of its median vertex, counted from a
    pseudo-peripheral source (the last vertex a search from any vertex of the
    part reaches), until no part has more than _ND_LEAF vertices.  Leaves
    come first, in breadth-first order, then the separators, deepest first,
    so every separator follows both of its sides.  All the parts of one depth
    are split together, by two searches over the whole graph.  A clipped ball
    of radius at most R inherits the order: its free vertices are mesh
    vertices with r < R and its free-free edges are mesh edges, so each
    separator still separates."""
    from scipy import sparse
    from scipy.sparse.csgraph import connected_components

    inside = mesh.r < R
    m = int(inside.sum())
    local = np.cumsum(inside) - 1
    i, j, _ = _edge_counts(mesh.faces, len(inside))
    keep = inside[i] & inside[j]
    i, j = local[i[keep]], local[j[keep]]
    adj = sparse.csr_matrix((np.ones(2 * len(i)), (np.concatenate([i, j]), np.concatenate([j, i]))),
                            shape=(m, m))
    rows, cols = np.repeat(np.arange(m, dtype=adj.indices.dtype), np.diff(adj.indptr)), adj.indices
    alive = np.ones(m, dtype=bool)
    part = np.zeros(m, dtype=np.int64)
    leaves, separators = [np.zeros(0, dtype=np.int64)], []  # none, when no vertex is inside
    while alive.any():
        indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=m))])
        live = np.flatnonzero(alive)
        order = _breadth_first(indptr, cols, _first_of_each(part[live], live))
        if len(order) < len(live):  # a part came apart: each piece becomes a part
            _, part = connected_components(
                sparse.csr_matrix((np.ones(len(cols)), cols, indptr), shape=(m, m)),
                connection="strong")
            order = _breadth_first(indptr, cols, _first_of_each(part[live], live))
        label = part[order]
        small = np.bincount(label)[label] <= _ND_LEAF
        leaves.append(order[small])
        alive[order[small]] = False
        if small.all():
            break
        # the second search starts from the last vertex each part's first reached
        order, label = order[~small][::-1], label[~small][::-1]
        order, level = _breadth_first(indptr, cols, _first_of_each(label, order), levels=True)
        present = np.bincount(part[order]) > 0
        label = (np.cumsum(present) - 1)[part[order]]
        depth = int(level.max()) + 1
        upto = np.cumsum(np.bincount(label * depth + level, minlength=int(present.sum()) * depth)
                         .reshape(-1, depth), axis=1)
        median = np.argmax(2 * upto >= upto[:, -1:], axis=1)  # the level of each part's median
        side = np.sign(level - median[label])
        separators.append(order[side == 0])
        alive[order[side == 0]] = False
        part[order] = 2 * label + (side > 0)
        keep = alive[rows] & alive[cols]
        rows, cols = rows[keep], cols[keep]
    rank = np.empty(len(inside), dtype=np.int64)
    rank[np.flatnonzero(inside)[np.concatenate(leaves + separators[::-1])]] = np.arange(m)
    rank[~inside] = np.arange(m, len(inside))
    return rank


def first_eigenvalue_estimate(region: ClippedRegion, rank: np.ndarray) -> float:
    """Smallest Dirichlet eigenvalue of (K, M) on the region by inverse
    power iteration on one LU factorization of the free block.

    rank is elimination_rank(parent mesh, R') for some R' >= region.R.  The
    free vertices are eliminated in its order (each is a parent vertex: cut
    vertices lie on the Dirichlet boundary), and SuperLU factors in that
    order, keeping the diagonal pivots of the symmetric positive definite
    block.  A part of the free vertices with no edge path to the Dirichlet
    boundary (a closed component inside the ball) makes the block singular
    and raises DomainError."""
    system = assemble_laplacian(region, {"inner": 0.0, "outer": 0.0, "truncation": 0.0})
    free = np.flatnonzero(system.free_mask())
    if len(free) == 0:
        raise DomainError("region has no interior vertices")
    free = free[np.argsort(rank[region.vertex_parent[free]], kind="stable")]
    Kff = system.K[free][:, free].tocsc()
    mf = system.mass[free]
    touching = np.zeros(len(system.mass), dtype=bool)
    touching[system.K[system.constrained].indices] = True
    reached = _breadth_first(Kff.indptr, Kff.indices, np.flatnonzero(touching[free]))
    if len(reached) < len(free):
        raise DomainError(f"the free block is singular: {len(free) - len(reached)} free "
                          "vertices have no path to the Dirichlet boundary")
    lu = splu(Kff, permc_spec="NATURAL", diag_pivot_thresh=0.0,
              options={"SymmetricMode": True})
    x = np.ones(len(free))
    x /= math.sqrt(float((x * x * mf).sum()))
    lam_prev = math.inf
    for _ in range(_EIGEN_MAXITER):
        x = lu.solve(mf * x)
        x /= math.sqrt(float((x * x * mf).sum()))
        lam = _dot(x, Kff @ x) / float((x * x * mf).sum())
        change = abs(lam - lam_prev)
        if change <= _EIGEN_TOL * abs(lam):
            return lam
        lam_prev = lam
    raise SolveError("inverse power iteration did not converge", residual=change)


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
