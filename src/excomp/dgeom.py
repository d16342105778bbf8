"""Discrete operators on triangulated immersed surfaces.

Everything is driven by the per-vertex extrinsic distance r: marching-
triangle clipping between level sets (extrinsic balls and annuli), ball
areas and level polyline fluxes of r, cotangent-Laplacian Dirichlet and
Poisson solves (capacity, mean exit time), a membrane eigenvalue estimate,
and counting of ends as unbounded complement components.  Clipping is the
only path to a solve.  Ball areas and fluxes come from a radial index of the
mesh (harness.Study builds one per run and releases it): the faces sorted by
their largest vertex radius, with the area and |grad r| of each (the one
place |grad r| is computed) and prefix sums of the areas.  RadialIndex.sweep
answers a whole radius grid, with or without a face mask, in one array pass
over the (face, radius) pairs where the radius straddles the face; no region
is built.  Its ball areas equal clip(mesh, 0, R).area() to within 1e-12
relative (the summation order differs).

Conventions: level comparisons treat a vertex with r exactly equal to the
level as lying above it (symbolic perturbation by one ulp), interpolated cut
vertices carry r equal to the level exactly, a cut that lands within 1e-12
(in edge parameter) of a mesh vertex reuses that vertex, a clipped region
keeps every face of positive area and drops only the faces of no area (those
that a reused vertex collapses), boundary vertices of a clipped region carry
per-vertex labels (inner level, outer level, truncation) rather than traced
loops, and negative cotangent weights are clamped to zero so solves obey the
discrete maximum principle.

Every solve is numpy code on the stiffness's edge list (surfaces.Stiffness),
and none uses scipy.  The conjugate gradients (cg) run on the free block in
column-major ELL form (_Ell) and make no BLAS vector call: every inner
product goes through _dot, so no solve wakes BLAS worker threads.  The
eigenvalue estimates of an exhaustion by nested balls
(first_eigenvalue_estimates) factor each ball's free block by a
multifrontal Cholesky (cholesky) on one tree (elimination_tree): the band
of the smallest ball at the root, over a nested dissection of the interior
inside it and one of the outside.  The largest ball is factored first; the
interior's rows are the same in every ball, so each smaller ball reuses its
panels and factors only its own outside fronts and band.  The factor keeps
the dense panel of each pivot block, and its dense kernels stay below the
sizes at which OpenBLAS starts worker threads.  The breadth-first searches
and graph components are numpy frontier code.
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .errors import (CoverageError, DomainError, SolveError, TruncationContactError)
from .surfaces import (TAG_TRUNCATION, Stiffness, TriMesh, _edge_counts, cotangent_laplacian,
                       edge_keys, face_areas, norms, triangle_normals)

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
    parameter (so a cut through a vertex adds no vertex beside it; the faces
    that this collapses have no area).  Returns (new points, vertex index per
    row of pairs)."""
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


def _clip_half(verts, r, faces, level, keep_below):
    """Keep the part of each triangle on one side of the r = level line."""
    above = r >= level  # a vertex exactly at the level counts as above
    inside = ~above if keep_below else above
    fin = inside[faces]
    cnt = fin.sum(axis=1)

    out_faces = [faces[cnt == 3]]
    new_pairs = []
    pending = []  # (kind, rotated faces), in the order of their pair rows

    m1 = cnt == 1
    if m1.any():
        f1 = _roll_rows(faces[m1], np.argmax(fin[m1], axis=1))
        new_pairs.append(np.column_stack([f1[:, 0], f1[:, 1]]))  # edge A-B
        new_pairs.append(np.column_stack([f1[:, 2], f1[:, 0]]))  # edge C-A
        pending.append(("tri", f1))

    m2 = cnt == 2
    if m2.any():
        f2 = _roll_rows(faces[m2], np.argmax(~fin[m2], axis=1))  # v0 outside
        new_pairs.append(np.column_stack([f2[:, 0], f2[:, 1]]))  # edge v0-v1
        new_pairs.append(np.column_stack([f2[:, 2], f2[:, 0]]))  # edge v2-v0
        pending.append(("quad", f2))

    if not new_pairs:
        return verts, r, out_faces[0]

    pts, ids = _interp_edges(verts, r, np.concatenate(new_pairs), level)
    verts = np.concatenate([verts, pts])
    r = np.concatenate([r, np.full(len(pts), level)])

    cursor = 0
    for kind, f in pending:
        k = len(f)
        e1 = ids[cursor:cursor + k]
        e2 = ids[cursor + k:cursor + 2 * k]
        cursor += 2 * k
        if kind == "tri":
            out_faces.append(np.column_stack([f[:, 0], e1, e2]))
        else:
            # kept quad (v1, v2, I20, I01) fanned from v1
            out_faces.append(np.column_stack([f[:, 1], f[:, 2], e2]))
            out_faces.append(np.column_stack([f[:, 1], e2, e1]))
    return verts, r, np.concatenate(out_faces)


def clip(mesh: TriMesh, rho: float, R: float, face_mask=None) -> ClippedRegion:
    """Extrinsic annulus {rho <= r <= R} (ball when rho = 0) as a submesh.

    face_mask restricts the cut to a subset of parent faces.  Every face
    or cut piece of positive area is kept, however small; only the faces of
    no area that a cut through a vertex leaves are dropped.  Cotangent
    weights depend on angles alone, so a tiny piece does no harm, where
    dropping it would leave a hole.  Raises CoverageError when the
    truncation boundary of the mesh intrudes into the radius band (the
    region would leak through the computational window).
    """
    if not (0.0 <= rho < R):
        raise DomainError(f"need 0 <= rho < R, got rho={rho!r}, R={R!r}")
    faces = mesh.faces if face_mask is None else mesh.faces[face_mask]
    _check_coverage(mesh, R, faces, rho=rho)
    verts = mesh.verts
    r = mesh.r
    verts, r, faces = _clip_half(verts, r, faces, R, keep_below=True)
    if rho > 0.0:
        verts, r, faces = _clip_half(verts, r, faces, rho, keep_below=False)

    faces = faces[face_areas(verts, faces) > 0.0]

    used = np.flatnonzero(np.bincount(faces.ravel(), minlength=len(verts)))
    remap = np.full(len(verts), -1, dtype=np.int64)
    remap[used] = np.arange(len(used))
    region = ClippedRegion(verts[used], remap[faces], r[used], rho, R,
                           np.zeros(len(used), dtype=np.uint8),
                           np.where(used < len(mesh.verts), used, -1))
    _label_boundary(region)
    return region


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
# radial gradient, ball areas and fluxes

_DEGENERATE = -1.0  # |grad r| in place of a value on a face of no area


def _gradient_codes(a, b, c, normal, pole) -> np.ndarray:
    """|grad r| on each triangle with corners a, b, c and the normal
    triangle_normals(a, b, c): the ambient unit radial direction at the
    centroid projected onto the face plane.  A face with its centroid at the
    pole reads 1: the pole then lies in the face's plane, where r has unit
    gradient.  A face of no area reads _DEGENERATE."""
    d = (a + b + c) / 3.0 - pole
    dn = norms(*d.T)
    nn = norms(*normal)
    at_pole, degenerate = dn < 1e-14, nn < 1e-300
    dn[at_pole] = 1.0
    nn[degenerate] = 1.0
    d /= dn[:, None]
    cos = d[:, 0] * (normal[0] / nn) + d[:, 1] * (normal[1] / nn) + d[:, 2] * (normal[2] / nn)
    w = np.sqrt(np.clip(1.0 - cos * cos, 0.0, 1.0))
    w[at_pole] = 1.0
    w[degenerate] = _DEGENERATE
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
        # before the eigenvalue factorizations.  From the heap, its freed
        # arrays can stay resident as holes that the Cholesky factorizations
        # do not reuse; in a mapping of their own, their pages are returned
        # to the system when the index goes.  In 10 interleaved runs of each
        # benchmark workload (2-vCPU Xeon), arrays left on the heap raised
        # verify-catenoid's peak RSS from 87.9 to 89.4 MB and
        # ingest-helicoid's from 95.1 to 95.3 MB, but lowered
        # sweep-enneper's from 58.6 to 54.7 MB, whose peak is this copy
        # made while the originals still live; no wall time moved beyond
        # the runs' spread.
        (self.ids, self.faces, self.max_r, self.min_r, self.min_r_after, self.area, self.grad,
         self.area_below) = _mapped(self.ids, self.faces, self.max_r, self.min_r,
                                    self.min_r_after, self.area, self.grad, self.area_below)

    def sweep(self, radii, face_mask=None) -> tuple[np.ndarray, np.ndarray]:
        """The ball area (of {r <= R}) and the level flux of r through r = R
        at each radius R, over the faces face_mask selects (all by default).

        Each value is the one a sweep of that radius alone returns, bit for
        bit.  So are the errors: those of the ball areas at each radius in
        turn (a radius that is not positive, a window that the ball leaks
        through, a ball of no face), then those of the fluxes (a level
        cutting a face of no area); the first radius in grid order wins."""
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
        scaled by the edge parameters of its cut points.  As in clip, a piece
        of no area (one whose cut point a corner took over) is dropped and
        every other is kept."""
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
        keep = areas > 0.0
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
        if np.any(cuts.grad == _DEGENERATE):
            raise DomainError("degenerate face in radial gradient computation")
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


# ---------------------------------------------------------------------------
# Laplacian systems

def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """a . b by einsum's own summation loop.  np.dot, @, np.vecdot and
    np.linalg.norm hand a vector of more than about 10 000 entries to BLAS,
    whose worker threads then spin on the other cores for no gain."""
    return float(np.einsum("i,i->", a, b))


def _norm(a: np.ndarray) -> float:
    return math.sqrt(_dot(a, a))


def _slots(rows: np.ndarray, m: int) -> tuple[np.ndarray, int]:
    """Places in a table of one row per each of m vertices: per entry, in the
    order given, its slot among the entries of its row; and the most entries
    of a row."""
    e = max(len(rows), 1)
    order = np.sort(rows * e + np.arange(len(rows))) % e  # by row, then as given
    count = np.bincount(rows, minlength=m)
    slot = np.empty(len(rows), dtype=np.int64)
    slot[order] = np.arange(len(rows)) - np.repeat(np.cumsum(count) - count, count)
    return slot, int(count.max(initial=0))


class _Ell:
    """A matrix diag(diag) - W of order n, with W stored column-major in ELL
    form: slot k of row r holds the column cols[k, r] and the weight
    weights[k, r].  Each row's entries fill its first slots in the order
    given; the rest hold the row itself with weight 0.  A product takes one
    slot of every row at a time."""

    def __init__(self, rows, cols, weights, diag):
        n = len(diag)
        slot, width = _slots(rows, n)
        at = slot * n + rows
        self.shape = (n, n)
        self.diag = diag
        self.cols = np.tile(np.arange(n), width)
        self.cols[at] = cols
        self.cols = self.cols.reshape(width, n)
        self.weights = np.zeros(width * n)
        self.weights[at] = weights
        self.weights = self.weights.reshape(width, n)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        y = self.diag * x
        t = np.empty_like(y)
        for cols, weights in zip(self.cols, self.weights):
            np.take(x, cols, out=t)
            t *= weights
            y -= t
        return y

    def tocsr(self):
        """The matrix as CSR arrays, each row its diagonal and then its slots
        (perfbench/traced.py tells the solves apart by a digest of them)."""
        n, width = len(self.diag), len(self.cols) + 1
        return SimpleNamespace(indptr=np.arange(0, n * width + 1, width),
                               indices=np.vstack([np.arange(n), self.cols]).T.ravel(),
                               data=np.vstack([self.diag, -self.weights]).T.ravel())


# The solvers call the module-level names cg and cholesky, which a tracer may
# wrap (perfbench/traced.py wraps cg).
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


@dataclass(eq=False)
class SparseSPDSystem:
    """Cotangent stiffness with Dirichlet data and a lumped mass vector."""

    K: Stiffness  # the edge list and diagonal of cotangent_laplacian
    mass: np.ndarray
    constrained: np.ndarray
    values: np.ndarray

    def free_mask(self) -> np.ndarray:
        mask = np.ones(len(self.mass), dtype=bool)
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


def _free_block(K: Stiffness, pos: np.ndarray):
    """The block of K on the vertices with pos >= 0, numbered by pos, as an
    _Ell; and the edges from its vertices to the others, as (free end's pos,
    other end, weight)."""
    rows, cols = np.concatenate([K.i, K.j]), np.concatenate([K.j, K.i])
    w = np.concatenate([K.w, K.w])
    free = pos >= 0
    diag = np.empty(int(free.sum()))
    diag[pos[free]] = K.diag[free]
    inner = free[rows] & free[cols]
    out = free[rows] & ~free[cols]
    return (_Ell(pos[rows[inner]], pos[cols[inner]], w[inner], diag),
            (pos[rows[out]], cols[out], w[out]))


def solve_dirichlet(system: SparseSPDSystem, source: np.ndarray | None = None) -> np.ndarray:
    """Solve K u = source with the stored Dirichlet values in place, by
    Jacobi-preconditioned conjugate gradients (cg above, numpy code that makes
    no BLAS call) on the free block in ELL form, to the relative residual
    _CG_RTOL.  With clamped weights the harmonic case obeys the discrete
    maximum principle."""
    n = len(system.mass)
    free = system.free_mask()
    nfree = int(free.sum())
    field = np.zeros(n)
    field[system.constrained] = system.values
    if nfree == 0:
        return field
    Kff, (row, other, w) = _free_block(system.K, np.where(free, np.cumsum(free) - 1, -1))
    rhs = np.bincount(row, w * field[other], minlength=nfree)  # -K_fc u_c, as K_fc = -w
    if source is not None:
        rhs = rhs + source[free]
    diag = np.where(Kff.diag > 0, Kff.diag, 1.0)
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


def capacity_discrete(region: ClippedRegion) -> CapacityResult:
    """Capacity of the annulus: the Dirichlet energy of the potential that
    is 0 on the inner level set and 1 on the outer one.  Truncation
    boundary vertices stay free (the natural, zero-Neumann condition)."""
    if not region.has_label(LABEL_INNER):
        raise DomainError("capacity needs an inner level boundary (rho > 0)")
    if not region.has_label(LABEL_OUTER):
        raise DomainError("capacity needs an outer level boundary")
    h = _mean_edge_length(region)
    if region.R - region.rho < 2.0 * h:
        raise DomainError(
            f"annulus width {region.R - region.rho:.4g} under 2 mesh edge lengths ({2 * h:.4g})")
    system = assemble_laplacian(region, {"inner": 0.0, "outer": 1.0})
    psi = solve_dirichlet(system)
    K = system.K
    cap = _dot(K.w, (psi[K.i] - psi[K.j]) ** 2)  # psi . K psi, as K's rows sum to 0
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


def _adjacency(rows: np.ndarray, cols: np.ndarray, m: int) -> np.ndarray:
    """The graph of m vertices with the directed edges (rows, cols) as one
    row per vertex listing its neighbours in the order given, padded with
    the vertex itself."""
    slot, width = _slots(rows, m)
    nbr = np.repeat(np.arange(m), width)
    nbr[rows * width + slot] = cols
    return nbr.reshape(m, width)


def _breadth_first(nbr, sources, seen, levels=False):
    """Breadth-first order of the vertices that the graph nbr (_adjacency)
    reaches from any of `sources` without entering a vertex that `seen`
    marks: the order of one search from a super-source joined to each source,
    which visits each level's vertices in the order of their first discovery.
    With levels, also the level of each (1 at the sources)."""
    fresh = ~seen
    positions = np.arange(nbr.size, dtype=np.int32)
    first = np.full(len(seen), nbr.size, dtype=np.int32)
    front = np.asarray(sources, dtype=np.int64)
    fresh[front] = False
    fronts = [front]
    while True:
        found = np.take(nbr, front, axis=0).ravel()
        found = found[fresh[found]]
        if not len(found):
            break
        fresh[found] = False
        # a vertex found twice joins the level at its first discovery
        at = positions[:len(found)]
        np.minimum.at(first, found, at)
        front = found[np.take(first, found) == at]
        fronts.append(front)
    order = np.concatenate(fronts)
    if not levels:
        return order
    return order, np.repeat(np.arange(1, len(fronts) + 1), [len(f) for f in fronts])


def _components(i: np.ndarray, j: np.ndarray, m: int) -> np.ndarray:
    """The least vertex of the connected component of each of m vertices, in
    the graph with the edges (i, j): each round hooks every label to the
    least label across its edges, then follows the labels to their roots."""
    label = np.arange(m)
    while True:
        li, lj = label[i], label[j]
        differ = li != lj
        if not differ.any():
            return label
        li, lj = li[differ], lj[differ]
        np.minimum.at(label, np.maximum(li, lj), np.minimum(li, lj))
        while True:
            root = label[label]
            if np.array_equal(root, label):
                break
            label = root


def _first_of_each(labels: np.ndarray, items: np.ndarray) -> np.ndarray:
    """The first item of each distinct label, labels[k] labelling items[k]."""
    first = np.full(int(labels.max()) + 1, len(items))
    np.minimum.at(first, labels, np.arange(len(items)))
    return items[first[first < len(items)]]


@dataclass(eq=False)
class EliminationTree:
    """The nested-dissection tree of elimination_tree.  Each leaf part and
    each separator is a node; a separator is the parent of the parts it
    separates, and a node's depth counts the splits above it.  node holds the
    node of each mesh vertex (-1 for a vertex outside the ball), parent and
    depth one entry per node (parent -1 at a root).  The boundary of node s,
    boundary[boundary_ptr[s]:boundary_ptr[s + 1]], is the set of ancestor
    vertices adjacent to its subtree, in increasing order: the rows that
    eliminating the subtree fills below the node's own.  The tree of an
    exhaustion has the band as its root, node 0, and interior marks the
    nodes of the interior below it."""

    node: np.ndarray
    parent: np.ndarray
    depth: np.ndarray
    boundary_ptr: np.ndarray
    boundary: np.ndarray
    interior: np.ndarray  # per node, whether it lies below the band, inside it


def _boundaries(i, j, node, parent, depth):
    """Per node, the ancestor vertices adjacent to its subtree, as (ptr,
    vertices).  An edge joins two vertices of one node, or a vertex to one of
    an ancestor's (parts and separators of one depth never touch), so the
    boundary of a node is its own edges to shallower vertices plus its
    children's boundaries less its own vertices: one pass per depth, deepest
    first.  Node numbers never decrease with depth."""
    m = len(node)
    ni, nj = node[i], node[j]
    down = depth[ni] > depth[nj]
    up = depth[nj] > depth[ni]
    # node * m + vertex of each edge to a shallower vertex, sorted: the run
    # of each depth's nodes is one slice
    own = np.sort(np.concatenate([ni[down] * m + j[down], nj[up] * m + i[up]]))
    first_node = np.searchsorted(depth, np.arange(int(depth.max(initial=-1)) + 2))
    cuts = np.searchsorted(own, first_node * m)
    keys, carried = [], np.zeros(0, dtype=np.int64)
    for d in range(len(cuts) - 2, -1, -1):
        key = np.sort(np.concatenate([own[cuts[d]:cuts[d + 1]], carried]))
        key = key[np.concatenate([[True], key[1:] != key[:-1]])] if len(key) else key
        keys.append(key)
        s, v = key // m, key % m
        above = parent[s]
        keep = (above >= 0) & (node[v] != above)
        carried = above[keep] * m + v[keep]
    key = np.concatenate(keys[::-1]) if keys else np.zeros(0, dtype=np.int64)
    ptr = np.concatenate([[0], np.cumsum(np.bincount(key // m, minlength=len(parent)))])
    return ptr, key % m


def elimination_tree(mesh: TriMesh, radii) -> EliminationTree:
    """The tree of a nested dissection of the mesh vertices with r < R, the
    largest of the radii (one radius, or those of an exhaustion).

    Each connected part of the graph of mesh edges among those vertices is
    split at the breadth-first level of its median vertex, counted from a
    pseudo-peripheral source (the last vertex a search from any vertex of the
    part reaches), until no part has more than _ND_LEAF vertices.  All the
    parts of one depth are split together, by two searches over the whole
    graph.  A clipped ball of radius at most R inherits the tree: its free
    vertices are mesh vertices with r < R and its free-free edges are mesh
    edges, so each separator still separates and each boundary still
    bounds.

    With more than one radius, the root is the band of the smallest, R1: the
    vertices with r < R1 on a face whose largest r is at least R1.  Below it
    the dissection starts from two parts, the interior (r < R1, off the
    band) and the outside (R1 <= r < R), which no mesh edge joins.  No ball
    of the exhaustion cuts a face at an interior vertex, so the interior's
    rows and masses are the same in every ball (one-way dissection, George
    1980, with nested dissection on each side)."""
    radii = np.asarray(radii, dtype=float).reshape(-1)
    R, R1 = float(radii.max()), float(radii.min())
    inside = mesh.r < R
    m = int(inside.sum())
    local = np.cumsum(inside) - 1
    i, j, _ = _edge_counts(mesh.faces, len(inside))
    keep = inside[i] & inside[j]
    i, j = local[i[keep]], local[j[keep]]
    key = np.sort(np.concatenate([i * m + j, j * m + i]))  # by row, then column
    nbr = _adjacency(key // m, key % m, m)
    alive = np.ones(m, dtype=bool)
    part = np.zeros(m, dtype=np.int64)
    made_by = np.full(m, -1)  # the separator whose split made each vertex's part
    node = np.empty(m, dtype=np.int64)
    parent, depth, splits = [], [], 0
    below = mesh.r[inside] < R1
    banded = R1 < R
    if banded:
        cut = np.zeros(len(inside), dtype=bool)
        cut[mesh.faces[mesh.r[mesh.faces].max(axis=1) >= R1]] = True
        band = below & cut[inside]
        node[band] = 0
        parent.append(-1)
        depth.append(0)
        splits = 1
        alive[band] = False
        part[~below] = 1
        made_by[:] = 0
    while alive.any():
        live = np.flatnonzero(alive)
        order = _breadth_first(nbr, _first_of_each(part[live], live), ~alive)
        if len(order) < len(live):  # a part came apart: each piece becomes a part
            both = alive[i] & alive[j]
            part = _components(i[both], j[both], m)
            order = _breadth_first(nbr, _first_of_each(part[live], live), ~alive)
        label = part[order]
        small = np.bincount(label)[label] <= _ND_LEAF
        if small.any():  # each small part is a leaf
            parts, leaf = np.unique(label[small], return_inverse=True)
            node[order[small]] = len(parent) + leaf
            firsts = np.empty(len(parts), dtype=np.int64)
            firsts[leaf] = order[small]
            parent.extend(made_by[firsts])
            depth.extend([splits] * len(parts))
        alive[order[small]] = False
        if small.all():
            break
        # the second search starts from the last vertex each part's first reached
        order, label = order[~small][::-1], label[~small][::-1]
        order, level = _breadth_first(nbr, _first_of_each(label, order), ~alive, levels=True)
        present = np.bincount(part[order]) > 0
        label = (np.cumsum(present) - 1)[part[order]]
        count = int(present.sum())
        top = int(level.max()) + 1
        upto = np.cumsum(np.bincount(label * top + level, minlength=count * top)
                         .reshape(-1, top), axis=1)
        median = np.argmax(2 * upto >= upto[:, -1:], axis=1)  # the level of each part's median
        side = np.sign(level - median[label])
        firsts = np.empty(count, dtype=np.int64)
        firsts[label] = order
        separator = len(parent) + label
        parent.extend(made_by[firsts])
        depth.extend([splits] * count)
        node[order[side == 0]] = separator[side == 0]
        made_by[order] = separator
        splits += 1
        alive[order[side == 0]] = False
        part[order] = 2 * label + (side > 0)
    parent, depth = np.array(parent, dtype=np.int64), np.array(depth, dtype=np.int64)
    ptr, boundary = _boundaries(i, j, node, parent, depth)
    mesh_node = np.full(len(inside), -1, dtype=np.int64)
    mesh_node[inside] = node
    interior = np.zeros(len(parent), dtype=bool)
    if banded:
        interior[node[below & ~band]] = True
    return EliminationTree(mesh_node, parent, depth, ptr, np.flatnonzero(inside)[boundary],
                           interior)


# ---------------------------------------------------------------------------
# the multifrontal Cholesky factorization of an eigenvalue ball's free block

_PIVOTS = 64  # pivots of one dense block at most; a front with more eliminates several
_PRODUCT = 1 << 18  # m * n * k of one dense product at most
# Each block factorization is then at most 64 x 64 and each product at most
# 64 x 64 x 64: below the sizes at which OpenBLAS hands work to its worker
# threads.
_BATCH = 1 << 18  # entries of the fronts that one batch holds at most, unless one front has more
_SAVED = 1 << 15  # front entries whose padding costs about what one more batch does


def _front_shape(blocks: int, width: int, nrows: int) -> tuple[int, int]:
    """(tile, span) of a front of `blocks` pivot blocks of `width` slots and
    at least nrows boundary rows: the rows come in tiles of `tile`, for which
    a block's products stay within _PRODUCT (a block's own width when it has
    later blocks), and span counts all slots."""
    if blocks > 1:
        tile = width
    else:
        most = min(math.isqrt(_PRODUCT // width), _PRODUCT // width ** 2) // 8 * 8
        tile = int(_up8(-(-nrows // max(-(-nrows // most), 1))))
    rows = -(-nrows // tile) * tile if nrows else 0
    return tile, blocks * width + rows


def _up8(count):
    return -(-count // 8) * 8


@dataclass(eq=False)
class _Fronts:
    """The dense fronts of one ball's free block, one per tree node with a
    free vertex, and the elimination order that they make.

    A front's pivots form `blocks` pivot blocks of at most _PIVOTS, each a
    run of positions of the order, which lists the blocks level by level:
    the rows below a block (the later blocks of its front, then the front's
    boundary) are pivots of later levels.  A front's padded dense array
    holds `blocks` blocks of `width` slots, then `rows` boundary slots in
    tiles of `tile`; its slots hold the position in each slot (-1 for
    padding), and its targets the slot in the parent's array of each of its
    boundary slots.  A batch is a run of fronts of one shape whose first
    blocks share a level, sorted by their parents' batches.  The fronts of
    the tree's interior come first, at positions 0 to interior - 1, in the
    first `shared` batches, which hold no other front."""

    order: np.ndarray  # the free vertex at each position
    front_of: np.ndarray  # per position, its front
    slot_of: np.ndarray  # per position, its slot in its front
    boundary_key: np.ndarray  # front * n + position of each boundary row, increasing
    boundary_ptr: np.ndarray  # per front, where its rows start in boundary_key
    blocks: np.ndarray  # per front
    width: np.ndarray
    rows: np.ndarray
    tile: np.ndarray
    parent: np.ndarray  # per front, -1 at a root
    slot_ptr: np.ndarray  # per front, its slots slots[slot_ptr[f]:slot_ptr[f + 1]]
    slots: np.ndarray
    target_ptr: np.ndarray  # per front, its targets targets[target_ptr[f]:...]
    targets: np.ndarray
    batch: np.ndarray  # per front
    place: np.ndarray  # per front, its place in its batch
    batches: list  # in elimination order
    interior: int  # the positions of the interior's fronts
    shared: int  # the batches of the interior's fronts


def _fronts(tree: EliminationTree, vertices: np.ndarray) -> _Fronts:
    """The fronts of the free block whose free vertices are the mesh
    vertices `vertices`, on the tree of a ball that holds them.  A node with
    no free vertex hands its children to its nearest ancestor with one.  The
    free block's edges are mesh edges among the tree's vertices, so the
    tree's boundaries, restricted to the free vertices, bound the fronts.
    A front's first block goes one level above the last blocks of all its
    children, so the leaves of every depth share level 0."""
    n = len(vertices)
    node = tree.node[vertices]
    if np.any(node < 0):
        raise DomainError("the elimination tree does not cover the region's free vertices")
    nodes = len(tree.parent)
    count = np.bincount(node, minlength=nodes)
    above = np.full(nodes, -1)  # the nearest ancestor with a free vertex
    for d in range(int(tree.depth.max(initial=-1)) + 1):
        s = np.flatnonzero(tree.depth == d)
        p = tree.parent[s]
        above[s] = np.where(p < 0, -1, np.where(count[p] > 0, p, above[p]))
    used = np.flatnonzero(count)
    front_of = np.full(nodes, -1)
    front_of[used] = np.arange(len(used))
    front = front_of[node]
    size = count[used]
    blocks = -(-size // _PIVOTS)
    parent = np.where(above[used] < 0, -1, front_of[np.maximum(above[used], 0)])
    fronts = len(size)
    inner = tree.interior[used]
    depth = tree.depth[used]
    level = np.zeros(fronts, dtype=np.int64)
    for d in range(int(depth.max(initial=-1)), 0, -1):
        f = np.flatnonzero((depth == d) & (parent >= 0))
        np.maximum.at(level, parent[f], level[f] + blocks[f])

    # the boundary rows of each front, as free vertices
    owner = front_of[np.repeat(np.arange(nodes), np.diff(tree.boundary_ptr))]
    ball = np.full(len(tree.node), -1)
    ball[vertices] = np.arange(n)
    member = ball[tree.boundary]
    kept = (owner >= 0) & (member >= 0)
    owner, member = owner[kept], member[kept]
    nrows = np.bincount(owner, minlength=fronts)

    # batches, from the top level down, so that each level's fronts can be
    # sorted by their parents' batches.  Fronts of one level, block count and
    # side of the band share a batch, padded to its largest, while the
    # padding costs less than the batch it saves
    width, rows, tile = (np.zeros(fronts, dtype=np.int64) for _ in range(3))
    batch = np.zeros(fronts, dtype=np.int64)
    made = []
    own_width = _up8(-(-size // blocks))
    for lv in range(int(level.max(initial=-1)), -1, -1):
        f = np.flatnonzero(level == lv)
        if not len(f):  # a level of later blocks only
            continue
        f = f[np.lexsort((-nrows[f], -own_width[f], blocks[f], inner[f]))]
        shape = np.stack([inner[f], blocks[f], own_width[f], _up8(nrows[f])])
        groups = []  # [runs of fronts, (side, blocks), width, boundary rows]
        for run in np.split(f, np.flatnonzero(np.any(np.diff(shape, axis=1), axis=0)) + 1):
            b, w, nr = int(blocks[run[0]]), int(own_width[run[0]]), int(nrows[run].max())
            kind = (bool(inner[run[0]]), b)
            if groups and groups[-1][1] == kind:
                runs, _, gw, gnr = groups[-1]
                members = sum(len(g) for g in runs)
                cost = (members + len(run)) * _front_shape(b, max(gw, w), max(gnr, nr))[1] ** 2
                if cost <= (members * _front_shape(b, gw, gnr)[1] ** 2
                            + len(run) * _front_shape(b, w, nr)[1] ** 2 + _SAVED):
                    groups[-1] = [runs + [run], kind, max(gw, w), max(gnr, nr)]
                    continue
            groups.append([[run], kind, w, nr])
        for runs, (_, b), w, nr in groups:
            g = np.concatenate(runs)
            tile[g], span_ = _front_shape(b, w, nr)
            width[g], rows[g] = w, span_ - b * w
            up = np.where(parent[g] < 0, -1, batch[np.maximum(parent[g], 0)])
            g = g[np.argsort(up, kind="stable")]
            per = max(1, _BATCH // span_ ** 2)
            for k in range(0, len(g), per):
                batch[g[k:k + per]] = len(made)
                made.append(g[k:k + per])
    span = blocks * width + rows
    place = np.zeros(fronts, dtype=np.int64)
    for fs in made:
        place[fs] = np.arange(len(fs))

    # the order: the interior first, then levels; in a level, blocks by batch
    # and place
    by_front = np.argsort(front * (int(vertices.max(initial=0)) + 1) + vertices)
    fb = front[by_front]
    block = np.empty(n, dtype=np.int64)
    block[by_front] = (np.arange(n) - (np.cumsum(size) - size)[fb]) * blocks[fb] // size[fb]
    vlevel = level[front] + block + np.where(inner[front], 0, int((level + blocks).max(initial=0)))
    key = (vlevel * len(made) + batch[front]) * (int(place.max(initial=0)) + 1) + place[front]
    order = by_front[np.argsort(key[by_front], kind="stable")]
    pos = np.empty(n, dtype=np.int64)
    pos[order] = np.arange(n)
    pfront, pblock = front[order], block[order]
    first_block = np.cumsum(blocks) - blocks
    block_id = first_block[pfront] + pblock
    block_start = np.full(int(blocks.sum()), n)
    np.minimum.at(block_start, block_id, np.arange(n))
    r = np.arange(n) - block_start[block_id]
    slot_of = pblock * width[pfront] + r

    # the boundary rows of each front, its slots, and their targets
    boundary_key = np.sort(owner * n + pos[member])
    bfront, bpos = boundary_key // n, boundary_key % n
    boundary_ptr = np.concatenate([[0], np.cumsum(nrows)])
    within = np.arange(len(bpos)) - boundary_ptr[bfront]
    slot_ptr = np.concatenate([[0], np.cumsum(span)])
    slots = np.full(int(slot_ptr[-1]), -1, dtype=np.int32)
    slots[slot_ptr[pfront] + slot_of] = np.arange(n)
    slots[(slot_ptr[:-1] + blocks * width)[bfront] + within] = bpos
    target_ptr = np.concatenate([[0], np.cumsum(rows)])
    targets = np.full(int(target_ptr[-1]), -1, dtype=np.int32)
    u = parent[bfront]
    into = slot_of[bpos]  # a pivot of the parent, else a row of its boundary
    out = pfront[bpos] != u
    u, x = u[out], bpos[out]
    into[out] = blocks[u] * width[u] + np.searchsorted(boundary_key, u * n + x) - boundary_ptr[u]
    targets[target_ptr[bfront] + within] = into

    return _Fronts(order, pfront, slot_of, boundary_key, boundary_ptr, blocks, width, rows, tile,
                   parent, slot_ptr, slots, target_ptr, targets, batch, place,
                   sorted(made[::-1], key=lambda fs: not inner[fs[0]]),
                   int(np.count_nonzero(inner[pfront])), sum(bool(inner[fs[0]]) for fs in made))


def _diagonal_blocks(M: np.ndarray) -> np.ndarray:
    """A view of the diagonal 8 x 8 blocks of a stack of matrices whose order
    is a multiple of 8, with the shape (stack, blocks, 8, 8)."""
    s0, s1, s2 = M.strides
    return np.lib.stride_tricks.as_strided(
        M, (len(M), M.shape[1] // 8, 8, 8), (s0, 8 * (s1 + s2), s1, s2))


def _lower_inverse(L: np.ndarray) -> np.ndarray:
    """The inverses of a stack of lower triangular matrices whose order is a
    multiple of 8.  Each diagonal 8 x 8 block B = diag(B) (I - N), with N
    strictly lower and so N^8 = 0, has the inverse
    (I + N)(I + N^2)(I + N^4) diag(B)^-1; the blocks left of the diagonal
    follow one block row at a time."""
    k, n, _ = L.shape
    B = np.ascontiguousarray(_diagonal_blocks(L)).reshape(-1, 8, 8)
    scale = 1.0 / B.reshape(-1, 64)[:, ::9]
    N = B * -scale[:, :, None]
    N.reshape(-1, 64)[:, ::9] = 0.0  # each block's diagonal
    N2 = N @ N
    N4 = N2 @ N2
    for M in (N, N2, N4):  # I + M, in place
        M.reshape(-1, 64)[:, ::9] = 1.0
    inverse = (N @ N2) @ N4
    inverse *= scale[:, None, :]
    if n == 8:
        return inverse.reshape(k, 8, 8)
    inverse = inverse.reshape(k, n // 8, 8, 8)
    D = np.zeros_like(L)
    _diagonal_blocks(D)[...] = inverse
    for i in range(1, n // 8):
        a = 8 * i
        D[:, a:a + 8, :a] = -inverse[:, i] @ (L[:, a:a + 8, :a] @ D[:, :a, :a])
    return D


class CholeskyFactor:
    """L L^T of a symmetric positive definite matrix of order n, stored once
    as dense panels, one per pivot block of a batch of fronts.  A panel holds
    per front the columns of M = [D; -G]: D, the inverse of the block's
    diagonal part L11, over G = L21 D, the rows below it times D.  ids holds
    the position of each of M's rows, n at a padding slot, whose column of
    D is a unit vector and whose row of G is 0.  A solve walks the panels in
    elimination order and back: per panel a gather, one batched product and
    a scatter.  A panel shared with a larger ball of an exhaustion may also
    put n at a band row that this ball lacks (_Interior.share)."""

    def __init__(self, n: int, panels: list):
        self.n = n
        # (ids, pivots, rows, into, X): X[f, c] is the column c of front f's
        # M, the pivot slots ids[:, :width] hold the positions pivots, and the
        # row slots ids[:, width:] the positions rows[into]
        self.panels = panels
        self.nnz = 0  # the entries of L, padding left out
        for ids, pivots, _, _, X in panels:
            real = np.count_nonzero(pivots < n, axis=1)
            below = np.count_nonzero(ids[:, X.shape[1]:] < n, axis=1)
            self.nnz += int((real * (real + 1) // 2 + real * below).sum())
        self.interior = None  # what a larger ball shares with the smaller ones (cholesky)

    def solve(self, b: np.ndarray) -> np.ndarray:
        x = np.zeros(self.n + 1)  # the last entry, of every padding slot, stays 0
        x[:-1] = b
        for _, pivots, rows, into, X in self.panels:
            width = X.shape[1]
            y = np.matmul(x[pivots][:, None], X)[:, 0]
            x[pivots] = y[:, :width]
            x[rows] += np.bincount(into, y[:, width:].ravel(), minlength=len(rows))
        x[-1] = 0.0  # clear what went to a band row that this ball lacks
        for ids, pivots, _, _, X in reversed(self.panels):
            x[pivots] = np.matmul(X, x[ids][:, :, None])[:, :, 0]
        return x[:-1]


def _assembly(A, f: _Fronts) -> list:
    """Per batch, a list holding the places in its fronts of the entries of
    A's lower triangle, and their values."""
    n = len(f.order)
    rows, cols, values = A
    owner = f.front_of[cols]
    r = f.slot_of[rows]
    out = f.front_of[rows] != owner  # a row of the front's boundary
    u = owner[out]
    r[out] = f.blocks[u] * f.width[u] + np.searchsorted(f.boundary_key, u * n + rows[out]) \
        - f.boundary_ptr[u]
    span = (f.blocks * f.width + f.rows)[owner]
    to = ((f.place[owner] * span + r) * span + f.slot_of[cols]).astype(np.int32)
    by_batch = np.argsort(f.batch[owner], kind="stable")
    cut = np.searchsorted(f.batch[owner][by_batch], np.arange(len(f.batches) + 1))
    to, values = to[by_batch], values[by_batch]
    return [[(to[cut[b]:cut[b + 1]], values[cut[b]:cut[b + 1]])]
            for b in range(len(f.batches))]


def cholesky(A, fronts: _Fronts, shared=(0, [])) -> CholeskyFactor:
    """The Cholesky factor of the symmetric positive definite A, given as
    the entries (rows, cols, values) of its lower triangle in the
    elimination order of fronts, by the multifrontal method on those fronts.

    Each batch of fronts is assembled from A's lower triangle and its
    children's updates, then each pivot block in turn is factored
    (L11 = chol(F11), D = L11^-1) and eliminated from the rows below it
    (L21 = F21 D^T, G = L21 D, F22 -= L21 L21^T by tiles on and below the
    diagonal), leaving the block's panel.  The lower triangle of what is left
    of the boundary block is the update, which waits in its parent's batch
    and is freed once that is assembled.

    When fronts has an interior, the factor's interior holds its panels and
    the update that its fronts sent the root, the band (_Interior).  A
    smaller ball of the exhaustion passes those panels as shared =
    (start, panels): they eliminate its first `start` positions, which A and
    fronts then leave out, and the update is among the entries of its A."""
    f = fronts
    start, panels = shared[0], list(shared[1])
    n = start + len(f.order)
    # per batch, the entries that its fronts assemble, as (place, value):
    # first A's lower triangle, then its children's updates
    pending = _assembly(A, f)
    count, sent = None, [(np.zeros(0, dtype=np.int32), np.zeros(0))]
    for b, fs in enumerate(f.batches):
        if b == f.shared > 0:  # the interior's fronts are done: what they sent the root
            root = pending[f.batch[f.batches[-1][0]]]
            root[1:] = sent = [tuple(map(np.concatenate, zip(*sent, *root[1:])))]  # in one piece
            count = len(panels)
        k, blocks, width, rows, tile = (len(fs), int(f.blocks[fs[0]]), int(f.width[fs[0]]),
                                        int(f.rows[fs[0]]), int(f.tile[fs[0]]))
        P = blocks * width
        span = P + rows
        S = f.slots[f.slot_ptr[fs, None] + np.arange(span)]
        F = np.zeros(k * span * span)
        for to, values in pending[f.batch[fs[0]]]:
            np.add.at(F, to, values)
        pending[f.batch[fs[0]]] = None
        F = F.reshape(k, span, span)
        q, c = np.nonzero(S[:, :P] < 0)
        F[q, c, c] = 1.0  # padding pivots

        update = None  # L21 L21^T of a last block of one tile, not yet subtracted
        for j in range(blocks):
            a, e = j * width, (j + 1) * width
            W = _lower_inverse(np.linalg.cholesky(F[:, a:e, a:e]))
            X = W.transpose(0, 2, 1)  # per front, column c of D in row c
            if e < span:
                nt = (span - e) // tile
                L21 = F[:, e:, a:e].reshape(k, nt, tile, width) @ X[:, None]
                G = (L21 @ W[:, None]).reshape(k, span - e, width)
                X = np.concatenate([X, -G.transpose(0, 2, 1)], axis=2)
                # F22 -= L21 L21^T, in tiles on and below the diagonal, one
                # row of tiles at a time
                if nt == 1 and e == P:
                    update = L21[:, 0] @ L21[:, 0].transpose(0, 2, 1)
                for i in range(nt if update is None else 0):
                    r0 = e + i * tile
                    F[:, r0:r0 + tile, e:r0 + tile].reshape(k, tile, i + 1, tile).transpose(
                        0, 2, 1, 3)[...] -= L21[:, i:i + 1] @ L21[:, :i + 1].transpose(0, 1, 3, 2)
                del L21, G
            ids = np.where(S[:, a:] < 0, n, S[:, a:] + start).astype(np.intp)
            rows_below, into = np.unique(ids[:, width:], return_inverse=True)
            panels.append((ids, ids[:, :width].copy(), rows_below, into.ravel(),
                           np.ascontiguousarray(X)))
            del W, X

        if rows:  # the update, lower triangle only, to the parents' batches
            T = f.targets[f.target_ptr[fs, None] + np.arange(rows)]
            real = np.count_nonzero(T >= 0, axis=1)  # the real rows come first
            up = f.parent[fs]
            up_span = f.blocks[up] * f.width[up] + f.rows[up]
            to = (f.place[up] * up_span ** 2).astype(np.int32)[:, None, None] \
                + (T * up_span[:, None].astype(np.int32))[:, :, None] + T[:, None, :]
            keep = np.tri(rows, dtype=bool) & (np.arange(rows) < real[:, None])[:, :, None]
            if update is None:
                values = F[:, P:, P:][keep]
            else:
                values = np.subtract(F[:, P:, P:], update, out=update)[keep]
            to = to[keep]
            ends = np.cumsum(real * (real + 1) // 2)
            up_batch = f.batch[up]
            cuts = np.flatnonzero(np.diff(up_batch)) + 1
            for lo_q, hi_q in zip(np.concatenate([[0], cuts]), np.concatenate([cuts, [k]])):
                lo_e = ends[lo_q - 1] if lo_q else 0
                pending[up_batch[lo_q]].append((to[lo_e:ends[hi_q - 1]],
                                                values[lo_e:ends[hi_q - 1]]))
            del to, values, keep
        del F, update
    factor = CholeskyFactor(n, panels)
    if f.shared:
        root = f.batches[-1][0]
        factor.interior = (panels[:count],
                           (f.slots[f.slot_ptr[root]:f.slot_ptr[root + 1]].copy(), *sent[0]))
    return factor


def _eigen_block(K: Stiffness, pos: np.ndarray):
    """The free block of K on the vertices with pos >= 0, numbered by pos:
    as an _Ell, as the entries of its lower triangle, and the free vertices
    with an edge to a constrained one."""
    block, (row, _, _) = _free_block(K, pos)
    inner = (pos[K.i] >= 0) & (pos[K.j] >= 0)
    pi, pj = pos[K.i[inner]], pos[K.j[inner]]
    d = np.arange(len(block.diag))
    lower = (np.concatenate([np.maximum(pi, pj), d]), np.concatenate([np.minimum(pi, pj), d]),
             np.concatenate([-K.w[inner], block.diag]))
    return block, lower, np.unique(row)


@dataclass(eq=False)
class _Interior:
    """The factored interior of an exhaustion's largest ball, which every
    smaller ball shares: the mesh vertex at each of the largest ball's
    positions (the interior's first, `count` of them), the interior's
    panels, and the update that its fronts sent the band's front, all in the
    largest ball's positions.  The update is (band, places, values): the
    position of each slot of the band's front, and the place in that front
    (row slot * span + column slot) and the value of each entry, an entry of
    the lower triangle of the band's block."""

    vertices: np.ndarray
    count: int
    panels: list
    update: tuple

    def share(self, position: np.ndarray, n: int, lower: tuple) -> tuple:
        """The panels in the positions of a smaller ball of n free vertices,
        position[v] being that of mesh vertex v there (-1 for a vertex that
        is not free); and the entries `lower` of its free block's lower
        triangle less the interior's columns, with the update added, in
        positions counted from the interior's end.  A band row that the ball
        lacks goes to the padding position n, and its update entries are
        dropped."""
        to = np.append(position[self.vertices], n)
        to[to < 0] = n
        panels = [(to[ids], to[pivots], to[rows], into, X)
                  for ids, pivots, rows, into, X in self.panels]
        band, places, values = self.update
        rows, cols = to[band[places // len(band)]], to[band[places % len(band)]]
        added = (rows < n) & (cols < n)
        kept = lower[1] >= self.count
        return panels, (np.concatenate([lower[0][kept], np.maximum(rows, cols)[added]]) - self.count,
                        np.concatenate([lower[1][kept], np.minimum(rows, cols)[added]]) - self.count,
                        np.concatenate([lower[2][kept], values[added]]))


def first_eigenvalue_estimates(mesh: TriMesh, radii) -> list:
    """Smallest Dirichlet eigenvalue of (K, M) on the extrinsic ball of each
    radius, the balls of an exhaustion, in the order of radii.

    One elimination tree serves every ball, with the band of the smallest
    radius at its root when there are several.  The largest ball goes first
    and is factored in full; each smaller one shares its interior's panels
    (first_eigenvalue_estimate)."""
    radii = [float(R) for R in radii]
    tree = elimination_tree(mesh, radii)
    interior, estimates = None, {}
    for R in sorted(set(radii), reverse=True):
        estimates[R], interior = first_eigenvalue_estimate(clip(mesh, 0.0, R), tree, interior)
    return [estimates[R] for R in radii]


def first_eigenvalue_estimate(region: ClippedRegion, tree: EliminationTree,
                              interior: _Interior | None = None) -> tuple:
    """Smallest Dirichlet eigenvalue of (K, M) on the region by inverse
    power iteration on one Cholesky factorization of the free block, and
    the factored interior that a smaller ball of the exhaustion shares.

    tree is elimination_tree(parent mesh, radii) for radii whose largest is
    at least region.R.  The free vertices (each a parent vertex: cut
    vertices lie on the Dirichlet boundary) are eliminated front by front on
    that tree (_fronts, cholesky), the tree's interior first.  Given the
    interior of a larger ball, its panels eliminate this ball's interior:
    no face at an interior vertex is cut, and clip keeps or drops a whole
    face by its area alone, so the interior's free vertices and rows are
    the same in both balls, and only the rest of the free block is
    factored.  A part of the free vertices with no edge path to the
    Dirichlet boundary (a closed component inside the ball) makes the block
    singular and raises DomainError."""
    system = assemble_laplacian(region, {"inner": 0.0, "outer": 0.0, "truncation": 0.0})
    free = np.flatnonzero(system.free_mask())
    if len(free) == 0:
        raise DomainError("region has no interior vertices")
    vertices = region.vertex_parent[free]
    shared = np.zeros(0, dtype=np.int64)  # the free vertices that the interior eliminates
    if interior is not None:
        at = np.full(len(tree.node), -1)
        at[vertices] = np.arange(len(free))
        shared = at[interior.vertices[:interior.count]]
    own = np.ones(len(free), dtype=bool)
    own[shared] = False
    own = np.flatnonzero(own)
    fronts = _fronts(tree, vertices[own])
    free = free[np.concatenate([shared, own[fronts.order]])]
    del vertices, shared, own
    pos = np.full(len(system.mass), -1)
    pos[free] = np.arange(len(free))
    Kff, lower, touching = _eigen_block(system.K, pos)
    mf = system.mass[free]
    del system, pos  # only the free block is factored
    # the free block's graph: the columns of each row's slots
    reached = _breadth_first(np.ascontiguousarray(Kff.cols.T), touching,
                             np.zeros(len(free), dtype=bool))
    if len(reached) < len(free):
        raise DomainError(f"the free block is singular: {len(free) - len(reached)} free "
                          "vertices have no path to the Dirichlet boundary")
    del touching, reached
    if interior is None:
        factor = cholesky(lower, fronts)
        if factor.interior is not None:
            interior = _Interior(region.vertex_parent[free], fronts.interior, *factor.interior)
    else:
        at = np.full(len(tree.node), -1)
        at[region.vertex_parent[free]] = np.arange(len(free))
        panels, lower = interior.share(at, len(free), lower)
        factor = cholesky(lower, fronts, (interior.count, panels))
    del lower
    x = np.ones(len(free))
    x /= math.sqrt(float((x * x * mf).sum()))
    lam_prev = math.inf
    for _ in range(_EIGEN_MAXITER):
        x = factor.solve(mf * x)
        x /= math.sqrt(float((x * x * mf).sum()))
        lam = _dot(x, Kff @ x) / float((x * x * mf).sum())
        change = abs(lam - lam_prev)
        if change <= _EIGEN_TOL * abs(lam):
            return lam, interior
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
    truncation boundary (the discrete proxy for non-compact closure), in the
    order of their least vertex."""
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
    # two edges of each face join its three corners
    labels = _components(sub[:, :2].ravel(), sub[:, 1:].ravel(), len(mesh.verts))
    comps, face_comp = np.unique(labels[sub[:, 0]], return_inverse=True)
    touching = np.zeros(len(comps), dtype=bool)
    touching[face_comp[(mesh.tags[sub] == TAG_TRUNCATION).any(axis=1)]] = True
    faces = np.flatnonzero(keep)
    masks = []
    for comp in np.flatnonzero(touching):
        mask = np.zeros(len(mesh.faces), dtype=bool)
        mask[faces[face_comp == comp]] = True
        masks.append(mask)
    return EndsResult(len(masks), masks, warning)
