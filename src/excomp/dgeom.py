"""Discrete operators on triangulated immersed surfaces.

Everything is driven by the per-vertex extrinsic distance r: marching-
triangle clipping between level sets (extrinsic balls and annuli), ball
areas and level polyline fluxes of r, cotangent-Laplacian Dirichlet and
Poisson solves (capacity, mean exit time), a membrane eigenvalue estimate,
and counting of ends as unbounded complement components.  Every region
and every sweep reads a radial index of the mesh (RadialIndex; harness.Study
holds one per run and hands it to the eigenvalue estimates, which free it):
the faces sorted by their largest vertex radius, with the area and
|grad r| of each (the one place |grad r| is computed) and prefix sums of
the areas.  A ball of radius R is the whole faces before the first
position whose largest radius reaches R, plus the pieces of the few faces
that R straddles, and one function (_cut) cuts those faces for clip and
for the sweeps alike.  A region's stiffness is one bincount of the whole
faces' half cotangents, computed once per index, plus its pieces' own.
RadialIndex.sweep answers a whole radius grid, with or without a face
mask, in one array pass over the (face, radius) pairs where the radius
straddles the face; no region is built.  Its ball areas equal
clip(mesh, 0, R).area() to within 1e-12 relative (the summation order
differs).

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
(first_eigenvalue_estimates) read the largest ball's free block from the
index, and each smaller ball's as a restriction of it in which only the
rows of its band (the vertices on the faces that its radius cuts) are
assembled again.  Each ball's free block is factored by a multifrontal
Cholesky (cholesky) on one tree (elimination_tree): the band of the
smallest ball at the root, over a nested dissection of the interior inside
it and one of the outside.  The largest ball is factored first; the
interior's rows are the same in every ball, so each smaller ball reuses its
panels and factors only its own outside fronts and band.  The factor keeps
the dense panel of each pivot block, and its dense kernels stay below the
sizes at which OpenBLAS starts worker threads.  Shift-invert Lanczos on the
factor gives each eigenvalue (_lanczos).  The breadth-first searches and
graph components are numpy frontier code.
"""

from __future__ import annotations

import functools
import math
import mmap
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .errors import (CoverageError, DomainError, SolveError, TruncationContactError)
from .surfaces import (TAG_TRUNCATION, Stiffness, TriMesh, _cotangent_edges, _edge_counts,
                       _lumped_mass, edge_keys, face_areas, norms, triangle_normals)

LABEL_INTERIOR = 0
LABEL_INNER = 1
LABEL_OUTER = 2
LABEL_TRUNCATION = 3

_CG_RTOL = 1e-10  # relative residual at which conjugate gradients stop
_EIGEN_TOL = 1e-8  # relative change of the Lanczos eigenvalue estimate at which it stops
_EIGEN_MAXITER = 500  # Lanczos steps (factor solves) before it gives up
_LANCZOS_BASIS = 16  # Lanczos vectors kept at most; a longer run restarts from its Ritz vector
_ND_LEAF = 16  # nested dissection splits no part of at most this many vertices
_SNAP = 1e-12  # a cut this close to an edge end (in edge parameter) reuses the end


@dataclass(eq=False)
class ClippedRegion:
    """Submesh between the extrinsic radii rho and R of a parent mesh.

    Cut triangles are split along the linear interpolant of r on edges; cut
    vertices carry r equal to the cut level exactly, except that a cut within
    1e-12 of an edge end reuses that end.  vertex_label marks the inner level
    set, outer level set and inherited truncation boundary.  vertex_parent
    is the parent-mesh index of each vertex, -1 for a cut vertex.  stiffness
    and mass are cotangent_laplacian(verts, faces), bit for bit.
    """

    verts: np.ndarray
    faces: np.ndarray
    r: np.ndarray
    rho: float
    R: float
    vertex_label: np.ndarray
    vertex_parent: np.ndarray
    stiffness: Stiffness = field(repr=False)
    mass: np.ndarray = field(repr=False)

    def area(self) -> float:
        return float(face_areas(self.verts, self.faces).sum())

    def has_label(self, label: int) -> bool:
        return bool(np.any(self.vertex_label == label))


def _roll_rows(rows: np.ndarray, shift: np.ndarray) -> np.ndarray:
    cols = (shift[:, None] + np.arange(3)[None, :]) % 3
    return np.take_along_axis(rows, cols, axis=1)


# the pieces of a face (a, b, c) cut at p on a-b and q on a-c, as corners
# among (a, b, c, p, q): the triangle at a, then the rest fanned from b
_PIECES = np.array([[0, 3, 4], [1, 2, 4], [1, 4, 3]])


def _cut(faces, r, level, below=True):
    """The one cut of faces by levels of r (clip's and the sweeps'), each
    face straddling its level.  Its corners are rolled to put first a, the
    one alone on its side; the cuts p and q of a-b and a-c lie where the
    linear interpolant of r reaches the level, as a parameter t from each
    edge's lower vertex number, snapped to an end within _SNAP.  The pieces
    below the level (or at and above it) are (a, p, q) when a lies on that
    side, else (b, c, q) and (b, q, p).  Returns (faces, ends, t, rows,
    kind, scale): ends, the lower and higher vertex of a-b and a-c; and per
    piece (the triangles first), its face's row, its row of _PIECES and its
    share of the face's area."""
    level = np.broadcast_to(level, len(faces))[:, None]
    above = r[faces] >= level  # a vertex exactly at the level counts as above
    two = above.sum(axis=1) == 2
    faces = _roll_rows(faces, np.where(above[:, 0] ^ two, 0, np.where(above[:, 1] ^ two, 1, 2)))
    del above
    # in place, to keep a sweep's temporaries small
    ends = np.empty((2, len(faces), 2), dtype=faces.dtype)
    np.minimum(faces[:, :1], faces[:, 1:], out=ends[0])
    np.maximum(faces[:, :1], faces[:, 1:], out=ends[1])
    t = np.subtract(level, r[ends[0]])
    t /= np.subtract(r[ends[1]], r[ends[0]])
    np.clip(t, 0.0, 1.0, out=t)
    t[t <= _SNAP] = 0.0
    t[t >= 1.0 - _SNAP] = 1.0
    s = 1.0 - t  # from a
    np.copyto(s, t, where=faces[:, :1] < faces[:, 1:])
    s1, s2 = s[:, 0], s[:, 1]
    tri = two == below  # two corners above: a lies below
    tris, quads = np.flatnonzero(tri), np.flatnonzero(~tri)
    rows = np.concatenate([tris, quads, quads])
    kind = np.repeat(np.arange(3), [len(tris), len(quads), len(quads)])
    scale = np.concatenate([(s1 * s2)[tris], (1.0 - s2)[quads], (s2 * (1.0 - s1))[quads]])
    return faces, ends, t, rows, kind, scale


def _cut_pieces(verts, r, faces, level, below):
    """The pieces (_cut) as vertex numbers, and the cut points: one per edge
    cut strictly inside, numbered on from len(verts) in edge key order."""
    faces, ends, t, rows, kind, _ = _cut(faces, r, level, below)
    n = len(verts)
    keys, inverse = np.unique((ends[0] * n + ends[1]).ravel(), return_inverse=True)
    at = np.empty(len(keys))
    at[inverse] = t.ravel()  # every face at an edge cuts it at the same place
    i, j = keys // n, keys % n
    new = (at > 0.0) & (at < 1.0)
    ids = np.where(at == 0.0, i, j)
    ids[new] = n + np.arange(int(new.sum()))
    i, j, at = i[new], j[new], at[new]
    pts = verts[i] + at[:, None] * (verts[j] - verts[i])
    table = np.column_stack([faces, ids[inverse].reshape(-1, 2)])
    return pts, table[rows[:, None], _PIECES[kind]]


def clip(mesh: TriMesh | RadialIndex, rho: float, R: float, face_mask=None) -> ClippedRegion:
    """Extrinsic annulus {rho <= r <= R} (ball when rho = 0) as a submesh.

    mesh is a TriMesh, or the RadialIndex of one that a run's regions
    share: the whole faces in the band and those that rho or R straddles
    (cut by _cut) are runs of its face order.  face_mask restricts the cut
    to a subset of parent faces.  Every face
    or cut piece of positive area is kept, however small; only the faces of
    no area that a cut through a vertex leaves are dropped.  Cotangent
    weights depend on angles alone, so a tiny piece does no harm, where
    dropping it would leave a hole.  Raises CoverageError when the
    truncation boundary of the mesh intrudes into the radius band (the
    region would leak through the computational window).
    """
    if not (0.0 <= rho < R):
        raise DomainError(f"need 0 <= rho < R, got rho={rho!r}, R={R!r}")
    index = RadialIndex(mesh) if isinstance(mesh, TriMesh) else mesh
    start, k = np.searchsorted(index.max_r, [rho, R], "left")  # faces wholly below each
    end = int(np.searchsorted(index.min_r_after, R, "left"))  # no face from here on reaches below R
    inside, above = np.arange(start, k), np.arange(k, end)
    trunc = index.truncation_pos[index.truncation_pos < end]
    if face_mask is not None:
        selected = index.selected(face_mask)
        inside, above, trunc = (p[selected[p]] for p in (inside, above, trunc))
    _check_coverage(index.mesh, R, index.faces[trunc], rho=rho)
    low = index.min_r[inside] < rho
    whole = inside[~low]
    region = _region(index, whole[index.area[whole] > 0.0],
                     np.concatenate([inside[low], above[index.min_r[above] < R]]), rho, R)
    if len(region.faces) == 0:
        raise DomainError("clip produced an empty region")
    return region


def _region(index: RadialIndex, whole: np.ndarray, cut: np.ndarray, rho: float,
            R: float) -> ClippedRegion:
    """The region of the faces at the index positions `whole` and of the
    parts in rho <= r <= R of those at `cut` (which rho or R straddles),
    less pieces of no area: the whole faces first, then the pieces.  Its
    stiffness and mass are cotangent_laplacian(verts, faces) bit for bit:
    an edge's weight sums the half cotangents of its faces, the index's for
    a whole face and computed for a piece.  Its boundary edges are those
    that one face holds."""
    mesh = index.mesh
    n0 = len(mesh.verts)
    straddled = index.faces[cut]
    at_R = index.max_r[cut] >= R
    pts, pieces = _cut_pieces(mesh.verts, mesh.r, straddled[at_R], R, True)
    verts, r = np.concatenate([mesh.verts, pts]), np.concatenate([mesh.r, np.full(len(pts), R)])
    if rho > 0.0:  # the faces and R's pieces that rho straddles
        pieces = np.concatenate([straddled[~at_R], pieces])
        low = r[pieces].min(axis=1) < rho
        pts, cut_pieces = _cut_pieces(verts, r, pieces[low], rho, False)
        pieces = np.concatenate([pieces[~low], cut_pieces])
        verts, r = np.concatenate([verts, pts]), np.concatenate([r, np.full(len(pts), rho)])
    double = norms(*triangle_normals(*(verts[pieces[:, c]] for c in range(3))))
    kept = 0.5 * double > 0.0
    pieces, double = pieces[kept], double[kept]

    whole_faces = index.faces[whole]
    used = np.flatnonzero(np.bincount(np.concatenate([whole_faces.ravel(), pieces.ravel()]),
                                      minlength=len(verts)))
    n = len(used)
    remap = np.full(len(verts), -1, dtype=np.int64)
    remap[used] = np.arange(n)
    faces = remap[np.concatenate([whole_faces, pieces])]
    parent = np.where(used < n0, used, -1)
    verts, r = verts[used], r[used]

    # each edge: a mesh edge's place among the keys, or after them one of
    # the region's own edges, at a cut vertex
    keys, face_edges, half_cot = index.laplacian_weights
    rows, cols, w, _ = _cotangent_edges(verts, faces[len(whole):])
    pr, pc = parent[rows], parent[cols]
    on_mesh = (pr >= 0) & (pc >= 0)
    own, at = np.unique(edge_keys(np.column_stack([rows, cols])[~on_mesh], n), return_inverse=True)
    piece_edge = np.empty(len(rows), dtype=np.int64)
    piece_edge[on_mesh] = np.searchsorted(keys, np.minimum(pr, pc)[on_mesh] * n0
                                          + np.maximum(pr, pc)[on_mesh])
    piece_edge[~on_mesh] = len(keys) + at
    edge = np.concatenate([face_edges[:, whole].ravel(), piece_edge])
    count = np.bincount(edge, minlength=len(keys) + len(own))
    weight = np.bincount(edge, np.concatenate([half_cot[:, whole].ravel(), w]),
                         minlength=len(keys) + len(own))
    e = np.concatenate([np.flatnonzero(count[:len(keys)]), np.arange(len(keys), len(count))])
    count, weight = count[e], weight[e]  # the region's edges
    ends = np.concatenate([remap[np.stack(np.divmod(keys[e[e < len(keys)]], n0))],
                           np.stack(np.divmod(own, n))], axis=1)
    region = ClippedRegion(verts, faces, r, rho, R, np.zeros(n, dtype=np.uint8), parent,
                           None, None)
    _label_boundary(region, ends[:, count == 1].T)
    # in key order: the renumbering keeps the mesh edges' order, and the
    # region's own edges merge into them (a stable sort of two sorted runs)
    i, j = ends[:, weight > 0.0]
    w = weight[weight > 0.0]
    order = np.argsort(i * n + j, kind="stable")
    i, j, w = i[order], j[order], w[order]
    diag = np.bincount(i, w, minlength=n) + np.bincount(j, w, minlength=n)
    region.stiffness = Stiffness(i, j, w, diag)
    region.mass = _lumped_mass(faces, n, np.concatenate([2.0 * index.area[whole], double]))
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


def _label_boundary(region: ClippedRegion, ends: np.ndarray):
    """Label the ends of each boundary edge (a row of ends): inner (both
    ends on r = rho, rho > 0), else outer (both on r = R), else truncation.
    Level labels win over truncation at corner vertices."""
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


def _prefix_sums(values: np.ndarray, out=None) -> np.ndarray:
    # a float64 running sum drifts by up to F ulps; extended precision (where
    # the platform has it) keeps the prefix sums as accurate as clip's sum
    if out is None:
        out = np.empty(len(values) + 1)
    out[0] = 0.0
    out[1:] = np.cumsum(values, dtype=np.longdouble)
    return out


def _mapped(*specs) -> list:
    """Zeroed arrays of the given (shape, dtype), all in one anonymous
    memory map, which is unmapped once no array is referenced."""
    sizes = [math.prod(shape) * np.dtype(dtype).itemsize for shape, dtype in specs]
    buf = mmap.mmap(-1, max(sum(sizes), 1))
    arrays, offset = [], 0
    for (shape, dtype), size in zip(specs, sizes):  # each of 8-byte items, so all stay aligned
        arrays.append(np.frombuffer(buf, dtype, math.prod(shape), offset).reshape(shape))
        offset += size
    return arrays


@dataclass(eq=False)
class _Cuts:
    """The faces that the levels of a sweep straddle, as (face, level) pairs
    in level order, for the levels before the first unusable one, and per
    level the area and number of the pieces of those faces below it.  Each
    straddled face is cut into the pieces that clip cuts it into (_cut),
    each of the face's area times its share; as in clip, a piece of no area
    (one whose cut point a corner took over) is dropped and every other is
    kept."""

    levels: np.ndarray
    whole_area: np.ndarray  # per level, of the selected faces wholly below it
    whole_count: np.ndarray  # and their number
    piece_area: np.ndarray  # per level, of the pieces below it
    piece_count: np.ndarray  # and their number
    label: np.ndarray  # per pair, the level's position
    faces: np.ndarray  # per pair, the face's corners, rolled by _cut
    r: np.ndarray  # per pair, r at those corners
    grad: np.ndarray  # per pair, the face's |grad r| (or its code)
    error: Exception | None  # of the first unusable level, if any


class RadialIndex:
    """The faces of a mesh sorted by their largest vertex radius, with the
    area and |grad r| of each (from one cross product per face) and
    extended-precision prefix sums of the areas.  A sweep answers a whole
    radius grid in one array pass: the faces wholly below a level count
    through the prefix sums, and only the (face, level) pairs where the level
    straddles the face are cut or marched.  A face mask costs one more prefix
    sum, so one index serves every mask, and every region (clip) too.
    Meshes are immutable, so an index never goes stale."""

    def __init__(self, mesh: TriMesh):
        self.mesh = mesh
        f = len(mesh.faces)
        # Each result is written into an anonymous map of the index's own:
        # no heap copy lives beside it, and its pages go back to the system
        # with the index (freed heap can stay resident as holes).
        (self.ids, self.faces, self.max_r, self.min_r, self.min_r_after, self.area, self.grad,
         self.area_below) = _mapped(*[((f,), np.int64), ((f, 3), np.int64)]
                                    + [((f,), np.float64)] * 5 + [((f + 1,), np.float64)])
        rf = mesh.r[np.ascontiguousarray(mesh.faces.T)]  # one row per corner
        max_r = rf.max(axis=0)
        self.ids[...] = np.argsort(max_r)
        np.take(max_r, self.ids, out=self.max_r)
        np.take(rf.min(axis=0), self.ids, out=self.min_r)
        del rf, max_r
        np.take(mesh.faces, self.ids, axis=0, out=self.faces)
        # from each position on, the least min r: no face past the first
        # position where it reaches R is cut by R
        np.minimum.accumulate(self.min_r[::-1], out=self.min_r_after[::-1])
        a, b, c = (mesh.verts[self.faces[:, i]] for i in range(3))
        normal = triangle_normals(a, b, c)
        np.multiply(0.5, norms(*normal), out=self.area)  # face_areas, bit for bit
        self.grad[...] = _gradient_codes(a, b, c, normal, mesh.pole)
        del a, b, c, normal
        _prefix_sums(self.area, out=self.area_below)
        # per face with a truncation vertex at r > 0, the least such r: a ball
        # of the selected faces leaks through the window beyond the least one
        window = (mesh.tags == TAG_TRUNCATION) & (mesh.r > 0)
        self.truncation_pos = np.flatnonzero(window[self.faces].any(axis=1))
        edge = self.faces[self.truncation_pos]
        self.truncation_r = np.where(window[edge], mesh.r[edge], math.inf).min(axis=1)

    @functools.cached_property
    def laplacian_weights(self) -> tuple:
        """The mesh's edge keys (edge_keys), increasing; and per corner of
        each face (one row per corner), the opposite edge's place among them
        and the corner's half cotangent.  Built on first use: no sweep needs
        them."""
        rows, cols, w, _ = _cotangent_edges(self.mesh.verts, self.faces)
        keys, edge = np.unique(edge_keys(np.column_stack([rows, cols]), len(self.mesh.verts)),
                               return_inverse=True)
        return keys, edge.reshape(3, -1), w.reshape(3, -1)

    def selected(self, face_mask) -> np.ndarray:
        """Per position, whether face_mask (over the mesh's faces) selects
        its face."""
        keep = np.zeros(len(self.faces), dtype=bool)
        keep[face_mask] = True
        return keep[self.ids]

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
            selected = self.selected(face_mask)
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
                     else _coverage_error(self.mesh.name, truncation_r, 0.0, R))
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
        faces, _, _, rows, _, scale = _cut(self.faces[pos], self.mesh.r, levels[label])
        areas = scale * self.area[pos][rows]
        piece = label[rows][areas > 0.0]
        areas = areas[areas > 0.0]
        whole = k if face_mask is None else np.searchsorted(chosen, k)  # faces wholly below
        return _Cuts(levels, area_below[whole], whole, np.bincount(piece, areas, minlength=n),
                     np.bincount(piece, minlength=n), label, faces, self.mesh.r[faces],
                     self.grad[pos], error)

    def _areas(self, cuts: _Cuts) -> np.ndarray:
        """Ball areas: the faces wholly below each level and the pieces of
        those it straddles."""
        empty = np.flatnonzero(cuts.whole_count + cuts.piece_count == 0)
        if len(empty):
            R = float(cuts.levels[empty[0]])
            raise DomainError(f"the ball of radius {R!r} contains no face")
        if cuts.error is not None:
            raise cuts.error
        return cuts.whole_area + cuts.piece_area

    def _fluxes(self, cuts: _Cuts) -> np.ndarray:
        """Level fluxes: the level segment of each straddled face, by
        marching triangles, times the face's |grad r|."""
        if np.any(cuts.grad == _DEGENERATE):
            raise DomainError("degenerate face in radial gradient computation")
        f, r, level = cuts.faces, cuts.r, cuts.levels[cuts.label]
        verts = self.mesh.verts
        v0 = verts[f[:, 0]]
        p1 = v0 + ((level - r[:, 0]) / (r[:, 1] - r[:, 0]))[:, None] * (verts[f[:, 1]] - v0)
        p2 = v0 + ((level - r[:, 0]) / (r[:, 2] - r[:, 0]))[:, None] * (verts[f[:, 2]] - v0)
        return np.bincount(cuts.label, cuts.grad * norms(*(p1 - p2).T),
                           minlength=len(cuts.levels))


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
    K, mass = region.stiffness, region.mass
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


@dataclass(eq=False)
class _Block:
    """A ball's free block in mesh vertex numbers: the free vertices,
    increasing, with the diagonal entry and mass of each, whether an edge
    joins it to a constrained vertex (touching), and whether the
    singularity check must see it reached (check); and the free-free edges
    (i, j, w) of positive weight."""

    free: np.ndarray
    diag: np.ndarray
    mass: np.ndarray
    touching: np.ndarray
    check: np.ndarray
    i: np.ndarray
    j: np.ndarray
    w: np.ndarray


def _block(region: ClippedRegion, free=None, constrained=None) -> _Block:
    """The free block of a region on the vertices `free` marks (by default
    those of no boundary label), touching those that `constrained` marks
    (by default the rest)."""
    free = region.vertex_label == LABEL_INTERIOR if free is None else free
    constrained = ~free if constrained is None else constrained
    K, parent = region.stiffness, region.vertex_parent
    touching = np.zeros(len(free), dtype=bool)
    touching[K.i[free[K.i] & constrained[K.j]]] = touching[K.j[free[K.j] & constrained[K.i]]] = True
    both = free[K.i] & free[K.j]
    ids = np.flatnonzero(free)
    return _Block(parent[ids], K.diag[ids], region.mass[ids], touching[ids],
                  np.ones(len(ids), dtype=bool), parent[K.i[both]], parent[K.j[both]], K.w[both])


class _Exhaustion:
    """The balls of an exhaustion for the per-ball step: the elimination
    tree of their radii, the largest ball's free block and each smaller
    ball's band, read from the mesh's radial index, which it does not keep;
    and, once the largest ball is factored, its interior (_Interior).

    A smaller ball of radius R differs from the largest only at its band,
    the vertices with r < R on the faces that R cuts: any other vertex's
    faces lie wholly inside the ball or outside it.  A region of the cut
    faces and the whole faces at the band holds every edge and face at a
    band vertex, so it gives the band's rows, masses and labels."""

    def __init__(self, index: RadialIndex, radii):
        self.radii = sorted({float(R) for R in radii}, reverse=True)
        self.r = index.mesh.r
        self.tree = elimination_tree(index.mesh, self.radii)
        self.largest = _block(clip(index, 0.0, self.radii[0]))
        self.bands = {R: self._band(index, R) for R in self.radii[1:]}
        self.interior = None

    def _band(self, index: RadialIndex, R: float) -> tuple:
        """The band of the ball of radius R, and the block of its vertices
        that are free in the ball."""
        k = int(np.searchsorted(index.max_r, R, "left"))
        cut = np.arange(k, int(np.searchsorted(index.min_r_after, R, "left")))
        cut = cut[index.min_r[cut] < R]
        band = np.zeros(len(self.r), dtype=bool)
        band[index.faces[cut]] = True
        band &= self.r < R
        near = np.flatnonzero(band[index.faces[:k]].any(axis=1))
        region = _region(index, near[index.area[near] > 0.0], cut, 0.0, R)
        if k == 0 and len(region.faces) == 0:
            raise DomainError("clip produced an empty region")
        # free in the ball: on the band by the region's label, else as in the largest ball
        free = np.zeros(len(self.r), dtype=bool)
        free[self.largest.free] = self.r[self.largest.free] < R
        parent = region.vertex_parent
        on = (parent >= 0) & band[np.maximum(parent, 0)]
        free[parent[on]] &= region.vertex_label[on] == LABEL_INTERIOR
        free = (parent >= 0) & free[np.maximum(parent, 0)]
        return np.flatnonzero(band), _block(region, free & on, ~free)

    def block(self, R: float) -> _Block:
        """The free block of the ball of radius R: for a smaller ball, the
        largest ball's restricted to it, with its band's rows put in and
        the band to check."""
        if R == self.radii[0]:
            return self.largest
        if R not in self.bands:
            raise DomainError(f"no ball of radius {R!r} in the exhaustion of radii {self.radii}")
        big, (band, own) = self.largest, self.bands[R]
        inside, lost, on_band = (np.zeros(len(self.r), dtype=bool) for _ in range(3))
        inside[big.free] = self.r[big.free] < R
        inside[band] = False
        inside[own.free] = True
        lost[big.free] = ~inside[big.free]  # free in the largest ball only
        on_band[band] = True
        keep = inside[big.i] & inside[big.j] & ~(on_band[big.i] & on_band[big.j])
        sel = inside[big.free]
        free = big.free[sel]
        diag, mass, touching = big.diag[sel], big.mass[sel], big.touching[sel]
        touching |= np.isin(free, np.concatenate([big.i[inside[big.i] & lost[big.j]],
                                                  big.j[inside[big.j] & lost[big.i]]]))
        at = np.searchsorted(free, own.free)
        diag[at], mass[at], touching[at] = own.diag, own.mass, own.touching
        return _Block(free, diag, mass, touching, on_band[free],
                      np.concatenate([big.i[keep], own.i]), np.concatenate([big.j[keep], own.j]),
                      np.concatenate([big.w[keep], own.w]))


def _check_reached(block: _Block):
    """Raise DomainError unless every free vertex has an edge path to the
    Dirichlet boundary.  Off its band, a smaller ball has the largest
    ball's rows, so only a band vertex can be cut off anew: unless one of
    them touches no constrained vertex, there is nothing to search."""
    if np.all(block.touching[block.check]):
        return
    n = len(block.free)
    i, j = np.searchsorted(block.free, block.i), np.searchsorted(block.free, block.j)
    reached = _breadth_first(_adjacency(np.concatenate([i, j]), np.concatenate([j, i]), n),
                             np.flatnonzero(block.touching), np.zeros(n, dtype=bool))
    if len(reached) < n:
        raise DomainError(f"the free block is singular: {n - len(reached)} free "
                          "vertices have no path to the Dirichlet boundary")


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


def first_eigenvalue_estimates(mesh: TriMesh | RadialIndex, radii) -> list:
    """Smallest Dirichlet eigenvalue of (K, M) on the extrinsic ball of each
    radius, the balls of an exhaustion, in the order of radii.  mesh is a
    TriMesh or its RadialIndex, which is freed here once the exhaustion is
    read from it, before any factorization, unless the caller keeps it.
    The largest ball goes first (first_eigenvalue_estimate)."""
    radii = [float(R) for R in radii]
    exhaustion = _Exhaustion(RadialIndex(mesh) if isinstance(mesh, TriMesh) else mesh, radii)
    del mesh
    estimates = {R: first_eigenvalue_estimate(exhaustion, R) for R in exhaustion.radii}
    return [estimates[R] for R in radii]


def first_eigenvalue_estimate(exhaustion: _Exhaustion, R: float) -> float:
    """Smallest Dirichlet eigenvalue of (K, M) on the ball of radius R of
    the exhaustion, by shift-invert Lanczos (_lanczos) on one Cholesky
    factorization of its free block, front by front on the exhaustion's
    tree (_fronts, cholesky), the tree's interior first.  Once the largest
    ball has left its factored interior in the exhaustion, its panels
    eliminate every other ball's: no face at an interior vertex is cut, so
    the interior's free vertices and rows are the same in every ball.  The
    interior is the exhaustion's own, so no ball can be given another
    tree's.  A part of the free vertices with no edge path to the Dirichlet
    boundary (a closed component inside the ball) makes the block singular
    and raises DomainError."""
    block = exhaustion.block(R)
    n = len(block.free)
    if n == 0:
        raise DomainError("region has no interior vertices")
    interior = exhaustion.interior
    shared = np.zeros(0, dtype=np.int64)  # the free vertices that the interior eliminates
    if interior is not None:
        shared = np.searchsorted(block.free, interior.vertices[:interior.count])
    own = np.ones(n, dtype=bool)
    own[shared] = False
    own = np.flatnonzero(own)
    fronts = _fronts(exhaustion.tree, block.free[own])
    order = np.concatenate([shared, own[fronts.order]])
    _check_reached(block)
    position = np.full(len(exhaustion.r), -1)
    position[block.free[order]] = np.arange(n)
    ends, d = position[np.stack([block.i, block.j])], np.arange(n)
    lower = (np.concatenate([ends.max(axis=0), d]), np.concatenate([ends.min(axis=0), d]),
             np.concatenate([-block.w, block.diag[order]]))
    del ends
    if interior is None:
        factor = cholesky(lower, fronts)
        if factor.interior is not None:
            exhaustion.interior = _Interior(block.free[order], fronts.interior, *factor.interior)
    else:
        panels, lower = interior.share(position, n, lower)
        factor = cholesky(lower, fronts, (interior.count, panels))
    del lower
    return _lanczos(factor.solve, block.mass[order])


def _lanczos(solve, mass: np.ndarray) -> float:
    """The smallest eigenvalue of K x = lam M x, M = diag(mass), given
    solve(b) = K^-1 b: Lanczos on K^-1 M in the M inner product, in which it
    is symmetric (shift-invert at 0; Ericsson & Ruhe, Math. Comp. 35, 1980),
    from the constant vector, each new vector orthogonalized against the
    basis twice.  It stops once 1 / theta, theta the largest Ritz value,
    changes by at most _EIGEN_TOL of itself from one step (one solve) to
    the next, or once the basis spans an invariant subspace.  A full basis
    (_LANCZOS_BASIS vectors) restarts from its Ritz vector y, and the next
    step is not judged.  The
    estimate is the Rayleigh quotient of (K, M) at K^-1 M y, which the
    Lanczos relation gives as theta / (theta^2 + (beta s_last)^2): it lies
    between lam and 1 / theta."""
    n = len(mass)
    basis = np.empty((min(_LANCZOS_BASIS, n), n))
    q = np.full(n, 1.0 / math.sqrt(float(mass.sum())))
    alpha, beta = [], []
    lam_prev = change = math.inf
    for _ in range(_EIGEN_MAXITER):
        j = len(alpha)
        basis[j] = q
        Q = basis[:j + 1]
        w = solve(mass * q)
        h = np.zeros(j + 1)
        for _ in range(2):
            c = np.einsum("ij,j->i", Q, mass * w)
            w -= np.einsum("i,ij->j", c, Q)
            h += c
        alpha.append(h[j])
        b = math.sqrt(_dot(w, mass * w))
        theta, s = np.linalg.eigh(np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1))
        theta, s = theta[-1], s[:, -1]
        change = abs(1.0 / theta - lam_prev)
        if change <= _EIGEN_TOL / theta or j + 1 == n or b == 0.0:  # or the basis is invariant
            return theta / (theta * theta + (b * s[-1]) ** 2)
        lam_prev = 1.0 / theta
        if j + 1 < len(basis):
            beta.append(b)
            q = w / b
        else:
            q = np.einsum("i,ij->j", s, Q)
            q /= math.sqrt(_dot(q, mass * q))
            alpha, beta, lam_prev = [], [], math.inf
    raise SolveError("Lanczos iteration did not converge", residual=change)


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
