"""Triangulated surfaces immersed in Euclidean 3-space.

Builds meshes from analytic parametrizations of classical minimal surfaces
(plane, catenoid, helicoid, Enneper), ingests ASCII OFF/OBJ files, and
attaches the extrinsic distance r to a chosen pole per vertex.  Meshes are
edge-manifold, consistently oriented, and immutable once built.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import CoverageError, DomainError, MeshFormatError, NonManifoldError

TAG_INTERIOR = 0
TAG_TRUNCATION = 1
TAG_SEAM = 2

_IMMERSION_SAMPLES = 17  # interior sample points per axis of the immersion check
_EDGE_SAMPLES = 512  # sample points per rectangle edge in boundary_min_radius
_RESIDUAL_PERCENTILE = 95.0  # of the minimality residual over interior vertices


@dataclass(frozen=True)
class ParamSurface:
    """A parametrized surface patch (u,v) -> R^3 on a rectangle.

    The map must be an immersion on the rectangle interior; this is checked
    by sampling the Jacobian at construction.
    """

    name: str
    fn: Callable[[np.ndarray, np.ndarray], tuple]
    u0: float
    u1: float
    v0: float
    v1: float
    periodic_u: bool = False
    periodic_v: bool = False

    def __post_init__(self):
        if not (self.u1 > self.u0 and self.v1 > self.v0):
            raise DomainError("parameter rectangle must be nondegenerate")
        self._check_immersion()

    def _check_immersion(self):
        us = np.linspace(self.u0, self.u1, _IMMERSION_SAMPLES + 2)[1:-1]
        vs = np.linspace(self.v0, self.v1, _IMMERSION_SAMPLES + 2)[1:-1]
        U, V = np.meshgrid(us, vs, indexing="ij")
        hu = (self.u1 - self.u0) * 1e-6
        hv = (self.v1 - self.v0) * 1e-6
        xu = (np.stack(self.fn(U + hu, V), axis=-1) - np.stack(self.fn(U - hu, V), axis=-1)) / (2 * hu)
        xv = (np.stack(self.fn(U, V + hv), axis=-1) - np.stack(self.fn(U, V - hv), axis=-1)) / (2 * hv)
        cross = np.cross(xu, xv)
        norms = np.linalg.norm(cross, axis=-1)
        scale = np.linalg.norm(xu, axis=-1) * np.linalg.norm(xv, axis=-1) + 1e-300
        if np.any(norms / scale < 1e-8):
            raise DomainError(f"map for {self.name!r} is not an immersion on the rectangle")

    def points(self, U: np.ndarray, V: np.ndarray) -> np.ndarray:
        x, y, z = self.fn(U, V)
        return np.stack([np.asarray(x, float), np.asarray(y, float), np.asarray(z, float)], axis=-1)

    def boundary_min_radius(self) -> float:
        """Smallest distance to the origin over the non-periodic rectangle edges."""
        return _boundary_min_radius(self.fn, self.u0, self.u1, self.v0, self.v1,
                                    self.periodic_u, self.periodic_v)


def _boundary_min_radius(fn, u0, u1, v0, v1, periodic_u=False, periodic_v=False) -> float:
    """Smallest distance to the origin of the map fn over the non-periodic
    edges of the rectangle [u0, u1] x [v0, v1]."""
    best = math.inf
    ts = np.linspace(0.0, 1.0, _EDGE_SAMPLES)
    edges = []
    if not periodic_v:
        edges.append((u0 + ts * (u1 - u0), np.full_like(ts, v0)))
        edges.append((u0 + ts * (u1 - u0), np.full_like(ts, v1)))
    if not periodic_u:
        edges.append((np.full_like(ts, u0), v0 + ts * (v1 - v0)))
        edges.append((np.full_like(ts, u1), v0 + ts * (v1 - v0)))
    for U, V in edges:
        best = min(best, float(np.linalg.norm(np.stack(fn(U, V), axis=-1), axis=1).min()))
    return best


BUILTIN_NAMES = ("plane", "catenoid", "helicoid", "enneper")

_COVER_MARGIN = 1.1


def builtin(name: str, a: float = 1.0, c: float = 1.0, cover_radius: float | None = None,
            extent: float | None = None) -> ParamSurface:
    """Standard parametrizations of the built-in surfaces.

    cover_radius asks for a rectangle whose image reaches extrinsic radius
    cover_radius * 1.1 along every truncation edge (so that clipping at
    cover_radius never leaks through the computational window).
    """
    for key, val in (("a", a), ("c", c), ("cover_radius", cover_radius), ("extent", extent)):
        if val is not None and not math.isfinite(val):
            raise DomainError(f"{name} parameter {key} must be finite, got {val!r}")
    if name == "plane":
        L = extent if extent is not None else (_COVER_MARGIN * cover_radius if cover_radius else 8.0)
        return ParamSurface("plane", lambda u, v: (u, v, np.zeros_like(u + v)),
                            -L, L, -L, L)
    if name == "catenoid":
        if a <= 0:
            raise DomainError(f"catenoid neck radius must be positive, got {a!r}")
        if extent is not None:
            v1 = extent
        elif cover_radius:
            v1 = math.acosh(max(_COVER_MARGIN * cover_radius / a, 2.0))
        else:
            v1 = 3.0

        def cat(u, v):
            return (a * np.cosh(v) * np.cos(u), a * np.cosh(v) * np.sin(u), a * v)

        return ParamSurface("catenoid", cat, 0.0, 2 * math.pi, -v1, v1,
                            periodic_u=True)
    if name == "helicoid":
        if c <= 0:
            raise DomainError(f"helicoid pitch must be positive, got {c!r}")
        if extent is not None:
            U = V = extent
        else:
            reach = _COVER_MARGIN * cover_radius if cover_radius else 8.0
            U, V = reach / c, reach

        def heli(u, v):
            return (v * np.cos(u), v * np.sin(u), c * u)

        return ParamSurface("helicoid", heli, -U, U, -V, V)
    if name == "enneper":
        def enn(u, v):
            return (u - u ** 3 / 3 + u * v * v, -v + v ** 3 / 3 - v * u * u, u * u - v * v)

        if extent is not None:
            E = extent
        elif cover_radius:
            E = _enneper_extent(enn, _COVER_MARGIN * cover_radius)
        else:
            E = 2.0
        return ParamSurface("enneper", enn, -E, E, -E, E)
    raise DomainError(f"unknown builtin surface {name!r}; have {BUILTIN_NAMES}")


def _enneper_extent(fn, target: float) -> float:
    # grow the square until every boundary point is at least `target` away;
    # only the surface built on the extent found is checked for immersion
    E = 1.0
    for _ in range(200):
        if _boundary_min_radius(fn, -E, E, -E, E) >= target:
            return E
        E *= 1.08
    raise DomainError(f"could not find an Enneper extent covering radius {target!r}")


_SAVE_ROWS = 4096  # rows per write in TriMesh.save_off


class TriMesh:
    """Immersed triangle mesh with per-vertex extrinsic distance.

    verts: (n,3) float64; faces: (m,3) int; r[i] = |verts[i] - pole|;
    tags[i] in {interior, outer-truncation, seam}.  Arrays are frozen after
    construction; every interior edge is shared by exactly two consistently
    oriented triangles.  radial_index_memo holds the mesh's dgeom.RadialIndex
    once a ball area or flux has built it, until a caller releases it.
    """

    def __init__(self, verts, faces, pole=(0.0, 0.0, 0.0), tags=None, name="mesh",
                 validate: bool = True):
        self.verts = np.ascontiguousarray(verts, dtype=np.float64)
        self.faces = np.ascontiguousarray(faces, dtype=np.int64)
        self.pole = np.asarray(pole, dtype=np.float64).reshape(3)
        self.name = name
        if self.verts.ndim != 2 or self.verts.shape[1] != 3:
            raise DomainError("verts must be (n, 3)")
        if self.faces.ndim != 2 or self.faces.shape[1] != 3:
            raise DomainError("faces must be (m, 3)")
        self.r = np.linalg.norm(self.verts - self.pole, axis=1)
        self.tags = (np.zeros(len(self.verts), dtype=np.uint8) if tags is None
                     else np.asarray(tags, dtype=np.uint8).copy())
        if validate:
            self._validate()
        for arr in (self.verts, self.faces, self.r, self.tags, self.pole):
            arr.setflags(write=False)
        self.radial_index_memo = None

    def _validate(self) -> np.ndarray:
        """Raise on an out-of-range index, a face with a repeated vertex, an
        edge of more than two faces and an inconsistent orientation, checked
        in that order; return the boundary vertex mask (vertices on an edge of
        one face)."""
        f = self.faces
        n = len(self.verts)
        if f.size and (f.min() < 0 or f.max() >= n):
            raise DomainError("face index out of range")
        if np.any((f[:, 0] == f[:, 1]) | (f[:, 1] == f[:, 2]) | (f[:, 0] == f[:, 2])):
            raise DomainError("face with repeated vertices")
        # every undirected edge in at most 2 faces; consistent orientation means
        # each directed edge appears at most once
        i, j, counts = _edge_counts(f, n)
        if np.any(counts > 2):
            raise NonManifoldError(list(zip(i[counts > 2][:16].tolist(),
                                            j[counts > 2][:16].tolist())))
        directed = _directed_edges(f)
        dkeys = directed[:, 0] * np.int64(n) + directed[:, 1]
        duniq, dcounts = np.unique(dkeys, return_counts=True)
        if np.any(dcounts > 1):
            bad = duniq[dcounts > 1]
            edges = [(int(k // n), int(k % n)) for k in bad[:16]]
            raise DomainError(f"inconsistently oriented edges: {edges}")
        return _edge_vertices(i[counts == 1], j[counts == 1], n)

    # -- derived quantities -------------------------------------------------

    def area(self) -> float:
        return float(face_areas(self.verts, self.faces).sum())

    def max_r(self) -> float:
        return float(self.r.max())

    def boundary_vertex_mask(self) -> np.ndarray:
        i, j, counts = _edge_counts(self.faces, len(self.verts))
        return _edge_vertices(i[counts == 1], j[counts == 1], len(self.verts))

    def save_off(self, path):
        with open(path, "w") as fh:
            fh.write(f"OFF\n{len(self.verts)} {len(self.faces)} 0\n")
            # one formatted write per chunk of rows keeps the text held in memory small
            for rows, line in ((self.verts, "%r %r %r\n"), (self.faces, "3 %d %d %d\n")):
                for i in range(0, len(rows), _SAVE_ROWS):
                    chunk = rows[i:i + _SAVE_ROWS]
                    fh.write((line * len(chunk)) % tuple(chunk.ravel().tolist()))


def triangle_normals(a, b, c) -> tuple:
    """The components of (b - a) x (c - a) for the triangles with corners a,
    b, c ((m, 3) arrays): a normal of twice the triangle's area.  Written out
    by components, it equals np.cross bit for bit at less cost."""
    u, v = b - a, c - a
    return (u[:, 1] * v[:, 2] - u[:, 2] * v[:, 1],
            u[:, 2] * v[:, 0] - u[:, 0] * v[:, 2],
            u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0])


def norms(x, y, z) -> np.ndarray:
    """Length of each vector with components x, y, z; equal to np.linalg.norm
    of the stacked rows bit for bit."""
    return np.sqrt(x * x + y * y + z * z)


def face_areas(verts, faces) -> np.ndarray:
    """Area of each triangle."""
    return 0.5 * norms(*triangle_normals(verts[faces[:, 0]], verts[faces[:, 1]],
                                         verts[faces[:, 2]]))


def _directed_edges(faces) -> np.ndarray:
    """The three directed edges of every face, as (3m, 2) rows."""
    return np.concatenate([faces[:, [0, 1]], faces[:, [1, 2]], faces[:, [2, 0]]])


def edge_keys(pairs, n: int) -> np.ndarray:
    """Key lo * n + hi of the undirected edge of each vertex pair, lo < hi;
    lo = key // n and hi = key % n."""
    lo = np.minimum(pairs[:, 0], pairs[:, 1])
    hi = np.maximum(pairs[:, 0], pairs[:, 1])
    return lo * np.int64(n) + hi


def _edge_counts(faces, n: int):
    """The undirected edges (i, j), i < j, of the faces in key order, and the
    number of faces that share each."""
    keys, counts = np.unique(edge_keys(_directed_edges(faces), n), return_counts=True)
    return keys // n, keys % n, counts


def _edge_vertices(i, j, n: int) -> np.ndarray:
    """Mask of the n vertices that lie on one of the edges (i, j)."""
    mask = np.zeros(n, dtype=bool)
    mask[i] = True
    mask[j] = True
    return mask


def tessellate(surface: ParamSurface, nu: int, nv: int, refine_near=(),
               pole=(0.0, 0.0, 0.0)) -> TriMesh:
    """Regular-grid triangulation of the patch, stitched along periodic axes.

    Triangles whose extrinsic-radius range crosses any radius in refine_near
    receive one round of 1-to-4 subdivision (neighbors are bisected to keep
    the mesh conforming); midpoints are re-evaluated through the surface map.
    """
    if nu < 8 or nv < 8:
        raise DomainError(f"need nu, nv >= 8, got {nu}, {nv}")
    pu, pv = surface.periodic_u, surface.periodic_v
    ucount = nu if pu else nu + 1
    vcount = nv if pv else nv + 1
    us = np.linspace(surface.u0, surface.u1, nu + 1)[:ucount]
    vs = np.linspace(surface.v0, surface.v1, nv + 1)[:vcount]
    U, V = np.meshgrid(us, vs, indexing="ij")
    verts = surface.points(U, V).reshape(-1, 3)
    uv = np.stack([U.ravel(), V.ravel()], axis=1)

    def vid(i, j):
        return (i % ucount) * vcount + (j % vcount)

    i = np.arange(nu)
    j = np.arange(nv)
    I, J = np.meshgrid(i, j, indexing="ij")
    v00 = vid(I, J)
    v10 = vid(I + 1, J)
    v11 = vid(I + 1, J + 1)
    v01 = vid(I, J + 1)
    t1 = np.stack([v00, v10, v11], axis=-1).reshape(-1, 3)
    t2 = np.stack([v00, v11, v01], axis=-1).reshape(-1, 3)
    faces = np.concatenate([t1, t2])

    tags = np.zeros(len(verts), dtype=np.uint8)
    gi = np.arange(len(verts)) // vcount
    gj = np.arange(len(verts)) % vcount
    if not pu:
        tags[(gi == 0) | (gi == nu)] = TAG_TRUNCATION
    else:
        tags[gi == 0] = TAG_SEAM
    if not pv:
        tags[(gj == 0) | (gj == nv)] = TAG_TRUNCATION
    else:
        tags[np.logical_and(gj == 0, tags == TAG_INTERIOR)] = TAG_SEAM

    if refine_near:
        verts, faces, tags, uv = _refine_once(surface, verts, faces, tags, uv,
                                              np.asarray(pole, float), refine_near)

    mesh = TriMesh(verts, faces, pole=pole, tags=tags, name=surface.name)

    areas = face_areas(mesh.verts, mesh.faces)
    tiny = areas < 1e-14 * areas.mean()
    if tiny.any():
        idx = np.flatnonzero(tiny)[:8]
        raise DomainError(
            f"tessellation produced {int(tiny.sum())} degenerate triangles "
            f"(area < 1e-14 of mean), e.g. faces {idx.tolist()}"
        )
    if refine_near:
        needed = 1.2 * max(refine_near)
        trunc = mesh.tags == TAG_TRUNCATION
        if trunc.any() and mesh.r[trunc].min() < needed:
            raise CoverageError(
                f"surface window covers radius {mesh.r[trunc].min():.4g} "
                f"but refinement asks for {needed:.4g}", needed)
    return mesh


# The children of a face, as rows of corners into (a, b, c, m01, m12, m20), its
# corners and edge midpoints, by kind: 0 kept, 1-3 bisected through the edge
# 0-1, 1-2 or 2-0, 4 split in four; rows past _CHILD_COUNT[kind] are unused.
_CHILDREN = np.array([
    [[0, 1, 2], [0, 1, 2], [0, 1, 2], [0, 1, 2]],
    [[0, 3, 2], [3, 1, 2], [0, 1, 2], [0, 1, 2]],
    [[0, 1, 4], [0, 4, 2], [0, 1, 2], [0, 1, 2]],
    [[0, 1, 5], [5, 1, 2], [0, 1, 2], [0, 1, 2]],
    [[0, 3, 5], [3, 1, 4], [5, 4, 2], [3, 4, 5]],
])
_CHILD_COUNT = np.array([1, 2, 2, 2, 4])


def _refine_once(surface, verts, faces, tags, uv, pole, radii):
    """Split in four each face whose radius range meets a radius, and each
    face with two or more split edges, in rounds until none is left; bisect
    each other face through its one split edge, if it has one.  Midpoints are
    numbered by promotion round, then by edge key; children follow in face
    order."""
    r = np.linalg.norm(verts - pole, axis=1)
    fr = r[faces]
    lo, hi = fr.min(axis=1), fr.max(axis=1)
    marked = np.zeros(len(faces), dtype=bool)
    for rad in radii:
        marked |= (lo <= rad) & (hi >= rad)

    n = len(verts)
    keys, edge, counts = np.unique(edge_keys(_directed_edges(faces), n),
                                   return_inverse=True, return_counts=True)
    edge = edge.reshape(3, -1).T  # edge ids of each face: 0-1, 1-2, 2-0
    never = len(faces)
    split_round = np.full(len(keys), never)
    new, rnd = marked, 0
    while new.any():
        marked = marked | new
        fresh = edge[new].ravel()
        split_round[fresh] = np.minimum(split_round[fresh], rnd)
        new = ((split_round[edge] <= rnd).sum(axis=1) >= 2) & ~marked
        rnd += 1
    split = np.argsort(split_round, kind="stable")[:np.count_nonzero(split_round < never)]
    mid = np.full(len(keys), -1)
    mid[split] = n + np.arange(len(split))

    i, j = keys[split] // n, keys[split] % n
    a, b = uv[i], uv[j]
    for axis, period, periodic in ((0, surface.u1 - surface.u0, surface.periodic_u),
                                   (1, surface.v1 - surface.v0, surface.periodic_v)):
        if periodic:  # an edge across the seam: shift its lower end up a period
            wraps = np.abs(a[:, axis] - b[:, axis]) > period / 2
            below = a[:, axis] < b[:, axis]
            a[wraps & below, axis] += period
            b[wraps & ~below, axis] += period
    new_uv = 0.5 * (a + b)
    # a midpoint is truncation only when its edge lies on the truncation boundary
    trunc = (counts[split] == 1) & (tags[i] == TAG_TRUNCATION) & (tags[j] == TAG_TRUNCATION)

    face_mid = mid[edge]
    corners = np.column_stack([faces, face_mid])
    has_mid = face_mid >= 0
    kind = np.where(marked, 4, np.argmax(has_mid, axis=1) + has_mid.any(axis=1))
    children = corners[np.arange(len(faces))[:, None, None], _CHILDREN[kind]]
    return (np.concatenate([verts, surface.points(new_uv[:, 0], new_uv[:, 1])]),
            children[np.arange(4) < _CHILD_COUNT[kind][:, None]],
            np.concatenate([tags, np.where(trunc, TAG_TRUNCATION, TAG_INTERIOR).astype(np.uint8)]),
            np.concatenate([uv, new_uv]))


# ---------------------------------------------------------------------------
# file ingestion


def load_mesh(path, fmt: str | None = None, pole=(0.0, 0.0, 0.0)) -> TriMesh:
    """Read an ASCII OFF or OBJ file (positions and faces only).

    Polygonal faces are fan-triangulated.  Boundary vertices are tagged as
    outer-truncation; non-manifold input raises with the offending edges, and
    a malformed line or a non-finite coordinate with its line number.
    """
    path = str(path)
    if fmt is None:
        fmt = "obj" if path.lower().endswith(".obj") else "off"
    fmt = fmt.lower()
    readers = {"off": _read_off, "obj": _read_obj}
    if fmt not in readers:
        raise DomainError(f"unknown mesh format {fmt!r}")
    try:
        verts, corners, sizes = readers[fmt](path)
    except UnicodeDecodeError as exc:
        raise DomainError(f"mesh file {path} is not UTF-8 text ({exc.reason})") from None
    mesh = TriMesh(verts, _fan(corners, sizes), pole=pole, name=path, validate=False)
    if not len(mesh.faces):
        raise DomainError("mesh has no faces")
    tags = np.where(mesh._validate(), TAG_TRUNCATION, TAG_INTERIOR)
    return TriMesh(mesh.verts, mesh.faces, pole=pole, tags=tags, name=path, validate=False)


def _fan(corners, sizes) -> np.ndarray:
    """Fan triangles (p[0], p[j], p[j+1]), j = 1 .. k-2, of each polygon p in
    turn, where the polygons lie back to back in corners, sizes[i] each."""
    tris = sizes - 2
    first = np.repeat(np.cumsum(sizes) - sizes, tris)  # where p[0] of each triangle lies
    j = first + np.arange(len(first)) - np.repeat(np.cumsum(tris) - tris, tris) + 1
    return np.column_stack([corners[first], corners[j], corners[j + 1]])


def _polygon_arrays(polys):
    """Corners back to back and sizes of (line number, corners) polygons; a
    polygon of fewer than 3 corners raises with its line number."""
    for lineno, poly in polys:
        if len(poly) < 3:
            raise MeshFormatError(f"face with {len(poly)} vertices", lineno)
    try:
        corners = np.array([i for _, poly in polys for i in poly], dtype=np.int64)
    except OverflowError:
        raise DomainError("face index out of range") from None
    return corners, np.array([len(poly) for _, poly in polys], dtype=np.int64)


def _read_off(path):
    """Vertices, polygon corners back to back, and polygon sizes of an OFF
    file.  The blocks are parsed whole where they can be (_off_blocks); else
    the line parser reads them and names the line of the first fault."""
    with open(path, encoding="utf-8") as fh:
        lineno = 0

        def next_data_line():
            nonlocal lineno
            for raw in iter(fh.readline, ""):
                lineno += 1
                stripped = raw.split("#", 1)[0].strip()
                if stripped:
                    return stripped
            return None

        header = next_data_line()
        if header is None or header.upper() != "OFF":
            raise MeshFormatError("missing OFF header", lineno if header else 1)
        counts = next_data_line()
        try:
            nv, nf = int(counts.split()[0]), int(counts.split()[1])
        except (AttributeError, ValueError, IndexError):
            raise MeshFormatError(f"malformed count line {counts!r}", lineno)
        if fh.seekable():  # a pipe is read once, by the line parser
            start = fh.tell()
            blocks = _off_blocks(fh, nv, nf)
            if blocks is not None:
                return blocks
            fh.seek(start)
        verts = []
        for _ in range(nv):
            line = next_data_line()
            if line is None:
                raise MeshFormatError("unexpected end of file in vertex block", lineno)
            verts.append(_vertex(line.split(), line, lineno))
        polys = []
        for _ in range(nf):
            line = next_data_line()
            if line is None:
                raise MeshFormatError("unexpected end of file in face block", lineno)
            parts = line.split()
            try:
                k = int(parts[0])
                poly = [int(x) for x in parts[1:1 + k]]
                if len(poly) != k:
                    raise ValueError
            except ValueError:
                raise MeshFormatError(f"malformed face {line!r}", lineno)
            polys.append((lineno, poly))
    return (np.array(verts, dtype=np.float64), *_polygon_arrays(polys))


def _off_blocks(fh, nv: int, nf: int):
    """The vertex and face blocks that follow the count line, each parsed by
    one numpy call, as _read_off returns them; None unless every vertex is
    finite and every face has the same number k >= 3 of corners.  Columns past
    the coordinates or corners (colours) are dropped, as the line parser
    drops them."""
    with warnings.catch_warnings():
        # numpy notes each blank or comment line inside a block; they are skipped
        warnings.simplefilter("ignore", UserWarning)
        try:
            verts = np.loadtxt(fh, np.float64, max_rows=nv, comments="#", ndmin=2)
            polys = np.loadtxt(fh, np.int64, max_rows=nf, comments="#", ndmin=2)
        except ValueError:
            return None
    if verts.shape[0] != nv or verts.shape[1] < 3 or polys.shape[0] != nf or nf == 0:
        return None
    k = int(polys[0, 0])
    if k < 3 or polys.shape[1] < 1 + k or np.any(polys[:, 0] != k):
        return None
    verts = verts[:, :3]
    if not np.isfinite(verts).all():
        return None
    return verts, polys[:, 1:1 + k].ravel(), np.full(nf, k)


def _vertex(parts, line: str, lineno: int) -> tuple:
    """The first three of parts as finite floats, or a MeshFormatError."""
    try:
        vert = (float(parts[0]), float(parts[1]), float(parts[2]))
    except (ValueError, IndexError):
        raise MeshFormatError(f"malformed vertex {line!r}", lineno)
    if not all(map(math.isfinite, vert)):
        raise MeshFormatError(f"non-finite vertex {line!r}", lineno)
    return vert


def _read_obj(path):
    verts = []
    polys = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if parts[0] == "v":
                verts.append(_vertex(parts[1:], line, lineno))
            elif parts[0] == "f":
                poly = []
                for tok in parts[1:]:
                    try:
                        idx = int(tok.split("/")[0])
                    except ValueError:
                        raise MeshFormatError(f"malformed face token {tok!r}", lineno)
                    poly.append(idx - 1 if idx > 0 else len(verts) + idx)
                polys.append((lineno, poly))
    return (np.array(verts, dtype=np.float64), *_polygon_arrays(polys))


# ---------------------------------------------------------------------------
# discrete minimality diagnostic


def minimality_residual(mesh: TriMesh) -> float:
    """Magnitude of the discrete mean-curvature vector, area-normalized.

    Applies the cotangent operator to the coordinate functions and divides
    by the barycentric one-ring area; for a smooth surface this converges to
    twice the mean curvature, so a unit sphere reads about 2 and a minimal
    surface tends to 0 under refinement.  Returns its 95th percentile over
    interior vertices.
    """
    v, f = mesh.verts, mesh.faces
    n = len(v)
    # the unclamped operator applied edge by edge, (K x)_i = sum_j w_ij (x_i - x_j),
    # so that this diagnostic needs no sparse matrix
    rows, cols, w, double_area = _cotangent_edges(v, f)
    mass = _lumped_mass(f, n, double_area)
    d = w[:, None] * (v[rows] - v[cols])
    lap = np.column_stack([np.bincount(rows, d[:, k], minlength=n)
                           - np.bincount(cols, d[:, k], minlength=n) for k in range(3)])
    with np.errstate(divide="ignore", invalid="ignore"):
        hn = np.linalg.norm(lap, axis=1) / mass
    interior = ~mesh.boundary_vertex_mask()
    if not interior.any():
        raise DomainError("mesh has no interior vertices")
    return float(np.percentile(hn[interior], _RESIDUAL_PERCENTILE))


def _lumped_mass(f: np.ndarray, n: int, double_area: np.ndarray) -> np.ndarray:
    """A third of each incident face's area per vertex, summed over all first
    corners, then second, then third."""
    return np.bincount(f.T.ravel(), np.tile(0.5 * double_area / 3.0, 3), minlength=n)


def _cotangent_edges(v: np.ndarray, f: np.ndarray) -> tuple:
    """rows, cols, w: the half-cotangent weight of each face edge, one entry
    per (face, edge) with the edges opposite first corners first; and twice
    each face's area."""
    p0, p1, p2 = v[f[:, 0]], v[f[:, 1]], v[f[:, 2]]
    # |e1 x e2| at every corner is twice the face area, so one cross product
    # serves all three cotangents = dot of adjacent edges / twice area
    double_area = norms(*triangle_normals(p0, p1, p2))
    cross = np.maximum(double_area, 1e-300)
    cots = np.empty((len(f), 3))
    for k, (a, b, c) in enumerate(((p0, p1, p2), (p1, p2, p0), (p2, p0, p1))):
        cots[:, k] = ((b - a) * (c - a)).sum(axis=1) / cross
    # the corner angle is opposite the edge joining the other two vertices
    rows = np.concatenate([f[:, 1], f[:, 2], f[:, 0]])
    cols = np.concatenate([f[:, 2], f[:, 0], f[:, 1]])
    w = 0.5 * np.concatenate([cots[:, 0], cots[:, 1], cots[:, 2]])
    return rows, cols, w, double_area


def cotangent_laplacian(verts, faces):
    """Cotangent-weight stiffness matrix (CSR) and barycentric lumped mass.

    Negative edge weights are zeroed, which keeps the matrix an M-matrix so
    discrete solutions obey the maximum principle.
    """
    from scipy import sparse  # here, so that meshing and clipping never load scipy

    v = np.asarray(verts, float)
    f = np.asarray(faces)
    n = len(v)
    rows, cols, w, double_area = _cotangent_edges(v, f)
    mass = _lumped_mass(f, n, double_area)
    W = sparse.coo_matrix((w, (rows, cols)), shape=(n, n))
    W = (W + W.T).tocsr()
    W.data = np.maximum(W.data, 0.0)
    diag = np.asarray(W.sum(axis=1)).ravel()
    K = sparse.diags(diag) - W
    return K.tocsr(), mass
