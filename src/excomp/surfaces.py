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

from .errors import DomainError, MeshFormatError, NonManifoldError

TAG_INTERIOR = 0
TAG_TRUNCATION = 1

_IMMERSION_SAMPLES = 17  # interior sample points per axis of the immersion check
_EDGE_SAMPLES = 512  # sample points per rectangle edge in _boundary_min_radius
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


def _boundary_min_radius(fn, u0, u1, v0, v1) -> float:
    """Smallest distance to the origin of the map fn over the edges of the
    rectangle [u0, u1] x [v0, v1]."""
    ts = np.linspace(0.0, 1.0, _EDGE_SAMPLES)
    us, vs = u0 + ts * (u1 - u0), v0 + ts * (v1 - v0)
    edges = ((us, np.full_like(ts, v0)), (us, np.full_like(ts, v1)),
             (np.full_like(ts, u0), vs), (np.full_like(ts, u1), vs))
    return min(float(np.linalg.norm(np.stack(fn(U, V), axis=-1), axis=1).min()) for U, V in edges)


BUILTIN_NAMES = ("plane", "catenoid", "helicoid", "enneper")

_COVER_MARGIN = 1.1


def builtin(name: str, a: float = 1.0, c: float = 1.0,
            cover_radius: float | None = None) -> ParamSurface:
    """Standard parametrizations of the built-in surfaces.

    cover_radius asks for a rectangle whose image reaches extrinsic radius
    cover_radius * 1.1 along every truncation edge (so that clipping at
    cover_radius never leaks through the computational window).
    """
    for key, val in (("a", a), ("c", c), ("cover_radius", cover_radius)):
        if val is not None and not math.isfinite(val):
            raise DomainError(f"{name} parameter {key} must be finite, got {val!r}")
    if cover_radius is not None and cover_radius <= 0:
        raise DomainError(f"{name} cover radius must be positive, got {cover_radius!r}")
    if name == "plane":
        L = _COVER_MARGIN * cover_radius if cover_radius else 8.0
        return ParamSurface("plane", lambda u, v: (u, v, np.zeros_like(u + v)),
                            -L, L, -L, L)
    if name == "catenoid":
        if a <= 0:
            raise DomainError(f"catenoid neck radius must be positive, got {a!r}")
        v1 = math.acosh(max(_COVER_MARGIN * cover_radius / a, 2.0)) if cover_radius else 3.0

        def cat(u, v):
            return (a * np.cosh(v) * np.cos(u), a * np.cosh(v) * np.sin(u), a * v)

        return ParamSurface("catenoid", cat, 0.0, 2 * math.pi, -v1, v1,
                            periodic_u=True)
    if name == "helicoid":
        if c <= 0:
            raise DomainError(f"helicoid pitch must be positive, got {c!r}")
        reach = _COVER_MARGIN * cover_radius if cover_radius else 8.0
        U, V = reach / c, reach

        def heli(u, v):
            return (v * np.cos(u), v * np.sin(u), c * u)

        return ParamSurface("helicoid", heli, -U, U, -V, V)
    if name == "enneper":
        def enn(u, v):
            return (u - u ** 3 / 3 + u * v * v, -v + v ** 3 / 3 - v * u * u, u * u - v * v)

        E = _enneper_extent(enn, _COVER_MARGIN * cover_radius) if cover_radius else 2.0
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
    tags[i] in {interior, truncation (window edge)}: unless the caller passes
    tags, exactly the boundary vertices (on an edge of one face) are
    truncation.  Arrays are frozen after construction; every interior edge is
    shared by exactly two consistently oriented triangles.
    """

    def __init__(self, verts, faces, pole=(0.0, 0.0, 0.0), tags=None, name="mesh"):
        self.verts = np.ascontiguousarray(verts, dtype=np.float64)
        self.faces = np.ascontiguousarray(faces, dtype=np.int64)
        self.pole = np.asarray(pole, dtype=np.float64).reshape(3)
        self.name = name
        if self.verts.ndim != 2 or self.verts.shape[1] != 3:
            raise DomainError("verts must be (n, 3)")
        if self.faces.ndim != 2 or self.faces.shape[1] != 3:
            raise DomainError("faces must be (m, 3)")
        self.r = np.linalg.norm(self.verts - self.pole, axis=1)
        boundary = self._validate()
        self.tags = np.array(np.where(boundary, TAG_TRUNCATION, TAG_INTERIOR) if tags is None
                             else tags, dtype=np.uint8)
        for arr in (self.verts, self.faces, self.r, self.tags, self.pole):
            arr.setflags(write=False)

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
        boundary = np.zeros(n, dtype=bool)
        boundary[i[counts == 1]] = boundary[j[counts == 1]] = True
        return boundary

    # -- derived quantities -------------------------------------------------

    def max_r(self) -> float:
        return float(self.r.max())

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


def tessellate(surface: ParamSurface, nu: int, nv: int, pole=(0.0, 0.0, 0.0)) -> TriMesh:
    """Regular-grid triangulation of the patch, stitched along periodic axes,
    so that its truncation vertices are the rectangle's non-periodic edges."""
    if nu < 8 or nv < 8:
        raise DomainError(f"need nu, nv >= 8, got {nu}, {nv}")
    pu, pv = surface.periodic_u, surface.periodic_v
    ucount = nu if pu else nu + 1
    vcount = nv if pv else nv + 1
    us = np.linspace(surface.u0, surface.u1, nu + 1)[:ucount]
    vs = np.linspace(surface.v0, surface.v1, nv + 1)[:vcount]
    U, V = np.meshgrid(us, vs, indexing="ij")
    verts = surface.points(U, V).reshape(-1, 3)

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

    mesh = TriMesh(verts, faces, pole=pole, name=surface.name)
    _check_face_areas(mesh)
    return mesh


def _check_face_areas(mesh: TriMesh):
    """Raise on faces of (nearly) zero area.  A face that thin has an angle
    near 0, whose cotangent weight grows like the inverse of the face's area,
    and a face of no area has no normal for |grad r|."""
    areas = face_areas(mesh.verts, mesh.faces)
    tiny = areas <= 1e-14 * areas.mean()
    if tiny.any():
        raise DomainError(f"degenerate triangles: {int(tiny.sum())} of area under 1e-14 of "
                          f"the mean, e.g. faces {np.flatnonzero(tiny)[:8].tolist()}")


# ---------------------------------------------------------------------------
# file ingestion


def load_mesh(path, fmt: str | None = None, pole=(0.0, 0.0, 0.0)) -> TriMesh:
    """Read an ASCII OFF or OBJ file (positions and faces only).

    Polygonal faces are fan-triangulated, and TriMesh tags the boundary
    vertices as truncation; non-manifold input raises with the offending
    edges, a face of (nearly) zero area with its index, and a malformed line
    or a non-finite coordinate with its line number.
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
    mesh = TriMesh(verts, _fan(corners, sizes), pole=pole, name=path)
    if not len(mesh.faces):
        raise DomainError("mesh has no faces")
    _check_face_areas(mesh)
    return mesh


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
    # the unclamped operator applied edge by edge, (K x)_i = sum_j w_ij (x_i - x_j)
    rows, cols, w, double_area = _cotangent_edges(v, f)
    mass = _lumped_mass(f, n, double_area)
    d = w[:, None] * (v[rows] - v[cols])
    lap = np.column_stack([np.bincount(rows, d[:, k], minlength=n)
                           - np.bincount(cols, d[:, k], minlength=n) for k in range(3)])
    with np.errstate(divide="ignore", invalid="ignore"):
        hn = np.linalg.norm(lap, axis=1) / mass
    interior = mesh.tags != TAG_TRUNCATION
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


@dataclass(eq=False)
class Stiffness:
    """The stiffness K = diag(diag) - W of len(diag) vertices, with W
    symmetric: w on each undirected edge (i, j), i < j, listed in key order,
    and no other entry.  Every listed weight is positive."""

    i: np.ndarray
    j: np.ndarray
    w: np.ndarray
    diag: np.ndarray


def cotangent_laplacian(verts, faces) -> tuple[Stiffness, np.ndarray]:
    """Cotangent-weight stiffness, as an undirected edge list and a
    diagonal, and barycentric lumped mass.

    Negative edge weights are zeroed, which keeps the matrix an M-matrix so
    discrete solutions obey the maximum principle; an edge whose weight is
    then 0 is dropped, so two vertices are joined exactly when they couple.
    """
    v = np.asarray(verts, float)
    f = np.asarray(faces)
    n = len(v)
    rows, cols, w, double_area = _cotangent_edges(v, f)
    mass = _lumped_mass(f, n, double_area)
    keys, edge = np.unique(edge_keys(np.column_stack([rows, cols]), n), return_inverse=True)
    w = np.bincount(edge, w)  # the half cotangents of the one or two faces at the edge
    keep = w > 0.0
    i, j, w = keys[keep] // n, keys[keep] % n, w[keep]
    diag = np.bincount(i, w, minlength=n) + np.bincount(j, w, minlength=n)
    return Stiffness(i, j, w, diag), mass
