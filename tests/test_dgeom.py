import dataclasses
import functools
import inspect
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st
from scipy import sparse, special

from excomp import dgeom, surfaces
from excomp.dgeom import (LABEL_INNER, LABEL_INTERIOR, LABEL_OUTER, LABEL_TRUNCATION,
                          capacity_discrete, clip, elimination_tree, end_components,
                          exit_time_discrete, first_eigenvalue_estimates, solve_dirichlet)
from excomp.errors import CoverageError, DomainError, SolveError
from excomp.harness import Study
from excomp.modelspace import ModelSpace, WarpingSpec
from excomp.surfaces import TAG_TRUNCATION, TriMesh, builtin, cotangent_laplacian, tessellate


def _plane_square(L):
    """The builtin plane on the parameter square [-L, L]^2."""
    return dataclasses.replace(builtin("plane"), u0=-L, u1=L, v0=-L, v1=L)


def _strip_mesh():
    strip = surfaces.ParamSurface(
        "strip", lambda u, v: (u, v, np.zeros_like(u + v)), -4.0, 4.0, -1.0, 1.0)
    return tessellate(strip, 64, 16)


def _untagged(mesh):
    """The mesh without vertex tags: clip then labels the window edges it
    meets from geometry instead of refusing them."""
    return TriMesh(mesh.verts, mesh.faces, tags=np.zeros(len(mesh.verts), dtype=np.uint8))


def _permuted_helicoid(res, seed, ext=13.2):
    """Grid helicoid (v cos u, v sin u, u) with vertex order, face order and
    the starting corner of each face shuffled, tagged like an ingested mesh."""
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
    return TriMesh(verts, faces)


def _scipy_stiffness(K):
    """Reference: the stiffness as a scipy CSR matrix, from its edge list."""
    n = len(K.diag)
    W = sparse.coo_matrix((K.w, (K.i, K.j)), shape=(n, n))
    return (sparse.diags(K.diag) - W - W.T).tocsr()


def _boundary_edges(reg):
    f = reg.faces
    und = np.sort(np.concatenate([f[:, [0, 1]], f[:, [1, 2]], f[:, [2, 0]]]), axis=1)
    edges, counts = np.unique(und, axis=0, return_counts=True)
    return edges[counts == 1]


def _grad_norms(verts, faces, pole):
    """|grad r| per face, in face order, as the radial index computes it."""
    index = dgeom.RadialIndex(TriMesh(verts, faces, pole=pole))
    return index.grad[np.argsort(index.ids)]


class TestRadialGradientNorm:
    def test_plane_through_pole_is_one(self, plane_128):
        vals = _grad_norms(plane_128.verts, plane_128.faces, plane_128.pole)
        assert np.allclose(vals, 1.0, rtol=0, atol=1e-12)

    def test_orthogonal_face_is_zero(self):
        verts = np.array([[1, 0, 1], [-0.5, math.sqrt(3) / 2, 1],
                          [-0.5, -math.sqrt(3) / 2, 1]], float)
        vals = _grad_norms(verts, np.array([[0, 1, 2]]), np.zeros(3))
        assert vals[0] < 1e-12

    def test_catenoid_neck_faces_small(self, catenoid_96):
        # faces whose vertices straddle the neck circle r = a = 1
        fr = catenoid_96.r[catenoid_96.faces]
        neck = np.flatnonzero((fr.min(axis=1) < 1.0 + 1e-9) & (fr.max(axis=1) < 1.01))
        assert len(neck)
        vals = _grad_norms(catenoid_96.verts, catenoid_96.faces[neck], catenoid_96.pole)
        assert vals.max() < 0.1

    def test_always_in_unit_interval(self, catenoid_96):
        vals = _grad_norms(catenoid_96.verts, catenoid_96.faces, catenoid_96.pole)
        assert vals.min() >= 0.0 and vals.max() <= 1.0


class TestClip:
    def test_disc_area(self, plane_256):
        reg = clip(plane_256, 0.0, 2.0)
        assert reg.area() == pytest.approx(math.pi * 4.0, rel=5e-3)

    def test_annulus_area(self, plane_256):
        reg = clip(plane_256, 1.0, 2.0)
        assert reg.area() == pytest.approx(math.pi * 3.0, rel=5e-3)

    def test_boundary_labels(self, plane_256):
        reg = clip(plane_256, 1.0, 2.0)
        assert reg.has_label(LABEL_INNER) and reg.has_label(LABEL_OUTER)
        inner = reg.vertex_label == LABEL_INNER
        outer = reg.vertex_label == LABEL_OUTER
        assert np.allclose(reg.r[inner], 1.0) and np.allclose(reg.r[outer], 2.0)

    def test_loops_closed(self, plane_256):
        # two level circles and no truncation: every boundary vertex carries a
        # level label and lies on exactly two boundary edges of that label
        reg = clip(plane_256, 1.0, 2.0)
        assert set(np.unique(reg.vertex_label)) == {LABEL_INTERIOR, LABEL_INNER, LABEL_OUTER}
        edges = _boundary_edges(reg)
        ends = reg.vertex_label[edges]
        assert np.all(ends[:, 0] == ends[:, 1])
        degree = np.bincount(edges.ravel(), minlength=len(reg.verts))
        assert np.all(degree[reg.vertex_label != LABEL_INTERIOR] == 2)

    def test_catenoid_annulus_has_two_components(self, catenoid_96):
        # the neck sits at r = a = 1 < 1.5, so the annulus splits in two bands
        reg = clip(catenoid_96, 1.5, 3.0)
        f = reg.faces
        n = len(reg.verts)
        edges = np.concatenate([f[:, [0, 1]], f[:, [1, 2]], f[:, [2, 0]]])
        graph = sparse.coo_matrix((np.ones(len(edges)), (edges[:, 0], edges[:, 1])),
                                  shape=(n, n))
        ncomp, comp = sparse.csgraph.connected_components(graph, directed=False)
        assert ncomp == 2
        for c in range(ncomp):
            labels = reg.vertex_label[comp == c]
            assert (labels == LABEL_INNER).any() and (labels == LABEL_OUTER).any()
        assert not reg.has_label(LABEL_TRUNCATION)

    def test_precondition(self, plane_128):
        with pytest.raises(DomainError):
            clip(plane_128, 2.0, 1.0)

    def test_coverage_error(self, plane_128):
        with pytest.raises(CoverageError):
            clip(plane_128, 0.0, 10.0)

    def test_coverage_error_with_face_mask_and_rho(self):
        # keep the strip faces whose truncation vertices (the window edge
        # v = +-1) lie near the pole; the farthest of them is at r = edge
        mesh = _strip_mesh()
        trunc = mesh.tags == TAG_TRUNCATION
        mask = ~(trunc & (mesh.r > 1.2))[mesh.faces].any(axis=1)
        used = mesh.faces[mask]
        edge = float(mesh.r[used][trunc[used]].max())
        assert 1.0 < edge < 1.2
        with pytest.raises(CoverageError, match="intrudes at r=1 "):
            clip(mesh, 0.5, 3.0, face_mask=mask)
        with pytest.raises(CoverageError):
            clip(mesh, float(np.nextafter(edge, 0.0)), 3.0, face_mask=mask)
        # truncation vertices at or below rho lie outside the band
        assert clip(mesh, edge, 3.0, face_mask=mask).area() > 0

    def test_area_monotone_in_R(self, plane_128):
        radii = np.linspace(0.5, 3.0, 11)
        areas = [clip(plane_128, 0.0, float(R)).area() for R in radii]
        assert all(b >= a - 1e-9 for a, b in zip(areas, areas[1:]))

    def test_vertices_inside_band(self, catenoid_96):
        reg = clip(catenoid_96, 1.5, 3.0)
        eps = 1e-12 * 3.0
        assert reg.r.min() >= 1.5 - eps and reg.r.max() <= 3.0 + eps

    def test_tie_vertex_handled(self):
        # grid contains vertices with r exactly 2.0; the cut must stay manifold
        mesh = tessellate(_plane_square(4.0), 64, 64)
        assert np.any(mesh.r == 2.0)
        reg = clip(mesh, 0.0, 2.0)
        assert reg.area() == pytest.approx(math.pi * 4, rel=2e-2)
        # a cut through a vertex reuses it: no hole, so no truncation label
        assert not reg.has_label(LABEL_TRUNCATION)
        assert exit_time_discrete(reg).max() > 0
        reg = clip(mesh, float(np.nextafter(1.0, 0.0)), 2.5)
        assert not reg.has_label(LABEL_TRUNCATION)
        # a permuted helicoid whose cut at R = 6 lands within ulps of vertices
        helicoid = _permuted_helicoid(176, seed=1)
        reg = clip(helicoid, 0.0, 6.0)
        assert not reg.has_label(LABEL_TRUNCATION)
        assert exit_time_discrete(reg).max() > 0

    def test_a_level_just_past_a_vertex_keeps_its_tiny_pieces(self):
        # R lies 1e-7 of an edge past a vertex: the pieces of the faces at it
        # have about 1e-14 of a face's area, and dropping them would leave a
        # hole that the exit time reads as truncation contact
        mesh = tessellate(builtin("plane", cover_radius=4.0), 64, 64)
        v = int(np.argmin(np.abs(mesh.r - 3.0)))
        reg = clip(mesh, 0.0, float(mesh.r[v]) + 1e-7 * (8.8 / 64))
        assert not reg.has_label(LABEL_TRUNCATION)
        assert exit_time_discrete(reg).max() > 0

    @pytest.mark.parametrize("name,kwargs,rho,R", [
        ("plane", {"cover_radius": 3.2}, 1.0, 2.5),
        ("catenoid", {"a": 1.0, "cover_radius": 12.0}, 1.5, 6.0),
        ("enneper", {"cover_radius": 6.0}, 1.0, 5.0),
    ])
    def test_clip_preserves_orientation(self, name, kwargs, rho, R):
        mesh = tessellate(builtin(name, **kwargs), 64, 64)
        reg = clip(mesh, rho, R)
        f = reg.faces
        n = len(reg.verts)
        directed = np.concatenate([f[:, [0, 1]], f[:, [1, 2]], f[:, [2, 0]]])
        dkeys = directed[:, 0] * np.int64(n) + directed[:, 1]
        _, counts = np.unique(dkeys, return_counts=True)
        assert counts.max() == 1  # consistent orientation
        und = np.sort(directed, axis=1)
        _, ucounts = np.unique(und[:, 0] * np.int64(n) + und[:, 1], return_counts=True)
        assert ucounts.max() <= 2  # edge-manifold


@pytest.mark.parametrize("mesh_name,lo,hi", [("plane_128", 0.3, 3.1),
                                              ("catenoid_96", 1.2, 12.0)])
@given(s=st.floats(0.0, 1.0), t=st.floats(0.0, 1.0))
def test_area_additive(request, mesh_name, lo, hi, s, t):
    # the catenoid has no points below its neck radius r = 1
    mesh = request.getfixturevalue(mesh_name)
    rho = lo + (hi - lo) * min(s, t)
    R = lo + (hi - lo) * max(s, t)
    assume(R - rho > 1e-3)
    whole = clip(_index(mesh), 0.0, R).area()
    parts = clip(_index(mesh), 0.0, rho).area() + clip(_index(mesh), rho, R).area()
    assert parts == pytest.approx(whole, rel=1e-9)


@pytest.fixture(scope="module")
def helicoid_64():
    return _permuted_helicoid(64, seed=3)


@functools.cache
def _index(mesh) -> dgeom.RadialIndex:
    """One radial index per mesh, which the sweeps and the regions of the
    many-example tests share, as a run's do."""
    return dgeom.RadialIndex(mesh)


def _ball_area(mesh, R, mask=None) -> float:
    """The ball area at R, from a sweep of that radius alone."""
    return float(_index(mesh).sweep([R], mask)[0][0])


def _flux(mesh, R, mask=None) -> float:
    """The level flux at R, from a sweep of that radius alone."""
    return float(_index(mesh).sweep([R], mask)[1][0])


@functools.cache
def _shortest_edge(mesh) -> np.ndarray:
    """Per vertex, the length of its shortest incident edge."""
    i, j, _ = surfaces._edge_counts(mesh.faces, len(mesh.verts))
    length = np.linalg.norm(mesh.verts[i] - mesh.verts[j], axis=1)
    shortest = np.full(len(mesh.verts), np.inf)
    np.minimum.at(shortest, np.concatenate([i, j]), np.concatenate([length, length]))
    return shortest


def _radius(mesh, s, snap) -> float:
    """A radius up to 5% past the mesh, or, by snap, a vertex radius (0),
    one ulp to either side of it (-1, 1) or 1e-7 of the vertex's shortest
    edge to either side (-2, 2), where the pieces of the faces at the vertex
    have about 1e-14 of their area."""
    R = 1.05 * mesh.max_r() * s
    if snap is not None:
        v = np.argmin(np.abs(mesh.r - R))
        R = mesh.r[v]
        if abs(snap) == 1:
            R = np.nextafter(R, snap * np.inf)
        elif snap:
            R += snap / 2 * 1e-7 * _shortest_edge(mesh)[v]
    return float(R)


_SNAPS = [None, -2, -1, 0, 1, 2]


@pytest.mark.parametrize("end", [False, True])
@pytest.mark.parametrize("mesh_name,ends_at", [("plane_128", 1.0), ("catenoid_96", 2.0),
                                               ("helicoid_64", 2.0)])
@given(s=st.floats(0.0, 1.0), snap=st.sampled_from(_SNAPS))
def test_ball_area_matches_clip(request, mesh_name, ends_at, end, s, snap):
    # radii run past the window: where clip succeeds the areas agree, and
    # where clip raises, the sweep raises the same error
    mesh = request.getfixturevalue(mesh_name)
    mask = end_components(mesh, ends_at).face_masks[0] if end else None
    R = _radius(mesh, s, snap)
    try:
        expected = clip(_index(mesh), 0.0, R, face_mask=mask).area()
    except CoverageError as exc:
        with pytest.raises(CoverageError) as err:
            _ball_area(mesh, R, mask)
        assert str(err.value) == str(exc)
        return
    except DomainError:
        with pytest.raises(DomainError):
            _ball_area(mesh, R, mask)
        return
    assert _ball_area(mesh, R, mask) == pytest.approx(expected, rel=1e-12)


def test_ball_area_errors(catenoid_96):
    # the nearest truncation vertex of the masked strip lies at r = edge, so
    # the window leaks from one ulp above edge on, with clip's message
    mesh = _strip_mesh()
    trunc = mesh.tags == TAG_TRUNCATION
    mask = ~(trunc & (mesh.r > 1.2))[mesh.faces].any(axis=1)
    edge = float(mesh.r[mesh.faces[mask]][trunc[mesh.faces[mask]]].min())
    above = float(np.nextafter(edge, np.inf))
    with pytest.raises(CoverageError) as err:
        _ball_area(mesh, above, mask)
    with pytest.raises(CoverageError) as ref:
        clip(mesh, 0.0, above, face_mask=mask)
    assert str(err.value) == str(ref.value)
    assert _ball_area(mesh, edge, mask) == pytest.approx(
        clip(mesh, 0.0, edge, face_mask=mask).area(), rel=1e-12)
    # a ball at or below the smallest vertex radius has no face
    rmin = float(catenoid_96.r.min())
    for R in (-1.0, 0.0, 0.5 * rmin, rmin, math.nan):
        with pytest.raises(DomainError):
            _ball_area(catenoid_96, R)


@pytest.mark.parametrize("mesh_name", ["plane_128", "catenoid_96", "helicoid_64"])
@given(s=st.floats(0.0, 1.0), t=st.floats(0.0, 1.0))
def test_ball_area_monotone_in_R(request, mesh_name, s, t):
    mesh = request.getfixturevalue(mesh_name)
    lo = float(mesh.r.min()) + 1e-3
    hi = float(mesh.r[mesh.tags == TAG_TRUNCATION].min())
    small, large = (lo + (hi - lo) * x for x in sorted((s, t)))
    assert _ball_area(mesh, small) <= _ball_area(mesh, large) * (1.0 + 1e-12)


def _level_segments(mesh, R, faces):
    """Every face is scanned: the faces R cuts, and the length of the level
    segment of each, interpolated along each edge that changes side."""
    rf = mesh.r[faces]
    cut = faces[(rf < R).any(axis=1) & (rf >= R).any(axis=1)]
    lengths = []
    for face in cut:
        below = mesh.r[face] < R
        ends = []
        for i, j in ((0, 1), (1, 2), (2, 0)):
            if below[i] != below[j]:
                a, b = face[i], face[j]
                t = (R - mesh.r[a]) / (mesh.r[b] - mesh.r[a])
                ends.append(mesh.verts[a] + t * (mesh.verts[b] - mesh.verts[a]))
        lengths.append(float(np.linalg.norm(ends[0] - ends[1])))
    return cut, lengths


def _flux_by_face_scan(mesh, R, faces):
    """Reference flux: each level segment times |grad r| from the face
    normal."""
    total = 0.0
    for face, length in zip(*_level_segments(mesh, R, faces)):
        p = mesh.verts[face]
        d = p.mean(axis=0) - mesh.pole
        n = np.cross(p[1] - p[0], p[2] - p[0])
        cos = float(d @ n) / (np.linalg.norm(d) * np.linalg.norm(n))
        total += math.sqrt(max(1.0 - cos * cos, 0.0)) * length
    return total


@pytest.mark.parametrize("end", [False, True])
@pytest.mark.parametrize("mesh_name,ends_at", [("plane_128", 1.0), ("catenoid_96", 2.0),
                                               ("helicoid_64", 2.0)])
@given(s=st.floats(0.0, 1.0), snap=st.sampled_from(_SNAPS))
def test_flux_matches_face_scan(request, mesh_name, ends_at, end, s, snap):
    mesh = request.getfixturevalue(mesh_name)
    mask = end_components(mesh, ends_at).face_masks[0] if end else None
    R = _radius(mesh, s, snap)
    if not R > 0:
        with pytest.raises(DomainError):
            _flux(mesh, R, mask)
        return
    faces = mesh.faces if mask is None else mesh.faces[mask]
    rt = mesh.r[faces][mesh.tags[faces] == TAG_TRUNCATION]
    if np.any((rt > 0) & (rt < R)):  # the level crosses the window: clip's error
        with pytest.raises(CoverageError) as err:
            _flux(mesh, R, mask)
        with pytest.raises(CoverageError) as ref:
            clip(_index(mesh), 0.0, R, face_mask=mask)
        assert str(err.value) == str(ref.value)
        return
    try:
        clip(_index(mesh), 0.0, R, face_mask=mask)
    except DomainError:  # a ball of no face, such as one below the catenoid's neck
        with pytest.raises(DomainError, match="contains no face"):
            _flux(mesh, R, mask)
        return
    # abs covers levels within ulps of a vertex, whose segments are rounding-sized
    assert _flux(mesh, R, mask) == pytest.approx(
        _flux_by_face_scan(mesh, R, faces), rel=1e-12, abs=1e-12)


def _outcome(compute):
    """compute()'s value, or the type and message of the error it raised."""
    try:
        return compute()
    except (CoverageError, DomainError) as exc:
        return type(exc), str(exc)


def _per_radius(mesh, radii, mask):
    """The ball areas and fluxes, by a sweep of one radius at a time."""
    index = dgeom.RadialIndex(mesh)
    swept = [index.sweep([R], mask) for R in radii]
    return [area[0] for area, _ in swept], [level_flux[0] for _, level_flux in swept]


@pytest.mark.parametrize("end", [False, True])
@pytest.mark.parametrize("mesh_name,ends_at", [("plane_128", 1.0), ("catenoid_96", 2.0),
                                               ("helicoid_64", 2.0)])
@given(picks=st.lists(st.tuples(st.floats(0.0, 1.0), st.sampled_from(_SNAPS)),
                      min_size=1, max_size=4))
def test_sweep_matches_clip_and_face_scan(request, mesh_name, ends_at, end, picks):
    mesh = request.getfixturevalue(mesh_name)
    mask = end_components(mesh, ends_at).face_masks[0] if end else None
    radii = [_radius(mesh, s, snap) for s, snap in picks]
    swept = _outcome(lambda: _index(mesh).sweep(radii, mask))
    loop = _outcome(lambda: _per_radius(mesh, radii, mask))
    if isinstance(loop[0], type):  # the loop raised: the sweep raises the same
        assert swept == loop
        return
    faces = mesh.faces if mask is None else mesh.faces[mask]
    for R, area, level_flux in zip(radii, *swept):
        region = clip(_index(mesh), 0.0, R, face_mask=mask)
        assert area == pytest.approx(region.area(), rel=1e-12)
        assert level_flux == pytest.approx(_flux_by_face_scan(mesh, R, faces),
                                           rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("end", [False, True])
@given(fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8))
def test_sweep_is_its_one_radius_sweeps_bit_for_bit(catenoid_96, end, fractions):
    mesh = catenoid_96
    mask = end_components(mesh, 2.0).face_masks[0] if end else None
    faces = mesh.faces if mask is None else mesh.faces[mask]
    lo = float(mesh.r[faces].max(axis=1).min())  # a whole face lies in every ball
    hi = float(mesh.r[faces][mesh.tags[faces] == TAG_TRUNCATION].min())
    radii = [lo + (hi - lo) * x for x in fractions]
    index = dgeom.RadialIndex(mesh)
    areas, fluxes = index.sweep(radii, mask)
    for i, R in enumerate(radii):
        area, level_flux = index.sweep([R], mask)
        assert areas[i] == area[0]
        assert fluxes[i] == level_flux[0]


@pytest.mark.parametrize("end", [False, True])
@pytest.mark.parametrize("radii,error", [
    ([3.0, 25.0, 30.0], "intrudes"),  # past the window: the error names 25, not 30
    ([3.0, -1.0, 30.0], "positive, got -1.0"),
    ([3.0, math.nan], "positive, got nan"),
    ([0.5, 3.0], "radius 0.5 contains no face"),  # below the neck at r = 1
    ([3.0, 0.5, -1.0], "radius 0.5 contains no face"),
])
def test_sweep_raises_as_the_per_radius_loop(catenoid_96, end, radii, error):
    mask = end_components(catenoid_96, 2.0).face_masks[0] if end else None
    swept = _outcome(lambda: _index(catenoid_96).sweep(radii, mask))
    assert swept == _outcome(lambda: _per_radius(catenoid_96, radii, mask))
    assert error in swept[1]
    if error == "intrudes":
        assert swept[1].endswith("band (0, 25)")


def test_a_level_through_the_pole_face_has_its_segment_length_as_flux(plane_128):
    # the pole at a face centroid lies in that face's plane, where r has
    # unit gradient: a level cutting the face marches it like any other
    centroids = plane_128.verts[plane_128.faces].mean(axis=1)
    k = int(np.argmin(np.linalg.norm(centroids, axis=1)))
    face = plane_128.faces[k]
    mesh = TriMesh(plane_128.verts, plane_128.faces, pole=centroids[k], tags=plane_128.tags)
    assert _grad_norms(mesh.verts, mesh.faces, mesh.pole)[k] == 1.0
    rv = np.sort(mesh.r[face])
    R = float(rv[0] + rv[2]) / 2.0
    cut, lengths = _level_segments(mesh, R, mesh.faces)
    assert any(np.array_equal(f, face) for f in cut)
    (area,), (level_flux,) = dgeom.RadialIndex(mesh).sweep([R])
    assert area == pytest.approx(clip(mesh, 0.0, R).area(), rel=1e-12)
    assert level_flux == pytest.approx(sum(lengths), rel=1e-12)


def test_one_radial_index_per_mesh(monkeypatch):
    builds = []
    init = dgeom.RadialIndex.__init__

    def counted(self, mesh):
        builds.append(mesh)
        init(self, mesh)

    monkeypatch.setattr(dgeom.RadialIndex, "__init__", counted)
    mesh = _strip_mesh()
    study = Study(mesh, ModelSpace(2, WarpingSpec.space_form(0.0)))
    x = mesh.verts[mesh.faces][:, :, 0]
    right, left = x.min(axis=1) > -0.5, x.max(axis=1) < 0.5
    for mask in (None, right, left, right.copy()):
        for R in (0.3, 0.6, 0.9):
            study.sweep([R], mask)
        study.sweep([0.3, 0.6, 0.9], mask)
    assert builds == [mesh]
    # a sweep of all faces is kept, one of an end's faces is not
    assert study.sweep([0.3, 0.6]) is study.sweep([0.3, 0.6])
    assert study.sweep([0.3], right) is not study.sweep([0.3], right)
    # once released, the index is built again by the next sweep
    study.index = None
    study.sweep([0.4])
    assert builds == [mesh, mesh]


def test_kernels_are_the_expressions_they_replace(catenoid_192, helicoid_64):
    for mesh in (catenoid_192, helicoid_64):
        v, f = mesh.verts, mesh.faces
        a, b, c = v[f[:, 0]], v[f[:, 1]], v[f[:, 2]]
        assert np.array_equal(surfaces.face_areas(v, f),
                              0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1))
        d = (a + b + c) / 3.0 - mesh.pole
        d /= np.linalg.norm(d, axis=1)[:, None]
        nrm = np.cross(b - a, c - a)
        nrm /= np.linalg.norm(nrm, axis=1)[:, None]
        dot = (d * nrm).sum(axis=1)
        assert np.array_equal(_grad_norms(v, f, mesh.pole),
                              np.sqrt(np.clip(1.0 - dot * dot, 0.0, 1.0)))
        inside = f[mesh.r[f].max(axis=1) < 6.0]
        for faces in (f, inside):
            assert np.array_equal(np.flatnonzero(np.bincount(faces.ravel(), minlength=len(v))),
                                  np.unique(faces))


def _level_flux(mesh, R) -> float:
    index = _index(mesh)
    return float(index._fluxes(index._cuts([R], None))[0])


class TestFlux:
    def test_level_must_be_positive(self, plane_128):
        for R in (-1.0, 0.0, math.nan):
            with pytest.raises(DomainError):
                _flux(plane_128, R)

    def test_plane_circle(self, plane_256):
        assert _flux(plane_256, 2.0) == pytest.approx(4 * math.pi, rel=5e-3)

    def test_catenoid_neck_flux_vanishes(self, catenoid_96, catenoid_192):
        # the ball of radius 1 holds no face, so no sweep reads this level:
        # the index's marching flux is read on its own.  Just above the neck
        # every neck face is cut (at r = 1 itself, rounding picks which ones),
        # and the flux falls to the continuum's 0 at first order
        coarse, fine = (_level_flux(mesh, 1.0 + 1e-9) for mesh in (catenoid_96, catenoid_192))
        assert 0.45 <= fine / coarse <= 0.55
        assert fine < 0.1 * 2 * math.pi

    def test_catenoid_flux_equals_volume_quotient(self, catenoid_96):
        # Euclidean ambient identity at R = 20
        R = 20.0
        vol_q = clip(catenoid_96, 0.0, R).area() / (math.pi * R * R)
        flux_q = _flux(catenoid_96, R) / (2 * math.pi * R)
        assert flux_q == pytest.approx(vol_q, rel=1e-2)

    def test_coarea_derivative(self, plane_256):
        # d/dR of the radial Dirichlet energy over D_R equals the flux; on
        # the plane through the pole |grad r| = 1, so that energy is the area
        R, h = 2.0, 0.05
        e_hi = clip(plane_256, 0.0, R + h).area()
        e_lo = clip(plane_256, 0.0, R - h).area()
        fd = (e_hi - e_lo) / (2 * h)
        assert fd == pytest.approx(_flux(plane_256, R), rel=0.03)


class TestLaplacianWeights:
    def test_single_equilateral_triangle(self):
        # hand value for one triangle: off-diagonal -cot(pi/3)/2 = -1/(2 sqrt 3)
        verts = np.array([[0, 0, 0], [1, 0, 0], [0.5, math.sqrt(3) / 2, 0]])
        K, _ = cotangent_laplacian(verts, np.array([[0, 1, 2]]))
        K = _scipy_stiffness(K).toarray()
        off = -1.0 / (2 * math.sqrt(3))
        for i in range(3):
            for j in range(3):
                if i != j:
                    assert K[i, j] == pytest.approx(off, rel=1e-12)

    def test_shared_edge_pair_doubles(self):
        # two equilateral triangles sharing an edge: -cot(pi/3) = -1/sqrt(3)
        verts = np.array([[0, 0, 0], [1, 0, 0], [0.5, math.sqrt(3) / 2, 0],
                          [0.5, -math.sqrt(3) / 2, 0]])
        K, _ = cotangent_laplacian(verts, np.array([[0, 1, 2], [1, 0, 3]]))
        assert K.i[0] == 0 and K.j[0] == 1  # edges in key order
        assert -K.w[0] == pytest.approx(-1.0 / math.sqrt(3), rel=1e-12)
        assert _scipy_stiffness(K)[0, 1] == -K.w[0]

    def test_square_grid_five_point_stencil(self):
        mesh = tessellate(_plane_square(4.0), 8, 8)  # unit squares
        K, _ = cotangent_laplacian(mesh.verts, mesh.faces)
        # interior vertex: axis neighbors -1, diagonal neighbors 0, center 4
        inner = np.flatnonzero(mesh.tags != TAG_TRUNCATION)
        i = int(inner[len(inner) // 2])
        # an edge of weight 0 (a square's diagonal) carries no entry
        assert np.all(K.w > 0) and np.count_nonzero((K.i == i) | (K.j == i)) == 4
        row = _scipy_stiffness(K).getrow(i).toarray().ravel()
        assert row[i] == pytest.approx(4.0, rel=1e-12)
        assert sorted(np.round(row[row != 0], 12).tolist()) == [-1.0, -1.0, -1.0, -1.0, 4.0]

    def test_matches_a_cross_product_per_corner(self):
        # reference: each corner's cotangent from its own cross product, and the
        # mass from face_areas; one shared double area changes K by rounding only
        mesh = tessellate(builtin("catenoid", cover_radius=4.0), 24, 24)
        v, f = mesh.verts, mesh.faces
        K, mass = cotangent_laplacian(v, f)
        ref_mass = np.zeros(len(v))
        for k in range(3):
            np.add.at(ref_mass, f[:, k], surfaces.face_areas(v, f) / 3.0)
        assert np.array_equal(mass, ref_mass)
        W = np.zeros((len(v), len(v)))
        for k in range(3):
            a, b, c = (v[f[:, (k + j) % 3]] for j in range(3))
            cot = ((b - a) * (c - a)).sum(axis=1) / np.linalg.norm(np.cross(b - a, c - a), axis=1)
            np.add.at(W, (f[:, (k + 1) % 3], f[:, (k + 2) % 3]), 0.5 * cot)
        W = np.maximum(W + W.T, 0.0)
        ref = np.diag(W.sum(axis=1)) - W
        assert np.abs(_scipy_stiffness(K).toarray() - ref).max() <= 1e-15 * np.abs(ref).max()

    def test_unconstrained_system_rejected(self, plane_128):
        reg = clip(plane_128, 1.0, 2.0)
        with pytest.raises(DomainError):
            dgeom.assemble_laplacian(reg, {})


class TestSolves:
    def test_plane_annulus_log_potential(self, plane_256):
        reg = clip(plane_256, 1.0, math.e)
        system = dgeom.assemble_laplacian(reg, {"inner": 0.0, "outer": 1.0})
        psi = solve_dirichlet(system)
        interior = reg.vertex_label == 0
        expected = np.log(reg.r[interior])
        assert np.abs(psi[interior] - expected).max() < 0.01

    def test_constant_boundary_gives_constant(self, plane_128):
        reg = clip(plane_128, 1.0, 2.0)
        system = dgeom.assemble_laplacian(reg, {"inner": 0.7, "outer": 0.7})
        psi = solve_dirichlet(system)
        # constant up to the 1e-10 relative CG residual
        assert np.allclose(psi, 0.7, rtol=0, atol=1e-7)

    def test_maximum_principle(self, catenoid_96):
        reg = clip(catenoid_96, 1.5, 10.0)
        system = dgeom.assemble_laplacian(reg, {"inner": 0.0, "outer": 1.0})
        psi = solve_dirichlet(system)
        assert psi.min() >= -1e-9 and psi.max() <= 1.0 + 1e-9


class TestCapacity:
    def test_plane_annulus(self, plane_256):
        cap = capacity_discrete(clip(plane_256, 1.0, math.e))
        assert cap.capacity == pytest.approx(2 * math.pi, rel=0.02)
        assert cap.effective_resistance == pytest.approx(1 / cap.capacity, rel=1e-14)

    def test_catenoid_against_band_oracle(self, catenoid_192):
        # exact band solution: Cap = 4 pi / (v_R - v_rho) per the conformal
        # parametrization, v_R solving cosh^2 v + v^2 = R^2
        from scipy.optimize import brentq
        v6 = brentq(lambda v: math.cosh(v) ** 2 + v * v - 36.0, 0, 10)
        v15 = brentq(lambda v: math.cosh(v) ** 2 + v * v - 2.25, 0, 10)
        exact = 4 * math.pi / (v6 - v15)
        reg = clip(catenoid_192, 1.5, 6.0)
        assert not reg.has_label(LABEL_TRUNCATION)
        cap = capacity_discrete(reg)
        assert cap.capacity == pytest.approx(exact, rel=0.02)

    def test_figure_claim_capacity_ratio_in_one_two(self, catenoid_192):
        cap = capacity_discrete(clip(catenoid_192, 1.5, 6.0))
        ratio = cap.capacity / (2 * math.pi / math.log(4.0))
        assert 1.0 - 0.03 < ratio < 2.0 * 1.03

    def test_resolution_guard(self, plane_128):
        with pytest.raises(DomainError):
            capacity_discrete(clip(plane_128, 1.0, 1.02))

    def test_truncation_policies(self):
        # a strip window whose truncation boundary crosses the band: clip
        # refuses the tagged mesh; an untagged copy gives the same region,
        # whose window edge the capacity treats as a zero-Neumann wall
        mesh = _strip_mesh()
        with pytest.raises(CoverageError):
            clip(mesh, 0.5, 3.0)
        reg = clip(_untagged(mesh), 0.5, 3.0)
        assert reg.has_label(dgeom.LABEL_TRUNCATION)
        cap = capacity_discrete(reg)
        assert cap.capacity > 0

    def test_ball_rejected(self, plane_128):
        with pytest.raises(DomainError):
            capacity_discrete(clip(plane_128, 0.0, 2.0))


class TestExitTime:
    def test_plane_profile(self, plane_256):
        reg = clip(plane_256, 0.0, 2.0)
        E = exit_time_discrete(reg)
        expected = (4.0 - reg.r ** 2) / 4.0
        assert np.abs(E - expected).max() <= 0.02 * expected.max()

    def test_boundary_exactly_zero(self, plane_128):
        reg = clip(plane_128, 0.0, 2.0)
        E = exit_time_discrete(reg)
        assert np.all(E[reg.vertex_label == LABEL_OUTER] == 0.0)

    def test_catenoid_equals_transplant(self, catenoid_192):
        # minimal in Euclidean space: E = (R^2 - r^2)/4 exactly in the limit
        reg = clip(catenoid_192, 0.0, 6.0)
        E = exit_time_discrete(reg)
        expected = (36.0 - reg.r ** 2) / 4.0
        assert np.abs(E - expected).max() <= 0.02 * expected.max()

    def test_annulus_rejected(self, plane_128):
        with pytest.raises(DomainError):
            exit_time_discrete(clip(plane_128, 1.0, 2.0))


def test_solvers_call_the_module_level_cg_and_cholesky(monkeypatch, plane_128):
    # dgeom.cg and dgeom.cholesky are the names a caller wraps to watch the solves
    calls = {"cg": 0, "cholesky": 0}
    for name in calls:
        real = getattr(dgeom, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(dgeom, name, counted)
    reg = clip(plane_128, 1.0, 2.0)
    solve_dirichlet(dgeom.assemble_laplacian(reg, {"inner": 0.0, "outer": 1.0}))
    assert calls == {"cg": 1, "cholesky": 0}
    first_eigenvalue_estimates(plane_128, [2.0])
    assert calls == {"cg": 1, "cholesky": 1}


def _free_block(region):
    """The free block of the (0, 1) annulus system in the ELL form that
    solve_dirichlet builds, and as a scipy CSR reference built from the edge
    list; the right-hand side and the inverse diagonal, from the reference."""
    system = dgeom.assemble_laplacian(region, {"inner": 0.0, "outer": 1.0})
    free = system.free_mask()
    field = np.zeros(len(free))
    field[system.constrained] = system.values
    Kf = _scipy_stiffness(system.K)[free]
    block, _ = dgeom._free_block(system.K, np.where(free, np.cumsum(free) - 1, -1))
    return (block, Kf[:, free], -Kf[:, ~free] @ field[~free],
            1.0 / Kf[:, free].diagonal())


class TestConjugateGradients:
    def test_matches_scipy(self, plane_256):
        from scipy.sparse.linalg import cg as scipy_cg
        block, Kff, rhs, inv_diag = _free_block(clip(plane_256, 1.0, math.e))
        runs = []
        for solver, A, M in ((scipy_cg, Kff, sparse.diags(inv_diag)),
                             (dgeom.cg, block, inv_diag)):
            iters = []
            x, info = solver(A, rhs, rtol=1e-10, atol=0.0, maxiter=5000, M=M,
                             callback=lambda xk: iters.append(1))
            assert info == 0
            runs.append((x, len(iters)))
        (x_scipy, n_scipy), (x, n) = runs
        assert n == n_scipy > 100
        assert np.abs(x - x_scipy).max() <= 1e-12 * np.abs(x_scipy).max()

    def test_ell_block_matches_csr(self, catenoid_96):
        block, Kff, _, inv_diag = _free_block(clip(catenoid_96, 1.5, 6.0))
        assert np.array_equal(block.diag, 1.0 / inv_diag)
        x = np.random.default_rng(1).standard_normal(Kff.shape[0])
        ref = Kff @ x
        assert np.abs(block @ x - ref).max() <= 1e-14 * np.abs(ref).max()
        # the arrays a tracer digests describe the same matrix
        csr = block.tocsr()
        copy = sparse.csr_matrix((csr.data, csr.indices, csr.indptr), shape=block.shape)
        assert np.abs((copy - Kff).toarray()).max() <= 1e-14 * np.abs(Kff.data).max()

    def test_zero_rhs_returns_zeros(self, plane_128):
        block, _, rhs, inv_diag = _free_block(clip(plane_128, 1.0, 2.0))
        x, info = dgeom.cg(block, np.zeros_like(rhs), rtol=1e-10, atol=0.0, maxiter=10,
                           M=inv_diag)
        assert info == 0
        assert np.array_equal(x, np.zeros_like(rhs))

    def test_running_out_of_iterations_raises_with_the_residual(self, monkeypatch, plane_128):
        real = dgeom.cg
        monkeypatch.setattr(dgeom, "cg", lambda A, b, **kw: real(A, b, **dict(kw, maxiter=3)))
        system = dgeom.assemble_laplacian(clip(plane_128, 1.0, 2.0), {"inner": 0.0, "outer": 1.0})
        with pytest.raises(SolveError, match="did not converge") as err:
            solve_dirichlet(system)
        assert err.value.residual > 1e-10


# A capacity solve on more than 10 000 free vertices, where a BLAS vector
# call would hand work to BLAS worker threads; prints the CPU time of the
# other threads and of the main thread over the solve
_SOLVE_CPU = """
import math, time
from excomp import builtin, dgeom, tessellate

region = dgeom.clip(tessellate(builtin("plane", cover_radius=3.2), 192, 192), 1.0, math.e)
assert (region.vertex_label == dgeom.LABEL_INTERIOR).sum() > 10_000
process, main = time.process_time(), time.thread_time()
dgeom.capacity_discrete(region)
main = time.thread_time() - main
print(time.process_time() - process - main, main)
"""


def test_solves_leave_blas_threads_idle():
    # a fresh interpreter, so that the thread setting applies when BLAS loads
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(dgeom.__file__).resolve().parents[1]), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _SOLVE_CPU], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    others, main = map(float, proc.stdout.split())
    assert others < 0.1 * main, (others, main)


# The eigenvalue estimates on two nested balls, the larger of more than
# 10 000 free vertices, where a dense kernel above OpenBLAS's threading
# thresholds would hand work to its worker threads: the band's root front,
# and the smaller ball's factor on the larger one's interior panels.  Prints
# the CPU time of the other threads and of the main thread over the
# estimates, or (with the argument "solves") over 20 solves on the smaller
# ball's factor alone
_EIGEN_CPU = """
import sys, time
import numpy as np
from excomp import builtin, dgeom, tessellate

mesh = tessellate(builtin("plane", cover_radius=3.2), 192, 192)
region = dgeom.clip(mesh, 0.0, 2.5)
assert (region.vertex_label == dgeom.LABEL_INTERIOR).sum() > 10_000
del region
radii = [1.5, 2.5]
solves = sys.argv[1:] == ["solves"]
if solves:  # the factors, not timed
    factors, real = [], dgeom.cholesky
    dgeom.cholesky = lambda *args: factors.append(real(*args)) or factors[-1]
    dgeom.first_eigenvalue_estimates(mesh, radii)
    assert len(factors[-1].panels) > len(factors[0].interior[0]) > 0
    b = np.ones(factors[-1].n)
process, main = time.process_time(), time.thread_time()
if solves:
    for _ in range(20):
        factors[-1].solve(b)
else:
    dgeom.first_eigenvalue_estimates(mesh, radii)
main = time.thread_time() - main
print(time.process_time() - process - main, main)
"""


def _eigen_cpu(*args):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(dgeom.__file__).resolve().parents[1]), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _EIGEN_CPU, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return tuple(map(float, proc.stdout.split()))


def test_eigenvalue_factorization_leaves_blas_threads_idle():
    others, main = _eigen_cpu()
    assert others < 0.1 * main, (others, main)


def test_panel_solves_leave_blas_threads_idle():
    others, main = _eigen_cpu("solves")
    assert others < 0.1 * main, (others, main)


def _nested_dissection_eigenvalues(mesh, radii):
    """first_eigenvalue_estimates on the balls of the radii, each with its
    number of Lanczos steps (factor solves) and the entries of its factor L,
    in the order of radii."""
    steps, fill = [], []
    real = dgeom.cholesky

    class Counted:
        def __init__(self, factor):
            self.factor, self.interior, self.ball = factor, factor.interior, len(fill)
            fill.append(factor.nnz)
            steps.append(0)

        def solve(self, b):
            steps[self.ball] += 1
            return self.factor.solve(b)

    dgeom.cholesky = lambda *args, **kwargs: Counted(real(*args, **kwargs))
    try:
        lams = first_eigenvalue_estimates(mesh, radii)
    finally:
        dgeom.cholesky = real
    ball = sorted(radii, reverse=True).index  # the largest ball is factored first
    return [(lam, steps[ball(R)], fill[ball(R)]) for R, lam in zip(radii, lams)]


def _colamd_eigenvalue(region):
    """Reference: the same Lanczos step rule on scipy's default LU of the
    free block (COLAMD column order, partial pivoting), unpermuted, written
    out with the basis as a list: Lanczos on K^-1 M in the M inner product
    from the constant vector, each new vector orthogonalized against the
    basis twice, stopping once 1 / (the largest eigenvalue of the projected
    matrix) changes by at most _EIGEN_TOL of itself or the basis spans an
    invariant subspace, a full basis restarting from its Ritz vector (the
    next step not judged).  It returns
    the Rayleigh quotient at K^-1 M y, y the last Ritz vector, here from one
    more solve and a product by K."""
    from scipy.sparse.linalg import splu
    system = dgeom.assemble_laplacian(region, {"inner": 0.0, "outer": 0.0, "truncation": 0.0})
    free = system.free_mask()
    Kff = _scipy_stiffness(system.K)[free][:, free].tocsc()
    mf = system.mass[free]
    lu = splu(Kff)

    def m_dot(a, b):
        return float(np.sum(a * mf * b))

    q = np.ones(len(mf)) / math.sqrt(mf.sum())
    basis, T, lam_prev = [], np.zeros((0, 0)), None
    for step in range(1, dgeom._EIGEN_MAXITER + 1):
        basis.append(q)
        w = lu.solve(mf * q)
        column = np.zeros(len(basis))
        for _ in range(2):
            c = np.array([m_dot(v, w) for v in basis])
            w = w - sum(ci * v for ci, v in zip(c, basis))
            column += c
        grown = np.zeros((len(basis), len(basis)))
        grown[:-1, :-1] = T
        grown[-1, -1] = column[-1]
        if len(basis) > 1:
            grown[-1, -2] = grown[-2, -1] = beta
        T = grown
        theta, s = np.linalg.eigh(T)
        lam = 1.0 / theta[-1]
        beta = math.sqrt(m_dot(w, w))
        if (lam_prev is not None and abs(lam - lam_prev) <= dgeom._EIGEN_TOL * abs(lam)
                or len(basis) == len(mf) or beta == 0.0):
            z = lu.solve(mf * sum(si * v for si, v in zip(s[:, -1], basis)))
            return float(z @ (Kff @ z)) / m_dot(z, z), step, lu.L.nnz + lu.U.nnz
        lam_prev = lam
        if len(basis) < dgeom._LANCZOS_BASIS:
            q = w / beta
        else:
            q = sum(si * v for si, v in zip(s[:, -1], basis))
            q = q / math.sqrt(m_dot(q, q))
            basis, T, lam_prev = [], np.zeros((0, 0)), None
    raise AssertionError("the reference did not converge")


def _free_rows(region):
    """Reference: a clipped ball's free block from cotangent_laplacian of its
    faces, in parent vertex numbers: the free vertices, their diagonal
    entries, masses and whether each has an edge to a constrained vertex,
    and the free-free edges by (i, j), with their weights."""
    K, mass = cotangent_laplacian(region.verts, region.faces)
    free = region.vertex_label == LABEL_INTERIOR
    parent = region.vertex_parent
    touching = np.zeros(len(free), dtype=bool)
    touching[K.i[free[K.i] & ~free[K.j]]] = touching[K.j[free[K.j] & ~free[K.i]]] = True
    both = free[K.i] & free[K.j]
    ids = np.flatnonzero(free)
    edges = {(int(a), int(b)): w
             for a, b, w in zip(parent[K.i[both]], parent[K.j[both]], K.w[both])}
    return parent[ids], K.diag[ids], mass[ids], touching[ids], edges


class TestEigenvalue:
    def test_unit_disc_bessel(self, plane_256):
        lam, = first_eigenvalue_estimates(plane_256, [1.0])
        j01 = float(special.jn_zeros(0, 1)[0])
        assert lam == pytest.approx(j01 ** 2, rel=0.02)

    def test_scaling_law(self, plane_256):
        lam1, lam2 = first_eigenvalue_estimates(plane_256, [1.0, 2.0])
        assert lam2 == pytest.approx(lam1 / 4.0, rel=0.02)

    def test_catenoid_decreasing_to_zero_trend(self, catenoid_96):
        lams = first_eigenvalue_estimates(catenoid_96, (4.0, 8.0, 16.0))
        assert lams[0] > lams[1] > lams[2]

    @pytest.mark.parametrize("case, radii", [("plane_256", (1.0, 2.0)),
                                             ("catenoid_96", (4.0, 8.0, 16.0)),
                                             ("helicoid_128", (4.5, 7.0, 9.5, 12.0))])
    def test_matches_the_colamd_factorization(self, request, case, radii):
        # the smaller balls share one tree and the largest ball's interior panels
        mesh = _mesh_case(request, case)
        for R, (lam, steps, _) in zip(radii, _nested_dissection_eigenvalues(mesh, radii)):
            ref, ref_steps, _ = _colamd_eigenvalue(clip(mesh, 0.0, R))
            assert lam == pytest.approx(ref, rel=1e-12, abs=0.0)
            assert steps == ref_steps

    @pytest.mark.parametrize("radii", [(1.005, 8.0), (8.0,)])
    def test_no_interior_and_no_band(self, catenoid_96, radii):
        # a smallest ball whose free vertices all lie on its band leaves no
        # interior to share, and a single ball has no band
        tree = elimination_tree(catenoid_96, radii)
        assert not tree.interior.any()
        if len(radii) > 1:
            region = clip(catenoid_96, 0.0, radii[0])
            free = region.vertex_parent[region.vertex_label == LABEL_INTERIOR]
            assert len(free) and np.all(tree.node[free] == 0)
        for R, (lam, steps, _) in zip(radii, _nested_dissection_eigenvalues(catenoid_96, radii)):
            ref, ref_steps, _ = _colamd_eigenvalue(clip(catenoid_96, 0.0, R))
            assert lam == pytest.approx(ref, rel=1e-12, abs=0.0)
            assert steps == ref_steps

    @pytest.mark.parametrize("case, radii", [("catenoid_96", (4.0, 8.0, 16.0)),
                                             ("helicoid_128", (4.5, 7.0, 9.5, 12.0)),
                                             ("sliver", (1.5, 2.5, 3.0))])
    def test_interior_rows_are_those_of_the_largest_ball(self, request, case, radii):
        # the invariant that sharing rests on: no ball cuts a face at an
        # interior vertex, and clip keeps a whole face by its area alone, so
        # its edge weights, diagonal and mass are the same in every ball, bit
        # for bit (the sliver case has a face of 5e-14 of the mean area there)
        mesh = _mesh_case(request, case)
        tree = elimination_tree(mesh, radii)
        interior = np.zeros(len(mesh.verts), dtype=bool)
        interior[tree.node >= 0] = tree.interior[tree.node[tree.node >= 0]]
        assert interior.sum() > 100
        if case == "sliver":
            assert np.all(interior[mesh.faces[-1]])
        rows = []
        for R in radii:
            region = clip(mesh, 0.0, R)
            K, mass = cotangent_laplacian(region.verts, region.faces)
            parent = region.vertex_parent
            at = np.full(len(mesh.verts), -1)
            at[parent[parent >= 0]] = np.flatnonzero(parent >= 0)
            ends = np.stack([parent[K.i], parent[K.j]])
            edges = np.flatnonzero(np.any((ends >= 0) & interior[ends], axis=0))
            edges = edges[np.lexsort(ends[::-1, edges])]
            vertices = np.flatnonzero(interior)
            assert np.all(region.vertex_label[at[vertices]] == LABEL_INTERIOR)
            rows.append((ends[:, edges], K.w[edges], K.diag[at[vertices]], mass[at[vertices]]))
        for ball in rows[:-1]:
            for got, largest in zip(ball, rows[-1]):
                assert np.array_equal(got, largest)

    @pytest.mark.parametrize("case, R", [("catenoid", 16.0), ("helicoid", 12.0)])
    def test_fill_below_colamd(self, catenoid_96, case, R):
        mesh = catenoid_96 if case == "catenoid" else _permuted_helicoid(128, seed=20)
        _, _, colamd = _colamd_eigenvalue(clip(mesh, 0.0, R))
        # fill: the real entries of L (the panels' padding slots and the upper
        # triangles of their D blocks left out)
        (_, _, fill), = _nested_dissection_eigenvalues(mesh, [R])
        assert 2 * fill < colamd  # L and its transpose, against COLAMD's L + U

    @pytest.mark.parametrize("pivots", [dgeom._PIVOTS, 8])
    def test_solve_matches_a_dense_solve(self, monkeypatch, pivots):
        # with 8 pivots a block, the separators are fronts of several blocks;
        # the smaller ball's factor starts with the larger one's interior panels
        monkeypatch.setattr(dgeom, "_PIVOTS", pivots)
        mesh = tessellate(builtin("plane", cover_radius=3.2), 32, 32)
        calls = {"_fronts": [], "first_eigenvalue_estimate": [], "cholesky": []}
        for name, made in calls.items():
            monkeypatch.setattr(dgeom, name, lambda *args, _real=getattr(dgeom, name), _made=made:
                                _made.append((args, _real(*args))) or _made[-1][1])
        first_eigenvalue_estimates(mesh, [2.5, 1.0])
        (_, large), (_, small) = calls["_fronts"]
        assert large.interior > 0 and small.interior == 0
        assert (large.blocks.max() > 1) == (pivots == 8)
        larger, smaller = (factor for _, factor in calls["cholesky"])
        shared = len(larger.interior[0])  # the interior's panels
        assert shared > 0
        # the stored entries: per front, the lower triangle of its pivots and
        # their boundary rows, which hold every entry of L
        per_front = [np.bincount(f.front_of) * (np.bincount(f.front_of) + 1) // 2
                     + np.bincount(f.front_of) * np.diff(f.boundary_ptr) for f in (large, small)]
        interior = per_front[0][np.unique(large.front_of[:large.interior])].sum()
        nnz = [per_front[0].sum(), interior + per_front[1].sum()]
        (exhaustion, _), _ = calls["first_eigenvalue_estimate"][0]
        first = exhaustion.interior.vertices[:exhaustion.interior.count]
        # each ball's free vertices in elimination order: the interior's
        # first in the smaller ball, then its own fronts' order
        orders = [vertices[f.order] for (_, vertices), f in calls["_fronts"]]
        orders[1] = np.concatenate([first, orders[1]])
        for R, order, (_, factor), entries in zip((2.5, 1.0), orders, calls["cholesky"], nnz):
            block = exhaustion.block(R)
            n = len(order)
            at = np.searchsorted(block.free, order)
            assert np.array_equal(block.free[at], order)
            dense = np.diag(block.diag)
            i, j = np.searchsorted(block.free, block.i), np.searchsorted(block.free, block.j)
            dense[i, j] = dense[j, i] = -block.w
            A = dense[np.ix_(at, at)]
            assert factor.n == n
            assert factor.nnz == entries
            assert factor.nnz >= np.count_nonzero(np.linalg.cholesky(A))
            b = np.random.default_rng(3).standard_normal(n)
            ref = np.linalg.solve(A, b)
            assert np.abs(factor.solve(b) - ref).max() <= 1e-12 * np.abs(ref).max()
            # no padding slot leaks into x: in M, a padding slot's row and (for
            # a padding pivot) column are those of the identity
            for ids, pivots, rows, into, X in factor.panels:
                width = X.shape[1]
                assert np.array_equal(pivots, ids[:, :width])
                assert np.array_equal(rows[into].reshape(len(ids), -1), ids[:, width:])
                M = X.transpose(0, 2, 1)
                pad = ids == n
                padded = pad[:, :, None] | pad[:, None, :width]
                unit = np.broadcast_to(np.eye(ids.shape[1], width), M.shape)
                assert np.array_equal(M[padded], unit[padded])
        assert np.count_nonzero(large.slots < 0)
        # the smaller ball's first panels are the larger ball's interior panels
        assert all(a[4] is b[4] for a, b in zip(smaller.panels[:shared], larger.panels))

    @pytest.mark.parametrize("case, radii", [("catenoid_96", (4.0, 8.0, 16.0)),
                                             ("helicoid_128", (4.5, 7.0, 9.5, 12.0))])
    def test_within_1e_10_of_the_converged_eigenvalues(self, monkeypatch, request, case, radii):
        mesh = _mesh_case(request, case)
        lams = first_eigenvalue_estimates(mesh, radii)
        monkeypatch.setattr(dgeom, "_EIGEN_TOL", 1e-15)
        for lam, converged in zip(lams, first_eigenvalue_estimates(mesh, radii)):
            assert lam == pytest.approx(converged, rel=1e-10, abs=0.0)

    def test_a_restarted_basis_converges_to_the_same_eigenvalue(self, monkeypatch, catenoid_96):
        # a basis of three vectors restarts from its Ritz vector, so a slow
        # ball holds no more than three vectors of its size
        (lam, steps, _), = _nested_dissection_eigenvalues(catenoid_96, [16.0])
        monkeypatch.setattr(dgeom, "_LANCZOS_BASIS", 3)
        (short, short_steps, _), = _nested_dissection_eigenvalues(catenoid_96, [16.0])
        assert short_steps > steps > 3
        assert short == pytest.approx(lam, rel=1e-8, abs=0.0)

    def test_a_ball_of_one_free_vertex_takes_one_step(self, plane_128):
        # its basis spans the whole space after one solve: the estimate is
        # then exact, diag / mass, with no second step to compare
        R = 0.5 * float(np.sort(plane_128.r)[1])
        (lam, steps, _), = _nested_dissection_eigenvalues(plane_128, [R])
        block = dgeom._Exhaustion(dgeom.RadialIndex(plane_128), [R]).block(R)
        assert len(block.free) == 1 and steps == 1
        assert lam == pytest.approx(block.diag[0] / block.mass[0], rel=1e-14)

    @pytest.mark.parametrize("case, radii", [("catenoid_96", (4.0, 8.0, 16.0)),
                                             ("helicoid_128", (4.5, 7.0, 9.5, 12.0)),
                                             ("sliver", (1.5, 2.5, 3.0)),
                                             ("plane_128", (0.5, 1.0, 1.0 + 1e-13, 3.0))])
    def test_restricted_blocks_match_a_clip_of_each_ball(self, request, case, radii):
        # each ball's free block, restricted from the largest ball's with its
        # band's rows assembled again, against the ball clipped and
        # assembled from scratch
        mesh = _mesh_case(request, case)
        exhaustion = dgeom._Exhaustion(dgeom.RadialIndex(mesh), radii)
        for R in radii:
            block = exhaustion.block(R)
            free, diag, mass, touching, edges = _free_rows(clip(mesh, 0.0, R))
            assert np.array_equal(block.free, free)
            for got, ref in ((block.diag, diag), (block.mass, mass)):
                assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()
            assert np.array_equal(block.touching, touching)
            got = {(int(min(a, b)), int(max(a, b))): w
                   for a, b, w in zip(block.i, block.j, block.w)}
            assert got.keys() == edges.keys()
            ref = np.array(list(edges.values()))
            assert np.abs(np.array([got[e] for e in edges]) - ref).max() <= 1e-14 * ref.max()

    def test_a_ball_shares_only_its_own_exhaustion_interior(self, catenoid_96):
        # fed the R = 16 interior of the tree for radii (4, 16), the R = 8
        # ball of the tree for (6, 16) would read 0.12665 where 0.09547 is
        # right: a ball's step takes the interior of its own exhaustion,
        # whose radii it must be among
        other = dgeom._Exhaustion(dgeom.RadialIndex(catenoid_96), (4.0, 16.0))
        dgeom.first_eigenvalue_estimate(other, 16.0)
        assert other.interior is not None
        with pytest.raises(DomainError, match="no ball of radius 8.0"):
            dgeom.first_eigenvalue_estimate(other, 8.0)
        assert list(inspect.signature(dgeom.first_eigenvalue_estimate).parameters) == [
            "exhaustion", "R"]
        alone, = first_eigenvalue_estimates(catenoid_96, [8.0])
        lam = first_eigenvalue_estimates(catenoid_96, (6.0, 8.0, 16.0))[1]
        assert lam == pytest.approx(alone, rel=1e-12) and lam == pytest.approx(0.09547, rel=1e-4)

    def test_running_out_of_steps_reports_the_last_change(self, monkeypatch, plane_128):
        monkeypatch.setattr(dgeom, "_EIGEN_MAXITER", 2)
        with pytest.raises(SolveError, match="did not converge") as err:
            first_eigenvalue_estimates(plane_128, [2.0])
        assert err.value.residual > 0.0

    def test_closed_component_inside_the_ball_is_singular(self, plane_128):
        mesh = _plane_with_octahedron(plane_128)
        with pytest.raises(DomainError, match="free block is singular: 6 free vertices"):
            first_eigenvalue_estimates(mesh, [2.0])


def _plane_with_octahedron(plane, center=(0.8, 0.8, 0.5), h=0.25):
    """The plane with a closed octahedron floating above it: a second
    component, wholly inside the ball of radius 2."""
    c = np.asarray(center)
    corners = c + h * np.array([[1, 0, 0], [0, 1, 0], [-1, 0, 0], [0, -1, 0],
                                [0, 0, 1], [0, 0, -1]], dtype=float)
    oct_faces = [[q, (q + 1) % 4, 4] for q in range(4)] + [[(q + 1) % 4, q, 5] for q in range(4)]
    n = len(plane.verts)
    return TriMesh(np.concatenate([plane.verts, corners]),
                   np.concatenate([plane.faces, np.array(oct_faces) + n]),
                   tags=np.concatenate([plane.tags, np.zeros(6, dtype=plane.tags.dtype)]))


def test_closed_octahedron_has_no_truncation_vertex(plane_128):
    mesh = _plane_with_octahedron(plane_128)
    derived = TriMesh(mesh.verts, mesh.faces).tags
    assert not derived[-6:].any()
    assert np.array_equal(derived, mesh.tags)  # the plane's window ring and no more


class TestEliminationRank:
    def test_repeatable(self, catenoid_96):
        one, two = elimination_tree(catenoid_96, 8.0), elimination_tree(catenoid_96, 8.0)
        for field in ("node", "parent", "depth", "boundary_ptr", "boundary"):
            assert np.array_equal(getattr(one, field), getattr(two, field)), field

    def test_no_vertex_inside(self, plane_128):
        tree = elimination_tree(plane_128, 0.0)
        assert len(tree.parent) == 0 and np.all(tree.node == -1)

    @pytest.mark.parametrize("case, radii", [("catenoid_96", (4.0, 8.0, 16.0)),
                                             ("helicoid_128", (4.5, 7.0, 9.5, 12.0))])
    def test_band_of_the_smallest_ball_is_the_root(self, request, case, radii):
        mesh = _mesh_case(request, case)
        tree = elimination_tree(mesh, radii)
        R1, R = min(radii), max(radii)
        reach = np.zeros(len(mesh.verts), dtype=bool)
        reach[mesh.faces[mesh.r[mesh.faces].max(axis=1) >= R1]] = True
        band = (mesh.r < R1) & reach
        interior = (mesh.r < R1) & ~band
        outside = (mesh.r >= R1) & (mesh.r < R)
        assert band.any() and interior.any() and outside.any()
        # the band is node 0, the only root, so every other node lies below it
        assert np.array_equal(tree.node == 0, band)
        assert tree.parent[0] == -1 and np.all(tree.parent[1:] >= 0)
        # the interior's nodes hold its vertices and no other
        assert np.all(tree.interior[tree.node[interior]])
        assert not np.any(tree.interior[tree.node[band | outside]])
        # no mesh edge joins the interior and the outside
        i, j, _ = surfaces._edge_counts(mesh.faces, len(mesh.verts))
        assert not np.any((interior[i] & outside[j]) | (outside[i] & interior[j]))

    @pytest.mark.parametrize("case, R", [("plane_128", 1.0), ("octahedron", 1.3),
                                         ("plane_128", (0.6, 1.0))])
    def test_tree_and_boundaries(self, request, case, R):
        mesh = _mesh_case(request, case)
        tree = elimination_tree(mesh, R)
        inside = mesh.r < np.max(R)
        assert np.array_equal(tree.node < 0, ~inside)
        # a child sits one depth below its parent, and its front is
        # eliminated at levels before its parent's front
        child = np.flatnonzero(tree.parent >= 0)
        assert np.array_equal(tree.depth[child], tree.depth[tree.parent[child]] + 1)
        f = dgeom._fronts(tree, np.flatnonzero(inside))
        c = np.flatnonzero(f.parent >= 0)
        position = np.arange(len(f.order))
        first = np.full(len(f.parent), len(f.order))
        last = np.full(len(f.parent), -1)
        np.minimum.at(first, f.front_of, position)
        np.maximum.at(last, f.front_of, position)
        assert len(c) and np.all(last[c] < first[f.parent[c]])
        # the boundary of a node: the ancestor vertices adjacent to its subtree
        i, j, _ = surfaces._edge_counts(mesh.faces, len(mesh.verts))
        keep = inside[i] & inside[j]
        neighbours = {}
        for a, b in zip(i[keep], j[keep]):
            neighbours.setdefault(a, set()).add(b)
            neighbours.setdefault(b, set()).add(a)
        members = {}
        for v in np.flatnonzero(inside):
            members.setdefault(tree.node[v], []).append(v)
        for s in range(len(tree.parent)):
            ancestors, subtree, up = set(), {s}, tree.parent[s]
            while up >= 0:
                ancestors.add(up)
                up = tree.parent[up]
            subtree |= {t for t in range(len(tree.parent)) if _has_ancestor(tree.parent, t, s)}
            touched = {w for t in subtree for v in members.get(t, ())
                       for w in neighbours.get(v, ())}
            expected = sorted(w for w in touched if tree.node[w] in ancestors)
            got = tree.boundary[tree.boundary_ptr[s]:tree.boundary_ptr[s + 1]]
            assert list(got) == expected, s

    @pytest.mark.parametrize("case", ["plane_128", "catenoid_96", "helicoid", "octahedron"])
    def test_search_matches_csgraph(self, request, case):
        mesh = _mesh_case(request, case)
        m = len(mesh.verts)
        i, j, _ = surfaces._edge_counts(mesh.faces, m)
        dead = np.random.default_rng(5).random(m) < 0.05
        for seen in (np.zeros(m, dtype=bool), dead):
            keep = ~seen[i] & ~seen[j]
            adj = sparse.csr_matrix((np.ones(2 * keep.sum()), (np.concatenate([i[keep], j[keep]]),
                                                              np.concatenate([j[keep], i[keep]]))),
                                    shape=(m, m))
            sources = np.flatnonzero(~seen)[[0, 7, 3]]
            rows = np.repeat(np.arange(m), np.diff(adj.indptr))  # CSR order
            order, level = dgeom._breadth_first(dgeom._adjacency(rows, adj.indices, m), sources,
                                                seen, levels=True)
            ref_order, ref_level = _csgraph_breadth_first(adj, sources)
            assert np.array_equal(order, ref_order)
            assert np.array_equal(level, ref_level)

    @pytest.mark.parametrize("case", ["plane_128", "catenoid_96", "helicoid", "octahedron"])
    def test_components_match_csgraph(self, request, case):
        mesh = _mesh_case(request, case)
        m = len(mesh.verts)
        i, j, _ = surfaces._edge_counts(mesh.faces[::3], m)  # a sparser graph, of many parts
        label = dgeom._components(i, j, m)
        graph = sparse.coo_matrix((np.ones(len(i)), (i, j)), shape=(m, m))
        _, ref = sparse.csgraph.connected_components(graph, directed=False)
        # the same parts, numbered in the same order: by their least vertex
        assert np.array_equal(np.unique(label, return_inverse=True)[1], ref)
        assert np.array_equal(label, np.arange(m)[_first_of_label(ref)][ref])


def _has_ancestor(parent, node, ancestor) -> bool:
    node = parent[node]
    while node >= 0:
        if node == ancestor:
            return True
        node = parent[node]
    return False


def _first_of_label(labels):
    """The least vertex of each label."""
    first = np.full(labels.max() + 1, len(labels))
    np.minimum.at(first, labels, np.arange(len(labels)))
    return first


def _mesh_case(request, case):
    if case == "sliver":
        return request.getfixturevalue("plane_with_sliver")(
            request.getfixturevalue("plane_128"), 1.0, 5e-14)
    if case == "helicoid":
        return _permuted_helicoid(64, seed=4, ext=8.0)
    if case == "helicoid_128":
        return _permuted_helicoid(128, seed=20)
    if case == "octahedron":
        return _plane_with_octahedron(request.getfixturevalue("plane_128"))
    return request.getfixturevalue(case)


def _csgraph_breadth_first(adj, sources):
    """Reference: scipy's breadth-first order from a super-source joined to
    each source, and the level of each vertex (1 at the sources)."""
    from scipy.sparse.csgraph import breadth_first_order
    m = adj.shape[0]
    g = sparse.csr_matrix((np.ones(adj.nnz + len(sources)),
                           np.concatenate([adj.indices, sources]),
                           np.append(adj.indptr, adj.indptr[-1] + len(sources))),
                          shape=(m + 1, m + 1))
    order, pred = breadth_first_order(g, m, return_predecessors=True)
    level = np.zeros(m + 1, dtype=np.int64)
    for v in order[1:]:
        level[v] = level[pred[v]] + 1
    return order[1:], level[order[1:]]


def _csgraph_end_components(mesh, R):
    """Reference: the end face masks of a csgraph labelling of the
    complement's components, in label order."""
    from scipy.sparse.csgraph import connected_components
    keep = (mesh.r > R)[mesh.faces].all(axis=1)
    sub = mesh.faces[keep]
    edges = np.concatenate([sub[:, [0, 1]], sub[:, [1, 2]], sub[:, [2, 0]]])
    n = len(mesh.verts)
    _, labels = connected_components(sparse.coo_matrix(
        (np.ones(len(edges)), (edges[:, 0], edges[:, 1])), shape=(n, n)), directed=False)
    face_label = labels[sub[:, 0]]
    masks = []
    for comp in np.unique(face_label):
        if (mesh.tags[np.unique(sub[face_label == comp])] == TAG_TRUNCATION).any():
            mask = np.zeros(len(mesh.faces), dtype=bool)
            mask[np.flatnonzero(keep)[face_label == comp]] = True
            masks.append(mask)
    return masks


class TestEnds:
    def test_plane_one_end(self, plane_128):
        assert end_components(plane_128, 1.0).count == 1

    def test_catenoid_two_ends(self, catenoid_96):
        assert end_components(catenoid_96, 3.0).count == 2

    def test_enneper_one_end(self, enneper_192):
        assert end_components(enneper_192, 3.0).count == 1

    def test_coverage_warning(self, plane_128):
        res = end_components(plane_128, 3.0)  # window reaches ~4.5 < 6
        assert res.warning is not None

    @pytest.mark.parametrize("case, R", [("plane_128", 1.0), ("catenoid_96", 3.0),
                                         ("helicoid", 3.0), ("octahedron", 0.5)])
    def test_masks_match_csgraph(self, request, case, R):
        # the order of the masks is the order of the report's end factors
        mesh = _mesh_case(request, case)
        got = end_components(mesh, R).face_masks
        ref = _csgraph_end_components(mesh, R)
        assert len(got) == len(ref) > 0
        assert all(np.array_equal(a, b) for a, b in zip(got, ref))

    def test_masks_partition_faces(self, catenoid_96):
        res = end_components(catenoid_96, 3.0)
        overlap = np.logical_and(res.face_masks[0], res.face_masks[1])
        assert not overlap.any()


class TestBoundaryLoops:
    def test_truncation_contact_flags_mixed_loop(self):
        reg = clip(_untagged(_strip_mesh()), 0.5, 3.0)
        # the window cuts the outer circle: its boundary mixes level and truncation
        for label in (LABEL_INNER, LABEL_OUTER, LABEL_TRUNCATION):
            assert reg.has_label(label)
        # corners, where the outer circle meets the window edge v = +-1, take
        # the level label although they also end truncation edges
        corner = (np.abs(np.abs(reg.verts[:, 1]) - 1.0) < 1e-12) & (np.abs(reg.r - 3.0) < 1e-9)
        assert corner.sum() == 4
        assert np.all(reg.vertex_label[corner] == LABEL_OUTER)
        edges = _boundary_edges(reg)
        touching = edges[corner[edges].any(axis=1)]
        assert (reg.vertex_label[touching] == LABEL_TRUNCATION).any()

    def test_closed_circles_stay_pure(self, plane_128):
        reg = clip(plane_128, 1.0, 2.0)
        assert set(np.unique(reg.vertex_label)) == {LABEL_INTERIOR, LABEL_INNER, LABEL_OUTER}

    @pytest.mark.parametrize("case", ["strip", "catenoid", "helicoid"])
    def test_labels_match_edge_loop_reference(self, case, catenoid_96):
        if case == "strip":
            reg = clip(_untagged(_strip_mesh()), 0.5, 3.0)
        elif case == "catenoid":
            reg = clip(catenoid_96, 1.5, 3.0)
        else:
            reg = clip(_untagged(_permuted_helicoid(48, seed=3, ext=3.0)), 1.0, 4.0)
        # reference: one boundary edge at a time, level labels winning corners
        expected = np.zeros(len(reg.verts), dtype=np.uint8)
        for a, b in _boundary_edges(reg):
            ends = reg.r[[a, b]]
            if reg.rho > 0 and np.all(np.abs(ends - reg.rho) <= 1e-9 * max(1.0, reg.rho)):
                code = LABEL_INNER
            elif np.all(np.abs(ends - reg.R) <= 1e-9 * max(1.0, reg.R)):
                code = LABEL_OUTER
            else:
                code = LABEL_TRUNCATION
            for v in (a, b):
                if expected[v] == LABEL_INTERIOR or (expected[v] == LABEL_TRUNCATION
                                                     and code != LABEL_TRUNCATION):
                    expected[v] = code
        assert np.array_equal(reg.vertex_label, expected)
