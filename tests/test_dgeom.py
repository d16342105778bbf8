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
                          ball_area, capacity_discrete, clip, elimination_rank, end_components,
                          exit_time_discrete, first_eigenvalue_estimate, flux, solve_dirichlet)
from excomp.errors import CoverageError, DomainError, SolveError, TruncationContactError
from excomp.surfaces import TAG_TRUNCATION, TriMesh, builtin, cotangent_laplacian, tessellate


def _strip_mesh():
    strip = surfaces.ParamSurface(
        "strip", lambda u, v: (u, v, np.zeros_like(u + v)), -4.0, 4.0, -1.0, 1.0)
    return tessellate(strip, 64, 16)


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
    mesh = TriMesh(verts, faces)
    tags = np.where(mesh.boundary_vertex_mask(), TAG_TRUNCATION, 0)
    return TriMesh(verts, faces, tags=tags)


def _boundary_edges(reg):
    f = reg.faces
    und = np.sort(np.concatenate([f[:, [0, 1]], f[:, [1, 2]], f[:, [2, 0]]]), axis=1)
    edges, counts = np.unique(und, axis=0, return_counts=True)
    return edges[counts == 1]


class TestRadialGradientNorm:
    def test_plane_through_pole_is_one(self, plane_128):
        vals = dgeom.radial_gradient_norms(plane_128.verts, plane_128.faces,
                                           plane_128.pole)
        assert np.allclose(vals, 1.0, rtol=0, atol=1e-12)

    def test_orthogonal_face_is_zero(self):
        verts = np.array([[1, 0, 1], [-0.5, math.sqrt(3) / 2, 1],
                          [-0.5, -math.sqrt(3) / 2, 1]], float)
        vals = dgeom.radial_gradient_norms(verts, np.array([[0, 1, 2]]), np.zeros(3))
        assert vals[0] < 1e-12

    def test_catenoid_neck_faces_small(self, catenoid_96):
        # faces whose vertices straddle the neck circle r = a = 1
        fr = catenoid_96.r[catenoid_96.faces]
        neck = np.flatnonzero((fr.min(axis=1) < 1.0 + 1e-9) & (fr.max(axis=1) < 1.01))
        assert len(neck)
        vals = dgeom.radial_gradient_norms(catenoid_96.verts,
                                           catenoid_96.faces[neck], catenoid_96.pole)
        assert vals.max() < 0.1

    def test_always_in_unit_interval(self, catenoid_96):
        vals = dgeom.radial_gradient_norms(catenoid_96.verts, catenoid_96.faces,
                                           catenoid_96.pole)
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
        mesh = tessellate(builtin("plane", extent=4.0), 64, 64)
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
    whole = clip(mesh, 0.0, R).area()
    parts = clip(mesh, 0.0, rho).area() + clip(mesh, rho, R).area()
    assert parts == pytest.approx(whole, rel=1e-9)


@pytest.fixture(scope="module")
def helicoid_64():
    return _permuted_helicoid(64, seed=3)


def _radius(mesh, s, snap) -> float:
    """A radius up to 5% past the mesh, or, by snap, a vertex radius or one
    ulp to either side of it."""
    R = 1.05 * mesh.max_r() * s
    if snap is not None:
        rv = mesh.r[np.argmin(np.abs(mesh.r - R))]
        R = np.nextafter(rv, snap * np.inf) if snap else rv
    return float(R)


@pytest.mark.parametrize("end", [False, True])
@pytest.mark.parametrize("mesh_name,ends_at", [("plane_128", 1.0), ("catenoid_96", 2.0),
                                               ("helicoid_64", 2.0)])
@given(s=st.floats(0.0, 1.0), snap=st.sampled_from([None, -1, 0, 1]))
def test_ball_area_matches_clip(request, mesh_name, ends_at, end, s, snap):
    # radii run past the window: where clip succeeds the areas agree, and
    # where clip raises, ball_area raises the same error
    mesh = request.getfixturevalue(mesh_name)
    mask = end_components(mesh, ends_at).face_masks[0] if end else None
    R = _radius(mesh, s, snap)
    try:
        expected = clip(mesh, 0.0, R, face_mask=mask).area()
    except CoverageError as exc:
        with pytest.raises(CoverageError) as err:
            ball_area(mesh, R, face_mask=mask)
        assert str(err.value) == str(exc)
        return
    except DomainError:
        with pytest.raises(DomainError):
            ball_area(mesh, R, face_mask=mask)
        return
    assert ball_area(mesh, R, face_mask=mask) == pytest.approx(expected, rel=1e-12)


def test_ball_area_errors(catenoid_96):
    # the nearest truncation vertex of the masked strip lies at r = edge, so
    # the window leaks from one ulp above edge on, with clip's message
    mesh = _strip_mesh()
    trunc = mesh.tags == TAG_TRUNCATION
    mask = ~(trunc & (mesh.r > 1.2))[mesh.faces].any(axis=1)
    edge = float(mesh.r[mesh.faces[mask]][trunc[mesh.faces[mask]]].min())
    above = float(np.nextafter(edge, np.inf))
    with pytest.raises(CoverageError) as err:
        ball_area(mesh, above, face_mask=mask)
    with pytest.raises(CoverageError) as ref:
        clip(mesh, 0.0, above, face_mask=mask)
    assert str(err.value) == str(ref.value)
    assert ball_area(mesh, edge, face_mask=mask) == pytest.approx(
        clip(mesh, 0.0, edge, face_mask=mask).area(), rel=1e-12)
    # a ball at or below the smallest vertex radius has no face
    rmin = float(catenoid_96.r.min())
    for R in (-1.0, 0.0, 0.5 * rmin, rmin, math.nan):
        with pytest.raises(DomainError):
            ball_area(catenoid_96, R)


@pytest.mark.parametrize("mesh_name", ["plane_128", "catenoid_96", "helicoid_64"])
@given(s=st.floats(0.0, 1.0), t=st.floats(0.0, 1.0))
def test_ball_area_monotone_in_R(request, mesh_name, s, t):
    mesh = request.getfixturevalue(mesh_name)
    lo = float(mesh.r.min()) + 1e-3
    hi = float(mesh.r[mesh.tags == TAG_TRUNCATION].min())
    small, large = (lo + (hi - lo) * x for x in sorted((s, t)))
    assert ball_area(mesh, small) <= ball_area(mesh, large) * (1.0 + 1e-12)


def _flux_by_face_scan(mesh, R, faces):
    """Reference flux: every face is scanned and each face R cuts adds its
    level segment, interpolated along each edge that changes side, times
    |grad r| from the face normal."""
    rf = mesh.r[faces]
    total = 0.0
    for face in faces[(rf < R).any(axis=1) & (rf >= R).any(axis=1)]:
        below = mesh.r[face] < R
        ends = []
        for i, j in ((0, 1), (1, 2), (2, 0)):
            if below[i] != below[j]:
                a, b = face[i], face[j]
                t = (R - mesh.r[a]) / (mesh.r[b] - mesh.r[a])
                ends.append(mesh.verts[a] + t * (mesh.verts[b] - mesh.verts[a]))
        p = mesh.verts[face]
        d = p.mean(axis=0) - mesh.pole
        n = np.cross(p[1] - p[0], p[2] - p[0])
        cos = float(d @ n) / (np.linalg.norm(d) * np.linalg.norm(n))
        total += math.sqrt(max(1.0 - cos * cos, 0.0)) * float(np.linalg.norm(ends[0] - ends[1]))
    return total


@pytest.mark.parametrize("end", [False, True])
@pytest.mark.parametrize("mesh_name,ends_at", [("plane_128", 1.0), ("catenoid_96", 2.0),
                                               ("helicoid_64", 2.0)])
@given(s=st.floats(0.0, 1.0), snap=st.sampled_from([None, -1, 0, 1]))
def test_flux_matches_face_scan(request, mesh_name, ends_at, end, s, snap):
    mesh = request.getfixturevalue(mesh_name)
    mask = end_components(mesh, ends_at).face_masks[0] if end else None
    R = _radius(mesh, s, snap)
    if not R > 0:
        with pytest.raises(DomainError):
            flux(mesh, R, face_mask=mask)
        return
    faces = mesh.faces if mask is None else mesh.faces[mask]
    rt = mesh.r[faces][mesh.tags[faces] == TAG_TRUNCATION]
    if np.any((rt > 0) & (rt < R)):  # the level crosses the window: clip's error
        with pytest.raises(CoverageError) as err:
            flux(mesh, R, face_mask=mask)
        with pytest.raises(CoverageError) as ref:
            clip(mesh, 0.0, R, face_mask=mask)
        assert str(err.value) == str(ref.value)
        return
    # abs covers levels within ulps of a vertex, whose segments are rounding-sized
    assert flux(mesh, R, face_mask=mask) == pytest.approx(
        _flux_by_face_scan(mesh, R, faces), rel=1e-12, abs=1e-12)


def _outcome(compute):
    """compute()'s value, or the type and message of the error it raised."""
    try:
        return compute()
    except (CoverageError, DomainError) as exc:
        return type(exc), str(exc)


def _per_radius(mesh, radii, mask):
    """Every ball area, then every flux, one radius at a time."""
    return ([ball_area(mesh, R, face_mask=mask) for R in radii],
            [flux(mesh, R, face_mask=mask) for R in radii])


@pytest.mark.parametrize("end", [False, True])
@pytest.mark.parametrize("mesh_name,ends_at", [("plane_128", 1.0), ("catenoid_96", 2.0),
                                               ("helicoid_64", 2.0)])
@given(picks=st.lists(st.tuples(st.floats(0.0, 1.0), st.sampled_from([None, -1, 0, 1])),
                      min_size=1, max_size=4))
def test_sweep_matches_clip_and_face_scan(request, mesh_name, ends_at, end, picks):
    mesh = request.getfixturevalue(mesh_name)
    mask = end_components(mesh, ends_at).face_masks[0] if end else None
    radii = [_radius(mesh, s, snap) for s, snap in picks]
    swept = _outcome(lambda: dgeom.radial_index(mesh).sweep(radii, mask))
    loop = _outcome(lambda: _per_radius(mesh, radii, mask))
    if isinstance(loop[0], type):  # the loop raised: the sweep raises the same
        assert swept == loop
        return
    faces = mesh.faces if mask is None else mesh.faces[mask]
    for R, area, level_flux in zip(radii, *swept):
        assert area == pytest.approx(clip(mesh, 0.0, R, face_mask=mask).area(), rel=1e-12)
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
    index = dgeom.radial_index(mesh)
    areas, fluxes = index.sweep(radii, mask)
    for i, R in enumerate(radii):
        area, level_flux = index.sweep([R], mask)
        assert areas[i] == area[0] == ball_area(mesh, R, face_mask=mask)
        assert fluxes[i] == level_flux[0] == flux(mesh, R, face_mask=mask)


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
    swept = _outcome(lambda: dgeom.radial_index(catenoid_96).sweep(radii, mask))
    assert swept == _outcome(lambda: _per_radius(catenoid_96, radii, mask))
    assert error in swept[1]
    if error == "intrudes":
        assert swept[1].endswith("band (0, 25)")


def test_sweep_raises_gradient_errors_after_area_errors(plane_128):
    # the pole at a face centroid: a level cutting that face has no flux
    centroids = plane_128.verts[plane_128.faces].mean(axis=1)
    face = plane_128.faces[np.argmin(np.linalg.norm(centroids, axis=1))]
    mesh = TriMesh(plane_128.verts, plane_128.faces, pole=plane_128.verts[face].mean(axis=0),
                   tags=plane_128.tags)
    rv = np.sort(mesh.r[face])
    R = float(rv[0] + rv[2]) / 2.0
    assert ball_area(mesh, R) > 0.0
    for radii, error in (([R, 1.0], "centroid coincides with the pole"),
                         ([1.0, R], "centroid coincides with the pole"),
                         ([R, 1.0, 100.0], "intrudes")):
        swept = _outcome(lambda: dgeom.radial_index(mesh).sweep(radii))
        assert swept == _outcome(lambda: _per_radius(mesh, radii, None))
        assert error in swept[1]


def test_one_radial_index_per_mesh(monkeypatch):
    builds = []
    init = dgeom.RadialIndex.__init__

    def counted(self, mesh):
        builds.append(mesh)
        init(self, mesh)

    monkeypatch.setattr(dgeom.RadialIndex, "__init__", counted)
    mesh = _strip_mesh()
    x = mesh.verts[mesh.faces][:, :, 0]
    right, left = x.min(axis=1) > -0.5, x.max(axis=1) < 0.5
    for mask in (None, right, left, right.copy()):
        for R in (0.3, 0.6, 0.9):
            ball_area(mesh, R, face_mask=mask)
            flux(mesh, R, face_mask=mask)
        dgeom.radial_index(mesh).sweep([0.3, 0.6, 0.9], mask)
    assert builds == [mesh]


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
        assert np.array_equal(dgeom.radial_gradient_norms(v, f, mesh.pole),
                              np.sqrt(np.clip(1.0 - dot * dot, 0.0, 1.0)))
        inside = f[mesh.r[f].max(axis=1) < 6.0]
        for faces in (f, inside):
            assert np.array_equal(np.flatnonzero(np.bincount(faces.ravel(), minlength=len(v))),
                                  np.unique(faces))


class TestFlux:
    def test_level_must_be_positive(self, plane_128):
        for R in (-1.0, 0.0, math.nan):
            with pytest.raises(DomainError):
                flux(plane_128, R)

    def test_plane_circle(self, plane_256):
        assert flux(plane_256, 2.0) == pytest.approx(4 * math.pi, rel=5e-3)

    def test_catenoid_neck_flux_vanishes(self, catenoid_96, catenoid_192):
        coarse = flux(catenoid_96, 1.0)
        fine = flux(catenoid_192, 1.0)
        assert coarse < 0.1 * 2 * math.pi
        assert fine < 0.6 * coarse  # decreasing under refinement

    def test_catenoid_flux_equals_volume_quotient(self, catenoid_96):
        # Euclidean ambient identity at R = 20
        R = 20.0
        vol_q = clip(catenoid_96, 0.0, R).area() / (math.pi * R * R)
        flux_q = flux(catenoid_96, R) / (2 * math.pi * R)
        assert flux_q == pytest.approx(vol_q, rel=1e-2)

    def test_coarea_derivative(self, plane_256):
        # d/dR of the radial Dirichlet energy over D_R equals the flux
        R, h = 2.0, 0.05
        e_hi = dgeom.radial_energy(plane_256, clip(plane_256, 0.0, R + h))
        e_lo = dgeom.radial_energy(plane_256, clip(plane_256, 0.0, R - h))
        fd = (e_hi - e_lo) / (2 * h)
        assert fd == pytest.approx(flux(plane_256, R), rel=0.03)


class TestLaplacianWeights:
    def test_single_equilateral_triangle(self):
        # hand value for one triangle: off-diagonal -cot(pi/3)/2 = -1/(2 sqrt 3)
        verts = np.array([[0, 0, 0], [1, 0, 0], [0.5, math.sqrt(3) / 2, 0]])
        K, _ = cotangent_laplacian(verts, np.array([[0, 1, 2]]))
        K = K.toarray()
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
        assert K[0, 1] == pytest.approx(-1.0 / math.sqrt(3), rel=1e-12)

    def test_square_grid_five_point_stencil(self):
        mesh = tessellate(builtin("plane", extent=4.0), 8, 8)  # unit squares
        K, _ = cotangent_laplacian(mesh.verts, mesh.faces)
        K = K.tocsr()
        # interior vertex: axis neighbors -1, diagonal neighbors 0, center 4
        inner = np.flatnonzero(~mesh.boundary_vertex_mask())
        i = int(inner[len(inner) // 2])
        row = K.getrow(i).toarray().ravel()
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
        assert np.abs(K.toarray() - ref).max() <= 1e-15 * np.abs(ref).max()

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
        cap = capacity_discrete(clip(catenoid_192, 1.5, 6.0), truncation="error")
        assert cap.capacity == pytest.approx(exact, rel=0.02)

    def test_figure_claim_capacity_ratio_in_one_two(self, catenoid_192):
        cap = capacity_discrete(clip(catenoid_192, 1.5, 6.0))
        ratio = cap.capacity / (2 * math.pi / math.log(4.0))
        assert 1.0 - 0.03 < ratio < 2.0 * 1.03

    def test_resolution_guard(self, plane_128):
        with pytest.raises(DomainError):
            capacity_discrete(clip(plane_128, 1.0, 1.02))

    def test_truncation_policies(self):
        # a strip window whose truncation boundary crosses the band: the
        # reflect policy treats it as a zero-Neumann wall, error refuses
        mesh = _strip_mesh()
        with pytest.raises(CoverageError):
            clip(mesh, 0.5, 3.0)
        reg = clip(mesh, 0.5, 3.0, allow_truncation=True)
        assert reg.has_label(dgeom.LABEL_TRUNCATION)
        with pytest.raises(TruncationContactError):
            capacity_discrete(reg, truncation="error")
        cap = capacity_discrete(reg, truncation="reflect")
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


def test_solvers_call_the_module_level_cg_and_splu(monkeypatch, plane_128):
    # dgeom.cg and dgeom.splu are the names a caller wraps to watch the solves
    calls = {"cg": 0, "splu": 0}
    for name in calls:
        real = getattr(dgeom, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(dgeom, name, counted)
    reg = clip(plane_128, 1.0, 2.0)
    solve_dirichlet(dgeom.assemble_laplacian(reg, {"inner": 0.0, "outer": 1.0}))
    assert calls == {"cg": 1, "splu": 0}
    first_eigenvalue_estimate(reg, elimination_rank(plane_128, 2.0))
    assert calls == {"cg": 1, "splu": 1}


def _free_block(region):
    """The free block of the (0, 1) annulus system, its right-hand side and
    its inverse diagonal, as solve_dirichlet builds them."""
    system = dgeom.assemble_laplacian(region, {"inner": 0.0, "outer": 1.0})
    free = system.free_mask()
    field = np.zeros(len(free))
    field[system.constrained] = system.values
    Kf = system.K[free]
    return Kf[:, free], -Kf[:, ~free] @ field[~free], 1.0 / Kf[:, free].diagonal()


class TestConjugateGradients:
    def test_matches_scipy(self, plane_256):
        from scipy.sparse.linalg import cg as scipy_cg
        Kff, rhs, inv_diag = _free_block(clip(plane_256, 1.0, math.e))
        runs = []
        for solver, M in ((scipy_cg, sparse.diags(inv_diag)), (dgeom.cg, inv_diag)):
            iters = []
            x, info = solver(Kff, rhs, rtol=1e-10, atol=0.0, maxiter=5000, M=M,
                             callback=lambda xk: iters.append(1))
            assert info == 0
            runs.append((x, len(iters)))
        (x_scipy, n_scipy), (x, n) = runs
        assert n == n_scipy > 100
        assert np.abs(x - x_scipy).max() <= 1e-12 * np.abs(x_scipy).max()

    def test_zero_rhs_returns_zeros(self, plane_128):
        Kff, rhs, inv_diag = _free_block(clip(plane_128, 1.0, 2.0))
        x, info = dgeom.cg(Kff, np.zeros_like(rhs), rtol=1e-10, atol=0.0, maxiter=10,
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
import scipy.sparse.linalg  # loading it starts scipy's BLAS threads; not timed
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


def _nested_dissection_eigenvalue(mesh, R, rank):
    """first_eigenvalue_estimate on the ball of radius R in the order of
    rank, with its number of inverse-power steps and its LU's fill."""
    steps, fill = [], []
    real = dgeom.splu

    class Counted:
        def __init__(self, lu):
            self.lu = lu
            fill.append(lu.L.nnz + lu.U.nnz)

        def solve(self, b):
            steps.append(1)
            return self.lu.solve(b)

    dgeom.splu = lambda *args, **kwargs: Counted(real(*args, **kwargs))
    try:
        return first_eigenvalue_estimate(clip(mesh, 0.0, R), rank), len(steps), fill[0]
    finally:
        dgeom.splu = real


def _colamd_eigenvalue(region):
    """Reference: the same inverse power iteration on scipy's default LU of
    the free block (COLAMD column order, partial pivoting), unpermuted."""
    from scipy.sparse.linalg import splu
    system = dgeom.assemble_laplacian(region, {"inner": 0.0, "outer": 0.0, "truncation": 0.0})
    free = system.free_mask()
    Kff = system.K[free][:, free].tocsc()
    mf = system.mass[free]
    lu = splu(Kff)
    x = np.ones(len(mf))
    x /= math.sqrt(float((x * x * mf).sum()))
    lam_prev = None
    for step in range(1, dgeom._EIGEN_MAXITER + 1):
        x = lu.solve(mf * x)
        x /= math.sqrt(float((x * x * mf).sum()))
        lam = dgeom._dot(x, Kff @ x) / float((x * x * mf).sum())
        if lam_prev is not None and abs(lam - lam_prev) <= dgeom._EIGEN_TOL * abs(lam):
            return lam, step, lu.L.nnz + lu.U.nnz
        lam_prev = lam
    raise AssertionError("the reference did not converge")


class TestEigenvalue:
    def test_unit_disc_bessel(self, plane_256):
        lam = first_eigenvalue_estimate(clip(plane_256, 0.0, 1.0), elimination_rank(plane_256, 1.0))
        j01 = float(special.jn_zeros(0, 1)[0])
        assert lam == pytest.approx(j01 ** 2, rel=0.02)

    def test_scaling_law(self, plane_256):
        rank = elimination_rank(plane_256, 2.0)
        lam1 = first_eigenvalue_estimate(clip(plane_256, 0.0, 1.0), rank)
        lam2 = first_eigenvalue_estimate(clip(plane_256, 0.0, 2.0), rank)
        assert lam2 == pytest.approx(lam1 / 4.0, rel=0.02)

    def test_catenoid_decreasing_to_zero_trend(self, catenoid_96):
        rank = elimination_rank(catenoid_96, 16.0)
        lams = [first_eigenvalue_estimate(clip(catenoid_96, 0.0, R), rank)
                for R in (4.0, 8.0, 16.0)]
        assert lams[0] > lams[1] > lams[2]

    @pytest.mark.parametrize("case, radii", [("plane_256", (1.0, 2.0)),
                                             ("catenoid_96", (4.0, 8.0, 16.0))])
    def test_matches_the_colamd_factorization(self, request, case, radii):
        # one order, that of the largest ball, serves every ball inside it
        mesh = request.getfixturevalue(case)
        rank = elimination_rank(mesh, radii[-1])
        for R in radii:
            lam, steps, _ = _nested_dissection_eigenvalue(mesh, R, rank)
            ref, ref_steps, _ = _colamd_eigenvalue(clip(mesh, 0.0, R))
            assert lam == pytest.approx(ref, rel=1e-12, abs=0.0)
            assert steps == ref_steps

    @pytest.mark.parametrize("case, R", [("catenoid", 16.0), ("helicoid", 12.0)])
    def test_fill_below_colamd(self, catenoid_96, case, R):
        mesh = catenoid_96 if case == "catenoid" else _permuted_helicoid(128, seed=20)
        _, _, colamd = _colamd_eigenvalue(clip(mesh, 0.0, R))
        _, _, fill = _nested_dissection_eigenvalue(mesh, R, elimination_rank(mesh, R))
        assert fill < colamd

    def test_running_out_of_steps_reports_the_last_change(self, monkeypatch, plane_128):
        monkeypatch.setattr(dgeom, "_EIGEN_MAXITER", 2)
        with pytest.raises(SolveError, match="did not converge") as err:
            first_eigenvalue_estimate(clip(plane_128, 0.0, 2.0), elimination_rank(plane_128, 2.0))
        assert err.value.residual > 0.0

    def test_closed_component_inside_the_ball_is_singular(self, plane_128):
        mesh = _plane_with_octahedron(plane_128)
        with pytest.raises(DomainError, match="free block is singular: 6 free vertices"):
            first_eigenvalue_estimate(clip(mesh, 0.0, 2.0), elimination_rank(mesh, 2.0))


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


class TestEliminationRank:
    @pytest.mark.parametrize("case, R", [("plane_128", 2.0), ("catenoid_96", 8.0),
                                         ("helicoid", 6.0), ("octahedron", 2.0)])
    def test_a_permutation_of_the_inside_vertices_first(self, request, case, R):
        if case == "helicoid":
            mesh = _permuted_helicoid(64, seed=4, ext=8.0)
        elif case == "octahedron":
            mesh = _plane_with_octahedron(request.getfixturevalue("plane_128"))
        else:
            mesh = request.getfixturevalue(case)
        rank = elimination_rank(mesh, R)
        inside = mesh.r < R
        assert np.array_equal(np.sort(rank[inside]), np.arange(inside.sum()))
        assert np.array_equal(np.sort(rank[~inside]), np.arange(inside.sum(), len(rank)))

    def test_repeatable(self, catenoid_96):
        assert np.array_equal(elimination_rank(catenoid_96, 8.0),
                              elimination_rank(catenoid_96, 8.0))

    def test_no_vertex_inside(self, plane_128):
        assert np.array_equal(elimination_rank(plane_128, 0.0), np.arange(len(plane_128.verts)))


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

    def test_masks_partition_faces(self, catenoid_96):
        res = end_components(catenoid_96, 3.0)
        overlap = np.logical_and(res.face_masks[0], res.face_masks[1])
        assert not overlap.any()


class TestBoundaryLoops:
    def test_truncation_contact_flags_mixed_loop(self):
        reg = clip(_strip_mesh(), 0.5, 3.0, allow_truncation=True)
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
            reg = clip(_strip_mesh(), 0.5, 3.0, allow_truncation=True)
        elif case == "catenoid":
            reg = clip(catenoid_96, 1.5, 3.0)
        else:
            reg = clip(_permuted_helicoid(48, seed=3, ext=3.0), 1.0, 4.0,
                       allow_truncation=True)
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
