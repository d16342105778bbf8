import io
import math
import os
import tempfile
import threading
import warnings
from contextlib import redirect_stderr
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from excomp import surfaces
from excomp.errors import DomainError, ExcompError, MeshFormatError, NonManifoldError
from excomp.surfaces import (TAG_TRUNCATION, TriMesh, builtin, load_mesh, minimality_residual,
                             tessellate)


class TestBuiltins:
    def test_plane_point(self):
        s = builtin("plane")
        assert np.allclose(s.points(np.array(1.0), np.array(2.0)), [1.0, 2.0, 0.0])

    def test_catenoid_point(self):
        s = builtin("catenoid", a=1.0)
        assert np.allclose(s.points(np.array(0.0), np.array(0.0)), [1.0, 0.0, 0.0])

    def test_enneper_origin(self):
        s = builtin("enneper")
        assert np.allclose(s.points(np.array(0.0), np.array(0.0)), [0.0, 0.0, 0.0])

    def test_helicoid_point(self):
        s = builtin("helicoid", c=0.5)
        assert np.allclose(s.points(np.array(math.pi / 2), np.array(2.0)),
                           [0.0, 2.0, math.pi / 4], atol=1e-12)

    def test_unknown_name(self):
        with pytest.raises(DomainError):
            builtin("scherk")

    def test_bad_params(self):
        with pytest.raises(DomainError):
            builtin("catenoid", a=-1.0)

    @pytest.mark.parametrize("key", ["a", "c", "cover_radius", "extent"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("name", ["catenoid", "helicoid"])
    def test_non_finite_params(self, name, key, value):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=f"{key} must be finite"):
                builtin(name, **{key: value})

    def test_coverage_sized_windows(self):
        for name in ("plane", "catenoid", "helicoid", "enneper"):
            s = builtin(name, cover_radius=5.0)
            assert s.boundary_min_radius() >= 5.0

    @pytest.mark.parametrize("cover", [0.5, 5.0, 12.0, 30.0])
    def test_enneper_extent_is_the_first_square_that_covers(self, cover):
        # reference: the square grown by 8% until a surface built on it covers
        fn = builtin("enneper").fn
        E = 1.0
        while surfaces.ParamSurface("enneper", fn, -E, E, -E, E).boundary_min_radius() < 1.1 * cover:
            E *= 1.08
        s = builtin("enneper", cover_radius=cover)
        assert (s.u0, s.u1, s.v0, s.v1) == (-E, E, -E, E)
        if cover == 12.0:
            assert s.u1 == 3.425942643334134


class TestTessellate:
    def test_plane_counts_and_reach(self):
        s = builtin("plane", extent=4.0)
        mesh = tessellate(s, 64, 64)
        assert len(mesh.faces) == 2 * 64 * 64
        assert mesh.max_r() == pytest.approx(4 * math.sqrt(2), rel=1e-12)

    def test_plane_area_exact(self):
        s = builtin("plane", extent=4.0)
        mesh = tessellate(s, 32, 32)
        assert mesh.area() == pytest.approx(64.0, rel=1e-12)

    def test_catenoid_reach(self):
        mesh = tessellate(builtin("catenoid", a=1.0, extent=3.0), 64, 64)
        assert mesh.max_r() >= math.cosh(3.0)

    def test_min_resolution(self):
        with pytest.raises(DomainError):
            tessellate(builtin("plane"), 4, 64)

    def test_r_recomputable_bit_identical(self, plane_128):
        assert np.array_equal(plane_128.r,
                              np.linalg.norm(plane_128.verts - plane_128.pole, axis=1))

    def test_truncation_tags_on_rectangle_edges(self):
        mesh = tessellate(builtin("plane", extent=2.0), 16, 16)
        trunc = mesh.tags == TAG_TRUNCATION
        assert trunc.sum() == 4 * 16  # boundary ring
        assert np.isclose(mesh.r[trunc].min(), 2.0)

    def test_catenoid_is_stitched_closed_in_u(self):
        mesh = tessellate(builtin("catenoid", a=1.0, extent=2.0), 32, 32)
        # only the two v-edges are boundary: 2 * nu boundary vertices
        assert int(mesh.boundary_vertex_mask().sum()) == 2 * 32

    def test_refinement_splits_marked_band(self):
        s = builtin("plane", extent=4.0)
        base = tessellate(s, 16, 16)
        ref = tessellate(s, 16, 16, refine_near=[2.0])
        assert len(ref.faces) > len(base.faces)
        ref._validate()  # still manifold and consistently oriented

    def test_refinement_coverage_error(self):
        from excomp.errors import CoverageError
        with pytest.raises(CoverageError):
            tessellate(builtin("plane", extent=2.0), 16, 16, refine_near=[5.0])

    def test_orientation_validated(self):
        verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]], float)
        faces = np.array([[0, 1, 2], [1, 3, 2]])
        surfaces.TriMesh(verts, faces)  # consistent
        with pytest.raises(DomainError):
            surfaces.TriMesh(verts, np.array([[0, 1, 2], [1, 2, 3]]))


def _refine_once_reference(surface, verts, faces, tags, uv, pole, radii):
    """The per-face loop refinement that surfaces._refine_once replaced, kept
    as its reference: the same vertices, faces and tags in the same order."""
    r = np.linalg.norm(verts - pole, axis=1)
    fr = r[faces]
    lo, hi = fr.min(axis=1), fr.max(axis=1)
    marked_face = np.zeros(len(faces), dtype=bool)
    for rad in radii:
        marked_face |= (lo <= rad) & (hi >= rad)

    n = len(verts)
    edges = np.concatenate([faces[:, [0, 1]], faces[:, [1, 2]], faces[:, [2, 0]]])
    ekeys = np.sort(edges, axis=1)
    ekeys = ekeys[:, 0] * np.int64(n) + ekeys[:, 1]
    split = {}

    def mark_edges_of(face_mask):
        for k in np.unique(ekeys.reshape(3, -1)[:, face_mask]):
            split[int(k)] = None

    mark_edges_of(marked_face)
    # propagate: a face with 2+ split edges becomes fully split
    face_ekeys = ekeys.reshape(3, -1).T
    while True:
        counts = np.isin(face_ekeys, np.fromiter(split.keys(), dtype=np.int64)).sum(axis=1)
        promote = (counts >= 2) & ~marked_face
        if not promote.any():
            break
        marked_face |= promote
        mark_edges_of(promote)

    period_u = surface.u1 - surface.u0 if surface.periodic_u else None
    period_v = surface.v1 - surface.v0 if surface.periodic_v else None

    new_uv = []
    for k in split:
        i, j = int(k // n), int(k % n)
        a, b = uv[i].copy(), uv[j].copy()
        if period_u is not None and abs(a[0] - b[0]) > period_u / 2:
            if a[0] < b[0]:
                a[0] += period_u
            else:
                b[0] += period_u
        if period_v is not None and abs(a[1] - b[1]) > period_v / 2:
            if a[1] < b[1]:
                a[1] += period_v
            else:
                b[1] += period_v
        split[k] = n + len(new_uv)
        new_uv.append(0.5 * (a + b))
    new_uv = np.array(new_uv).reshape(-1, 2)
    mids = surface.points(new_uv[:, 0], new_uv[:, 1]) if len(new_uv) else np.zeros((0, 3))

    # midpoint tags: truncation only when the edge lies on the truncation boundary
    uniqk, counts = np.unique(ekeys, return_counts=True)
    boundary_keys = set(uniqk[counts == 1].tolist())
    new_tags = []
    for k, idx in split.items():
        i, j = int(k // n), int(k % n)
        if k in boundary_keys and tags[i] == TAG_TRUNCATION and tags[j] == TAG_TRUNCATION:
            new_tags.append(TAG_TRUNCATION)
        else:
            new_tags.append(surfaces.TAG_INTERIOR)

    out = []
    for fidx, tri in enumerate(faces):
        ks = [int(x) for x in face_ekeys[fidx]]
        m01, m12, m20 = (split.get(ks[0]), split.get(ks[1]), split.get(ks[2]))
        a, b, c = (int(x) for x in tri)
        if marked_face[fidx]:
            out += [(a, m01, m20), (m01, b, m12), (m20, m12, c), (m01, m12, m20)]
        else:
            present = [m is not None for m in (m01, m12, m20)]
            if not any(present):
                out.append((a, b, c))
            else:
                # green bisection through the single split edge
                if m01 is not None:
                    out += [(a, m01, c), (m01, b, c)]
                elif m12 is not None:
                    out += [(a, b, m12), (a, m12, c)]
                else:
                    out += [(a, b, m20), (m20, b, c)]
    verts = np.concatenate([verts, mids])
    uv = np.concatenate([uv, new_uv])
    tags = np.concatenate([tags, np.array(new_tags, dtype=np.uint8)])
    return verts, np.array(out, dtype=np.int64), tags, uv


# 1 to 3 radii per surface; most of the plane, helicoid and Enneper cases
# promote faces over 7 to 30 rounds, and the catenoid's split rings cross its
# periodic seam
_REFINE_CASES = {
    "plane": [(1.39,), (2.54, 3.28), (2.78, 3.25, 3.83)],
    "catenoid": [(2.19,), (2.3, 2.98), (0.39, 2.79, 3.7)],
    "helicoid": [(2.15,), (0.95, 1.42), (1.72, 2.06, 2.67)],
    "enneper": [(0.88,), (1.86, 2.8), (1.14, 2.16, 3.22)],
}


class TestRefineMatchesReference:
    @pytest.mark.parametrize("name,radii", [(name, radii) for name, cases in
                                            _REFINE_CASES.items() for radii in cases])
    def test_bit_identical(self, name, radii):
        s = builtin(name, cover_radius=5.0)
        mesh = tessellate(s, 40, 36, refine_near=radii)
        with mock.patch.object(surfaces, "_refine_once", _refine_once_reference):
            ref = tessellate(s, 40, 36, refine_near=radii)
        assert len(mesh.faces) > 2 * 40 * 36
        for got, want in ((mesh.verts, ref.verts), (mesh.faces, ref.faces),
                          (mesh.tags, ref.tags)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_window_corners_bit_identical(self):
        # radii out at the window's corners, past what tessellate's coverage
        # check allows, split the diagonals that join two truncation vertices
        # through the interior; their midpoints are interior
        s = builtin("plane", extent=3.0)
        grid = tessellate(s, 12, 10)
        args = (s, grid.verts, grid.faces, grid.tags, grid.verts[:, :2].copy(), grid.pole,
                (4.0, 4.2))
        got, want = surfaces._refine_once(*args), _refine_once_reference(*args)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape
            assert g.tobytes() == w.tobytes()

    def test_no_face_meets_the_radius(self):
        s = builtin("plane", extent=4.0)
        mesh = tessellate(s, 16, 16, refine_near=[-1.0])
        base = tessellate(s, 16, 16)
        assert mesh.verts.tobytes() == base.verts.tobytes()
        assert mesh.faces.tobytes() == base.faces.tobytes()


# OFF text for the block parse against the line parser: a small grid of quads
# written as triangles, quads or a mix, in assorted float forms, with comments,
# blank lines, colour columns and, sometimes, one corrupted line

_FLOAT_FORMS = (repr, "%.17g".__mod__, "%.4g".__mod__, "%.6e".__mod__, "%.3E".__mod__)
_COMMENTS = ("", "# comment", "#", "   # indented 1 2 3", "#3 0 1 2")
_FAULTS = ("nan vertex", "bad token", "short face", "short vertices", "digon", "float colour",
           "truncated")


@st.composite
def _off_texts(draw):
    nu, nv = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    idx = np.arange((nu + 1) * (nv + 1)).reshape(nu + 1, nv + 1)
    quads = np.stack([idx[:-1, :-1], idx[1:, :-1], idx[1:, 1:], idx[:-1, 1:]],
                     axis=-1).reshape(-1, 4).tolist()
    shape = draw(st.sampled_from(["triangles", "quads", "mixed"]))
    polys = []
    for a, b, c, d in quads:
        if shape == "triangles" or (shape == "mixed" and draw(st.booleans())):
            polys += [[a, b, c], [a, c, d]]
        else:
            polys.append([a, b, c, d])
    value = st.floats(-1e6, 1e6) | st.sampled_from([-0.0, 0.0, 5e-324, 1e-300, 1e5])
    sep = st.sampled_from([" ", "  ", "\t"])
    colours = draw(st.sampled_from(["none", "uniform", "ragged"]))
    width = draw(st.integers(1, 3))

    def extra():
        n = {"none": 0, "uniform": width, "ragged": draw(st.integers(0, 3))}[colours]
        return [str(draw(st.integers(0, 255))) for _ in range(n)]

    lines = [draw(st.sampled_from(_COMMENTS)) for _ in range(draw(st.integers(0, 2)))]
    lines += ["OFF"] + [draw(st.sampled_from(_COMMENTS)) for _ in range(draw(st.integers(0, 2)))]
    lines.append(f"{idx.size} {len(polys)} 0")
    rows = [[draw(st.sampled_from(_FLOAT_FORMS))(draw(value)) for _ in range(3)] + extra()
            for _ in range(idx.size)]
    rows += [[str(len(poly))] + [str(i) for i in poly] + extra() for poly in polys]
    fault = draw(st.none() | st.sampled_from(_FAULTS))
    if fault == "nan vertex":
        vertex = rows[draw(st.integers(0, idx.size - 1))]
        vertex[draw(st.integers(0, 2))] = draw(st.sampled_from(["nan", "-inf", "1e999"]))
    elif fault == "bad token":
        rows[draw(st.integers(0, len(rows) - 1))][draw(st.integers(0, 2))] = "1.0.0"
    elif fault == "short face":
        rows[-1] = rows[-1][:3]
    elif fault == "short vertices":
        rows[:idx.size] = [tokens[:2] for tokens in rows[:idx.size]]
    elif fault == "digon":
        rows[-1] = ["2"] + rows[-1][1:3]
    elif fault == "float colour":
        rows[-1].append("0.5")
    elif fault == "truncated":
        rows = rows[:draw(st.integers(0, len(rows) - 1))]
    for tokens in rows:
        inline = draw(st.sampled_from(_COMMENTS))
        lines += [draw(st.sampled_from(_COMMENTS)) for _ in range(draw(st.integers(0, 1)))]
        lines.append(draw(sep).join(tokens) + (" " + inline if inline else ""))
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines) + "\n"


def _line_parser_mesh(path):
    """The mesh of an OFF file read by the line parser alone, fanned polygon
    by polygon and tagged from its own edge count: the reference for the
    block parse, the array fan and the tags taken from validation."""
    with mock.patch.object(surfaces, "_off_blocks", return_value=None):
        verts, corners, sizes = surfaces._read_off(path)
    faces, start = [], 0
    for k in sizes.tolist():
        poly = corners[start:start + k].tolist()
        faces += [(poly[0], poly[j], poly[j + 1]) for j in range(1, k - 1)]
        start += k
    mesh = TriMesh(verts, np.array(faces, dtype=np.int64).reshape(-1, 3))
    f = mesh.faces
    und = np.sort(np.concatenate([f[:, [0, 1]], f[:, [1, 2]], f[:, [2, 0]]]), axis=1)
    edges, counts = np.unique(und, axis=0, return_counts=True)
    tags = np.zeros(len(verts), dtype=np.uint8)
    tags[edges[counts == 1].ravel()] = TAG_TRUNCATION
    return TriMesh(mesh.verts, mesh.faces, tags=tags)


def _outcome(load, path):
    """The mesh load gives, or the type and message of its error."""
    try:
        return load(path)
    except ExcompError as exc:
        return type(exc), str(exc)


class TestLoadMesh:
    def test_off_square(self, tmp_path):
        p = tmp_path / "square.off"
        p.write_text("OFF\n4 2 0\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n3 0 1 2\n3 0 2 3\n")
        mesh = load_mesh(p)
        assert len(mesh.verts) == 4 and len(mesh.faces) == 2
        assert np.allclose(mesh.r, [0.0, 1.0, math.sqrt(2), 1.0])
        assert np.all(mesh.tags == TAG_TRUNCATION)  # every vertex on the boundary

    def test_obj_quad_fan(self, tmp_path):
        p = tmp_path / "quad.obj"
        p.write_text("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n")
        mesh = load_mesh(p)
        assert len(mesh.faces) == 2

    def test_nonmanifold_edge_listed(self, tmp_path):
        p = tmp_path / "bad.off"
        p.write_text("OFF\n5 3 0\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n0 -1 0\n"
                     "3 0 1 2\n3 1 0 3\n3 0 1 4\n")
        with pytest.raises(NonManifoldError) as err:
            load_mesh(p)
        assert (0, 1) in err.value.edges

    def test_malformed_reports_line(self, tmp_path):
        p = tmp_path / "bad2.off"
        p.write_text("OFF\n2 0 0\n0 0 0\nnot a number here\n")
        with pytest.raises(MeshFormatError) as err:
            load_mesh(p)
        assert err.value.lineno == 4

    def test_missing_header(self, tmp_path):
        p = tmp_path / "noheader.off"
        p.write_text("4 2 0\n")
        with pytest.raises(MeshFormatError):
            load_mesh(p)

    @pytest.mark.parametrize("name,text,lineno", [
        ("nan.off", "OFF\n3 1 0\n0 0 0\n# a comment\n1 0 nan\n0 1 0\n3 0 1 2\n", 5),
        ("inf.off", "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1e999 0\n3 0 1 2\n", 5),
        ("nan.obj", "v 0 0 0\nv 1 0 0\nv 0 -inf 0\nf 1 2 3\n", 3),
    ])
    def test_non_finite_vertex_reports_line(self, tmp_path, name, text, lineno):
        p = tmp_path / name
        p.write_text(text)
        with pytest.raises(MeshFormatError, match="non-finite vertex") as err:
            load_mesh(p)
        assert err.value.lineno == lineno

    def test_plain_blocks_skip_line_parser(self, tmp_path):
        # uniform blocks, with comments and blank lines inside, are parsed whole
        p = tmp_path / "quads.off"
        p.write_text("# header\nOFF\n6 2 0\n0 0 0\n1 0 0 # inline\n2 0 0\n\n"
                     "# between\n2 1 0\n1 1 0\n0 1 0\n4 0 1 4 5 9 9\n# x\n4 1 2 3 4 9 9\n")
        with mock.patch.object(surfaces, "_polygon_arrays", side_effect=AssertionError), \
                warnings.catch_warnings():
            warnings.simplefilter("error")
            mesh = load_mesh(p)
        assert mesh.faces.tolist() == [[0, 1, 4], [0, 4, 5], [1, 2, 3], [1, 3, 4]]
        assert np.array_equal(mesh.verts[4], [1.0, 1.0, 0.0])

    @pytest.mark.parametrize("text,error,match", [
        ("OFF\n", MeshFormatError, "malformed count line None"),
        ("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 99999999999999999999999\n",
         DomainError, "face index out of range"),
        ("OFF\n3 0 0\n0 0 0\n1 0 0\n0 1 0\n", DomainError, "no faces"),
    ])
    def test_degenerate_files_raise(self, tmp_path, text, error, match):
        p = tmp_path / "degenerate.off"
        p.write_text(text)
        with pytest.raises(error, match=match):
            load_mesh(p)

    def test_mixed_sizes_in_even_columns(self, tmp_path):
        # a triangle with a colour column beside a quad: same width, not one block
        p = tmp_path / "mixed.off"
        p.write_text("OFF\n5 2 0\n0 0 0\n1 0 0\n2 0 0\n2 1 0\n1 1 0\n"
                     "3 0 1 4 7\n4 1 2 3 4\n")
        assert load_mesh(p).faces.tolist() == [[0, 1, 4], [1, 2, 3], [1, 3, 4]]

    def test_two_column_vertices_report_line(self, tmp_path):
        p = tmp_path / "flat.off"
        p.write_text("OFF\n3 1 0\n0 0\n1 0\n0 1\n3 0 1 2\n")
        with pytest.raises(MeshFormatError, match="malformed vertex") as err:
            load_mesh(p)
        assert err.value.lineno == 3

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_reads_from_a_pipe(self, tmp_path):
        p = tmp_path / "square.off"
        os.mkfifo(p)
        writer = threading.Thread(target=p.write_text, args=(
            "OFF\n4 2 0\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n3 0 1 2\n3 0 2 3\n",), daemon=True)
        writer.start()
        try:
            mesh = load_mesh(p)
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()
        assert mesh.faces.tolist() == [[0, 1, 2], [0, 2, 3]]

    @given(_off_texts())
    def test_block_parse_matches_line_parser(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "mesh.off")
            with open(path, "w", newline="") as fh:
                fh.write(text)
            expected = _outcome(_line_parser_mesh, path)
            with warnings.catch_warnings(record=True) as caught, \
                    redirect_stderr(io.StringIO()) as err:
                warnings.simplefilter("always")
                got = _outcome(load_mesh, path)
        assert not caught and err.getvalue() == ""
        if isinstance(expected, TriMesh):
            assert isinstance(got, TriMesh), got
            assert got.verts.tobytes() == expected.verts.tobytes()  # bit for bit, -0.0 too
            assert np.array_equal(got.faces, expected.faces)
            assert np.array_equal(got.tags, expected.tags)
        else:
            assert got == expected

    def test_pole_offset(self, tmp_path):
        p = tmp_path / "square.off"
        p.write_text("OFF\n4 2 0\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n3 0 1 2\n3 0 2 3\n")
        mesh = load_mesh(p, pole=(1.0, 0.0, 0.0))
        assert np.allclose(mesh.r, [1.0, 0.0, 1.0, math.sqrt(2)])


def _sphere_band_mesh(n=96):
    # unit-sphere band away from the poles: non-minimal control surface
    def sphere(u, v):
        return (np.cos(u) * np.cos(v), np.sin(u) * np.cos(v), np.sin(v))

    s = surfaces.ParamSurface("sphere_band", sphere, 0.0, 2 * math.pi, -1.2, 1.2,
                              periodic_u=True)
    return tessellate(s, n, n, pole=(0.0, 0.0, 0.0))


class TestMinimalityResidual:
    def test_plane_is_flat(self, plane_128):
        assert minimality_residual(plane_128) < 1e-10

    def test_unit_sphere_reads_two(self):
        assert minimality_residual(_sphere_band_mesh()) == pytest.approx(2.0, rel=0.02)

    def test_catenoid_small_and_decreasing(self):
        s = builtin("catenoid", a=1.0, extent=2.0)
        coarse = minimality_residual(tessellate(s, 64, 64))
        fine = minimality_residual(tessellate(s, 128, 128))
        assert fine <= 5e-3
        assert fine < coarse / 1.8  # about first order or better

    def test_enneper_decreasing(self):
        s = builtin("enneper", extent=2.0)
        coarse = minimality_residual(tessellate(s, 48, 48))
        fine = minimality_residual(tessellate(s, 96, 96))
        assert fine < coarse / 1.8

    def test_helicoid_decreasing(self):
        s = builtin("helicoid", c=1.0, extent=3.0)
        coarse = minimality_residual(tessellate(s, 48, 48))
        fine = minimality_residual(tessellate(s, 96, 96))
        assert fine < coarse / 1.8


def _save_off_per_row(mesh, path):
    """The per-row OFF writer save_off replaced: the reference for its bytes."""
    with open(path, "w") as fh:
        fh.write("OFF\n")
        fh.write(f"{len(mesh.verts)} {len(mesh.faces)} 0\n")
        for p in mesh.verts:
            fh.write(f"{float(p[0])!r} {float(p[1])!r} {float(p[2])!r}\n")
        for t in mesh.faces:
            fh.write(f"3 {t[0]} {t[1]} {t[2]}\n")


class TestSaveOff:
    def test_bytes_match_per_row_writer(self, tmp_path):
        # more rows than one chunk, awkward values at the ends of the chunks
        base = tessellate(builtin("plane", extent=2.0), 64, 64)
        verts = base.verts * np.random.default_rng(7).lognormal(0.0, 20.0, base.verts.shape)
        awkward = [-0.0, 1e-300, 1e17, 5e-324, -5e-324, 1e150, 0.1, -1e-7]
        for row in (0, 4095, 4096, len(verts) - 1):
            verts[row] = np.random.default_rng(row).choice(awkward, 3)
        mesh = TriMesh(verts, base.faces)
        mesh.save_off(tmp_path / "chunked.off")
        _save_off_per_row(mesh, tmp_path / "per_row.off")
        assert ((tmp_path / "chunked.off").read_bytes()
                == (tmp_path / "per_row.off").read_bytes())

    def test_roundtrip(self, tmp_path):
        mesh = tessellate(builtin("plane", extent=2.0), 8, 8)
        path = tmp_path / "out.off"
        mesh.save_off(path)
        back = load_mesh(path)
        assert np.array_equal(back.faces, mesh.faces)
        assert np.allclose(back.verts, mesh.verts, rtol=0, atol=0)
        assert np.array_equal(back.r, mesh.r)
