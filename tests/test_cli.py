import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import excomp
from excomp import dgeom, harness, modelspace, surfaces
from excomp.cli import main, make_model
from excomp.modelspace import QuadratureConfig


def run(args):
    return main(args)


class TestModelCommand:
    def test_capacity_printed(self, tmp_path, capsys):
        code = run(["model", "--dim", "2", "--warp", "sinh(r)", "--capacity", "1:2",
                    "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "12.5765" in out

    def test_model_csv_columns(self, tmp_path):
        run(["model", "--dim", "2", "--warp", "r", "--grid", "0.5:3:6",
             "--out", str(tmp_path), "--name", "flat"])
        csv = (tmp_path / "flat" / "model.csv").read_text().splitlines()
        assert csv[0].startswith("r [length],w [length],eta")
        assert len(csv) == 7

    def test_space_form_shorthand(self):
        ms = make_model(2, "b=-1")
        assert ms.warp.kind == "space_form" and ms.warp.b == -1.0
        assert make_model(2, "r").warp.kind == "space_form"

    def test_report_written(self, tmp_path):
        run(["model", "--dim", "3", "--warp", "r", "--out", str(tmp_path), "--name", "m3"])
        report = json.loads((tmp_path / "m3" / "report.json").read_text())
        assert report["scalars"]["parabolicity"]["verdict"] == "hyperbolic"

    def test_usage_error_is_exit_2(self):
        with pytest.raises(SystemExit) as err:
            run(["model", "--dim"])  # missing value
        assert err.value.code == 2

    def test_threads_flag_removed(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run(["model", "--threads", "2", "--out", str(tmp_path)])
        assert err.value.code == 2

    def test_computation_error_is_exit_3(self, tmp_path, capsys):
        code = run(["model", "--dim", "2", "--warp", "r", "--capacity", "2:1",
                    "--out", str(tmp_path)])
        assert code == 3
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--dim", "400"],
        ["--warp", "b=-1", "--grid", "1:1000:3"],
        ["--warp", "b=-1", "--exit-time", "1000"],
        ["--warp", "sinh(r)", "--capacity", "2:1e308"],
        ["--grid", "1:2:1e308"],
    ], ids=["dim-400", "b=-1-grid", "b=-1-exit-time", "sinh-capacity", "grid-1e308-radii"])
    def test_numeric_overflow_is_exit_3(self, tmp_path, capsys, flags):
        code = run(["model", *flags, "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("flags", [["--quad-rel-tol", "1e-300"], ["--quad-abs-tol", "0"],
                                       ["--quad-abs-tol", "-1"]])
    def test_quadrature_tolerance_out_of_range_is_exit_3(self, tmp_path, capsys, flags):
        code = run(["model", "--warp", "sinh(r)", "--capacity", "1:2", *flags,
                    "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error: quadrature tolerances") and err.count("\n") == 1

    @pytest.mark.parametrize("grid,code", [("", 2), ("1:5:3", 3)])
    def test_bad_grid_with_finite_lambda_writes_nothing(self, tmp_path, capsys, grid, code):
        assert run(["model", "--warp", "sin(r)", "--lambda", "3.14", f"--grid={grid}",
                    "--out", str(tmp_path), "--name", "m"]) == code
        assert capsys.readouterr().err.count("\n") == 1
        assert not (tmp_path / "m").exists()

    def test_every_integral_uses_the_runs_tolerances(self, tmp_path, monkeypatch):
        # the model holds one quadrature configuration, built from the flags
        received = {"_quad": [], "_quad_tail": []}
        for name, log in received.items():
            def recorded(*args, _real=getattr(modelspace, name), _log=log):
                _log.append(args[-1])
                return _real(*args)
            monkeypatch.setattr(modelspace, name, recorded)
        flags = ["--warp", "sinh(r)", "--quad-rel-tol", "1e-9", "--quad-abs-tol", "1e-11",
                 "--out", str(tmp_path)]
        assert run(["verify", "--surface", "plane", "--res", "32", *flags]) == 0
        assert run(["model", "--capacity", "1:2", "--exit-time", "2", "--grid", "0.5:30:20",
                    *flags]) == 0
        assert received["_quad"] and received["_quad_tail"]
        expected = QuadratureConfig(abs_tol=1e-11, rel_tol=1e-9)
        assert all(cfg == expected for log in received.values() for cfg in log)
        # the tolerances are still checked before --warp is parsed
        assert run(["model", "--quad-abs-tol", "0", "--warp", "b=x",
                    "--out", str(tmp_path)]) == 3

    def test_exit_time_start_radius(self, tmp_path, capsys):
        run(["model", "--exit-time", "2", "--out", str(tmp_path)])
        assert "mean_exit(2.0, start=0.0) = 1" in capsys.readouterr().out
        run(["model", "--exit-time", "2:1", "--out", str(tmp_path)])
        assert "mean_exit(2.0, start=1.0) = 0.75" in capsys.readouterr().out


class TestSurfaceCommand:
    def test_writes_off_and_sidecar(self, tmp_path):
        code = run(["surface", "--surface", "catenoid", "--a", "1", "--res", "32",
                    "--cover", "4", "--out", str(tmp_path), "--name", "cat"])
        assert code == 0
        sidecar = json.loads((tmp_path / "cat" / "mesh.json").read_text())
        assert sidecar["max_radius"] >= 4.0
        assert sidecar["minimality_residual_p95"] < 0.05
        assert (tmp_path / "cat" / "mesh.off").exists()

    @pytest.mark.parametrize("flags", [["--a", "inf"], ["--cover", "inf"], ["--a=-inf"],
                                       ["--cover", "nan"]])
    def test_non_finite_parameter_is_exit_3(self, tmp_path, capsys, flags):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(["surface", "--surface", "catenoid", "--res", "32", "--cover", "3",
                        *flags, "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "must be finite" in err

    def test_non_finite_vertex_is_exit_3(self, tmp_path, capsys):
        mesh = tmp_path / "nan.off"
        mesh.write_text("OFF\n4 2 0\n0 0 0\n1 0 nan\n1 1 0\n0 1 0\n3 0 1 2\n3 0 2 3\n")
        code = run(["quotients", "--mesh", str(mesh), "--grid", "0.2:0.9:4",
                    "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 3
        assert err == "error: line 4: non-finite vertex '1 0 nan'\n"

    @pytest.mark.parametrize("name,text", [
        ("latin.off", b"OFF\n# caf\xe9\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n"),
        ("latin.obj", b"# caf\xe9\nv 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n"),
    ], ids=["off", "obj"])
    def test_non_utf8_mesh_is_exit_3(self, tmp_path, capsys, name, text):
        mesh = tmp_path / name
        mesh.write_bytes(text)
        code = run(["surface", "--mesh", str(mesh), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 3
        assert "Traceback" not in err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(mesh) in err

    @pytest.mark.parametrize("command,flags", [
        ("surface", ["--surface", "helicoid", "--cover", "1e308"]),
        ("surface", ["--surface", "catenoid", "--a", "1e308"]),
        ("quotients", ["--surface", "plane", "--cover", "1e308"]),
    ], ids=["helicoid-cover", "catenoid-a", "quotients-plane-cover"])
    def test_huge_parameter_is_exit_3(self, tmp_path, capsys, command, flags):
        code = run([command, "--res", "16", *flags, "--out", str(tmp_path), "--name", "h"])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "h" / "mesh.off").exists()

    def test_ingest_roundtrip(self, tmp_path):
        run(["surface", "--surface", "plane", "--res", "16", "--cover", "2",
             "--out", str(tmp_path), "--name", "p"])
        code = run(["surface", "--mesh", str(tmp_path / "p" / "mesh.off"),
                    "--out", str(tmp_path), "--name", "p2"])
        assert code == 0


class TestQuotients:
    def test_plane_run(self, tmp_path, capsys):
        code = run(["quotients", "--surface", "plane", "--res", "64", "--cover", "3.2",
                    "--dim", "2", "--warp", "r", "--grid", "0.5:3:6",
                    "--out", str(tmp_path), "--name", "q"])
        assert code == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out
        csv = (tmp_path / "q" / "curves.csv").read_text().splitlines()
        assert csv[0].startswith("R [ambient length],vol_quotient")
        assert len(csv) == 7

    def test_byte_identical_reports(self, tmp_path):
        # run placement stays out of report.json
        args = ["quotients", "--surface", "plane", "--res", "48", "--cover", "3.2",
                "--dim", "2", "--warp", "r", "--grid", "0.5:3:5"]
        run(args + ["--out", str(tmp_path / "x"), "--name", "a"])
        run(args + ["--out", str(tmp_path / "y"), "--name", "rerun"])
        ra = (tmp_path / "x" / "a" / "report.json").read_bytes()
        rb = (tmp_path / "y" / "rerun" / "report.json").read_bytes()
        assert ra == rb
        meta = json.loads((tmp_path / "y" / "rerun" / "meta.json").read_text())
        assert (meta["out"], meta["name"]) == (str(tmp_path / "y"), "rerun")
        assert "threads" not in meta

    def test_report_names_the_mesh_file_not_its_directory(self, tmp_path):
        run(["surface", *_PLANE, "--out", str(tmp_path), "--name", "made"])
        reports = []
        for folder in ("a", "a_much_longer_folder"):
            mesh = tmp_path / folder / "p.off"
            mesh.parent.mkdir()
            mesh.write_bytes((tmp_path / "made" / "mesh.off").read_bytes())
            assert run(["quotients", "--mesh", str(mesh), "--grid", "0.5:1.5:4",
                        "--out", str(tmp_path), "--name", folder]) == 0
            reports.append((tmp_path / folder / "report.json").read_bytes())
            meta = json.loads((tmp_path / folder / "meta.json").read_text())
            assert meta["mesh"] == str(mesh)
        assert reports[0] == reports[1]
        assert json.loads(reports[0])["config"]["mesh"] == "p.off"

    def test_mesh_sidecar_names_the_mesh_file_not_its_directory(self, tmp_path):
        run(["surface", *_PLANE, "--out", str(tmp_path), "--name", "made"])
        sidecars = []
        for folder in ("a", "a_much_longer_folder"):
            mesh = tmp_path / folder / "p.off"
            mesh.parent.mkdir()
            mesh.write_bytes((tmp_path / "made" / "mesh.off").read_bytes())
            assert run(["surface", "--mesh", str(mesh), "--out", str(tmp_path),
                        "--name", folder + "_out"]) == 0
            sidecars.append((tmp_path / (folder + "_out") / "mesh.json").read_bytes())
        assert sidecars[0] == sidecars[1]
        assert json.loads(sidecars[0])["name"] == "p.off"


class TestVerify:
    def test_catenoid_hyperbolic_model_inconclusive_not_strict(self, tmp_path, capsys):
        args = ["verify", "--surface", "catenoid", "--a", "1", "--res", "48",
                "--cover", "8", "--dim", "2", "--warp", "sinh(r)",
                "--grid", "1.5:7:5", "--rho", "1.5", "--R", "4", "--t", "7",
                "--out", str(tmp_path), "--name", "gate"]
        code = run(args)
        out = capsys.readouterr().out
        assert "[INCONCLUSIVE]" in out
        assert code == 0  # inconclusive does not fail without --strict
        code2 = run(args + ["--strict"])
        assert code2 == 1

    def test_exit_zero_on_clean_run(self, tmp_path):
        code = run(["verify", "--surface", "catenoid", "--a", "1", "--res", "64",
                    "--cover", "12", "--dim", "2", "--warp", "r",
                    "--grid", "2:10:5", "--rho", "1.5", "--R", "6", "--t", "10",
                    "--out", str(tmp_path), "--name", "ok"])
        assert code == 0
        report = json.loads((tmp_path / "ok" / "report.json").read_text())
        assert report["summary"]["fail"] == 0
        assert (tmp_path / "ok" / "mesh.off").exists()
        meta = json.loads((tmp_path / "ok" / "meta.json").read_text())
        assert 0 < meta["main_thread_cpu_sec"] <= meta["cpu_sec"]

    def test_default_grid_starts_above_the_neck(self, tmp_path):
        # the catenoid's smallest radius is its neck, r = 1: a grid from
        # reach/20 would start in a ball that holds no face
        code = run(["verify", "--surface", "catenoid", "--res", "64", "--cover", "4",
                    "--dim", "2", "--warp", "r", "--R", "1.5",
                    "--out", str(tmp_path), "--name", "neck"])
        assert code == 0
        grid = json.loads((tmp_path / "neck" / "report.json").read_text())["curves"]["grid"]
        assert 1.0 < grid[0] < 1.5

    def test_default_grid_through_the_pole(self, tmp_path):
        run(["verify", "--surface", "plane", "--res", "16", "--cover", "2", "--dim", "2",
             "--warp", "r", "--out", str(tmp_path), "--name", "pole"])
        grid = json.loads((tmp_path / "pole" / "report.json").read_text())["curves"]["grid"]
        assert grid[0] == pytest.approx(grid[-1] / 19.0, rel=1e-12)  # reach/20 to 0.95 reach


class TestOncePerRun:
    """Each capacity solve, end split and gate radius of a run is computed
    once, however many checks read it."""

    @staticmethod
    def _count(monkeypatch, module, name) -> list:
        calls = []
        real = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        return calls

    def test_verify(self, tmp_path, monkeypatch):
        solves = self._count(monkeypatch, dgeom, "capacity_discrete")
        ends = self._count(monkeypatch, dgeom, "end_components")
        balance = self._count(monkeypatch, harness, "_balance_gate")
        sweeps = self._count(monkeypatch, dgeom.RadialIndex, "sweep")
        indexes = self._count(monkeypatch, dgeom, "RadialIndex")
        code = run(["verify", "--surface", "catenoid", "--a", "1", "--res", "64",
                    "--cover", "12", "--dim", "2", "--warp", "r", "--grid", "2:10:5",
                    "--rho", "1.5", "--R", "6", "--t", "9", "--R0", "2",
                    "--out", str(tmp_path)])
        assert code == 0
        assert len(solves) == 1
        assert len(ends) == 1
        # five gate sets read three radii: grid[-1] twice, R twice, t once
        assert sorted(args[1] for args in balance) == [6.0, 9.0, 10.0]
        # one index serves every ball area and flux; one sweep per quotient
        # curve, the run's and one for each of the catenoid's two ends
        assert len(indexes) == 1
        assert len(sweeps) == 3

    def test_capacity(self, tmp_path, monkeypatch):
        solves = self._count(monkeypatch, dgeom, "capacity_discrete")
        code = run(["capacity", "--surface", "plane", "--res", "64", "--cover", "3.2",
                    "--dim", "2", "--warp", "r", "--rho", "1.0", "--R", "2.0",
                    "--out", str(tmp_path)])
        assert code == 0
        assert len(solves) == 1


class TestConfigPrecedence:
    def test_flags_beat_config_beat_defaults(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dim": 3, "warp": "r", "name": "fromcfg"}))
        code = run(["model", "--config", str(cfg), "--dim", "2",
                    "--out", str(tmp_path)])
        assert code == 0
        # dim 2 from the flag, name from the config file
        report = json.loads((tmp_path / "fromcfg" / "report.json").read_text())
        assert report["scalars"]["dim"] == 2
        assert report["scalars"]["parabolicity"]["verdict"] == "parabolic"


@pytest.fixture
def plane_with_octahedron_off(tmp_path):
    """A 40 x 40 grid of the plane z = 0 over [-10, 10]^2 and, as a second
    component, a closed octahedron floating inside the ball of radius 4."""
    s = np.linspace(-10.0, 10.0, 41)
    X, Y = np.meshgrid(s, s, indexing="ij")
    verts = np.column_stack([X.ravel(), Y.ravel(), np.zeros(X.size)])
    idx = np.arange(X.size).reshape(X.shape)
    a, b = idx[:-1, :-1].ravel(), idx[1:, :-1].ravel()
    c, d = idx[1:, 1:].ravel(), idx[:-1, 1:].ravel()
    faces = np.concatenate([np.column_stack([a, b, c]), np.column_stack([a, c, d])])
    corners = np.array([2.0, 2.0, 1.0]) + 0.5 * np.array(
        [[1, 0, 0], [0, 1, 0], [-1, 0, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]])
    octahedron = [[q, (q + 1) % 4, 4] for q in range(4)] + [[(q + 1) % 4, q, 5] for q in range(4)]
    verts = np.concatenate([verts, corners])
    faces = np.concatenate([faces, np.array(octahedron) + X.size])
    path = tmp_path / "two.off"
    with open(path, "w") as fh:
        fh.write(f"OFF\n{len(verts)} {len(faces)} 0\n")
        np.savetxt(fh, verts, fmt="%.17g")
        np.savetxt(fh, faces, fmt="3 %d %d %d")
    return path


class TestOtherSubcommands:
    def test_capacity_subcommand(self, tmp_path, capsys):
        code = run(["capacity", "--surface", "plane", "--res", "64", "--cover", "3.2",
                    "--dim", "2", "--warp", "r", "--rho", "1.0", "--R", "2.0",
                    "--out", str(tmp_path), "--name", "cap"])
        assert code == 0
        out = capsys.readouterr().out
        assert "capacity: discrete" in out
        report = json.loads((tmp_path / "cap" / "report.json").read_text())
        assert report["scalars"]["capacity_model"] == pytest.approx(
            2 * 3.141592653589793 / 0.6931471805599453, rel=1e-9)

    def test_exit_time_subcommand(self, tmp_path):
        code = run(["exit-time", "--surface", "plane", "--res", "64", "--cover", "3.2",
                    "--dim", "2", "--warp", "r", "--R", "2.0",
                    "--out", str(tmp_path), "--name", "et"])
        assert code == 0

    @pytest.mark.parametrize("argv", [
        ["exit-time"],
        ["verify", "--grid", "1.1:4:6", "--rho", "1.1", "--t", "4", "--R0", "1.2"],
    ])
    def test_exit_time_with_an_empty_half_ball(self, tmp_path, argv):
        # the equality proxy probes R/2 = 0.75, below the catenoid's neck at r = 1
        code = run(argv + ["--surface", "catenoid", "--res", "64", "--cover", "4",
                           "--dim", "2", "--warp", "r", "--R", "1.5",
                           "--out", str(tmp_path), "--name", "et"])
        report = json.loads((tmp_path / "et" / "report.json").read_text())
        checks = {c["id"]: c for c in report["checks"]}
        assert checks["exit_time.domination"]["verdict"] == "pass"
        equality = checks["exit_time.equality_case"]
        assert equality["verdict"] == "inconclusive"
        assert equality["notes"] == ("no volume/flux quotients at R/2: "
                                     "the ball of radius 0.75 contains no face")
        if argv == ["exit-time"]:
            assert code == 0

    def test_ends_subcommand(self, tmp_path, capsys):
        code = run(["ends", "--surface", "catenoid", "--a", "1", "--res", "48",
                    "--cover", "11", "--dim", "2", "--warp", "r",
                    "--R", "2.0", "--t", "10.0", "--grid", "2:10:5",
                    "--out", str(tmp_path), "--name", "e"])
        assert code == 0
        assert "ends: count 2" in capsys.readouterr().out

    def test_tone_model_only(self, tmp_path, capsys):
        code = run(["tone", "--dim", "2", "--warp", "b=-1", "--grid", "0.5:30:60",
                    "--out", str(tmp_path), "--name", "t"])
        assert code == 0
        out = capsys.readouterr().out
        assert "lower 0.25" in out

    def test_parse_error_is_computation_error(self, tmp_path, capsys):
        code = run(["model", "--dim", "2", "--warp", "r + +", "--out", str(tmp_path)])
        assert code == 3
        assert "byte offset" in capsys.readouterr().err

    def test_closed_component_in_an_eigenvalue_ball_is_exit_3(self, tmp_path, capsys,
                                                               plane_with_octahedron_off):
        # the octahedron has no Dirichlet boundary, so the LU's free block is singular
        code = run(["tone", "--mesh", str(plane_with_octahedron_off), "--dim", "2",
                    "--warp", "r", "--grid", "1:8:6", "--R0", "1", "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 3
        assert "Traceback" not in err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_missing_mesh_file(self, tmp_path, capsys):
        code = run(["surface", "--mesh", str(tmp_path / "nope.off"),
                    "--out", str(tmp_path)])
        assert code == 3

    @pytest.mark.parametrize("argv", [
        ["surface", "--mesh", "{dir}", "--out", "{dir}"],
        ["model", "--dim", "2", "--warp", "r", "--grid", "0.5:3:5", "--out", "{file}"],
    ], ids=["mesh-is-a-directory", "out-is-a-file"])
    def test_file_system_error_is_exit_3(self, tmp_path, capsys, argv):
        (tmp_path / "F").write_text("")
        code = run([a.format(dir=tmp_path, file=tmp_path / "F") for a in argv])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error: ") and err.count("\n") == 1


_PLANE = ["--surface", "plane", "--res", "16", "--cover", "2"]


class TestValueErrors:
    """Values that do not parse are usage errors: exit 2, one error line."""

    def _usage_error(self, argv, capsys):
        code = run(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        return err

    def test_malformed_config_json(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{\"dim\": 2,")
        err = self._usage_error(["model", "--config", str(cfg), "--out", str(tmp_path)],
                                capsys)
        assert "not valid JSON" in err

    def test_non_integer_res(self, tmp_path, capsys):
        err = self._usage_error(["surface", "--surface", "plane", "--res", "1.5",
                                 "--cover", "2", "--out", str(tmp_path)], capsys)
        assert "--res" in err

    def test_non_numeric_pole(self, tmp_path, capsys):
        err = self._usage_error(["surface", "--surface", "plane", "--res", "16",
                                 "--cover", "2", "--pole", "0,zero,0",
                                 "--out", str(tmp_path)], capsys)
        assert "--pole" in err

    @pytest.mark.parametrize("pole", ["0,0,nan", "inf,0,0"])
    def test_non_finite_pole(self, tmp_path, capsys, pole):
        err = self._usage_error(["quotients", "--surface", "plane", "--res", "32",
                                 "--cover", "3", "--grid", "0.5:3:4", "--pole", pole,
                                 "--dim", "2", "--warp", "r", "--out", str(tmp_path)], capsys)
        assert "--pole" in err

    @pytest.mark.parametrize("warp", ["b=x", "b=", "b=nan", "b=-inf", "b=1,2"])
    def test_malformed_space_form_curvature(self, tmp_path, capsys, warp):
        err = self._usage_error(["model", "--dim", "2", "--warp", warp,
                                 "--out", str(tmp_path)], capsys)
        assert "--warp" in err

    def test_non_numeric_exit_time(self, tmp_path, capsys):
        err = self._usage_error(["model", "--exit-time", "two", "--out", str(tmp_path)],
                                capsys)
        assert "--exit-time" in err

    def _config_error(self, tmp_path, capsys, cfg):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        return self._usage_error(["model", "--config", str(path), "--out", str(tmp_path)],
                                 capsys)

    @pytest.mark.parametrize("key,value", [("dim", "two"), ("truncation", "never"), ("R0", 0)])
    def test_config_value_the_flag_rejects(self, tmp_path, capsys, key, value):
        err = self._config_error(tmp_path, capsys, {key: value})
        assert f"config key {key!r}" in err

    def test_config_unknown_key(self, tmp_path, capsys):
        err = self._config_error(tmp_path, capsys, {"foo": 1})
        assert "unknown config key 'foo'" in err

    def test_config_threads_key(self, tmp_path, capsys):
        err = self._config_error(tmp_path, capsys, {"threads": 2})
        assert "unknown config key 'threads'" in err

    @pytest.mark.parametrize("grid", ["1:2:x", "1:2"])
    def test_malformed_grid(self, tmp_path, capsys, grid):
        err = self._usage_error(["model", "--grid", grid, "--out", str(tmp_path)], capsys)
        assert "--grid" in err

    @pytest.mark.parametrize("command,flag,value", [
        pytest.param("model", "--grid", "1:inf:5", id="--grid-1:inf:5"),
        pytest.param("model", "--grid", "nan:2:5", id="--grid-nan:2:5"),
        pytest.param("model", "--capacity", "1:inf", id="--capacity-1:inf"),
        pytest.param("capacity", "--rho", "nan", id="capacity--rho-nan"),
        pytest.param("capacity", "--R", "inf", id="capacity--R-inf"),
        pytest.param("exit-time", "--R", "nan", id="exit-time--R-nan"),
        pytest.param("ends", "--t", "inf", id="ends--t-inf"),
        pytest.param("tone", "--R0", "-inf", id="tone--R0--inf"),
        pytest.param("verify", "--R0", "nan", id="verify--R0-nan"),
        # an ends split radius must also be positive
        pytest.param("tone", "--R0", "0", id="tone--R0-0"),
        pytest.param("verify", "--R0", "-1", id="verify--R0--1"),
    ])
    def test_non_finite_grid_or_capacity(self, tmp_path, capsys, command, flag, value):
        mesh = [] if command == "model" else ["--surface", "plane", "--res", "16",
                                              "--cover", "2"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            err = self._usage_error([command, *mesh, "--dim", "2", "--warp", "r",
                                     f"{flag}={value}", "--out", str(tmp_path)], capsys)
        assert flag in err and "finite" in err

    @pytest.mark.parametrize("argv", [
        ["model", "--grid="],
        ["model", "--capacity="],
        ["quotients", *_PLANE, "--grid="],
        ["ends", *_PLANE, "--R", "1", "--t", "1.5", "--grid="],
        ["tone", *_PLANE, "--grid="],
        ["verify", *_PLANE, "--grid="],
    ], ids=["model-grid", "model-capacity", "quotients", "ends", "tone", "verify"])
    def test_empty_grid_or_capacity(self, tmp_path, capsys, argv):
        err = self._usage_error([*argv, "--out", str(tmp_path)], capsys)
        assert argv[-1][:-1] in err

    @pytest.mark.parametrize("key", ["grid", "capacity"])
    def test_empty_config_grid_or_capacity(self, tmp_path, capsys, key):
        err = self._config_error(tmp_path, capsys, {key: ""})
        assert f"--{key}" in err

    @pytest.mark.parametrize("warp", ["r", "sinh(r)"])
    @pytest.mark.parametrize("value", ["nan", "-inf"])
    def test_lambda_nan_or_minus_inf(self, tmp_path, capsys, warp, value):
        err = self._usage_error(["model", "--warp", warp, f"--lambda={value}",
                                 "--out", str(tmp_path)], capsys)
        assert "--lambda" in err

    @pytest.mark.parametrize("value", [float("nan"), float("-inf")])
    def test_lambda_nan_or_minus_inf_in_config(self, tmp_path, capsys, value):
        err = self._config_error(tmp_path, capsys, {"lam": value})
        assert "config key 'lam'" in err

    def test_lambda_inf_is_the_default(self, tmp_path):
        assert run(["model", "--warp", "sinh(r)", "--lambda=inf", "--out", str(tmp_path)]) == 0

    def test_non_finite_config_radius(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text('{"t": Infinity}')
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            err = self._usage_error(["ends", "--config", str(path), "--surface", "plane",
                                     "--res", "16", "--cover", "2", "--R", "1",
                                     "--out", str(tmp_path)], capsys)
        assert "config key 't'" in err

    def test_malformed_capacity(self, tmp_path, capsys):
        err = self._usage_error(["model", "--capacity", "1", "--out", str(tmp_path)],
                                capsys)
        assert "--capacity" in err

    @pytest.mark.parametrize("value", ["nan", "1,inf", "1,x", "", "2,"])
    def test_malformed_refine(self, tmp_path, capsys, value):
        err = self._usage_error(["surface", "--surface", "plane", "--res", "16", "--cover", "2",
                                 f"--refine={value}", "--out", str(tmp_path)], capsys)
        assert "--refine" in err

    @pytest.mark.parametrize("value", ["8:8:8", "16:16:0"])
    def test_res_holds_one_or_two_numbers(self, tmp_path, capsys, value):
        err = self._usage_error(["surface", "--surface", "plane", f"--res={value}",
                                 "--out", str(tmp_path)], capsys)
        assert "--res" in err

    @pytest.mark.parametrize("value", ["2:0.5:9", "nan", "2:inf", ""])
    def test_malformed_exit_time(self, tmp_path, capsys, value):
        err = self._usage_error(["model", f"--exit-time={value}", "--out", str(tmp_path)],
                                capsys)
        assert "--exit-time" in err

    @pytest.mark.parametrize("flag", ["--quad-abs-tol", "--quad-rel-tol"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_quadrature_tolerance(self, tmp_path, capsys, flag, value):
        err = self._usage_error(["model", "--warp", "sinh(r)", "--capacity", "1:2",
                                 f"{flag}={value}", "--out", str(tmp_path)], capsys)
        assert flag in err and "finite" in err

    def test_non_finite_config_tolerance(self, tmp_path, capsys):
        err = self._config_error(tmp_path, capsys, {"quad_rel_tol": float("nan")})
        assert "config key 'quad_rel_tol'" in err

    @pytest.mark.parametrize("command", ["tone", "verify"])
    def test_absent_R0_takes_the_default(self, tmp_path, command):
        # tone splits the ends at the first grid radius, verify at rho (which
        # defaults to the first grid radius too)
        argv = [command, "--surface", "plane", "--res", "16", "--cover", "4",
                "--grid", "0.5:3:8", "--dim", "2", "--warp", "r", "--out", str(tmp_path)]
        scalars = []
        for name, extra in (("default", []), ("given", ["--R0", "0.5"])):
            run(argv + extra + ["--name", name])
            scalars.append(json.loads((tmp_path / name / "report.json").read_text())["scalars"])
        assert scalars[0] == scalars[1]


# Runs that need no solve and no quadrature; each must leave scipy unloaded
# (a space form's capacity and table are closed forms)
_NUMPY_ONLY = """
import sys
import excomp.cli, excomp

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

assert not scipy_modules(), ("import", scipy_modules())
out = sys.argv[1]
for argv in (["quotients", "--surface", "plane", "--res", "16", "--cover", "2",
              "--grid", "0.5:1.5:4", "--dim", "2", "--warp", "r"],
             ["surface", "--surface", "catenoid", "--res", "16", "--cover", "3"],
             ["model", "--dim", "2", "--warp", "r"],
             ["model", "--dim", "2", "--warp", "b=-1", "--capacity", "1:2",
              "--grid", "0.5:30:20"]):
    assert excomp.cli.main(argv + ["--out", out]) == 0, argv
    assert not scipy_modules(), (argv[0], scipy_modules())
"""


def _fresh_env(**settings) -> dict:
    """This process's environment with settings added and this checkout's
    sources first on PYTHONPATH, for a fresh interpreter."""
    src = str(Path(excomp.__file__).resolve().parents[1])
    env = dict(os.environ, **settings)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_numpy_only_runs_never_import_scipy(tmp_path):
    # a fresh interpreter, since this one has imported scipy for the tests
    proc = subprocess.run([sys.executable, "-c", _NUMPY_ONLY, str(tmp_path)],
                          env=_fresh_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def _openblas_threads() -> bool:
    """Whether numpy links OpenBLAS, on a Linux machine with two or more CPUs
    (so that OpenBLAS starts worker threads)."""
    if not sys.platform.startswith("linux") or len(os.sched_getaffinity(0)) < 2:
        return False
    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    return "openblas" in str(blas.get("name", "")).lower()


# CPU spent off the main thread from the start of a fresh interpreter to 0.3 s
# after its imports: what idle OpenBLAS workers burn while they spin
_OFF_MAIN_THREAD_CPU = """
import time
import excomp
{imports}
time.sleep(0.3)
print(time.process_time() - time.thread_time())
"""


@pytest.mark.skipif(not _openblas_threads(), reason="needs OpenBLAS on Linux with 2+ CPUs")
@pytest.mark.parametrize("imports", ["", "import scipy.sparse.linalg"])
def test_idle_openblas_workers_do_not_spin(imports):
    # OpenBLAS threads capped at 2, as the benchmark sets, and no timeout given
    env = _fresh_env(OPENBLAS_NUM_THREADS="2")
    env.pop("OPENBLAS_THREAD_TIMEOUT", None)
    proc = subprocess.run([sys.executable, "-c", _OFF_MAIN_THREAD_CPU.format(imports=imports)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 0.03


def test_openblas_settings_of_the_user_are_kept():
    env = _fresh_env(OPENBLAS_THREAD_TIMEOUT="7", OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", "import os, excomp; print(os.environ['OPENBLAS_THREAD_TIMEOUT'], "
                               "os.environ['OPENBLAS_NUM_THREADS'])"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["7", "1"]


# Edge tokens, and one plain value, for every numeric flag of `excomp model`;
# --grid, --capacity and --exit-time join two or three of them with ':'
_TOKENS = ("0", "-1", "1e-300", "1e3", "1e308", "nan", "inf", "", "junk", "2")


def _joined(count):
    return st.lists(st.sampled_from(_TOKENS), min_size=count, max_size=count).map(":".join)


_MODEL_FLAGS = {
    "--dim": st.sampled_from(_TOKENS + ("3",)),
    "--warp": st.sampled_from(("r", "sinh(r)")) | st.sampled_from(_TOKENS).map("b={}".format),
    "--lambda": st.sampled_from(_TOKENS),
    "--quad-abs-tol": st.sampled_from(_TOKENS),
    "--quad-rel-tol": st.sampled_from(_TOKENS),
    "--grid": _joined(3),
    "--capacity": _joined(2),
    "--exit-time": st.sampled_from(_TOKENS) | _joined(2),
}


# up to three flags a run, so that most runs get past the usage checks
_FLAG_SETS = st.lists(st.sampled_from(sorted(_MODEL_FLAGS)), max_size=3, unique=True).flatmap(
    lambda names: st.fixed_dictionaries({name: _MODEL_FLAGS[name] for name in names}))


@settings(max_examples=300)
@given(_FLAG_SETS)
def test_model_flags_keep_the_exit_contract(flags):
    """Exit 0, 2 (usage) or 3 (computation); never a traceback, and a nonzero
    exit prints exactly one error line."""
    argv = ["model"] + [f"{flag}={value}" for flag, value in flags.items()]
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(argv + ["--out", out])
        except SystemExit as exc:  # argparse rejects the value
            code = exc.code
    err = err.getvalue()
    assert code in (0, 2, 3), (argv, err)
    assert "Traceback" not in err
    if code:
        assert sum("error:" in line for line in err.splitlines()) == 1, (argv, err)


# Every numeric flag of the mesh subcommands; each run starts from values that
# get it through (--R, --t and --rho are required where a command uses them)
# and draws up to three flags over them
_MESH_COMMANDS = {
    "quotients": ([], ("--grid",)),
    "capacity": (["--rho", "1", "--R", "2"], ("--rho", "--R")),
    "exit-time": (["--R", "2"], ("--R",)),
    "ends": (["--R", "1", "--t", "3"], ("--R", "--t", "--grid")),
    "tone": (["--grid", "0.5:3:8"], ("--R0", "--grid")),
    "verify": ([], ("--rho", "--R", "--t", "--R0", "--grid")),
}
_MODEL_SIDE = ("--dim", "--warp", "--lambda", "--quad-abs-tol", "--quad-rel-tol")
_MESH_FLAGS = {
    **{flag: _MODEL_FLAGS[flag] for flag in _MODEL_SIDE + ("--grid",)},
    **{flag: st.sampled_from(_TOKENS + ("1", "3")) for flag in ("--rho", "--R", "--t", "--R0")},
}


def _mesh_runs(command):
    base, own = _MESH_COMMANDS[command]
    names = st.lists(st.sampled_from(sorted(_MODEL_SIDE + own)), max_size=3, unique=True)
    flags = names.flatmap(
        lambda chosen: st.fixed_dictionaries({name: _MESH_FLAGS[name] for name in chosen}))
    return flags.map(lambda drawn: (command, base, drawn))


@settings(max_examples=200)
@given(st.sampled_from(sorted(_MESH_COMMANDS)).flatmap(_mesh_runs))
def test_mesh_flags_keep_the_exit_contract(run_spec):
    """Exit 0, 1 only with a failed check in report.json, 2 (usage) or 3
    (computation); never a traceback, and exit 2 or 3 prints one error line."""
    command, base, flags = run_spec
    argv = ([command, "--surface", "plane", "--res", "16", "--cover", "4", *base]
            + [f"{flag}={value}" for flag, value in flags.items()])
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(argv + ["--out", out, "--name", "run"])
        except SystemExit as exc:  # argparse rejects the value
            code = exc.code
        report = Path(out) / "run" / "report.json"
        failed = report.exists() and json.loads(report.read_text())["summary"]["fail"] > 0
    err = err.getvalue()
    assert code in (0, 1, 2, 3), (argv, err)
    assert "Traceback" not in err
    assert (code == 1) == failed or code in (2, 3), (argv, err)
    if code in (2, 3):
        assert sum("error:" in line for line in err.splitlines()) == 1, (argv, err)


# Every numeric flag of the mesh builders, drawn over `surface` and
# `quotients` on the four builtins: small resolutions only (at most 24 per
# axis), edge tokens and malformed counts, never a size that allocates much
_SURFACE_FLAGS = {
    "--res": st.sampled_from(("8", "12", "24", "9:24", "24:8", "8:8:8", "7", "0", "-1",
                              "", "junk", "2.5", "8:", "1e3")),
    "--a": st.sampled_from(_TOKENS + ("0.5",)),
    "--c": st.sampled_from(_TOKENS + ("0.5",)),
    "--cover": st.sampled_from(_TOKENS + ("1", "4")),
    "--pole": st.sampled_from(("0,0,0", "0.5,0,0.5", "nan,0,0", "0,0", "1,2,3,4", "junk",
                               "", "1e308,0,0", "inf,0,0", "0,0,1e3")),
    "--refine": st.sampled_from(_TOKENS + ("1", "0.5,1.5", "1,nan")),
}
_SURFACE_RUNS = st.tuples(
    st.sampled_from(("surface", "quotients")), st.sampled_from(surfaces.BUILTIN_NAMES),
    st.lists(st.sampled_from(sorted(_SURFACE_FLAGS)), max_size=4, unique=True).flatmap(
        lambda names: st.fixed_dictionaries({name: _SURFACE_FLAGS[name] for name in names})))


@settings(max_examples=200)
@given(_SURFACE_RUNS)
def test_surface_flags_keep_the_exit_contract(run_spec):
    """Exit 0, 1 only with a failed check in report.json, 2 (usage) or 3
    (computation); never a traceback, and exit 2 or 3 prints one error line."""
    command, surface, flags = run_spec
    argv = ([command, "--surface", surface, "--res", "16"]
            + [f"{flag}={value}" for flag, value in flags.items()])
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(argv + ["--out", out, "--name", "run"])
        except SystemExit as exc:  # argparse rejects the value
            code = exc.code
        report = Path(out) / "run" / "report.json"
        failed = report.exists() and json.loads(report.read_text())["summary"]["fail"] > 0
    err = err.getvalue()
    assert code in (0, 1, 2, 3), (argv, err)
    assert "Traceback" not in err
    assert (code == 1) == failed or code in (2, 3), (argv, err)
    if code in (2, 3):
        assert sum("error:" in line for line in err.splitlines()) == 1, (argv, err)
    if flags.get("--res", "").count(":") > 1:  # NU:NV at most
        assert code == 2, (argv, err)
