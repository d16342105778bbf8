import json
import warnings

import pytest

from excomp.cli import main, make_model


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
        assert (tmp_path / "ok" / "meta.json").exists()


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

    def test_missing_mesh_file(self, tmp_path, capsys):
        code = run(["surface", "--mesh", str(tmp_path / "nope.off"),
                    "--out", str(tmp_path)])
        assert code == 3


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

    @pytest.mark.parametrize("key,value", [("dim", "two"), ("truncation", "never")])
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

    @pytest.mark.parametrize("flag,value", [("--grid", "1:inf:5"), ("--grid", "nan:2:5"),
                                            ("--capacity", "1:inf")])
    def test_non_finite_grid_or_capacity(self, tmp_path, capsys, flag, value):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            err = self._usage_error(["model", "--dim", "2", "--warp", "r", flag, value,
                                     "--out", str(tmp_path)], capsys)
        assert flag in err and "finite" in err

    def test_malformed_capacity(self, tmp_path, capsys):
        err = self._usage_error(["model", "--capacity", "1", "--out", str(tmp_path)],
                                capsys)
        assert "--capacity" in err
