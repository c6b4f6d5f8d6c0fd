import pytest

from gausslink.cli import EXIT_CONFIG, EXIT_OK, main
from gausslink.heatmap import emit_heatmap
from gausslink.sweeps import ConfigError, parse_config, run_sweep

SMALL_MAP = """
[sweep]
experiment = fig2d_eof_map
output = map.csv
emit_svg = true

[axis C_om]
min = 1
max = 8
points = 5

[axis C_em]
min = 0.2
max = 2
points = 4
"""


@pytest.fixture
def map_config(tmp_path):
    path = tmp_path / "map.ini"
    path.write_text(SMALL_MAP, encoding="utf-8")
    return path


class TestCliSweep:
    def test_success_and_svg(self, map_config, tmp_path, capsys):
        code = main(["sweep", str(map_config), "--out", str(tmp_path)])
        assert code == EXIT_OK
        assert (tmp_path / "map.csv").exists()
        assert (tmp_path / "map.svg").exists()
        out = capsys.readouterr().out
        assert "map.csv" in out

    def test_reports_the_row_count(self, map_config, tmp_path, capsys):
        assert main(["sweep", str(map_config), "--out", str(tmp_path)]) == EXIT_OK
        assert f"wrote {tmp_path / 'map.csv'} (20 rows)" in capsys.readouterr().out

    def test_svg_flag_overrides_config(self, tmp_path):
        body = SMALL_MAP.replace("emit_svg = true", "emit_svg = false")
        cfg = tmp_path / "m.ini"
        cfg.write_text(body, encoding="utf-8")
        assert main(["sweep", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
        assert not (tmp_path / "map.svg").exists()
        assert main(["sweep", str(cfg), "--out", str(tmp_path), "--svg"]) == EXIT_OK
        assert (tmp_path / "map.svg").exists()

    def test_one_axis_heatmap_is_refused_before_the_sweep(self, tmp_path, capsys):
        # a heatmap needs two axes: neither the config nor --svg may run a
        # one-axis sweep and leave its file behind
        body = "[sweep]\nexperiment = fig2a_gain_curves\noutput = one.csv\n"
        cfg = tmp_path / "one.ini"
        cfg.write_text(body + "emit_svg = true\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="emit_svg: heatmaps need a two-axis sweep"):
            parse_config(cfg)
        assert main(["sweep", str(cfg), "--out", str(tmp_path)]) == EXIT_CONFIG
        assert "config error: [sweep] emit_svg: heatmaps need" in capsys.readouterr().err
        assert not (tmp_path / "one.csv").exists()
        cfg.write_text(body, encoding="utf-8")
        assert main(["sweep", str(cfg), "--out", str(tmp_path), "--svg"]) == EXIT_CONFIG
        assert "config error: --svg: heatmaps need a two-axis sweep" in capsys.readouterr().err
        assert not (tmp_path / "one.csv").exists()
        assert main(["sweep", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
        assert (tmp_path / "one.csv").exists()

    def test_text_svg_metric_is_refused_before_the_sweep(self, tmp_path, capsys):
        # fig2a's channel kind is text: a heatmap of it once ran the whole
        # sweep, wrote the CSV and then failed to read a number (exit 3)
        body = (
            "[sweep]\nexperiment = fig2a_gain_curves\noutput = kind.csv\n"
            "emit_svg = true\nsvg_metric = kind\n"
            "[axis kappa]\nmin = 0.5\nmax = 3\npoints = 4\n"
            "[axis C_om]\nmin = 0.5\nmax = 2\npoints = 3\n"
        )
        cfg = tmp_path / "kind.ini"
        cfg.write_text(body, encoding="utf-8")
        with pytest.raises(ConfigError, match=r"\[sweep\] svg_metric: 'kind' is text"):
            parse_config(cfg)
        assert main(["sweep", str(cfg), "--out", str(tmp_path)]) == EXIT_CONFIG
        assert "config error: [sweep] svg_metric: 'kind' is text" in capsys.readouterr().err
        assert not (tmp_path / "kind.csv").exists()
        cfg.write_text(body.replace("svg_metric = kind", "svg_metric = q_lb"), encoding="utf-8")
        assert main(["sweep", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
        assert (tmp_path / "kind.csv").exists() and (tmp_path / "kind.svg").exists()

    @pytest.mark.parametrize("output", ["map.svg", "map.SVG", "map.Svg"])
    def test_svg_output_is_refused_with_a_heatmap(self, output, tmp_path, capsys):
        # the heatmap goes to the output with suffix .svg: an output that
        # already has it was overwritten by its own heatmap, and its CSV lost
        body = SMALL_MAP.replace("map.csv", output)
        cfg = tmp_path / "m.ini"
        cfg.write_text(body, encoding="utf-8")
        with pytest.raises(ConfigError, match=r"\[sweep\] output: .* its own heatmap"):
            parse_config(cfg)
        out = tmp_path / "out"
        assert main(["sweep", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        assert f"config error: [sweep] output: '{output}' is the name" in capsys.readouterr().err
        assert not out.exists()
        cfg.write_text(body.replace("emit_svg = true", "emit_svg = false"), encoding="utf-8")
        assert main(["sweep", str(cfg), "--out", str(out), "--svg"]) == EXIT_CONFIG
        assert f"config error: --svg: output '{output}' is the name" in capsys.readouterr().err
        assert not out.exists()
        assert main(["sweep", str(cfg), "--out", str(out)]) == EXIT_OK
        assert [p.name for p in out.iterdir()] == [output]

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("[sweep]\nexperiment = nothing\n", encoding="utf-8")
        assert main(["sweep", str(bad)]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_missing_config_exit_code(self, tmp_path):
        assert main(["sweep", str(tmp_path / "absent.ini")]) == EXIT_CONFIG

    def test_unreadable_config_names_the_file(self, tmp_path, capsys):
        # a directory exists but cannot be read as a config file
        folder = tmp_path / "folder.ini"
        folder.mkdir()
        assert main(["sweep", str(folder)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"config error: cannot read config file {folder}" in err
        assert "section missing" not in err

    def test_jobs_env_fallback(self, map_config, tmp_path, monkeypatch):
        monkeypatch.setenv("GAUSSLINK_JOBS", "2")
        assert main(["sweep", str(map_config), "--out", str(tmp_path)]) == EXIT_OK

    def test_bad_jobs_env(self, map_config, tmp_path, monkeypatch):
        monkeypatch.setenv("GAUSSLINK_JOBS", "many")
        assert main(["sweep", str(map_config), "--out", str(tmp_path)]) == EXIT_CONFIG

    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_jobs_env_below_one(self, value, map_config, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("GAUSSLINK_JOBS", value)
        assert main(["sweep", str(map_config), "--out", str(tmp_path)]) == EXIT_CONFIG
        assert "GAUSSLINK_JOBS: must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "map.csv").exists()

    def test_jobs_flag_below_one(self, map_config, tmp_path, capsys):
        assert main(["sweep", str(map_config), "--out", str(tmp_path), "--jobs", "0"]) == EXIT_CONFIG
        assert "--jobs: must be at least 1" in capsys.readouterr().err

    def test_numerical_failure_exit_code(self, tmp_path, capsys):
        # schema-valid config whose parameters the physics layer rejects
        body = SMALL_MAP + "\n[fixed]\nkappa_o = 0.0\n"
        cfg = tmp_path / "n.ini"
        cfg.write_text(body, encoding="utf-8")
        assert main(["sweep", str(cfg), "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert "numerical failure: fig2d_eof_map at C_om=1, C_em=0.2:" in err

    def test_negative_linewidth_is_named_without_a_warning(self, tmp_path, capsys):
        # pyproject makes a RuntimeWarning an error, as CI runs the CLI
        cfg = tmp_path / "n.ini"
        cfg.write_text(SMALL_MAP + "\n[fixed]\nkappa_o = -1\n", encoding="utf-8")
        assert main(["sweep", str(cfg), "--out", str(tmp_path)]) == 3
        assert "kappa_o" in capsys.readouterr().err

    def test_raw_value_error_is_a_numerical_failure(self, map_config, tmp_path, monkeypatch, capsys):
        # an error the sweep does not wrap in NumericalError exits 3 all the same
        def run_sweep(*args, **kwargs):
            raise ValueError("singular matrix")

        monkeypatch.setattr("gausslink.cli.run_sweep", run_sweep)
        assert main(["sweep", str(map_config), "--out", str(tmp_path)]) == 3
        assert capsys.readouterr().err == "numerical failure: singular matrix\n"

    def test_config_not_utf8_is_a_config_error(self, tmp_path, capsys):
        # UnicodeDecodeError is a ValueError, which main reports as numerical
        bad = tmp_path / "latin1.ini"
        bad.write_bytes(SMALL_MAP.replace("map.csv", "m\xe4p.csv").encode("latin-1"))
        assert main(["sweep", str(bad), "--out", str(tmp_path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"config error: config file {bad} is not valid UTF-8" in err

    @pytest.mark.parametrize("case", ["out-is-a-file", "output-under-a-file", "svg-is-a-directory"])
    def test_uncreatable_output_is_a_config_error(self, case, map_config, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        out = tmp_path / "out"
        if case == "out-is-a-file":
            blocker.write_text("", encoding="utf-8")
            out = blocker
        elif case == "output-under-a-file":
            blocker.write_text("", encoding="utf-8")
            map_config.write_text(SMALL_MAP.replace("map.csv", "blocker/sub/map.csv"), encoding="utf-8")
            out = tmp_path
        else:
            (out / "map.svg").mkdir(parents=True)
        assert main(["sweep", str(map_config), "--out", str(out)]) == EXIT_CONFIG
        assert "config error: [sweep] output: cannot write" in capsys.readouterr().err


class TestHeatmap:
    def _render(self, tmp_path, body=SMALL_MAP, metric="e_f"):
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(body, encoding="utf-8")
        cfg = parse_config(cfg_path)
        res = run_sweep(cfg, out_dir=tmp_path)
        svg = tmp_path / "out.svg"
        emit_heatmap(res.path, metric, svg)
        return res, svg.read_text()

    def test_cell_count(self, tmp_path):
        body = SMALL_MAP.replace("points = 5", "points = 2").replace(
            "points = 4", "points = 2"
        )
        _, svg = self._render(tmp_path, body)
        # background rect + 4 cells
        assert svg.count("<rect") == 5

    def test_unstable_cells_neutral(self, tmp_path):
        _, svg = self._render(tmp_path)
        assert "#c8c8c8" in svg

    def test_axis_labels_and_scale(self, tmp_path):
        _, svg = self._render(tmp_path)
        assert ">C_om</text>" in svg
        assert ">C_em</text>" in svg
        assert "min=" in svg and "max=" in svg

    def test_constant_metric_degenerate_scale(self, tmp_path):
        body = """
[sweep]
experiment = fig1a_dqt_boundary
output = flat.csv

[axis C_om]
min = 0.5
max = 2
points = 2

[axis C_em]
min = 0.5
max = 2
points = 2
"""
        _, svg = self._render(tmp_path, body, metric="boundary")
        assert "min=max=" in svg

    def test_single_axis_rejected(self, tmp_path):
        body = """
[sweep]
experiment = fig2a_gain_curves
output = curve.csv

[axis kappa]
min = 0.5
max = 2
points = 4
"""
        cfg_path = tmp_path / "c.ini"
        cfg_path.write_text(body, encoding="utf-8")
        res = run_sweep(parse_config(cfg_path), out_dir=tmp_path)
        with pytest.raises(ConfigError, match="2-axis"):
            emit_heatmap(res.path, "q_lb", tmp_path / "x.svg")

    def test_unknown_metric_rejected(self, tmp_path):
        res, _ = self._render(tmp_path)
        with pytest.raises(ConfigError, match="no column"):
            emit_heatmap(res.path, "bogus", tmp_path / "x.svg")

    def test_non_grid_rejected(self, tmp_path):
        res, _ = self._render(tmp_path)
        lines = res.path.read_text().splitlines()
        res.path.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="grid"):
            emit_heatmap(res.path, "e_f", tmp_path / "x.svg")


    @pytest.mark.parametrize(
        "rows",
        [
            # the second axis in another order in the second row
            ["0.1,1,1,0.5", "0.1,2,1,0.6", "0.5,2,1,0.7", "0.5,1,1,0.8"],
            # column-major
            ["0.1,1,1,0.5", "0.5,1,1,0.6", "0.1,2,1,0.7", "0.5,2,1,0.8"],
            # the first axis comes back after another value
            ["0.1,1,1,0.5", "0.5,1,1,0.6", "0.5,2,1,0.7", "0.1,2,1,0.8"],
        ],
    )
    def test_rows_out_of_row_major_order_rejected(self, rows, tmp_path):
        csv_path = tmp_path / "grid.csv"
        csv_path.write_text("\n".join(["C_om,C_em,stable,e_f"] + rows) + "\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="rows are not in row-major grid order"):
            emit_heatmap(csv_path, "e_f", tmp_path / "x.svg")

    @pytest.mark.parametrize(
        "body, message",
        [
            ("", "empty CSV"),
            ("C_om,C_em,e_f\n0.1,1,0.5\n", "not a sweep CSV"),
        ],
    )
    def test_malformed_csv_messages(self, body, message, tmp_path):
        csv_path = tmp_path / "grid.csv"
        csv_path.write_text(body, encoding="utf-8")
        with pytest.raises(ConfigError, match=message):
            emit_heatmap(csv_path, "e_f", tmp_path / "x.svg")

    @pytest.mark.parametrize("metric", ["C_om", "stable", "e_f"])
    def test_crlf_rows_render_like_lf_rows(self, metric, tmp_path):
        res, _ = self._render(tmp_path)
        crlf = tmp_path / "crlf.csv"
        crlf.write_bytes(res.path.read_bytes().replace(b"\n", b"\r\n"))
        svgs = [emit_heatmap(path, metric, tmp_path / f"{path.stem}.svg").read_bytes()
                for path in (res.path, crlf)]
        assert svgs[0] == svgs[1]


def test_cli_selftest(capsys):
    assert main(["selftest", "--seed", "7"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.count("PASS") == 6
    assert "FAIL" not in out


@pytest.mark.parametrize("command", [["selftest"], ["sweep", "absent.ini"]])
def test_negative_seed_is_a_config_error(command, capsys):
    assert main(command + ["--seed", "-1"]) == EXIT_CONFIG
    assert "config error: --seed: must be a non-negative integer" in capsys.readouterr().err
