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

    def test_svg_flag_overrides_config(self, tmp_path):
        body = SMALL_MAP.replace("emit_svg = true", "emit_svg = false")
        cfg = tmp_path / "m.ini"
        cfg.write_text(body, encoding="utf-8")
        assert main(["sweep", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
        assert not (tmp_path / "map.svg").exists()
        assert main(["sweep", str(cfg), "--out", str(tmp_path), "--svg"]) == EXIT_OK
        assert (tmp_path / "map.svg").exists()

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("[sweep]\nexperiment = nothing\n", encoding="utf-8")
        assert main(["sweep", str(bad)]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_missing_config_exit_code(self, tmp_path):
        assert main(["sweep", str(tmp_path / "absent.ini")]) == EXIT_CONFIG

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


def test_cli_selftest(capsys):
    assert main(["selftest", "--seed", "7"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.count("PASS") == 6
    assert "FAIL" not in out


@pytest.mark.parametrize("command", [["selftest"], ["sweep", "absent.ini"]])
def test_negative_seed_is_a_config_error(command, capsys):
    assert main(command + ["--seed", "-1"]) == EXIT_CONFIG
    assert "config error: --seed: must be a non-negative integer" in capsys.readouterr().err
