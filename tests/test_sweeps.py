import numpy as np
import pytest

import gausslink.sweeps as sweeps
from gausslink.transducer import TransducerParams
from gausslink.sweeps import (
    Axis,
    ConfigError,
    EXPERIMENTS,
    NumericalError,
    parse_config,
    run_sweep,
)


def write_config(tmp_path, body, name="sweep.ini"):
    path = tmp_path / name
    path.write_text(body, encoding="utf-8")
    return path


MINIMAL = """
[sweep]
experiment = custom
output = out.csv

[axis C_om]
min = 0.5
max = 2.0
points = 2

[axis C_em]
min = 1.0
max = 4.0
points = 2
"""


# 9 x 3 capacity map: nine rows, so more row blocks than two workers, and
# unstable points at C_om > 1 + C_em
GAIN_MAP = """
[sweep]
experiment = fig2bc_capacity_maps
output = map.csv

[axis C_om]
min = 0.1
max = 10
points = 9
scale = log

[axis C_em]
min = 0.1
max = 10
points = 3
scale = log
"""


class TestParseConfig:
    def test_minimal(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, MINIMAL))
        assert cfg.experiment == "custom"
        assert [a.name for a in cfg.axes] == ["C_om", "C_em"]
        assert cfg.fixed["zeta_o"] == 1.0

    def test_experiment_defaults_apply(self, tmp_path):
        cfg = parse_config(
            write_config(tmp_path, "[sweep]\nexperiment = fig2a_gain_curves\n")
        )
        assert cfg.fixed["zeta_o"] == 0.8
        assert cfg.axes[0].name == "kappa"
        assert cfg.axes[0].points == 200

    def test_fixed_override(self, tmp_path):
        cfg = parse_config(
            write_config(
                tmp_path,
                "[sweep]\nexperiment = fig2bc_capacity_maps\n[fixed]\nn_th = 1.0\n",
            )
        )
        assert cfg.fixed["n_th"] == 1.0
        assert cfg.fixed["zeta_o"] == 0.8

    @pytest.mark.parametrize(
        "body,match",
        [
            ("[sweep]\nexperiment = nope\n", "unknown experiment"),
            ("[sweep]\noutput = x.csv\n", "experiment"),
            ("[sweep]\nexperiment = custom\n[axis bogus]\nmin=1\nmax=2\npoints=3\n", "unknown axis"),
            ("[sweep]\nexperiment = custom\n[axis C_om]\nmin=1\nmax=2\npoints=1\n", "at least 2"),
            ("[sweep]\nexperiment = custom\n[axis C_om]\nmin=3\nmax=2\npoints=5\n", "below max"),
            ("[sweep]\nexperiment = custom\n[axis C_om]\nmin=-1\nmax=2\npoints=5\nscale=log\n", "positive"),
            ("[sweep]\nexperiment = custom\n[axis C_om]\nmin=1\nmax=2\npoints=5\nwobble=1\n", "unknown field"),
            ("[sweep]\nexperiment = custom\n[fixed]\nbogus = 1\n", "unknown parameter"),
            ("[sweep]\nexperiment = custom\n[mystery]\nx = 1\n", "unknown section"),
            ("[sweep]\nexperiment = custom\nsvg_metric = nope\n", "not a metric"),
            ("[sweep]\nexperiment = custom\nemit_svg = maybe\n", "not a boolean"),
            ("[sweep]\nexperiment = custom\n[fixed]\nzeta_o = 1.4\n", "zeta_o"),
            ("[sweep]\nexperiment = fig2bc_capacity_maps\n[fixed]\nzeta_e = 0\n", "zeta_e"),
        ],
    )
    def test_rejects_bad_config(self, tmp_path, body, match):
        with pytest.raises(ConfigError, match=match):
            parse_config(write_config(tmp_path, body))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            parse_config(tmp_path / "absent.ini")


class TestRunSweep:
    def test_two_by_two_grid(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, MINIMAL))
        res = run_sweep(cfg, out_dir=tmp_path)
        assert len(res.rows) == 4
        assert res.columns[:3] == ("C_om", "C_em", "stable")
        content = res.path.read_text().splitlines()
        assert len(content) == 5  # header + 4 rows

    def test_row_major_order(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, MINIMAL))
        res = run_sweep(cfg, out_dir=tmp_path)
        first_axis = [row[0] for row in res.rows]
        second_axis = [row[1] for row in res.rows]
        assert first_axis == ["0.5", "0.5", "2", "2"]
        assert second_axis == ["1", "4", "1", "4"]

    def test_byte_identical_reruns(self, tmp_path):
        body = """
[sweep]
experiment = fig2bc_capacity_maps
output = map.csv

[axis C_om]
min = 0.1
max = 10
points = 6
scale = log

[axis C_em]
min = 0.1
max = 10
points = 6
scale = log
"""
        cfg = parse_config(write_config(tmp_path, body))
        run_sweep(cfg, out_dir=tmp_path / "a")
        run_sweep(cfg, out_dir=tmp_path / "b")
        assert (tmp_path / "a" / "map.csv").read_bytes() == (
            tmp_path / "b" / "map.csv"
        ).read_bytes()

    @pytest.mark.parametrize("body", [MINIMAL, GAIN_MAP], ids=["custom", "gain_map"])
    def test_parallel_matches_serial(self, tmp_path, body):
        cfg = parse_config(write_config(tmp_path, body))
        points = list(sweeps._grid_points(cfg))
        blocks = sweeps._row_blocks(points, cfg.axes, 2 * sweeps._BLOCKS_PER_JOB)
        assert [p for block in blocks for p in block] == points
        serial = run_sweep(cfg, out_dir=tmp_path / "s", jobs=1)
        parallel = run_sweep(cfg, out_dir=tmp_path / "p", jobs=2)
        assert serial.path.read_bytes() == parallel.path.read_bytes()
        if body is GAIN_MAP:
            assert len(blocks) > 2
            assert any(row[2] == "0" for row in serial.rows)

    @pytest.mark.parametrize(
        "experiment", ["fig1a_dqt_boundary", "fig2bc_capacity_maps", "fig4a_mm_eof"]
    )
    def test_failing_point_is_named(self, tmp_path, monkeypatch, experiment):
        # every experiment builds its devices here, one point at a time or a
        # block of points as arrays
        build = TransducerParams.from_cooperativities.__func__

        def failing(cls, c_om, c_em, *args):
            if np.any((np.asarray(c_om) == 2.0) & (np.asarray(c_em) == 4.0)):
                raise ValueError("injected failure")
            return build(cls, c_om, c_em, *args)

        monkeypatch.setattr(TransducerParams, "from_cooperativities", classmethod(failing))
        cfg = parse_config(write_config(tmp_path, MINIMAL.replace("custom", experiment)))
        with pytest.raises(NumericalError) as info:
            run_sweep(cfg, out_dir=tmp_path)
        assert str(info.value) == f"{experiment} at C_om=2, C_em=4: injected failure"

    @pytest.mark.parametrize(
        "experiment", ["fig1a_dqt_boundary", "fig2bc_capacity_maps", "fig4a_mm_eof", "custom"]
    )
    def test_input_check_names_the_point(self, tmp_path, experiment):
        # a negative cooperativity fails the device's input check at that point
        body = MINIMAL.replace("custom", experiment).replace("min = 1.0", "min = -1.0")
        with pytest.raises(NumericalError) as info:
            run_sweep(parse_config(write_config(tmp_path, body)), out_dir=tmp_path)
        assert str(info.value) == (
            f"{experiment} at C_om=0.5, C_em=-1: cooperativities must be nonnegative"
        )

    @pytest.mark.parametrize("experiment", ["fig1a_dqt_boundary", "custom"])
    def test_half_efficiency_point_has_zero_bound(self, tmp_path, experiment):
        # eta = 4 C_om C_em / (1 + C_om + C_em)^2 = 1/2 at C_om = 1, C_em = 2 with
        # zeta = 1: the computed eta is one ulp above 1/2, and the bound is 0
        body = MINIMAL.replace("custom", experiment).replace("min = 0.5", "min = 1.0")
        body = body.replace("min = 1.0\nmax = 4.0", "min = 2.0\nmax = 4.0")
        res = run_sweep(parse_config(write_config(tmp_path, body)), out_dir=tmp_path)
        cols = res.columns
        (row,) = [r for r in res.rows if r[:2] == ("1", "2")]
        assert row[cols.index("eta0")] == "0.5"
        assert row[cols.index("q_lb_dqt")] == "0"

    @pytest.mark.parametrize("experiment", ["fig1a_dqt_boundary", "custom"])
    def test_zero_optomechanical_coupling_row(self, tmp_path, experiment):
        # C_om = 0 converts nothing (eta = 0): zero capacity, not a failure
        body = MINIMAL.replace("custom", experiment).replace("min = 0.5", "min = 0")
        res = run_sweep(parse_config(write_config(tmp_path, body)), out_dir=tmp_path)
        cols = res.columns
        zero = [row for row in res.rows if row[0] == "0"]
        assert len(zero) == 2
        for row in zero:
            assert row[cols.index("stable")] == "1"
            assert row[cols.index("eta0")] == "0"
            assert row[cols.index("q_lb_dqt")] == "0"

    def test_fig1a_boundary_column(self, tmp_path):
        body = """
[sweep]
experiment = fig1a_dqt_boundary

[axis C_om]
min = 0.5
max = 4
points = 5
scale = log

[axis C_em]
min = 0.5
max = 4
points = 5
scale = log
"""
        cfg = parse_config(write_config(tmp_path, body))
        res = run_sweep(cfg, out_dir=tmp_path)
        cols = dict((c, i) for i, c in enumerate(res.columns))
        for row in res.rows:
            assert row[cols["boundary"]] == "1.45710678119"
            q = float(row[cols["q_lb_dqt"]])
            below = float(row[cols["cc_product"]]) < 1.457106781
            if below:
                assert q == 0.0

    def test_fig2a_positive_curve(self, tmp_path):
        cfg = parse_config(
            write_config(tmp_path, "[sweep]\nexperiment = fig2a_gain_curves\n")
        )
        res = run_sweep(cfg, out_dir=tmp_path)
        assert len(res.rows) == 200
        q_col = res.columns.index("q_lb")
        assert max(float(r[q_col]) for r in res.rows) > 0

    def test_unstable_rows_marked_and_empty(self, tmp_path):
        body = """
[sweep]
experiment = fig2d_eof_map

[axis C_om]
min = 1
max = 8
points = 6

[axis C_em]
min = 0.2
max = 2
points = 4
"""
        cfg = parse_config(write_config(tmp_path, body))
        res = run_sweep(cfg, out_dir=tmp_path)
        stable_col = res.columns.index("stable")
        unstable = [r for r in res.rows if r[stable_col] == "0"]
        stable = [r for r in res.rows if r[stable_col] == "1"]
        assert unstable and stable
        for row in unstable:
            c_om, c_em = float(row[0]), float(row[1])
            assert c_om >= 1.0 + c_em - 1e-9
            assert all(cell == "" for cell in row[stable_col + 1 :])
        for row in stable:
            assert all(cell != "" for cell in row[stable_col + 1 :])

    def test_every_experiment_runs_with_defaults(self, tmp_path):
        # small grids keep this fast; defaults themselves are exercised for axes
        small_axes = {
            1: "[axis kappa]\nmin = 0.5\nmax = 3\npoints = 4\n",
            2: (
                "[axis C_om]\nmin = 0.2\nmax = 5\npoints = 3\nscale = log\n\n"
                "[axis C_em]\nmin = 0.2\nmax = 5\npoints = 3\nscale = log\n"
            ),
        }
        fig5_axes = (
            "[axis C_om]\nmin = 0.2\nmax = 5\npoints = 3\nscale = log\n\n"
            "[axis tau]\nmin = 0.1\nmax = 1\npoints = 3\n"
        )
        for name, spec in EXPERIMENTS.items():
            n_axes = len(spec.default_axes)
            axes = fig5_axes if name.startswith("fig5") else small_axes[n_axes]
            body = f"[sweep]\nexperiment = {name}\noutput = {name}.csv\n\n{axes}"
            cfg = parse_config(write_config(tmp_path, body, f"{name}.ini"))
            res = run_sweep(cfg, out_dir=tmp_path)
            assert res.path.exists()
            assert len(res.rows) >= 3


def test_axis_values():
    lin = Axis("C_om", 1.0, 3.0, 3, "linear")
    assert np.allclose(lin.values(), [1.0, 2.0, 3.0])
    log = Axis("C_om", 0.1, 10.0, 3, "log")
    assert np.allclose(log.values(), [0.1, 1.0, 10.0])
