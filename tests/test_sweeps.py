import csv
import dataclasses
import io
import re
import subprocess
import sys
import time
import tracemalloc
import warnings
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest

import gausslink.sweeps as sweeps
from gausslink.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, main
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

# 9 x 4 direct-conversion map with thermal noise and lossy extraction: nine
# rows, C_om = 0, and bounds that are zero below the boundary and positive above
FIG1A_MAP = """
[sweep]
experiment = fig1a_dqt_boundary
output = fig1a.csv

[fixed]
n_th = 0.05
zeta_o = 0.98
zeta_e = 0.95

[axis C_om]
min = 0
max = 8
points = 9

[axis C_em]
min = 0.5
max = 8
points = 4
scale = log
"""


# C_om = 2 is unstable at C_em = 0.5 and stable at C_em = 4; the second axis
# runs out of its valid range at its first or last point
RANGE_GRID = """
[sweep]
experiment = {experiment}
output = out.csv

[fixed]
C_om = 2

[axis C_em]
min = 0.5
max = 4
points = 2

{axis}
points = 4
"""
OUT_OF_RANGE = {
    "fig2a_gain_curves": (
        "[axis kappa]\nmin = -1\nmax = 2",
        "C_em=4, kappa=-1: gain must be positive",
    ),
    "fig5a_click_rate": (
        "[axis tau]\nmin = 0\nmax = 1.2",
        "C_em=4, tau=1.2: tau must lie in [0, 1]",
    ),
    "fig5b_homodyne_rate": (
        "[axis tau]\nmin = 0\nmax = 1.2",
        "C_em=4, tau=1.2: tau must lie in [0, 1]",
    ),
}

# 9 x 3 click-rate map with tau outermost: row blocks split tau, so each
# device's tau lanes span several blocks; C_om = 15 is unstable at C_em = 10
FIG5A_MAP = """
[sweep]
experiment = fig5a_click_rate
output = fig5a.csv

[fixed]
n_th = 0.1
zeta_o = 0.9
pulse_duration = 0.5

[axis tau]
min = 0
max = 1
points = 9

[axis C_om]
min = 0.5
max = 15
points = 3
scale = log
"""

# 9 x 3 homodyne-rate map with tau outermost, as FIG5A_MAP: one device's tau
# lanes span several row blocks, and tau = 0.5 is on the grid
FIG5B_MAP = FIG5A_MAP.replace("fig5a_click_rate", "fig5b_homodyne_rate").replace(
    "fig5a.csv", "fig5b.csv"
)

# 9 x 3 gain-curve map through kappa = 1; C_om = 3 is unstable at C_em = 1
FIG2A_MAP = """
[sweep]
experiment = fig2a_gain_curves
output = fig2a.csv

[fixed]
n_th = 0.1

[axis kappa]
min = 0.5
max = 2.5
points = 9

[axis C_om]
min = 0.5
max = 3
points = 3
"""


# every point is stable, and only the last row's tau is out of range
LAST_ROW_OUT_OF_RANGE = """
[sweep]
experiment = fig5a_click_rate
output = out.csv

[fixed]
C_om = 2

[axis tau]
min = 0
max = 1.2
points = 3

[axis C_em]
min = 3
max = 4
points = 2
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
            ("[sweep]\nexperiment = fig1a_dqt_boundary\n[axis C_om]\nmin=0\nmax=inf\npoints=5\n", "finite"),
            ("[sweep]\nexperiment = custom\n[fixed]\nn_th = inf\n", "finite"),
            ("[sweep]\nexperiment = custom\n[fixed]\nn_th = nan\n", "finite"),
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

    @pytest.mark.parametrize(
        "body",
        [MINIMAL, GAIN_MAP, FIG1A_MAP, FIG5A_MAP, FIG5B_MAP, FIG2A_MAP],
        ids=["custom", "gain_map", "fig1a", "fig5a", "fig5b", "fig2a"],
    )
    def test_parallel_matches_serial(self, tmp_path, body):
        cfg = parse_config(write_config(tmp_path, body))
        mesh = np.meshgrid(*(axis.values() for axis in cfg.axes), indexing="ij")
        grid = np.stack([m.ravel() for m in mesh], axis=-1)
        blocks = sweeps._row_blocks(cfg.axes, 2 * sweeps._BLOCKS_PER_JOB)
        second = cfg.axes[1].values() if len(cfg.axes) == 2 else None
        coords = [np.stack(sweeps._block_coords(rows, second), axis=-1) for rows in blocks]
        assert np.array_equal(np.concatenate(coords), grid)
        serial = run_sweep(cfg, out_dir=tmp_path / "s", jobs=1)
        parallel = run_sweep(cfg, out_dir=tmp_path / "p", jobs=2)
        assert serial.path.read_bytes() == parallel.path.read_bytes()
        if body in (GAIN_MAP, FIG5A_MAP, FIG5B_MAP, FIG2A_MAP):
            assert len(blocks) > 2
            assert any(row[2] == "0" for row in serial.rows)

    def test_no_more_workers_than_blocks(self, tmp_path, monkeypatch):
        # three rows make three blocks, so six jobs start three workers
        import concurrent.futures

        started = []

        class Recording(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                started.append(max_workers)
                super().__init__(max_workers, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
        body = MINIMAL.replace("custom", "fig2d_eof_map")
        body = body.replace("max = 2.0\npoints = 2", "max = 2.0\npoints = 3")
        body = body.replace("max = 4.0\npoints = 2", "max = 4.0\npoints = 4")
        cfg = parse_config(write_config(tmp_path, body))
        serial = run_sweep(cfg, out_dir=tmp_path / "s", jobs=1)
        parallel = run_sweep(cfg, out_dir=tmp_path / "p", jobs=6)
        assert started == [3]
        assert len(serial.rows) == 12
        assert serial.path.read_bytes() == parallel.path.read_bytes()

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
        "experiment",
        [
            "fig1a_dqt_boundary",
            "fig2bc_capacity_maps",
            "fig4a_mm_eof",
            "custom",
            "fig2a_gain_curves",
            "fig5a_click_rate",
            "fig5b_homodyne_rate",
        ],
    )
    def test_input_check_names_the_point(self, tmp_path, experiment):
        if experiment in OUT_OF_RANGE:
            # a gain below 0 or a tau above 1 fails at the first stable point
            # that has it; the unstable row before it is skipped, not checked
            axis, where = OUT_OF_RANGE[experiment]
            body = RANGE_GRID.format(experiment=experiment, axis=axis)
        else:
            # a negative cooperativity fails the device's input check at that point
            body = MINIMAL.replace("custom", experiment).replace("min = 1.0", "min = -1.0")
            where = "C_om=0.5, C_em=-1: cooperativities must be nonnegative"
        path = write_config(tmp_path, body)
        with pytest.raises(NumericalError) as info:
            run_sweep(parse_config(path), out_dir=tmp_path)
        assert str(info.value) == f"{experiment} at {where}"
        assert main(["sweep", str(path), "--out", str(tmp_path)]) == EXIT_NUMERICAL

    @pytest.mark.parametrize(
        "block_points, blocks", [(2, 2), (sweeps._BLOCK_POINTS, 1)], ids=["two", "one"]
    )
    def test_failing_block_leaves_no_file(self, tmp_path, monkeypatch, block_points, blocks):
        # the last point fails: in the second of two one-row blocks, after the
        # first block's rows are written, or in the only block
        build = TransducerParams.from_cooperativities.__func__

        def failing(cls, c_om, c_em, *args):
            if np.any((np.asarray(c_om) == 2.0) & (np.asarray(c_em) == 4.0)):
                raise ValueError("injected failure")
            return build(cls, c_om, c_em, *args)

        monkeypatch.setattr(TransducerParams, "from_cooperativities", classmethod(failing))
        monkeypatch.setattr(sweeps, "_BLOCK_POINTS", block_points)
        cfg = parse_config(write_config(tmp_path, MINIMAL.replace("custom", "fig2d_eof_map")))
        assert len(sweeps._row_blocks(cfg.axes, 1)) == blocks
        with pytest.raises(NumericalError) as info:
            run_sweep(cfg, out_dir=tmp_path)
        assert str(info.value) == "fig2d_eof_map at C_om=2, C_em=4: injected failure"
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failing_later_block_removes_the_file(self, tmp_path, monkeypatch, jobs):
        # tau = 1.2 is out of range in the last of three one-row blocks
        monkeypatch.setattr(sweeps, "_BLOCK_POINTS", 2)
        path = write_config(tmp_path, LAST_ROW_OUT_OF_RANGE)
        with pytest.raises(NumericalError, match="at tau=1.2, C_em=3: tau must lie in"):
            run_sweep(parse_config(path), out_dir=tmp_path, jobs=jobs)
        assert not (tmp_path / "out.csv").exists()

    def test_negative_infinity_is_written_with_its_sign(self, tmp_path, monkeypatch):
        spec = EXPERIMENTS["fig2d_eof_map"]

        def evaluate(columns):
            stable, metrics = spec.evaluate(columns)
            return stable, dict(metrics, u=-np.inf, v=np.inf, w=np.nan)

        monkeypatch.setitem(EXPERIMENTS, spec.name, dataclasses.replace(spec, evaluate=evaluate))
        cfg = parse_config(write_config(tmp_path, MINIMAL.replace("custom", spec.name)))
        stable = [row for row in run_sweep(cfg, out_dir=tmp_path).rows if row[2] == "1"]
        assert {row[3:6] for row in stable} == {("-inf", "inf", "nan")}

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
            # a stable row fills every metric cell, an unstable row none
            stable_at = res.columns.index("stable")
            for row in res.rows:
                cells = row[stable_at + 1 :]
                assert len(cells) == len(spec.metrics)
                if row[stable_at] == "1":
                    assert all(cells), (name, row)
                else:
                    assert row[stable_at] == "0" and not any(cells), (name, row)


# a 3 x 2 grid whose [fixed] value makes numpy overflow or take an invalid
# operation at some point
EXTREME_GRID = """
[sweep]
experiment = {experiment}
output = extreme.csv

[fixed]
{field} = {value}

[axis C_om]
min = 0.5
max = 2
points = 3

[axis tau]
min = 0.25
max = 1
points = 2
"""
EXTREMES = {"n_th": "1e308", "C_em": "1e308", "kappa_m": "1e300", "kappa_o": "1e-320"}
# (experiment, fixed field, the first point that fails alone and why) for each
# pair of EXTREMES that fails a point on EXTREME_GRID: with numpy's error, or
# with the device's rejection of the subnormal linewidth, which every
# experiment builds
EXTREME_FIXED = [
    ("fig1a_dqt_boundary", "C_em", "C_om=2, tau=0.25: overflow encountered in "),
    *(
        (experiment, field, "C_om=0.5, tau=0.25: overflow encountered in ")
        for experiment in ("fig2d_eof_map", "fig4a_mm_eof", "fig2bc_capacity_maps", "custom")
        for field in ("n_th", "C_em", "kappa_m")
    ),
    ("fig5a_click_rate", "kappa_m", "C_om=0.5, tau=0.25: overflow encountered in "),
    *(
        ("fig5b_homodyne_rate", field, f"C_om=0.5, tau=0.25: {error} encountered in ")
        for field, error in (("n_th", "invalid value"), ("kappa_m", "overflow"))
    ),
    *(
        (experiment, "kappa_o", "C_om=0.5, tau=0.25: kappa_o must be a normal float, at least ")
        for experiment in EXPERIMENTS
    ),
]


class TestFloatingPointPolicy:
    """A block is evaluated with numpy raising on overflow, division by zero and
    invalid operations, so such an error fails its point by name whatever the
    interpreter's warning filter says."""

    @pytest.mark.parametrize(
        "experiment, field, failure", EXTREME_FIXED, ids=[f"{e}-{f}" for e, f, _ in EXTREME_FIXED]
    )
    def test_extreme_fixed_value_fails_its_point(self, tmp_path, capsys, experiment, field, failure):
        # fig2d with kappa_m = 1e300 once wrote its rows, after the Routh-Hurwitz
        # product a2 * a1 overflowed in stability_check
        body = EXTREME_GRID.format(experiment=experiment, field=field, value=EXTREMES[field])
        path = write_config(tmp_path, body)
        message = f"{experiment} at {failure}"
        with pytest.raises(NumericalError, match="^" + re.escape(message)):
            run_sweep(parse_config(path), out_dir=tmp_path)
        errors = []
        for action in ("error", "ignore"):
            with warnings.catch_warnings():
                warnings.simplefilter(action, RuntimeWarning)
                assert main(["sweep", str(path), "--out", str(tmp_path)]) == EXIT_NUMERICAL
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert errors[0].startswith("numerical failure: " + message)
        assert not (tmp_path / "extreme.csv").exists()

    def test_fig5a_sweeps_the_largest_bath_occupation(self, tmp_path, capsys):
        # fig5a's photon rate is linear in the input noise: at n_th = 1e308 it
        # reads 1e8 times its n_th = 1e300 values, and r_B = 2 r_t exp(-r_t dt)
        # underflows to 0; the windowed flux integral failed here with an
        # invalid value
        rates = {}
        for value in ("1e300", "1e308"):
            body = EXTREME_GRID.format(experiment="fig5a_click_rate", field="n_th", value=value)
            path = write_config(tmp_path, body)
            for action in ("error", "ignore"):
                with warnings.catch_warnings():
                    warnings.simplefilter(action, RuntimeWarning)
                    assert main(["sweep", str(path), "--out", str(tmp_path)]) == EXIT_OK
                with open(tmp_path / "extreme.csv", newline="", encoding="utf-8") as fh:
                    rows = list(csv.DictReader(fh))
                assert rates.setdefault(value, rows) == rows
        assert capsys.readouterr().err == ""
        assert len(rates["1e308"]) == 6
        for low, high in zip(rates["1e300"], rates["1e308"]):
            assert high["stable"] == "1" and high["r_B"] == low["r_B"] == "0"
            assert Decimal(high["r_t"]) == Decimal(low["r_t"]) * 10**8 > 0

    @pytest.mark.parametrize(
        "experiment, fixed, axis, name",
        [
            ("custom", {"kappa_e": "5e-324"}, "[axis C_om]\nmin = 5e-324\nmax = 1e-12\npoints = 3\n",
             "kappa_e"),
            ("fig1a_dqt_boundary", {"kappa_m": "5e-324", "kappa_e": "1e300", "zeta_o": "5e-324"},
             "", "kappa_m"),
            ("fig1a_dqt_boundary", {"kappa_m": "1e-320"}, "", "kappa_m"),
        ],
        ids=["custom-kappa_e", "fig1a-kappa_m-kappa_e-zeta_o", "fig1a-kappa_m"],
    )
    def test_subnormal_linewidth_is_named(self, tmp_path, capsys, experiment, fixed, axis, name):
        # these exited 3 blaming the model: a conversion efficiency of 1, or
        # numpy's bare "Singular matrix"
        lines = [f"{key} = {value}" for key, value in fixed.items()]
        body = f"[sweep]\nexperiment = {experiment}\noutput = subnormal.csv\n[fixed]\n"
        path = write_config(tmp_path, body + "\n".join(lines) + "\n" + axis)
        for action in ("error", "ignore"):
            with warnings.catch_warnings():
                warnings.simplefilter(action, RuntimeWarning)
                assert main(["sweep", str(path), "--out", str(tmp_path)]) == EXIT_NUMERICAL
            err = capsys.readouterr().err
            assert re.fullmatch(
                rf"numerical failure: {experiment} at [^:]+: {name} must be a normal float, "
                r"at least 2\.225e-308\n",
                err,
            ), err
        assert not (tmp_path / "subnormal.csv").exists()

    def test_pool_workers_keep_the_policy(self, tmp_path, monkeypatch):
        # three one-row blocks over two workers, which inherit no warning filter
        # that would raise
        monkeypatch.setattr(sweeps, "_BLOCK_POINTS", 2)
        body = EXTREME_GRID.format(experiment="fig2d_eof_map", field="kappa_m", value="1e300")
        cfg = parse_config(write_config(tmp_path, body))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(NumericalError, match="^fig2d_eof_map at C_om=0.5, tau=0.25: overflow"):
                run_sweep(cfg, out_dir=tmp_path, jobs=2)

    def test_overflow_in_an_evaluator_is_named(self, tmp_path, monkeypatch):
        # the evaluator's own arithmetic overflows at the third of four points
        spec = EXPERIMENTS["fig2d_eof_map"]

        def evaluate(columns):
            at = (columns["C_om"] == 2.0) & (columns["C_em"] == 1.0)
            np.multiply(1e308, np.where(at, 10.0, 1.0))
            return spec.evaluate(columns)

        monkeypatch.setitem(EXPERIMENTS, spec.name, dataclasses.replace(spec, evaluate=evaluate))
        cfg = parse_config(write_config(tmp_path, MINIMAL.replace("custom", spec.name)))
        with pytest.raises(NumericalError) as info:
            run_sweep(cfg, out_dir=tmp_path)
        assert str(info.value) == "fig2d_eof_map at C_om=2, C_em=1: overflow encountered in multiply"
        assert isinstance(info.value.__cause__, FloatingPointError)


def test_axis_values():
    lin = Axis("C_om", 1.0, 3.0, 3, "linear")
    assert np.allclose(lin.values(), [1.0, 2.0, 3.0])
    log = Axis("C_om", 0.1, 10.0, 3, "log")
    assert np.allclose(log.values(), [0.1, 1.0, 10.0])


@pytest.mark.parametrize(
    "lo, hi, points",
    [(0.1, 10.0, 100), (0.1, 10.0, 1), (3.0, 3.0, 1), (10.0, 0.1, 7), (1e-300, 1e300, 33),
     (-2.0, -1e-3, 9), (-5.0, -5.0, 1), (-1e-3, -2.0, 2), (0.5, 2.0, 2), (7.0, 7.0, 0)],
)
@pytest.mark.parametrize("scale", ["log", "linear"])
def test_axis_values_have_the_spacing_bits(lo, hi, points, scale):
    axis = Axis("C_om", lo, hi, points, scale)
    spaced = (np.geomspace if scale == "log" else np.linspace)(lo, hi, points)
    values = axis.values()
    assert values.dtype == spaced.dtype == np.float64
    assert values.tobytes() == spaced.tobytes()
    # built once: every call returns the same array, which cannot be written
    assert axis.values() is values
    assert not values.flags.writeable
    with pytest.raises(ValueError):
        values[...] = 0.0


@pytest.mark.parametrize("lo, hi, points", [(0.0, 1.0, 3), (1.0, 0.0, 1), (-1.0, 1.0, 3),
                                            (-1.0, 1.0, 1), (2.0, -3.0, 2), (np.nan, 1.0, 2)])
def test_log_axis_needs_nonzero_bounds_of_one_sign(lo, hi, points):
    with pytest.raises(ValueError, match="log axis"):
        Axis("C_om", lo, hi, points, "log").values()
    assert Axis("C_om", lo, hi, points, "linear").values().size == points


def test_axis_value_semantics_ignore_the_built_values():
    import copy
    import pickle

    axis, twin = Axis("C_em", 0.1, 10.0, 5, "log"), Axis("C_em", 0.1, 10.0, 5, "log")
    pickled = pickle.dumps(axis)
    values = axis.values()
    assert axis == twin and hash(axis) == hash(twin) and {twin: 1}[axis] == 1
    assert repr(axis) == repr(twin)
    # the built array is not pickled: a worker builds its own, read-only too
    assert pickle.dumps(axis) == pickled
    for clone in (pickle.loads(pickle.dumps(axis)), copy.deepcopy(axis)):
        assert clone == axis
        assert clone.values() is not values
        assert clone.values().tobytes() == values.tobytes()
        assert not clone.values().flags.writeable
    wider = dataclasses.replace(axis, points=7)
    assert wider != axis and wider.values().tobytes() == np.geomspace(0.1, 10.0, 7).tobytes()
    assert dataclasses.replace(axis) == axis
    assert dataclasses.replace(axis).values().tobytes() == values.tobytes()
    with pytest.raises(dataclasses.FrozenInstanceError):
        axis.points = 3


@pytest.mark.parametrize("points", [2**62, 2**63 - 1])
@pytest.mark.parametrize("scale", ["linear", "log"])
def test_axis_no_array_can_hold_is_a_config_error(tmp_path, points, scale):
    # numpy refuses both counts before it allocates anything
    body = (
        "[sweep]\nexperiment = fig2d_eof_map\n\n"
        f"[axis C_om]\nmin = 0.5\nmax = 2\npoints = {points}\nscale = {scale}\n"
    )
    path = write_config(tmp_path, body)
    message = rf"^\[axis C_om\] points: {points} values do not fit in one array$"
    with pytest.raises(ConfigError, match=message):
        parse_config(path)
    assert main(["sweep", str(path), "--out", str(tmp_path)]) == EXIT_CONFIG
    assert list(tmp_path.iterdir()) == [path]


def test_axis_whose_values_overflow_is_a_config_error(tmp_path, capsys):
    # the spacing of a linear axis from -1e308 to 1e308 overflows: an axis of
    # nan would sweep, and fail at a point for the wrong reason
    body = "[sweep]\nexperiment = fig2d_eof_map\n\n[axis C_om]\nmin = -1e308\nmax = 1e308\npoints = 3\n"
    path = write_config(tmp_path, body)
    message = r"^\[axis C_om\] min, max: the values overflow: overflow encountered in \w+$"
    with pytest.raises(ConfigError, match=message):
        parse_config(path)
    errors = []
    for action in ("error", "ignore"):
        with warnings.catch_warnings():
            warnings.simplefilter(action, RuntimeWarning)
            assert main(["sweep", str(path), "--out", str(tmp_path)]) == EXIT_CONFIG
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert errors[0].startswith("config error: [axis C_om] min, max: the values overflow: ")
    assert list(tmp_path.iterdir()) == [path]


def test_serial_sweep_setup_does_not_import_multiprocessing(tmp_path):
    # run_sweep imports the process pool only for jobs > 1
    src = Path(sweeps.__file__).resolve().parents[1]
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import gausslink.sweeps as s; "
        "s.parse_config(sys.argv[2]); print('multiprocessing' in sys.modules)"
    )
    config = write_config(tmp_path, MINIMAL)
    out = subprocess.run(
        [sys.executable, "-c", code, str(src), str(config)],
        capture_output=True, text=True, check=True, timeout=60,
    )
    assert out.stdout.strip() == "False"


def test_sweep_memory_does_not_grow_with_the_grid(tmp_path):
    # two and three full blocks of a closed-form map: each block builds its own
    # coordinates, so only the first axis's values grow with the grid
    width = 128
    rows = 2 * sweeps._BLOCK_POINTS // width

    def peak(n_rows):
        body = (
            "[sweep]\nexperiment = fig2d_eof_map\noutput = map.csv\n\n"
            f"[axis C_om]\nmin = 0.1\nmax = 10\npoints = {n_rows}\nscale = log\n\n"
            f"[axis C_em]\nmin = 0.1\nmax = 10\npoints = {width}\nscale = log\n"
        )
        cfg = parse_config(write_config(tmp_path, body))
        tracemalloc.start()
        try:
            run_sweep(cfg, out_dir=tmp_path)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    added = rows // 2 * width
    assert (peak(rows + rows // 2) - peak(rows)) / added < 100


def test_sweep_memory_holds_one_block_at_a_time(tmp_path):
    # the grids of the test above, to a bound a whole-grid array of 8 bytes
    # per point would break: a block's coordinates and results are freed
    # before the next block is evaluated
    width = 128
    rows = 2 * sweeps._BLOCK_POINTS // width
    body = (
        "[sweep]\nexperiment = fig2d_eof_map\noutput = map.csv\n\n"
        "[axis C_om]\nmin = 0.1\nmax = 10\npoints = {}\nscale = log\n\n"
        f"[axis C_em]\nmin = 0.1\nmax = 10\npoints = {width}\nscale = log\n"
    )
    peaks = []
    for n_rows in (rows, rows + rows // 2):
        cfg = parse_config(write_config(tmp_path, body.format(n_rows)))
        tracemalloc.start()
        try:
            run_sweep(cfg, out_dir=tmp_path)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert (peaks[1] - peaks[0]) / (rows // 2 * width) < 4


def test_pool_sweep_memory_holds_a_few_blocks_per_job(tmp_path, monkeypatch):
    # the writer stalls before its first block, as on a slow disk, while two
    # workers finish every block they are given: the parent holds the texts of
    # jobs * _BLOCKS_PER_JOB blocks, not of every block of the grid
    monkeypatch.setattr(sweeps, "_BLOCK_POINTS", 256)
    write = sweeps._write_csv

    def stalled_write(path, header, texts):
        time.sleep(0.3)
        write(path, header, texts)

    monkeypatch.setattr(sweeps, "_write_csv", stalled_write)
    width = 64
    rows = 256  # 64 blocks of 4 rows
    body = (
        "[sweep]\nexperiment = fig2d_eof_map\noutput = map.csv\n\n"
        "[axis C_om]\nmin = 0.1\nmax = 10\npoints = {}\nscale = log\n\n"
        f"[axis C_em]\nmin = 0.1\nmax = 10\npoints = {width}\nscale = log\n"
    )
    peaks = []
    # the first pool sweep imports the pool's modules; the second is measured
    for n_rows in (rows, rows, 2 * rows):
        cfg = parse_config(write_config(tmp_path, body.format(n_rows)))
        assert len(sweeps._row_blocks(cfg.axes, 2 * sweeps._BLOCKS_PER_JOB)) == n_rows // 4
        tracemalloc.start()
        try:
            run_sweep(cfg, out_dir=tmp_path, jobs=2)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert (peaks[2] - peaks[1]) / (rows * width) < 4


def earlier_write_block(metrics, coords, stable, columns) -> str:
    """The CSV lines of a block as the earlier writer gave them: csv.writer,
    and one format call per cell."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    cell = lambda x: x if isinstance(x, str) else f"{float(x):.12g}"  # noqa: E731
    values = zip(*(np.broadcast_to(columns[m], int(stable.sum())).tolist() for m in metrics))
    for point, ok in zip(zip(*(c.tolist() for c in coords)), stable.tolist()):
        cells = map(cell, next(values)) if ok else ("",) * len(metrics)
        writer.writerow((*map(cell, point), "1" if ok else "0", *cells))
    return out.getvalue()


_ODD = [-0.0, np.inf, -np.inf, np.nan, 5e-324, 1e300, 0.1 + 0.2, 1e16, -1.5e-7, 123456789012.5]
# (metrics, first-axis values, second-axis values or None, stable mask, columns)
_WRITER_BLOCKS = {
    # odd floats on both axes and in the metrics, every seventh point unstable
    "odd-values": (
        ("a", "b"),
        np.array(_ODD),
        np.array(_ODD[::-1]),
        np.arange(100) % 7 != 1,
        {"a": np.resize(_ODD[1:], 85), "b": np.resize(_ODD[:-1], 85)[::-1]},
    ),
    # fig2a's channel kinds are strings, and its gain axis the only axis
    "strings-one-axis": (
        ("kind", "eta_prime"),
        np.array([0.5, 1.0, 2.0, 3.0]),
        None,
        np.array([True, True, False, True]),
        {
            "kind": ["thermal_loss", "random_displacement", "thermal_amp"],
            "eta_prime": [0.25, 1, 4.0],
        },
    ),
    # a metric given once for the whole block, finite or not
    "whole-block-metric": (
        ("e_f", "boundary", "cap"),
        np.array([0.1, 10.0]),
        np.array([1.0, 2.0]),
        np.array([True, False, True, True]),
        {"e_f": np.array([0.5, 0.0, 0.25]), "boundary": 5.82842712475, "cap": np.inf},
    ),
    # a whole-block string holding a format character, and no per-point metric
    "whole-block-string": (
        ("note", "boundary"),
        np.array([1.0, 2.0]),
        np.array([3.0, 4.0, 5.0]),
        np.array([True, False, True, True, True, False]),
        {"note": "100% (%s)", "boundary": np.nan},
    ),
    "all-unstable": (
        ("u", "boundary"),
        np.array([1.0, 2.0]),
        np.array([3.0, 4.0]),
        np.zeros(4, dtype=bool),
        {"u": np.empty(0), "boundary": 2.0},
    ),
    "all-stable": (
        ("u",),
        np.geomspace(0.1, 10.0, 7),
        np.linspace(0.0, 1.0, 3),
        np.ones(21, dtype=bool),
        {"u": np.linspace(1.0, 1e9, 21) / 3.0},
    ),
}


@pytest.mark.parametrize("case", sorted(_WRITER_BLOCKS))
def test_writer_gives_the_earlier_writers_bytes(case):
    # one string per grid row, whose lines join to the earlier writer's
    metrics, rows, second, stable, columns = _WRITER_BLOCKS[case]
    cells = [""] if second is None else ["%.12g," % x for x in second.tolist()]
    text = sweeps._format_block(metrics, rows, cells, stable, columns)
    width = 1 if second is None else second.size
    assert [row.count("\n") for row in text] == [width] * rows.size
    coords = sweeps._block_coords(rows, second)
    assert "".join(text) == earlier_write_block(metrics, coords, stable, columns)
