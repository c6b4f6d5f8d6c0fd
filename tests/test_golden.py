"""Golden outputs: sha256 of the files sweeps write, recorded with the
per-point gain search that preceded the batched one.

Determinism tests compare two runs of the same code; these compare against
bytes written by an earlier implementation, so a refactor that moves a single
digit of any experiment fails here.  The shipped configs run at their full
grids, and every experiment also runs on a small two-axis grid.
"""

import hashlib
from pathlib import Path

import pytest

from gausslink.heatmap import emit_heatmap
from gausslink.sweeps import EXPERIMENTS, parse_config, run_sweep

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

SHIPPED = {
    "fig1a_dqt_boundary.ini": {
        "fig1a_dqt_boundary.csv": "4fac22b938eb919f04d7ec1c0dc239796532f4a9ba65979d1ada268fe483d3d0",
        "fig1a_dqt_boundary.svg": "bdc4b6d5374eda852c40bd4c145e75c958f801451e5b1ca4198d751622461dcf",
    },
    "fig2a_gain_curves.ini": {
        "fig2a_gain_curves.csv": "15c8a99bec95a922072de1eedc27c5326a080f9d61431f9f33195737224c637b",
    },
    "fig2b_capacity_map.ini": {
        "fig2b_capacity_map.csv": "e517ec049116fa77db2d70d94e1b29ebf449781955fbcf2a2c83f3baef35b261",
        "fig2b_capacity_map.svg": "6829a77ae4b1fe39491f86972a4fba6243345c81ff0a55b672e6f5911952952b",
    },
    "fig5b_homodyne_rate.ini": {
        "fig5b_homodyne_rate.csv": "c6336d1e2a344ecc466709cc5742ca35f45c311b65a2b2c6c27698d4e421b18b",
        "fig5b_homodyne_rate.svg": "18cf96bb0e87c995266e3043aadd0f5dda720b1400b1bd659f2db3919aab66c7",
    },
}

# C_om = 0 is a product state, C_om = 1.2 is unstable below C_em = 0.2, and
# the gain experiments' bound is zero at C_em = 0.001 but positive at C_em = 4
_SOURCE_GRID = """
[axis C_om]
min = 0
max = 1.2
points = 4

[axis C_em]
min = 0.001
max = 4
points = 3
scale = log
"""
# custom's grid starts at C_om = 0.5 because its direct-conversion bound
# failed at C_om = 0 (eta = 0) when the hashes were recorded; that point now
# gives a zero bound and is covered in test_sweeps.py
_CUSTOM_GRID = """
[axis C_om]
min = 0.5
max = 3.5
points = 4

[axis C_em]
min = 0.4
max = 4
points = 3
"""
# kappa = 1 (the displacement channel) is a grid point; C_om = 4 is unstable at C_em = 1
_GAIN_CURVE_GRID = """
[axis kappa]
min = 0.5
max = 2
points = 4

[axis C_om]
min = 0.5
max = 4
points = 3
"""
# an even tau count keeps tau = 0.5 off the grid
_RATE_GRID = """
[axis C_om]
min = 0.1
max = 10
points = 3
scale = log

[axis tau]
min = 0
max = 1
points = 4
"""
_CC_LOG_GRID = """
[axis C_om]
min = 0.1
max = 10
points = 4
scale = log

[axis C_em]
min = 0.1
max = 10
points = 3
scale = log
"""
SMALL_GRIDS = {
    "fig1a_dqt_boundary": _CC_LOG_GRID,
    "fig1b_eqt_ideal": _SOURCE_GRID,
    "fig2a_gain_curves": _GAIN_CURVE_GRID,
    "fig2bc_capacity_maps": _SOURCE_GRID,
    "fig2d_eof_map": _SOURCE_GRID,
    "fig4a_mm_eof": _SOURCE_GRID,
    "fig4b_mm_capacity": _SOURCE_GRID,
    "fig5a_click_rate": _RATE_GRID,
    "fig5b_homodyne_rate": _RATE_GRID,
    "custom": _CUSTOM_GRID,
}

SMALL = {
    "fig1a_dqt_boundary": "677817b53ad1c46871afd30665af49ffba2cf227f015472d0e9744db4d5eb4b4",
    "fig1b_eqt_ideal": "cbe755ec87cb024d4b5d023a696a9eb3e0f469680fcf0ba72b254237a34d8648",
    "fig2a_gain_curves": "739e7c945963a55734764a0b453022ee4da318c69f1f2a7c2d230727a8d68c12",
    "fig2bc_capacity_maps": "0384c28fd7a0fb1ff499fd9f62469185673e932581e2b04be149c45703c6aca7",
    "fig2d_eof_map": "8e101639632f997f44be5619ccd0c4e826295f831362b54a7f8303af19668237",
    "fig4a_mm_eof": "3ca99243ccd022ba7212aacfc5107c25c9508ff4e4ccca082edab31de341ef89",
    "fig4b_mm_capacity": "6fe14727b67ed471c396269cad2a30bfed9e757b7c1f38ff2c482d6986a281da",
    "fig5a_click_rate": "2aed60ad1289e1d0a5ac9161fe790772f17cdd27161ed4259421ddcedef01c91",
    "fig5b_homodyne_rate": "f779b4d3595fba27f7b558cef572d9ada73aa646268f5edd9b5fe94b8971dd20",
    "custom": "c99b3b03b5a33111c7b4e8425a5773a24c30eb33cc8438ce29c1e7df85f7fa96",
}


# default 100x100 grids of the closed-form maps, whose small grids above cover
# only 9 stable points each
DEFAULT_GRIDS = {
    "fig2d_eof_map": "114691e56ee01b196e6b7df589494bba55d9f567cdcfa20f0addf71e45c6042e",
    "fig4a_mm_eof": "15564663c6bb57121b59334b813162a26b4104f06b2f04367f409c3c08840ec7",
}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def sweep_files(config_path, out: Path) -> dict:
    """sha256 of each file `gausslink sweep` writes for the config."""
    config = parse_config(config_path)
    result = run_sweep(config, out_dir=out)
    files = [result.path]
    if config.emit_svg:
        files.append(result.path.with_suffix(".svg"))
        emit_heatmap(result.path, config.svg_metric, files[-1])
    return {p.name: sha256(p) for p in files}


def small_config(name: str, directory: Path) -> Path:
    path = directory / f"{name}.ini"
    path.write_text(
        f"[sweep]\nexperiment = {name}\noutput = {name}.csv\n{SMALL_GRIDS[name]}",
        encoding="utf-8",
    )
    return path


def test_every_experiment_has_a_golden_grid():
    assert set(SMALL) == set(SMALL_GRIDS) == set(EXPERIMENTS)


@pytest.mark.parametrize("name", sorted(SHIPPED))
def test_shipped_config(name, tmp_path):
    assert sweep_files(CONFIGS / name, tmp_path) == SHIPPED[name]


@pytest.mark.parametrize("name", sorted(SMALL))
def test_small_grid(name, tmp_path):
    assert sweep_files(small_config(name, tmp_path), tmp_path) == {f"{name}.csv": SMALL[name]}


@pytest.mark.parametrize("name", sorted(DEFAULT_GRIDS))
def test_default_grid(name, tmp_path):
    config = tmp_path / f"{name}.ini"
    config.write_text(f"[sweep]\nexperiment = {name}\noutput = {name}.csv\n", encoding="utf-8")
    assert sweep_files(config, tmp_path) == {f"{name}.csv": DEFAULT_GRIDS[name]}


@pytest.mark.parametrize("name", ["fig1b_eqt_ideal", "fig2bc_capacity_maps", "fig4b_mm_capacity"])
def test_gain_grids_cover_the_edge_points(name, tmp_path):
    result = run_sweep(parse_config(small_config(name, tmp_path)), out_dir=tmp_path)
    cols = {c: i for i, c in enumerate(result.columns)}
    q_col = cols["q_lb_mm" if name.startswith("fig4b") else "q_lb_eqt"]
    stable = [r for r in result.rows if r[cols["stable"]] == "1"]
    assert len(stable) < len(result.rows)
    assert any(r[cols["C_om"]] == "0" for r in stable)
    assert any(r[q_col] == "0" and r[cols["C_om"]] != "0" for r in stable)
    assert any(float(r[q_col]) > 0 for r in stable)
