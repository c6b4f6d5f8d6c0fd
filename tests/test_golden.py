"""Golden outputs: sha256 of the files sweeps write, recorded with the
per-point gain search that preceded the batched one (the thermal grids: with
the per-point direct-conversion channel that preceded the array one; the
fig5b thermal blocks: with the per-point homodyne integral; the default fig5b
grid and the 41-lane fig5b block: with one 1-D trapezoid per tau lane).

Determinism tests compare two runs of the same code; these compare against
bytes written by an earlier implementation, so a refactor that moves a single
digit of any experiment fails here.  The shipped configs run at their full
grids, and every experiment also runs on a small two-axis grid.
"""

import hashlib
from pathlib import Path

import pytest

from gausslink.heatmap import emit_heatmap
from gausslink.sweeps import _BLOCK_POINTS, EXPERIMENTS, parse_config, run_sweep

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
# only 9 stable points each, and of fig5b, whose devices have 100 tau lanes
DEFAULT_GRIDS = {
    "fig2d_eof_map": "114691e56ee01b196e6b7df589494bba55d9f567cdcfa20f0addf71e45c6042e",
    "fig4a_mm_eof": "15564663c6bb57121b59334b813162a26b4104f06b2f04367f409c3c08840ec7",
    "fig5b_homodyne_rate": "327a95adf1277b4664c33a95fa5c5c3c3964068313c82da94f9482ee60347503",
}

# fig1a and custom with thermal noise and lossy extraction, so that the added
# noise n_e of the direct-conversion channel is positive: 748 of fig1a's and
# 391 of custom's 1640 points have a positive direct-conversion bound
_THERMAL_GRID = """
[fixed]
n_th = 0.05
zeta_o = 0.98
zeta_e = 0.95

[axis C_om]
min = 0
max = 10
points = 41

[axis C_em]
min = 0.5
max = 10
points = 40
scale = log
"""
THERMAL = {
    "fig1a_dqt_boundary": "f3ed0ed6bbf7be2fdd36664ca3d93352fcdc5d24184cb231e8cd133bc78403b9",
    "custom": "a5eb0b114c3388f5e3c7a0415b3daf95e2e7a299c33e6e1b3954d15b7a20da2f",
}


# the block evaluators of fig2a and fig5a with thermal noise and lossy
# extraction.  fig2a: gains within 1 +- 1e-6 in steps of 1e-9, so the grid
# crosses the 1e-9 displacement window, where the loss/amplifier noise has its
# removable divergence; C_om = 3 is unstable at C_em = 1.  fig5a: a non-unit
# pulse length and optical linewidth, unstable points at C_om >= 1 + C_em, and
# both axis orders, so a device's tau lanes are contiguous in one grid and
# strided in the other.
_THERMAL_GAIN_GRID = """
[fixed]
n_th = 0.2
zeta_o = 0.7
zeta_e = 0.9

[axis kappa]
min = 0.999999
max = 1.000001
points = 2001

[axis C_om]
min = 0.5
max = 3
points = 3
"""
_THERMAL_RATE_FIXED = """
[fixed]
n_th = 0.3
zeta_o = 0.9
zeta_e = 0.8
kappa_o = 1.7
pulse_duration = 2.5
"""
_THERMAL_RATE_GRID = _THERMAL_RATE_FIXED + """
C_em = 2

[axis C_om]
min = 0.5
max = 4
points = 4

[axis tau]
min = 0
max = 1
points = 4
"""
_THERMAL_RATE_GRID_T = _THERMAL_RATE_FIXED + """
C_om = 2

[axis tau]
min = 0.1
max = 0.9
points = 3

[axis C_em]
min = 0.25
max = 4
points = 5
scale = log
"""
# fig5b's device-shared integrals with thermal noise, lossy extraction and a
# non-unit optical linewidth: odd tau counts put the separable tau = 0.5 on the
# grid, C_om = 4 is unstable at C_em = 2 and C_om = 1.5 below C_em = 1, and in
# (tau, C_em) order each device's tau lanes are strided
_THERMAL_HOMODYNE_FIXED = """
[fixed]
n_th = 0.05
zeta_o = 0.95
zeta_e = 0.9
kappa_o = 1.7
"""
_THERMAL_HOMODYNE_GRID = _THERMAL_HOMODYNE_FIXED + """
C_em = 2

[axis C_om]
min = 0.5
max = 4
points = 4

[axis tau]
min = 0
max = 1
points = 7
"""
_THERMAL_HOMODYNE_GRID_T = _THERMAL_HOMODYNE_FIXED + """
C_om = 1.5

[axis tau]
min = 0
max = 1
points = 5

[axis C_em]
min = 0.25
max = 4
points = 5
scale = log
"""
# more tau lanes per device than one integrand call takes: 41 lanes with the
# separable tau = 0.5 on the grid, C_om = 2.833 near the threshold 1 + C_em = 3
# (narrow spectra, deeper levels) and C_om = 4 unstable
_THERMAL_HOMODYNE_LANES = _THERMAL_HOMODYNE_FIXED + """
C_em = 2

[axis C_om]
min = 0.5
max = 4
points = 4

[axis tau]
min = 0
max = 1
points = 41
"""
THERMAL_BLOCKS = {
    "fig2a": (
        "fig2a_gain_curves",
        _THERMAL_GAIN_GRID,
        "cba3f09f624f7edb1f6342a0ef3984d101018bbca749d596a236c469435606c8",
    ),
    "fig5a-C_om-tau": (
        "fig5a_click_rate",
        _THERMAL_RATE_GRID,
        "d2df068261fc14bad883c47c3ed68d72c77fc61472b0bf41751e28d2ac7fbd33",
    ),
    "fig5a-tau-C_em": (
        "fig5a_click_rate",
        _THERMAL_RATE_GRID_T,
        "d926de39c34c6243f9e10d1184e87f9c8e3e45b8b8bea49ab607c3db17658fdf",
    ),
    "fig5b-C_om-tau": (
        "fig5b_homodyne_rate",
        _THERMAL_HOMODYNE_GRID,
        "1fb47b76611118cc0ee715e427b704455b986982af39cb95d3ec409b8d218022",
    ),
    "fig5b-tau-C_em": (
        "fig5b_homodyne_rate",
        _THERMAL_HOMODYNE_GRID_T,
        "cf636528d2b720285dd8948ae340545cab4ceaed080c1e913d43c444b7347ba2",
    ),
    "fig5b-many-tau": (
        "fig5b_homodyne_rate",
        _THERMAL_HOMODYNE_LANES,
        "5eb9759e200bb33ed61aaf84f6dc9203d93fc20736fa240e47f1c79c86e5bb46",
    ),
}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def sweep_files(config_path, out: Path, jobs: int = 1) -> dict:
    """sha256 of each file `gausslink sweep` writes for the config."""
    config = parse_config(config_path)
    result = run_sweep(config, out_dir=out, jobs=jobs)
    files = [result.path]
    if config.emit_svg:
        files.append(result.path.with_suffix(".svg"))
        emit_heatmap(result.path, config.svg_metric, files[-1])
    return {p.name: sha256(p) for p in files}


def small_config(name: str, directory: Path, grid: str = "") -> Path:
    path = directory / f"{name}.ini"
    path.write_text(
        f"[sweep]\nexperiment = {name}\noutput = {name}.csv\n{grid or SMALL_GRIDS[name]}",
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


@pytest.mark.parametrize("name", sorted(THERMAL))
def test_thermal_grid(name, tmp_path):
    config = small_config(name, tmp_path, _THERMAL_GRID)
    assert sweep_files(config, tmp_path) == {f"{name}.csv": THERMAL[name]}


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


@pytest.mark.parametrize("case", sorted(THERMAL_BLOCKS))
def test_thermal_block_grid(case, tmp_path):
    name, grid, digest = THERMAL_BLOCKS[case]
    assert sweep_files(small_config(name, tmp_path, grid), tmp_path) == {f"{name}.csv": digest}


# grids longer than one row block (sweeps._BLOCK_POINTS): a closed-form map,
# and a (tau, C_om) fig5a grid, whose devices each have a lane in every row
# and so span every block; recorded when one job evaluated the whole grid as
# one block
_MULTI_BLOCK_CC = """
[axis C_om]
min = 0.1
max = 10
points = 130
scale = log

[axis C_em]
min = 0.1
max = 10
points = 130
scale = log
"""
_MULTI_BLOCK_RATE = """
[axis tau]
min = 0
max = 1
points = 130

[axis C_om]
min = 0.1
max = 10
points = 130
scale = log
"""
MULTI_BLOCK = {
    "fig2d": (
        "fig2d_eof_map",
        _MULTI_BLOCK_CC,
        "a5e8d08ff4823c951a7ac43f9b615974ff56754d3f2a9007c1fb0a47f881a8a1",
    ),
    "fig5a-tau-C_om": (
        "fig5a_click_rate",
        _MULTI_BLOCK_RATE,
        "76379b228cfc552f4ca3103d314a68a2027e06217776f5e1ba9bdf234cc891bb",
    ),
}


# each case at one job, and at two, whose workers format the blocks
@pytest.mark.parametrize(
    "case, jobs",
    [(case, jobs) for case in sorted(MULTI_BLOCK) for jobs in (1, 2)],
    ids=[case + ("" if jobs == 1 else "-jobs2") for case in sorted(MULTI_BLOCK) for jobs in (1, 2)],
)
def test_multi_block_grid(case, jobs, tmp_path):
    name, grid, digest = MULTI_BLOCK[case]
    assert 130 * 130 > _BLOCK_POINTS
    written = sweep_files(small_config(name, tmp_path, grid), tmp_path, jobs)
    assert written == {f"{name}.csv": digest}


# heatmaps of small hand-written grids, for the renderer's edge cases: empty
# (unstable) cells beside finite, infinite and NaN metric cells; a degenerate
# (min = max) map; and a map without one finite cell
_SVG_MIXED = """C_om,C_em,stable,e_f
0.1,1,1,0.5
0.1,2,1,1.25
0.1,3,1,-0.75
0.1,4,1,inf
0.5,1,0,
0.5,2,1,2
0.5,3,1,0.001
0.5,4,1,nan
2,1,1,-inf
2,2,1,3.5
2,3,1,0
2,4,0,
"""
_SVG_FLAT = """C_om,C_em,stable,e_f
1,0.5,1,0.25
1,1,0,
1,1.5,1,0.25
3,0.5,1,0.25
3,1,1,0.25
3,1.5,1,0.25
"""
_SVG_NOT_FINITE = """tau,C_om,stable,e_f
0,1,1,inf
0,2,0,
1,1,1,nan
1,2,1,-inf
"""
SVG_EDGES = {
    "mixed": (
        _SVG_MIXED,
        "f0c9ef63cfd5293dab2fec9ef2464fdfdfc63657fb55c1c82988d437fee094c2",
    ),
    "flat": (
        _SVG_FLAT,
        "7f7556e187d23e19a8cf35e449227321dda735192795ca7afd7bccf7e20db8dd",
    ),
    "not-finite": (
        _SVG_NOT_FINITE,
        "3b6aa09786dad188bdb4cc5c5fa3030798a7b4a6966a04541ed6e8061719a6a0",
    ),
}


@pytest.mark.parametrize("case", sorted(SVG_EDGES))
def test_heatmap_edge_cases(case, tmp_path):
    body, digest = SVG_EDGES[case]
    csv_path = tmp_path / "grid.csv"
    csv_path.write_text(body, encoding="utf-8")
    assert sha256(emit_heatmap(csv_path, "e_f", tmp_path / "grid.svg")) == digest
