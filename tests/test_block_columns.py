"""Fixed parameters reach the experiments as floats, axes as block columns.

The oracle is the all-array route: every parameter a column of the block's
length, as `np.full` makes it.  Each experiment must give the same stable mask
and the same metric bits from floats as from those columns, on every choice of
one or two axes.
"""

import dataclasses
import itertools

import numpy as np
import pytest

import gausslink.sweeps as sweeps
from gausslink.sweeps import AXIS_NAMES, EXPERIMENTS, FIXED_DEFAULTS, parse_config, run_sweep

# small axes reaching unstable devices (C_om at or above 1 + C_em), unit gain,
# tau = 0 and thermal occupations above 0
AXIS_VALUES = {
    "C_om": np.array([0.0, 0.5, 2.5, 12.0]),
    "C_em": np.array([0.5, 1.5, 4.0]),
    "kappa": np.array([0.5, 1.0, 3.0]),
    "n_th": np.array([0.0, 0.1, 2.0]),
    "tau": np.array([0.0, 0.3, 1.0]),
}
# fixed devices, stable and unstable, with thermal noise and lossy extraction
FIXED = {
    "stable": dict(C_om=2.0, C_em=1.5, n_th=0.1, tau=0.8, zeta_o=0.9, zeta_e=0.95),
    "unstable": dict(C_om=3.0, C_em=1.5, kappa=2.0, tau=0.0),
}
AXIS_CHOICES = [(name,) for name in AXIS_NAMES] + list(itertools.permutations(AXIS_NAMES, 2))


def _evaluate(spec, fixed, names, full):
    second = AXIS_VALUES[names[1]] if len(names) == 2 else None
    coords = sweeps._block_coords(AXIS_VALUES[names[0]], second)
    size = coords[0].size
    columns = {k: np.full(size, v) if full else v for k, v in fixed.items()}
    columns.update(zip(names, coords))
    try:
        return spec.evaluate(columns)
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


def _bits(value, count):
    value = np.asarray(value)
    if value.dtype.kind == "U":
        return np.broadcast_to(value, count).tolist()
    return np.broadcast_to(value.astype(float), count).tobytes()


@pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
def test_float_fixed_columns_give_the_full_columns_bits(experiment):
    spec = EXPERIMENTS[experiment]
    for (device, overrides), names in itertools.product(FIXED.items(), AXIS_CHOICES):
        fixed = {**FIXED_DEFAULTS, **spec.fixed_overrides, **overrides}
        full = _evaluate(spec, fixed, names, full=True)
        floats = _evaluate(spec, fixed, names, full=False)
        where = (device, names)
        if isinstance(full[0], type):  # an input check fails on both routes alike
            assert floats == full, where
            continue
        (stable, metrics), (float_stable, float_metrics) = full, floats
        assert np.array_equal(float_stable, stable), where
        assert np.shape(float_stable) == np.shape(stable), where
        count = int(np.count_nonzero(stable))
        for name in spec.metrics:
            assert _bits(float_metrics[name], count) == _bits(metrics[name], count), (where, name)


def _full_columns(spec):
    """``spec`` evaluating every parameter as a column of the block's length."""

    def evaluate(columns):
        size = max(np.size(c) for c in columns.values())
        return spec.evaluate({k: np.broadcast_to(c, size).copy() for k, c in columns.items()})

    return dataclasses.replace(spec, evaluate=evaluate)


# grids whose device is fixed whole: only the gain, or only tau, is swept
DEVICE_FIXED_GRIDS = {
    "fig2a-kappa": "[sweep]\nexperiment = fig2a_gain_curves\noutput = out.csv\n\n"
    "[fixed]\nC_om = {c_om}\n\n[axis kappa]\nmin = 0.5\nmax = 3\npoints = 41\n",
    "fig4a-tau": "[sweep]\nexperiment = fig4a_mm_eof\noutput = out.csv\n\n"
    "[fixed]\nC_om = {c_om}\nn_th = 0.1\n\n[axis tau]\nmin = 0\nmax = 1\npoints = 41\n",
}


@pytest.mark.parametrize("c_om", [1.5, 3.0], ids=["stable", "unstable"])
@pytest.mark.parametrize("grid", sorted(DEVICE_FIXED_GRIDS))
def test_device_fixed_sweeps_write_the_full_columns_bytes(tmp_path, monkeypatch, grid, c_om):
    path = tmp_path / "sweep.ini"
    path.write_text(DEVICE_FIXED_GRIDS[grid].format(c_om=c_om), encoding="utf-8")
    cfg = parse_config(path)
    spec = EXPERIMENTS[cfg.experiment]
    with monkeypatch.context() as patch:
        patch.setitem(EXPERIMENTS, spec.name, _full_columns(spec))
        expected = run_sweep(cfg, out_dir=tmp_path / "full").path.read_bytes()
    assert expected.count(b"\n") == 42
    assert run_sweep(cfg, out_dir=tmp_path / "one").path.read_bytes() == expected
    assert run_sweep(cfg, out_dir=tmp_path / "pool", jobs=2).path.read_bytes() == expected
    monkeypatch.setattr(sweeps, "_BLOCK_POINTS", 3)
    assert len(sweeps._row_blocks(cfg.axes, 1)) == 14
    assert run_sweep(cfg, out_dir=tmp_path / "rows").path.read_bytes() == expected
    assert run_sweep(cfg, out_dir=tmp_path / "rows2", jobs=2).path.read_bytes() == expected
