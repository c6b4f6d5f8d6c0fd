import numpy as np
import pytest

from gausslink.heatmap import _STOPS, NEUTRAL, _color, _fills, emit_heatmap


def _expected(values, vmin, vmax) -> list:
    """Each cell's fill the way the renderer colored one value at a time."""
    out = []
    for value in values.tolist():
        if np.isnan(value):
            out.append(NEUTRAL)
        else:
            out.append(_color(0.5 if vmax <= vmin else (value - vmin) / (vmax - vmin)))
    return out


def _extremes(values):
    finite = [v for v in values.tolist() if not np.isnan(v)]
    return (min(finite), max(finite)) if finite else (0.0, 0.0)


@pytest.mark.parametrize("seed", range(5))
def test_fills_equal_the_per_value_colors(seed):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=2000) * 10.0 ** rng.uniform(-3, 3)
    values[rng.random(values.size) < 0.1] = np.nan
    values[:50] = values[50]  # repeated values share a color
    expected = _expected(values, *_extremes(values))
    assert _fills(values, *_extremes(values), {}) == expected
    # row by row, as the renderer calls it, equal colors share one string
    names = {}
    rows = [_fills(row, *_extremes(values), names) for row in np.split(values, 20)]
    assert sum(rows, []) == expected
    assert len({id(fill) for row in rows for fill in row}) == len(set(expected))


def test_half_way_channels_round_to_even():
    # fractions k / 1024 put some channels exactly half way between two
    # integers, where round() and np.rint both go to the even one
    values = np.arange(1025) / 1024.0
    pos = values * (len(_STOPS) - 1)
    i = np.minimum(pos.astype(int), len(_STOPS) - 2)
    stops = np.array(_STOPS, dtype=float)
    exact = stops[i] + (stops[i + 1] - stops[i]) * (pos - i)[:, None]
    assert np.count_nonzero(exact % 1.0 == 0.5) > 10
    assert _fills(values, 0.0, 1.0, {}) == _expected(values, 0.0, 1.0)


@pytest.mark.parametrize("value", [0.0, -0.0, 3.5, -1e300])
def test_degenerate_range_takes_the_middle_color(value):
    values = np.array([value, np.nan, value, value])
    fills = _fills(values, value, value, {})
    assert fills == [_color(0.5), NEUTRAL, _color(0.5), _color(0.5)]
    assert fills == _expected(values, value, value)


def test_all_unstable_grid_is_neutral(tmp_path):
    assert _fills(np.full(6, np.nan), 0.0, 0.0, {}) == [NEUTRAL] * 6
    csv_path = tmp_path / "grid.csv"
    rows = [f"{a},{b},0," for a in (1, 2) for b in (0.5, 1.5, 2.5)]
    csv_path.write_text("C_om,C_em,stable,e_f\n" + "\n".join(rows) + "\n")
    svg = emit_heatmap(csv_path, "e_f", tmp_path / "grid.svg").read_text()
    fills = [part.split('"')[0] for part in svg.split('fill="')[1:]]
    assert fills == ["white"] + [NEUTRAL] * 6
    assert "e_f: min=max=0<" in svg


def test_infinite_cells_are_neutral(tmp_path):
    csv_path = tmp_path / "grid.csv"
    cells = ["1", "inf", "-inf", "2"]
    rows = [f"{a},{b},1,{c}" for (a, b), c in zip([(1, 1), (1, 2), (2, 1), (2, 2)], cells)]
    csv_path.write_text("x,y,stable,m\n" + "\n".join(rows) + "\n")
    svg = emit_heatmap(csv_path, "m", tmp_path / "grid.svg").read_text()
    fills = [part.split('"')[0] for part in svg.split('fill="')[2:]]
    assert fills == [_color(0.0), NEUTRAL, NEUTRAL, _color(1.0)]
