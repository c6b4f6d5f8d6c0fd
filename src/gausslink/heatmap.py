"""Standalone SVG heatmaps from two-axis sweep CSV files.

The renderer is dependency-free: cells are plain SVG rectangles colored on a
linear scale between the metric minimum and maximum, with unstable (empty)
cells drawn in a neutral gray.  The first CSV axis runs bottom to top, the
second left to right.
"""

import csv
from operator import methodcaller
from pathlib import Path

import numpy as np

from .sweeps import ConfigError

__all__ = ["emit_heatmap"]

# piecewise-linear color scale (dark violet -> teal -> yellow)
_STOPS = ((68, 1, 84), (33, 145, 140), (253, 231, 37))
NEUTRAL = "#c8c8c8"

_MARGIN_L = 70
_MARGIN_B = 46
_MARGIN_T = 34
_MARGIN_R = 18
_PLOT_W = 560.0
_PLOT_H = 440.0


def _color(frac: float) -> str:
    frac = min(max(frac, 0.0), 1.0)
    pos = frac * (len(_STOPS) - 1)
    i = min(int(pos), len(_STOPS) - 2)
    t = pos - i
    rgb = [round(a + (b - a) * t) for a, b in zip(_STOPS[i], _STOPS[i + 1])]
    return "#{:02x}{:02x}{:02x}".format(*rgb)


# each segment's first stop a and its rise b - a, exact floats
_LOW = np.array(_STOPS[:-1], dtype=float)
_RISE = np.array(_STOPS[1:], dtype=float) - _LOW


def _fills(values: np.ndarray, vmin: float, vmax: float, names: dict) -> list:
    """The fill of each cell of ``values``: NEUTRAL where it is nan, else the
    color `_color` gives its fraction of [vmin, vmax] (0.5 where vmax <= vmin),
    computed for all of them at once with the same arithmetic.  ``names`` maps
    each color code met so far to its fill string, and gains the new ones, so
    that cells of one color share one string."""
    finite = ~np.isnan(values)
    if vmax <= vmin:
        pos = np.full(np.count_nonzero(finite), 0.5)
    else:
        pos = (values[finite] - vmin) / (vmax - vmin)
    np.clip(pos, 0.0, 1.0, out=pos)
    pos *= len(_STOPS) - 1
    i = np.minimum(pos.astype(int), len(_STOPS) - 2)
    pos -= i
    # round(a + (b - a) t), half to even
    rgb = _RISE[i]
    rgb *= pos[:, None]
    rgb += _LOW[i]
    codes = np.full(values.shape, -1)
    codes[finite] = np.rint(rgb, out=rgb) @ [1 << 16, 1 << 8, 1]
    codes = codes.tolist()
    for code in set(codes).difference(names):
        names[code] = "#%06x" % code if code >= 0 else NEUTRAL
    return [names[code] for code in codes]


def _read_grid(csv_path: Path, metric: str) -> tuple:
    """Axis names and value counts, and the metric value of each cell as a
    float array (nan where empty or not finite).

    A sweep CSV quotes no data cell, so each row is split at its commas, up
    to the second axis or the metric cell, whichever is later.  Rows are read
    one at a time, keeping only their metric cell and their axis values, one
    string per distinct value: holding every row whole cost about 7 MB on a
    100x100 grid.
    """
    with open(csv_path, encoding="utf-8") as fh:
        line = fh.readline()
        if not line:
            raise ConfigError(f"{csv_path}: empty CSV")
        header = next(csv.reader([line]))
        if "stable" not in header:
            raise ConfigError(f"{csv_path}: not a sweep CSV (no 'stable' column)")
        n_axes = header.index("stable")
        if n_axes != 2:
            raise ConfigError(f"{csv_path}: heatmaps need a 2-axis grid, found {n_axes} axis column(s)")
        if metric not in header:
            raise ConfigError(f"{csv_path}: no column named {metric!r}")
        mcol = header.index(metric)
        # each axis's distinct values in order of first appearance
        seen1, seen2, col1, col2, cells = {}, {}, [], [], []
        for row in map(methodcaller("split", ",", max(mcol, 1) + 1), fh):
            col1.append(seen1.setdefault(row[0], row[0]))
            col2.append(seen2.setdefault(row[1], row[1]))
            cells.append(row[mcol])
    n1, n2 = len(seen1), len(seen2)
    if n1 * n2 != len(cells):
        raise ConfigError(f"{csv_path}: rows do not form a complete {n1} x {n2} grid")
    if col1 != [x for x in seen1 for _ in range(n2)] or col2 != list(seen2) * n1:
        raise ConfigError(f"{csv_path}: rows are not in row-major grid order")
    # an empty cell is unstable, a non-finite one (e.g. an infinite boundary)
    # renders as neutral too; a last-column cell keeps its line break
    values = np.fromiter((float(cell.rstrip("\n") or "nan") for cell in cells), float, len(cells))
    values[np.isinf(values)] = np.nan
    return header[0], header[1], n1, n2, values


def emit_heatmap(csv_path, metric: str, svg_path) -> Path:
    """Render one metric column of a 2-axis sweep CSV as an SVG heatmap."""
    csv_path = Path(csv_path)
    svg_path = Path(svg_path)
    ax1_name, ax2_name, n1, n2, values = _read_grid(csv_path, metric)

    finite = values[~np.isnan(values)].tolist()
    if not finite:
        vmin = vmax = 0.0
    else:
        vmin, vmax = min(finite), max(finite)
    degenerate = vmax <= vmin

    cell_w = _PLOT_W / n2
    cell_h = _PLOT_H / n1
    width = _MARGIN_L + _PLOT_W + _MARGIN_R
    height = _MARGIN_T + _PLOT_H + _MARGIN_B

    label_style = 'font-family="sans-serif" font-size="13"'
    cx = _MARGIN_L + _PLOT_W / 2
    cy = _MARGIN_T + _PLOT_H / 2
    if degenerate:
        scale_note = f"{metric}: min=max={_fmt(vmin)}"
    else:
        scale_note = f"{metric}: min={_fmt(vmin)}, max={_fmt(vmax)}"
    try:
        svg_path.parent.mkdir(parents=True, exist_ok=True)
        fh = open(svg_path, "w", encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"[sweep] output: cannot write {svg_path}: {exc}") from exc
    # streamed: the document of a 100x100 grid held as strings takes about 2 MB
    with fh:
        fh.write(
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
            f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">\n'
            f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>\n'
        )
        # every cell of a column shares its x, of a row its y, and all their size
        xs = [f'<rect x="{_MARGIN_L + j * cell_w:.2f}" y="' for j in range(n2)]
        size = f'" width="{cell_w + 0.05:.2f}" height="{cell_h + 0.05:.2f}" fill="'
        names = {}
        for i in range(n1):
            # first axis increases upward
            y = f"{_MARGIN_T + _PLOT_H - (i + 1) * cell_h:.2f}{size}"
            fills = _fills(values[i * n2 : (i + 1) * n2], vmin, vmax, names)
            fh.write("".join([f'{x}{y}{fill}"/>\n' for x, fill in zip(xs, fills)]))
        fh.write(
            f'<text x="{cx:.0f}" y="{height - 12:.0f}" text-anchor="middle" {label_style}>'
            f"{ax2_name}</text>\n"
            f'<text x="16" y="{cy:.0f}" text-anchor="middle" {label_style} '
            f'transform="rotate(-90 16 {cy:.0f})">{ax1_name}</text>\n'
            f'<text x="{_MARGIN_L}" y="20" {label_style}>{scale_note}</text>\n'
            "</svg>\n"
        )
    return svg_path


def _fmt(v: float) -> str:
    return f"{v:.6g}"
