"""Standalone SVG heatmaps from two-axis sweep CSV files.

The renderer is dependency-free: cells are plain SVG rectangles colored on a
linear scale between the metric minimum and maximum, with unstable (empty)
cells drawn in a neutral gray.  The first CSV axis runs bottom to top, the
second left to right.
"""

import csv
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


def _read_grid(csv_path: Path, metric: str) -> tuple:
    """Axis names and value counts, and the metric value of each cell (None
    where empty or not finite).

    Rows are read one at a time, keeping only their axis-value indices and
    metric cell: holding every row whole cost about 7 MB on a 100x100 grid.
    """
    with open(csv_path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ConfigError(f"{csv_path}: empty CSV") from None
        if "stable" not in header:
            raise ConfigError(f"{csv_path}: not a sweep CSV (no 'stable' column)")
        n_axes = header.index("stable")
        if n_axes != 2:
            raise ConfigError(f"{csv_path}: heatmaps need a 2-axis grid, found {n_axes} axis column(s)")
        if metric not in header:
            raise ConfigError(f"{csv_path}: no column named {metric!r}")
        mcol = header.index(metric)
        # each axis value's index in order of first appearance, per row
        seen1, seen2, idx1, idx2, cells = {}, {}, [], [], []
        for row in reader:
            idx1.append(seen1.setdefault(row[0], len(seen1)))
            idx2.append(seen2.setdefault(row[1], len(seen2)))
            cells.append(row[mcol])
    n1, n2 = len(seen1), len(seen2)
    if n1 * n2 != len(cells):
        raise ConfigError(f"{csv_path}: rows do not form a complete {n1} x {n2} grid")
    values = []
    for k, cell in enumerate(cells):
        if (idx1[k], idx2[k]) != (k // n2, k % n2):
            raise ConfigError(f"{csv_path}: rows are not in row-major grid order")
        if cell == "":
            values.append(None)
        else:
            parsed = float(cell)
            # non-finite cells (e.g. an infinite boundary) render as neutral
            values.append(parsed if np.isfinite(parsed) else None)
    return header[0], header[1], n1, n2, values


def emit_heatmap(csv_path, metric: str, svg_path) -> Path:
    """Render one metric column of a 2-axis sweep CSV as an SVG heatmap."""
    csv_path = Path(csv_path)
    svg_path = Path(svg_path)
    ax1_name, ax2_name, n1, n2, values = _read_grid(csv_path, metric)

    finite = [v for v in values if v is not None]
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
        for k, value in enumerate(values):
            i, j = k // n2, k % n2
            x = _MARGIN_L + j * cell_w
            # first axis increases upward
            y = _MARGIN_T + _PLOT_H - (i + 1) * cell_h
            if value is None:
                fill = NEUTRAL
            elif degenerate:
                fill = _color(0.5)
            else:
                fill = _color((value - vmin) / (vmax - vmin))
            fh.write(
                f'<rect x="{x:.2f}" y="{y:.2f}" width="{cell_w + 0.05:.2f}" '
                f'height="{cell_h + 0.05:.2f}" fill="{fill}"/>\n'
            )
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
