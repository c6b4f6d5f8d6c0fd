"""Configuration-driven parameter sweeps emitting deterministic CSV grids.

A sweep config is a flat INI file: a ``[sweep]`` section naming the
experiment and output, an optional ``[fixed]`` section overriding scalar
parameters, and up to two ``[axis NAME]`` sections defining the swept grid.
Every named experiment carries defaults matching the corresponding figure,
so a config may consist of nothing but the experiment name.
"""

import configparser
import csv
import functools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .capacity import (
    coherent_info_displacement,
    coherent_info_loss_amp,
    dqt_capacity_boundary,
    q_lb_loss_amp,
    RANDOM_DISPLACEMENT,
)
from .entanglement import _eof, _optical_loss, _swap_form, entanglement_rate
from .swap import click_rate
from .teleport import induced_channel, optimize_gains
from .transducer import (
    TransducerParams,
    TwoModeStandardForm,
    _check_forms,
    _closed_form_uvw,
    cooperativities,
    dqt_channel,
    stability_check,
)

__all__ = [
    "Axis",
    "SweepConfig",
    "SweepResult",
    "ConfigError",
    "NumericalError",
    "parse_config",
    "run_sweep",
    "EXPERIMENTS",
]


class ConfigError(Exception):
    """Invalid sweep configuration; reported with section/field context."""


class NumericalError(Exception):
    """Numerical failure while evaluating a sweep point."""


AXIS_NAMES = ("C_om", "C_em", "kappa", "n_th", "tau")

FIXED_DEFAULTS = {
    "zeta_o": 1.0,
    "zeta_e": 1.0,
    "n_th": 0.0,
    "kappa_o": 1.0,
    "kappa_e": 1.0,
    "kappa_m": 1.0,
    "C_om": 1.0,
    "C_em": 1.0,
    "kappa": 1.0,
    "tau": 1.0,
    "pulse_duration": 1.0,
}


@dataclass(frozen=True)
class Axis:
    name: str
    lo: float
    hi: float
    points: int
    scale: str = "linear"

    def values(self) -> np.ndarray:
        if self.scale == "log":
            return np.geomspace(self.lo, self.hi, self.points)
        return np.linspace(self.lo, self.hi, self.points)


@dataclass(frozen=True)
class SweepConfig:
    experiment: str
    fixed: dict
    axes: tuple
    output: str
    emit_svg: bool = False
    svg_metric: str = ""


@dataclass(frozen=True)
class SweepResult:
    path: Path
    columns: tuple
    rows: tuple
    axes: tuple


# --- experiment definitions ---------------------------------------------------


def _params(pt: dict, detuning: str) -> TransducerParams:
    """The device at a point, or one device per lane where ``pt`` holds arrays."""
    return TransducerParams.from_cooperativities(
        *(pt[k] for k in ("C_om", "C_em", "zeta_o", "zeta_e", "n_th")),
        detuning,
        *(pt[k] for k in ("kappa_o", "kappa_e", "kappa_m")),
    )


def _columns(points: list) -> dict:
    return {k: np.array([pt[k] for pt in points], dtype=float) for k in points[0]}


def _source_forms(points: list) -> tuple:
    """Stable mask of a block of points, and the validated on-resonance
    closed-form (u, v, w) arrays over its stable points.

    One blue device per point; one batched eigenvalue solve finds the stable ones.
    """
    p = _params(_columns(points), "blue")
    stable = stability_check(p)
    c_om, c_em = cooperativities(p)
    u, v, w = _closed_form_uvw(
        *(x[stable] for x in (c_om, c_em, p.zeta_o, p.zeta_e, p.n_th))
    )
    _check_forms(u, v, w)
    return stable, u, v, w


def _swapped_forms(points: list) -> tuple:
    """Stable mask, the source (u, v, w) after optical loss tau, and (diag, off)
    of the swapped microwave pair, over the stable points of a block."""
    stable, u, v, w = _source_forms(points)
    u, w = _optical_loss(u, w, np.array([pt["tau"] for pt in points])[stable])
    _check_forms(u, v, w)
    diag, off = _swap_form(u, v, w)
    _check_forms(diag, diag, off)
    return stable, u, v, w, diag, off


def _rows(stable: np.ndarray, **columns) -> list:
    """Metrics dicts of a block, None where unstable; a column holds one value
    per stable point, or one for all."""
    n = int(stable.sum())
    values = zip(*(np.broadcast_to(c, n).tolist() for c in columns.values()))
    return [dict(zip(columns, next(values))) if s else None for s in stable.tolist()]


def _boundary(points: list) -> float:
    # the extraction ratios are fixed, never swept
    return dqt_capacity_boundary(points[0]["zeta_o"], points[0]["zeta_e"])


def _pointwise(fn):
    """Block evaluator applying ``fn``, which returns None at an unstable point,
    to each point."""
    return functools.wraps(fn)(lambda points: [fn(pt) for pt in points])


@_pointwise
def _eval_fig1a(pt):
    ch = dqt_channel(_params(pt, "red"))
    boundary = dqt_capacity_boundary(pt["zeta_o"], pt["zeta_e"])
    product = pt["C_om"] * pt["C_em"]
    return {
        "eta0": ch.eta,
        "q_lb_dqt": q_lb_loss_amp(ch.eta, ch.n_e),
        "cc_product": product,
        "boundary": boundary,
        "above_boundary": 1.0 if product > boundary else 0.0,
    }


def _eval_capacity_map(points):
    stable, u, v, w = _source_forms(points)
    kappa, q = optimize_gains(u, v, w)
    return _rows(stable, u=u, v=v, w=w, q_lb_eqt=q, kappa_opt=kappa, boundary=_boundary(points))


def _gain_curve_point(form: TwoModeStandardForm, kappa: float) -> dict:
    ch = induced_channel(form, kappa)
    if ch.kind == RANDOM_DISPLACEMENT:
        raw = coherent_info_displacement(ch.noise)
    else:
        raw = coherent_info_loss_amp(ch.eta, ch.noise)
    return {
        "kind": ch.kind,
        "eta_prime": ch.eta,
        "noise": ch.noise,
        "q_lb": max(0.0, raw),
        "q_lb_raw": raw,
    }


def _eval_fig2a(points):
    stable, u, v, w = _source_forms(points)
    forms = iter(zip(u.tolist(), v.tolist(), w.tolist()))
    return [
        _gain_curve_point(TwoModeStandardForm(*next(forms)), pt["kappa"]) if s else None
        for pt, s in zip(points, stable.tolist())
    ]


def _eval_fig2d(points):
    stable, u, v, w = _source_forms(points)
    return _rows(stable, u=u, v=v, w=w, e_f=_eof(u, v, w)[0])


def _eval_fig4a(points):
    stable, *_, diag, off = _swapped_forms(points)
    return _rows(stable, u_mm=diag, w_mm=off, e_f_mm=_eof(diag, diag, off)[0])


def _eval_fig4b(points):
    stable, *_, diag, off = _swapped_forms(points)
    kappa, q = optimize_gains(diag, diag, off)
    return _rows(
        stable, u_mm=diag, w_mm=off, q_lb_mm=q, kappa_opt=kappa, boundary=_boundary(points)
    )


@_pointwise
def _eval_fig5a(pt):
    p = _params(pt, "blue")
    if not stability_check(p):
        return None
    r_t, r_b = click_rate(p, pt["tau"], pt["pulse_duration"])
    return {"r_t": r_t, "r_B": r_b}


@_pointwise
def _eval_fig5b(pt):
    p = _params(pt, "blue")
    if not stability_check(p):
        return None
    return {"e_r": entanglement_rate(p, pt["tau"])}


def _eval_custom(points):
    stable, u, v, w, diag, off = _swapped_forms(points)
    # the lossy source and its swapped form share one search
    kappa, q = optimize_gains(*np.concatenate([[u, v, w], [diag, diag, off]], axis=1))
    red = [dqt_channel(_params(pt, "red")) for pt, s in zip(points, stable) if s]
    return _rows(
        stable,
        eta0=[ch.eta for ch in red],
        q_lb_dqt=[q_lb_loss_amp(ch.eta, ch.n_e) for ch in red],
        u=u,
        v=v,
        w=w,
        duan=u + v - 2 * w,
        e_f=_eof(u, v, w)[0],
        q_lb_eqt=q[: u.size],
        kappa_opt=kappa[: u.size],
        e_f_mm=_eof(diag, diag, off)[0],
        q_lb_mm=q[u.size :],
    )


def _axes_cc() -> tuple:
    return (
        Axis("C_om", 0.1, 10.0, 100, "log"),
        Axis("C_em", 0.1, 10.0, 100, "log"),
    )


def _axes_fig5() -> tuple:
    return (
        Axis("C_om", 0.1, 10.0, 100, "log"),
        Axis("tau", 0.0, 1.0, 100, "linear"),
    )


@dataclass(frozen=True)
class ExperimentSpec:
    """A registered experiment.

    ``evaluate`` takes a block of grid points, each a dict of parameter
    values, and returns one metrics dict per point, None where the point is
    unstable.
    """

    name: str
    metrics: tuple
    evaluate: callable
    default_axes: tuple
    fixed_overrides: dict = field(default_factory=dict)
    svg_metric: str = ""


EXPERIMENTS = {
    spec.name: spec
    for spec in (
        ExperimentSpec(
            "fig1a_dqt_boundary",
            ("eta0", "q_lb_dqt", "cc_product", "boundary", "above_boundary"),
            _eval_fig1a,
            _axes_cc(),
            {},
            "q_lb_dqt",
        ),
        ExperimentSpec(
            "fig1b_eqt_ideal",
            ("u", "v", "w", "q_lb_eqt", "kappa_opt", "boundary"),
            _eval_capacity_map,
            _axes_cc(),
            {},
            "q_lb_eqt",
        ),
        ExperimentSpec(
            "fig2a_gain_curves",
            ("kind", "eta_prime", "noise", "q_lb", "q_lb_raw"),
            _eval_fig2a,
            (Axis("kappa", 0.5, 3.0, 200, "linear"),),
            {"zeta_o": 0.8},
            "q_lb",
        ),
        ExperimentSpec(
            "fig2bc_capacity_maps",
            ("u", "v", "w", "q_lb_eqt", "kappa_opt", "boundary"),
            _eval_capacity_map,
            _axes_cc(),
            {"zeta_o": 0.8},
            "q_lb_eqt",
        ),
        ExperimentSpec(
            "fig2d_eof_map",
            ("u", "v", "w", "e_f"),
            _eval_fig2d,
            _axes_cc(),
            {"zeta_o": 0.8},
            "e_f",
        ),
        ExperimentSpec(
            "fig4a_mm_eof",
            ("u_mm", "w_mm", "e_f_mm"),
            _eval_fig4a,
            _axes_cc(),
            {},
            "e_f_mm",
        ),
        ExperimentSpec(
            "fig4b_mm_capacity",
            ("u_mm", "w_mm", "q_lb_mm", "kappa_opt", "boundary"),
            _eval_fig4b,
            _axes_cc(),
            {},
            "q_lb_mm",
        ),
        ExperimentSpec(
            "fig5a_click_rate",
            ("r_t", "r_B"),
            _eval_fig5a,
            _axes_fig5(),
            {"C_em": 10.0},
            "r_B",
        ),
        ExperimentSpec(
            "fig5b_homodyne_rate",
            ("e_r",),
            _eval_fig5b,
            _axes_fig5(),
            {"C_em": 10.0},
            "e_r",
        ),
        ExperimentSpec(
            "custom",
            (
                "eta0",
                "q_lb_dqt",
                "u",
                "v",
                "w",
                "duan",
                "e_f",
                "q_lb_eqt",
                "kappa_opt",
                "e_f_mm",
                "q_lb_mm",
            ),
            _eval_custom,
            (Axis("C_om", 0.1, 10.0, 50, "log"),),
            {},
            "q_lb_eqt",
        ),
    )
}


# --- config parsing -----------------------------------------------------------


def _parse_float(section: str, key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: not a number: {raw!r}") from exc


def _parse_axis(section: str, items: dict) -> Axis:
    name = section.split(None, 1)[1]
    if name not in AXIS_NAMES:
        raise ConfigError(
            f"[{section}]: unknown axis {name!r}; valid axes: {', '.join(AXIS_NAMES)}"
        )
    for key in ("min", "max", "points"):
        if key not in items:
            raise ConfigError(f"[{section}] {key}: required field missing")
    lo = _parse_float(section, "min", items["min"])
    hi = _parse_float(section, "max", items["max"])
    try:
        points = int(items["points"])
    except ValueError as exc:
        raise ConfigError(f"[{section}] points: not an integer") from exc
    scale = items.get("scale", "linear")
    if scale not in ("linear", "log"):
        raise ConfigError(f"[{section}] scale: must be 'linear' or 'log'")
    if points < 2:
        raise ConfigError(f"[{section}] points: must be at least 2")
    if not lo < hi:
        raise ConfigError(f"[{section}] min: must be below max")
    if scale == "log" and lo <= 0:
        raise ConfigError(f"[{section}] min: log axes require positive bounds")
    extra = set(items) - {"min", "max", "points", "scale"}
    if extra:
        raise ConfigError(f"[{section}] {sorted(extra)[0]}: unknown field")
    return Axis(name, lo, hi, points, scale)


def _parse_bool(section: str, key: str, raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"[{section}] {key}: not a boolean: {raw!r}")


def parse_config(path) -> SweepConfig:
    """Parse an INI sweep configuration file into a SweepConfig."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    try:
        parser.read(path, encoding="utf-8")
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc

    if "sweep" not in parser:
        raise ConfigError("[sweep]: section missing")
    sweep = dict(parser["sweep"])
    name = sweep.pop("experiment", None)
    if name is None:
        raise ConfigError("[sweep] experiment: required field missing")
    if name not in EXPERIMENTS:
        raise ConfigError(
            f"[sweep] experiment: unknown experiment {name!r}; "
            f"valid: {', '.join(sorted(EXPERIMENTS))}"
        )
    spec = EXPERIMENTS[name]
    output = sweep.pop("output", f"{name}.csv")
    emit_svg = _parse_bool("sweep", "emit_svg", sweep.pop("emit_svg", "false"))
    svg_metric = sweep.pop("svg_metric", spec.svg_metric)
    if svg_metric not in spec.metrics:
        raise ConfigError(f"[sweep] svg_metric: {svg_metric!r} is not a metric of {name}")
    if sweep:
        raise ConfigError(f"[sweep] {sorted(sweep)[0]}: unknown field")

    fixed = dict(FIXED_DEFAULTS)
    fixed.update(spec.fixed_overrides)
    if "fixed" in parser:
        for key, raw in parser["fixed"].items():
            if key not in FIXED_DEFAULTS:
                raise ConfigError(f"[fixed] {key}: unknown parameter")
            fixed[key] = _parse_float("fixed", key, raw)
    for zeta in ("zeta_o", "zeta_e"):
        if not 0.0 < fixed[zeta] <= 1.0:
            raise ConfigError(f"[fixed] {zeta}: must lie in (0, 1]")

    axes = []
    for section in parser.sections():
        if section.startswith("axis"):
            parts = section.split(None, 1)
            if len(parts) != 2:
                raise ConfigError(f"[{section}]: axis sections are written '[axis NAME]'")
            axes.append(_parse_axis(section, dict(parser[section])))
        elif section not in ("sweep", "fixed"):
            raise ConfigError(f"[{section}]: unknown section")
    axes = tuple(axes) if axes else spec.default_axes
    if not 1 <= len(axes) <= 2:
        raise ConfigError("a sweep needs one or two [axis NAME] sections")
    if len(axes) == 2 and axes[0].name == axes[1].name:
        raise ConfigError(f"[axis {axes[1].name}]: duplicate axis name")

    return SweepConfig(
        experiment=name,
        fixed=fixed,
        axes=axes,
        output=output,
        emit_svg=emit_svg,
        svg_metric=svg_metric,
    )


# --- execution ----------------------------------------------------------------


def _grid_points(config: SweepConfig):
    """Row-major iteration: first axis outermost."""
    values = [axis.values() for axis in config.axes]
    if len(values) == 1:
        for a in values[0]:
            yield (float(a),)
    else:
        for a in values[0]:
            for b in values[1]:
                yield (float(a), float(b))


def _evaluate_block(experiment: str, fixed: dict, axis_names: tuple, block: list) -> list:
    """Metrics of each point of a block of grid coordinates, None where unstable.

    A ValueError or ArithmeticError is raised as NumericalError naming the
    experiment and the axis values of the first point that fails alone: points
    do not interact, so a failing block is re-run one point at a time.
    """
    evaluate = EXPERIMENTS[experiment].evaluate
    points = [{**fixed, **dict(zip(axis_names, coords))} for coords in block]
    try:
        return evaluate(points)
    except (ValueError, ArithmeticError):
        for coords, pt in zip(block, points):
            try:
                evaluate([pt])
            except (ValueError, ArithmeticError) as exc:
                where = ", ".join(f"{n}={_format_value(c)}" for n, c in zip(axis_names, coords))
                raise NumericalError(f"{experiment} at {where}: {exc}") from exc
        raise


def _format_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    value = float(value)
    if math.isinf(value):
        return "inf"
    return f"{value:.12g}"


# blocks each pool worker gets on average: several, so that rows of cheap
# unstable points do not leave a worker idle while another finishes
_BLOCKS_PER_JOB = 4


def _row_blocks(points: list, axes: tuple, count: int) -> list:
    """Split row-major grid points into at most ``count`` contiguous blocks of
    whole rows (a row is one value of the first axis)."""
    width = axes[1].points if len(axes) == 2 else 1
    rows = len(points) // width
    count = min(count, rows)
    cuts = [width * (rows * i // count) for i in range(count + 1)]
    return [points[lo:hi] for lo, hi in zip(cuts, cuts[1:])]


def run_sweep(config: SweepConfig, out_dir=None, jobs: int = 1) -> SweepResult:
    """Evaluate the configured grid and write the CSV file.

    The experiment evaluates the whole grid as one block, or, with ``jobs``
    above 1, contiguous blocks of rows spread over a process pool.  Rows are
    always written in deterministic row-major axis order with fixed
    12-significant-digit formatting, so identical configs produce
    byte-identical files.  Unstable source points keep their axis columns,
    carry stable=0 and leave every metric cell empty.
    """
    spec = EXPERIMENTS[config.experiment]
    axis_names = tuple(axis.name for axis in config.axes)
    points = list(_grid_points(config))
    evaluate = functools.partial(_evaluate_block, config.experiment, config.fixed, axis_names)
    if jobs > 1:
        blocks = _row_blocks(points, config.axes, jobs * _BLOCKS_PER_JOB)
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = [m for block in pool.map(evaluate, blocks) for m in block]
    else:
        outcomes = evaluate(points)

    header = list(axis_names) + ["stable"] + list(spec.metrics)
    rows = []
    for coords, metrics in zip(points, outcomes):
        row = [_format_value(c) for c in coords]
        row.append("0" if metrics is None else "1")
        for name in spec.metrics:
            row.append("" if metrics is None else _format_value(metrics.get(name)))
        rows.append(tuple(row))

    out_path = Path(config.output)
    if out_dir is not None:
        out_path = Path(out_dir) / out_path
    if out_path.parent != Path(""):
        os.makedirs(out_path.parent, exist_ok=True)
    try:
        with open(out_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
    except OSError as exc:
        raise ConfigError(f"[sweep] output: cannot write {out_path}: {exc}") from exc

    return SweepResult(
        path=out_path, columns=tuple(header), rows=tuple(rows), axes=config.axes
    )
