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
from .entanglement import duan_quantity, entanglement_of_formation, entanglement_rate
from .swap import apply_optical_loss, click_rate, mm_standard_form
from .teleport import induced_channel, optimize_gains
from .transducer import (
    TransducerParams,
    dqt_channel,
    output_mo_covariance,
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


class _UnstablePoint(Exception):
    pass


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
    return TransducerParams.from_cooperativities(
        pt["C_om"],
        pt["C_em"],
        pt["zeta_o"],
        pt["zeta_e"],
        pt["n_th"],
        detuning,
        pt["kappa_o"],
        pt["kappa_e"],
        pt["kappa_m"],
    )


def _source_form(pt: dict):
    p = _params(pt, "blue")
    if not stability_check(p):
        raise _UnstablePoint
    return output_mo_covariance(p, method="closed")


class _PointFailure(Exception):
    """Raised from the error of a block's point; its argument is the point's index."""


def _each(fn, points: list) -> list:
    """``fn`` at each point of a block, None where the point is unstable."""
    out = []
    for i, pt in enumerate(points):
        try:
            out.append(fn(pt))
        except _UnstablePoint:
            out.append(None)
        except (ValueError, ArithmeticError) as exc:
            raise _PointFailure(i) from exc
    return out


def _pointwise(fn):
    """Block evaluator that applies the one-point evaluator ``fn`` to each point."""
    return functools.wraps(fn)(functools.partial(_each, fn))


def _optimize(forms: list) -> list:
    """One batched gain search over the stable forms of a block.

    Returns (kappa_opt, q_lb_opt) per form, None where the form is None.
    """
    stable = [f for f in forms if f is not None]
    kappa, q = optimize_gains(*(np.array([getattr(f, x) for f in stable]) for x in "uvw"))
    found = iter(zip(kappa.tolist(), q.tolist()))
    return [None if f is None else next(found) for f in forms]


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
    forms = _each(_source_form, points)
    return [
        None
        if form is None
        else {
            "u": form.u,
            "v": form.v,
            "w": form.w,
            "q_lb_eqt": gain[1],
            "kappa_opt": gain[0],
            "boundary": dqt_capacity_boundary(pt["zeta_o"], pt["zeta_e"]),
        }
        for pt, form, gain in zip(points, forms, _optimize(forms))
    ]


@_pointwise
def _eval_fig2a(pt):
    form = _source_form(pt)
    ch = induced_channel(form, pt["kappa"])
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


@_pointwise
def _eval_fig2d(pt):
    form = _source_form(pt)
    return {
        "u": form.u,
        "v": form.v,
        "w": form.w,
        "e_f": entanglement_of_formation(form),
    }


def _mm_form(pt):
    return mm_standard_form(apply_optical_loss(_source_form(pt), pt["tau"]))


@_pointwise
def _eval_fig4a(pt):
    mm = _mm_form(pt)
    return {"u_mm": mm.u, "w_mm": mm.w, "e_f_mm": entanglement_of_formation(mm)}


def _eval_fig4b(points):
    forms = _each(_mm_form, points)
    return [
        None
        if mm is None
        else {
            "u_mm": mm.u,
            "w_mm": mm.w,
            "q_lb_mm": gain[1],
            "kappa_opt": gain[0],
            "boundary": dqt_capacity_boundary(pt["zeta_o"], pt["zeta_e"]),
        }
        for pt, mm, gain in zip(points, forms, _optimize(forms))
    ]


@_pointwise
def _eval_fig5a(pt):
    p = _params(pt, "blue")
    if not stability_check(p):
        raise _UnstablePoint
    r_t, r_b = click_rate(p, pt["tau"], pt["pulse_duration"])
    return {"r_t": r_t, "r_B": r_b}


@_pointwise
def _eval_fig5b(pt):
    p = _params(pt, "blue")
    if not stability_check(p):
        raise _UnstablePoint
    return {"e_r": entanglement_rate(p, pt["tau"])}


def _custom_point(pt):
    ch = dqt_channel(_params(pt, "red"))
    form = apply_optical_loss(_source_form(pt), pt["tau"])
    mm = mm_standard_form(form)
    metrics = {
        "eta0": ch.eta,
        "q_lb_dqt": q_lb_loss_amp(ch.eta, ch.n_e),
        "u": form.u,
        "v": form.v,
        "w": form.w,
        "duan": duan_quantity(form),
        "e_f": entanglement_of_formation(form),
        "e_f_mm": entanglement_of_formation(mm),
    }
    return metrics, form, mm


def _eval_custom(points):
    found = _each(_custom_point, points)
    stable = [f for f in found if f is not None]
    # the lossy source and its swapped form share one search
    gains = _optimize([f[1] for f in stable] + [f[2] for f in stable])
    for (metrics, _, _), (kappa, q), (_, q_mm) in zip(stable, gains, gains[len(stable):]):
        metrics.update(q_lb_eqt=q, kappa_opt=kappa, q_lb_mm=q_mm)
    return [None if f is None else f[0] for f in found]


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

    A ValueError or ArithmeticError at a point is raised as NumericalError
    naming the experiment and the point's axis values.
    """
    points = [{**fixed, **dict(zip(axis_names, coords))} for coords in block]
    try:
        return EXPERIMENTS[experiment].evaluate(points)
    except _PointFailure as failure:
        coords = block[failure.args[0]]
        where = ", ".join(f"{n}={_format_value(c)}" for n, c in zip(axis_names, coords))
        raise NumericalError(f"{experiment} at {where}: {failure.__cause__}") from failure


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
