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
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .capacity import (
    _coherent_info_displacement,
    _coherent_info_loss_amp,
    _q_lb_loss_amp,
    dqt_capacity_boundary,
)
from .entanglement import _check_tau, _entanglement_rates, _eof, _optical_loss, _swap_form
from .swap import _click_rates
from .teleport import _induced_channels, optimize_gains
from .transducer import (
    TransducerParams,
    _check_forms,
    _closed_form_uvw,
    _dqt_eta_ne,
    cooperativities,
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
    """The device at a point, or one device per lane of a block's columns."""
    return TransducerParams.from_cooperativities(
        *(pt[k] for k in ("C_om", "C_em", "zeta_o", "zeta_e", "n_th")),
        detuning,
        *(pt[k] for k in ("kappa_o", "kappa_e", "kappa_m")),
    )


def _source_forms(columns: dict) -> tuple:
    """Stable mask of a block, and the validated on-resonance closed-form
    (u, v, w) arrays over its stable points.

    One blue device per point; one batched eigenvalue solve finds the stable ones.
    """
    p = _params(columns, "blue")
    stable = stability_check(p)
    c_om, c_em = cooperativities(p)
    u, v, w = _closed_form_uvw(
        *(x[stable] for x in (c_om, c_em, p.zeta_o, p.zeta_e, p.n_th))
    )
    _check_forms(u, v, w)
    return stable, u, v, w


def _swapped_forms(columns: dict) -> tuple:
    """Stable mask, the source (u, v, w) after optical loss tau, and (diag, off)
    of the swapped microwave pair, over the stable points of a block."""
    stable, u, v, w = _source_forms(columns)
    tau = columns["tau"][stable]
    _check_tau(tau)
    u, w = _optical_loss(u, w, tau)
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


def _boundary(columns: dict) -> float:
    # the extraction ratios are fixed, never swept
    return dqt_capacity_boundary(columns["zeta_o"][0], columns["zeta_e"][0])


def _eval_fig1a(columns):
    eta, n_e = _dqt_eta_ne(_params(columns, "red"), 0.0)
    product = columns["C_om"] * columns["C_em"]
    boundary = _boundary(columns)
    return _rows(
        np.ones(product.size, dtype=bool),
        eta0=eta,
        q_lb_dqt=_q_lb_loss_amp(eta, n_e),
        cc_product=product,
        boundary=boundary,
        above_boundary=np.where(product > boundary, 1.0, 0.0),
    )


def _eval_capacity_map(columns):
    stable, u, v, w = _source_forms(columns)
    kappa, q = optimize_gains(u, v, w)
    return _rows(stable, u=u, v=v, w=w, q_lb_eqt=q, kappa_opt=kappa, boundary=_boundary(columns))


def _eval_fig2a(columns):
    stable, u, v, w = _source_forms(columns)
    kinds, eta, noise = _induced_channels(u, v, w, columns["kappa"][stable])
    disp = eta == 1.0  # exactly the displacement lanes: elsewhere |kappa - 1| >= 1e-9
    raw = np.empty(eta.shape)
    with np.errstate(divide="raise", invalid="raise"):  # as the scalar bounds' checks
        raw[disp] = _coherent_info_displacement(noise[disp])
        raw[~disp] = _coherent_info_loss_amp(eta[~disp], noise[~disp])
    q_lb = np.maximum(raw, 0.0)
    return _rows(stable, kind=kinds, eta_prime=eta, noise=noise, q_lb=q_lb, q_lb_raw=raw)


def _eval_fig2d(columns):
    stable, u, v, w = _source_forms(columns)
    return _rows(stable, u=u, v=v, w=w, e_f=_eof(u, v, w)[0])


def _eval_fig4a(columns):
    stable, *_, diag, off = _swapped_forms(columns)
    return _rows(stable, u_mm=diag, w_mm=off, e_f_mm=_eof(diag, diag, off)[0])


def _eval_fig4b(columns):
    stable, *_, diag, off = _swapped_forms(columns)
    kappa, q = optimize_gains(diag, diag, off)
    return _rows(
        stable, u_mm=diag, w_mm=off, q_lb_mm=q, kappa_opt=kappa, boundary=_boundary(columns)
    )


def _devices(columns: dict, per_lane: tuple) -> list:
    """(blue device, lane indices) for each distinct device of a block, a device
    being every column but ``per_lane``; each device is built from Python
    floats, as from a single point."""
    keys = [k for k in columns if k not in per_lane]
    lanes = {}
    for i, device in enumerate(zip(*(columns[k].tolist() for k in keys))):
        lanes.setdefault(device, []).append(i)
    return [(_params(dict(zip(keys, d)), "blue"), idx) for d, idx in lanes.items()]


def _eval_fig5a(columns):
    """Click rates of a block, with one flux integral per stable device."""
    stable = stability_check(_params(columns, "blue"))
    tau, dt = columns["tau"][stable], columns["pulse_duration"][stable]
    r_t, r_b = np.empty(tau.size), np.empty(tau.size)
    stable_columns = {k: c[stable] for k, c in columns.items()}
    for p, lanes in _devices(stable_columns, ("tau", "pulse_duration")):
        r_t[lanes], r_b[lanes] = _click_rates(p, tau[lanes], dt[lanes])
    return _rows(stable, r_t=r_t, r_B=r_b)


def _eval_fig5b(columns):
    """Homodyne rates of a block: one stability check per device, and one
    spectra solve per trapezoid level per stable device, shared by its tau lanes."""
    out = [None] * len(columns["tau"])
    for p, lanes in _devices(columns, ("tau",)):
        if stability_check(p):
            for i, e_r in zip(lanes, _entanglement_rates(p, columns["tau"][lanes]).tolist()):
                out[i] = {"e_r": e_r}
    return out


def _eval_custom(columns):
    stable, u, v, w, diag, off = _swapped_forms(columns)
    # the lossy source and its swapped form share one search
    kappa, q = optimize_gains(*np.concatenate([[u, v, w], [diag, diag, off]], axis=1))
    eta, n_e = (x[stable] for x in _dqt_eta_ne(_params(columns, "red"), 0.0))
    return _rows(
        stable,
        eta0=eta,
        q_lb_dqt=_q_lb_loss_amp(eta, n_e),
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

    ``evaluate`` takes a block of grid points as one dict of equal-length
    float arrays, a column per parameter, and returns one metrics dict per
    point, None where the point is unstable.
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
        value = float(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: not a number: {raw!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"[{section}] {key}: not a finite number: {raw!r}")
    return value


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
    except UnicodeDecodeError as exc:  # a ValueError: main would call it numerical
        raise ConfigError(f"config file {path} is not valid UTF-8: {exc}") from exc

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


def _evaluate_block(experiment: str, fixed: dict, axis_names: tuple, block: np.ndarray) -> list:
    """Metrics of each point of a block of grid coordinates, None where unstable.

    A ValueError or ArithmeticError is raised as NumericalError naming the
    experiment and the axis values of the first point that fails alone: points
    do not interact, so a failing block is re-run one point at a time.
    """
    evaluate = EXPERIMENTS[experiment].evaluate
    columns = {k: np.full(len(block), v) for k, v in fixed.items()}
    columns.update(zip(axis_names, np.ascontiguousarray(block.T)))
    try:
        return evaluate(columns)
    except (ValueError, ArithmeticError):
        for i, coords in enumerate(block.tolist()):
            try:
                evaluate({k: c[i : i + 1] for k, c in columns.items()})
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


def _row_blocks(grid: np.ndarray, axes: tuple, count: int) -> list:
    """Split a row-major grid into at most ``count`` contiguous blocks of whole
    rows (a row is one value of the first axis)."""
    width = axes[1].points if len(axes) == 2 else 1
    rows = len(grid) // width
    count = min(count, rows)
    cuts = [width * (rows * i // count) for i in range(count + 1)]
    return [grid[lo:hi] for lo, hi in zip(cuts, cuts[1:])]


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
    # one row of coordinates per point, first axis outermost
    mesh = np.meshgrid(*(axis.values() for axis in config.axes), indexing="ij")
    grid = np.stack([m.ravel() for m in mesh], axis=-1)
    evaluate = functools.partial(_evaluate_block, config.experiment, config.fixed, axis_names)
    if jobs > 1:
        # imported here: multiprocessing adds about 1.2 MB of RSS to every process
        from concurrent.futures import ProcessPoolExecutor

        blocks = _row_blocks(grid, config.axes, jobs * _BLOCKS_PER_JOB)
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = [m for block in pool.map(evaluate, blocks) for m in block]
    else:
        outcomes = evaluate(grid)

    header = list(axis_names) + ["stable"] + list(spec.metrics)
    rows = []
    for coords, metrics in zip(grid.tolist(), outcomes):
        row = [_format_value(c) for c in coords]
        row.append("0" if metrics is None else "1")
        for name in spec.metrics:
            row.append("" if metrics is None else _format_value(metrics.get(name)))
        rows.append(tuple(row))

    out_path = Path(config.output)
    if out_dir is not None:
        out_path = Path(out_dir) / out_path
    try:
        if out_path.parent != Path(""):
            os.makedirs(out_path.parent, exist_ok=True)
        with open(out_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
    except OSError as exc:
        raise ConfigError(f"[sweep] output: cannot write {out_path}: {exc}") from exc

    return SweepResult(
        path=out_path, columns=tuple(header), rows=tuple(rows), axes=config.axes
    )
