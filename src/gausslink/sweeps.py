"""Configuration-driven parameter sweeps emitting deterministic CSV grids.

A sweep config is a flat INI file: a ``[sweep]`` section naming the
experiment and output, an optional ``[fixed]`` section overriding scalar
parameters, and up to two ``[axis NAME]`` sections defining the swept grid.
Every named experiment carries defaults matching the corresponding figure,
so a config may consist of nothing but the experiment name.
"""

import collections
import configparser
import contextlib
import csv
import functools
import itertools
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .capacity import (
    _coherent_info_displacement,
    _coherent_info_loss_amp,
    _q_lb_loss_amp,
    dqt_capacity_boundary,
)
from .entanglement import _check_tau, _duan, _entanglement_rates, _eof, _optical_loss, _swap_form
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
# metrics written as text, which a heatmap cannot color: fig2a's channel kind
_TEXT_METRICS = ("kind",)
# a sweep's floating-point policy for its blocks and axes: only underflow passes
_raising = functools.partial(np.errstate, all="raise", under="ignore")

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
        """The axis's points, with the bits of np.geomspace (log scale) or
        np.linspace: built on the first call, then the same read-only array on
        every call.  A log axis needs nonzero bounds of one sign.  The array is
        not pickled: a worker builds its own."""
        values = self.__dict__.get("_values")
        if values is None:
            if self.scale == "log" and not (self.lo > 0 < self.hi or self.lo < 0 > self.hi):
                raise ValueError("a log axis needs nonzero bounds of one sign")
            if self.points == 1:  # what either spacing gives, without its set-up
                values = np.array([self.lo], dtype=float)
            elif self.scale == "log":
                values = np.geomspace(self.lo, self.hi, self.points)
            else:
                values = np.linspace(self.lo, self.hi, self.points)
            values.flags.writeable = False
            object.__setattr__(self, "_values", values)
        return values

    def __getstate__(self):
        return {k: v for k, v in self.__dict__.items() if k != "_values"}


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
    axes: tuple

    @property
    def rows(self) -> tuple:
        """The data rows of the written file, each a tuple of its cells."""
        with open(self.path, newline="", encoding="utf-8") as fh:
            return tuple(map(tuple, csv.reader(fh)))[1:]


# --- experiment definitions ---------------------------------------------------


def _params(pt: dict, detuning: str) -> TransducerParams:
    """The device at a point, or one device per lane of a block's columns."""
    return TransducerParams.from_cooperativities(
        *(pt[k] for k in ("C_om", "C_em", "zeta_o", "zeta_e", "n_th")),
        detuning,
        *(pt[k] for k in ("kappa_o", "kappa_e", "kappa_m")),
    )


def _shape(columns: dict) -> tuple:
    """The shape of a block's points: that of its array columns."""
    return next((c.shape for c in columns.values() if getattr(c, "ndim", 0)), ())


def _at(x, where) -> np.ndarray:
    """A block's column ``x``, a float or an array, at the points the mask
    ``where`` selects: always an array, so that what is computed from it takes
    the array route whether or not ``x`` varies."""
    return x[where] if getattr(x, "ndim", 0) else np.full(np.count_nonzero(where), x)


def _source_forms(columns: dict) -> tuple:
    """Stable mask of a block, and the validated on-resonance closed-form
    (u, v, w) arrays over its stable points.

    One blue device per point, built from floats where a parameter is fixed;
    one batched Routh-Hurwitz test of the drift's characteristic cubic
    (`stability_check`) finds the stable ones.
    """
    p = _params(columns, "blue")
    stable = np.broadcast_to(stability_check(p), _shape(columns))
    c_om, c_em = (_at(x, stable) for x in cooperativities(p))
    # the forms are arrays through c_om, and only arithmetic in the rest: a
    # fixed ratio or occupation stays a float
    rest = (x[stable] if getattr(x, "ndim", 0) else x for x in (p.zeta_o, p.zeta_e, p.n_th))
    u, v, w = _closed_form_uvw(c_om, c_em, *rest)
    _check_forms(u, v, w)
    return stable, u, v, w


def _swapped_forms(columns: dict) -> tuple:
    """Stable mask, the source (u, v, w) after optical loss tau, and (diag, off)
    of the swapped microwave pair, over the stable points of a block."""
    stable, u, v, w = _source_forms(columns)
    tau = _at(columns["tau"], stable)
    _check_tau(tau)
    u, w = _optical_loss(u, w, tau)
    _check_forms(u, v, w)
    diag, off = _swap_form(u, v, w)
    _check_forms(diag, diag, off)
    return stable, u, v, w, diag, off


def _red_channels(columns: dict, shape: tuple) -> tuple:
    """(eta, n_e) of direct conversion on resonance at each point of a block of
    ``shape``, one array lane per point even where the device is fixed."""
    return _dqt_eta_ne(_params(columns, "red"), np.zeros(shape))


def _boundary(columns: dict) -> float:
    # the extraction ratios are fixed, never swept
    return dqt_capacity_boundary(*(np.ravel(columns[k])[0] for k in ("zeta_o", "zeta_e")))


def _eval_fig1a(columns):
    shape = _shape(columns)
    eta, n_e = _red_channels(columns, shape)
    product = columns["C_om"] * columns["C_em"]
    boundary = _boundary(columns)
    return np.ones(shape, dtype=bool), dict(
        eta0=eta,
        q_lb_dqt=_q_lb_loss_amp(eta, n_e),
        cc_product=product,
        boundary=boundary,
        above_boundary=np.where(product > boundary, 1.0, 0.0),
    )


def _eval_capacity_map(columns):
    stable, u, v, w = _source_forms(columns)
    kappa, q = optimize_gains(u, v, w)
    return stable, dict(u=u, v=v, w=w, q_lb_eqt=q, kappa_opt=kappa, boundary=_boundary(columns))


def _eval_fig2a(columns):
    stable, u, v, w = _source_forms(columns)
    kinds, eta, noise = _induced_channels(u, v, w, _at(columns["kappa"], stable))
    disp = eta == 1.0  # exactly the displacement lanes: elsewhere |kappa - 1| >= 1e-9
    raw = np.empty(eta.shape)
    raw[disp] = _coherent_info_displacement(noise[disp])
    raw[~disp] = _coherent_info_loss_amp(eta[~disp], noise[~disp])
    q_lb = np.maximum(raw, 0.0)
    return stable, dict(kind=kinds, eta_prime=eta, noise=noise, q_lb=q_lb, q_lb_raw=raw)


def _eval_fig2d(columns):
    stable, u, v, w = _source_forms(columns)
    return stable, dict(u=u, v=v, w=w, e_f=_eof(u, v, w))


def _eval_fig4a(columns):
    stable, *_, diag, off = _swapped_forms(columns)
    return stable, dict(u_mm=diag, w_mm=off, e_f_mm=_eof(diag, diag, off))


def _eval_fig4b(columns):
    stable, *_, diag, off = _swapped_forms(columns)
    kappa, q = optimize_gains(diag, diag, off)
    return stable, dict(
        u_mm=diag, w_mm=off, q_lb_mm=q, kappa_opt=kappa, boundary=_boundary(columns)
    )


def _eval_fig5a(columns):
    stable = np.broadcast_to(stability_check(_params(columns, "blue")), _shape(columns))
    lanes = {k: _at(x, stable) for k, x in columns.items()}
    r_t, r_b = _click_rates(_params(lanes, "blue"), lanes["tau"], lanes["pulse_duration"])
    return stable, dict(r_t=r_t, r_B=r_b)


def _eval_fig5b(columns):
    """fig5b's block grouped by device, a device being the values of the swept
    columns but tau.  Each device is built from Python floats, as from a single
    point, and checked for stability once; each stable one fills e_r on its tau
    lanes with one `_entanglement_rates` call, which shares the spectra."""
    stable = np.zeros(_shape(columns), dtype=bool)
    keys = [k for k in columns if k != "tau" and getattr(columns[k], "ndim", 0)]
    lanes = {}
    devices = zip(*(columns[k].tolist() for k in keys)) if keys else [()] * stable.size
    for i, device in enumerate(devices):
        lanes.setdefault(device, []).append(i)
    tau = np.broadcast_to(columns["tau"], stable.shape)
    e_r = np.empty(stable.size)
    point = dict(columns)
    for device, idx in lanes.items():
        point.update(zip(keys, device))
        p = _params(point, "blue")
        if stability_check(p):
            stable[idx] = True
            e_r[idx] = _entanglement_rates(p, tau[idx])
    return stable, dict(e_r=e_r[stable])


def _eval_custom(columns):
    stable, u, v, w, diag, off = _swapped_forms(columns)
    # the lossy source and its swapped form share one search
    kappa, q = optimize_gains(*np.concatenate([[u, v, w], [diag, diag, off]], axis=1))
    eta, n_e = (x[stable] for x in _red_channels(columns, stable.shape))
    return stable, dict(
        eta0=eta,
        q_lb_dqt=_q_lb_loss_amp(eta, n_e),
        u=u,
        v=v,
        w=w,
        duan=_duan(u, v, w),
        e_f=_eof(u, v, w),
        q_lb_eqt=q[: u.size],
        kappa_opt=kappa[: u.size],
        e_f_mm=_eof(diag, diag, off),
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

    ``evaluate`` takes a block of grid points as one dict with an entry per
    parameter: an array with one value per point for a swept parameter, a
    float for a fixed one (arrays of one repeated value are accepted too, and
    give the same bits).  It returns ``(stable, columns)``: the block's
    stable-point mask, one flag per point, and per name in ``metrics`` one
    value per stable point or one value for all of them.
    """

    name: str
    metrics: tuple
    evaluate: callable
    default_axes: tuple
    fixed_overrides: dict
    svg_metric: str


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
    axis = Axis(name, lo, hi, points, scale)
    try:  # built here, and cached, so that an axis no array can hold is a config error
        with _raising():
            size = axis.values().size
    except FloatingPointError as exc:
        raise ConfigError(f"[{section}] min, max: the values overflow: {exc}") from None
    except (ValueError, IndexError, OverflowError, MemoryError):
        size = None
    if size != points:
        raise ConfigError(f"[{section}] points: {points} values do not fit in one array")
    return axis


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
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
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
    if svg_metric in _TEXT_METRICS:
        raise ConfigError(f"[sweep] svg_metric: {svg_metric!r} is text; a heatmap needs a number")
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
    if emit_svg and len(axes) != 2:
        raise ConfigError("[sweep] emit_svg: heatmaps need a two-axis sweep")
    if emit_svg and Path(output).suffix.lower() == ".svg":
        raise ConfigError(f"[sweep] output: {output!r} is the name of its own heatmap")

    return SweepConfig(
        experiment=name,
        fixed=fixed,
        axes=axes,
        output=output,
        emit_svg=emit_svg,
        svg_metric=svg_metric,
    )


# --- execution ----------------------------------------------------------------


def _evaluate_block(experiment: str, fixed: dict, axes: tuple, rows: np.ndarray) -> list:
    """The CSV text of the block of grid rows whose first-axis values are
    ``rows``, one string per grid row.  The experiment gets each parameter in
    ``fixed`` as the float it is and each axis as a column over the block.

    Under `_raising`, a ValueError or ArithmeticError is raised as NumericalError
    naming the experiment and the axis values of the first point that fails alone:
    points do not interact, so a failing block is re-run one point at a time.
    """
    spec = EXPERIMENTS[experiment]
    second = axes[1].values() if len(axes) == 2 else None
    coords = _block_coords(rows, second)
    names = [axis.name for axis in axes]
    columns = dict(fixed)
    columns.update(zip(names, coords))
    with _raising():
        try:
            stable, metrics = spec.evaluate(columns)
        except (ValueError, ArithmeticError):
            for i, point in enumerate(zip(*(c.tolist() for c in coords))):
                columns.update((name, c[i : i + 1]) for name, c in zip(names, coords))
                try:
                    spec.evaluate(columns)
                except (ValueError, ArithmeticError) as exc:
                    where = ", ".join("%s=%.12g" % pair for pair in zip(names, point))
                    raise NumericalError(f"{experiment} at {where}: {exc}") from exc
            raise
    cells = [""] if second is None else ["%.12g," % x for x in second.tolist()]
    return _format_block(spec.metrics, rows, cells, stable, metrics)


# blocks each pool worker gets on average, and has in flight at most: several,
# so that rows of cheap unstable points do not leave a worker idle while
# another finishes
_BLOCKS_PER_JOB = 4
# most points a block holds at any job count, so that a sweep takes the same
# memory whatever the size of its grid
_BLOCK_POINTS = 2**14


def _row_blocks(axes: tuple, count: int) -> list:
    """Split a row-major grid into contiguous blocks of whole rows (a row is
    one value of the first axis), each given by its slice of the first axis's
    values: at least ``count`` blocks where the grid has that many rows, and
    enough that none holds more than ``_BLOCK_POINTS`` points unless one row
    does."""
    first = axes[0].values()
    width = axes[1].points if len(axes) == 2 else 1
    per_block = max(_BLOCK_POINTS // width, 1)
    count = min(max(count, -(-first.size // per_block)), first.size)
    cuts = [first.size * i // count for i in range(count + 1)]
    return [first[lo:hi] for lo, hi in zip(cuts, cuts[1:])]


def _block_coords(rows: np.ndarray, second) -> tuple:
    """One coordinate column per axis over a block's points, first axis
    outermost, from the block's first-axis values and the second axis's values
    (None on a one-axis grid): exact copies of the axes' values, as a meshgrid
    of the whole grid would hold them."""
    if second is None:
        return (rows,)
    return np.repeat(rows, second.size), np.tile(second, rows.size)


def _format_block(metrics: tuple, rows: np.ndarray, cells: list, stable: np.ndarray,
                  columns: dict):
    """The CSV lines of an evaluated block, one string per grid row: each first
    axis value formatted once, followed by each of ``cells`` (the second axis's
    ``"%.12g,"`` cells, or ``[""]`` on a one-axis grid) and that point's metric
    cells, which come from one format string.  Numbers take 12 significant
    digits and strings stay as they are; a metric given once for the whole block
    is formatted once, into the format string.  Unstable points leave every
    metric cell empty.  No cell can hold a comma, quote or line break, so none
    is quoted."""
    ok, lanes = "1", []
    for name in metrics:
        value = np.asarray(columns[name])
        cell = ",%s" if value.dtype.kind == "U" else ",%.12g"
        if value.ndim:
            lanes.append(value.tolist())
        else:
            cell = (cell % value.item()).replace("%", "%%")
        ok += cell
    ok += "\n"
    bad = "0" + "," * len(metrics) + "\n"
    values = map(ok.__mod__, zip(*lanes)) if lanes else itertools.repeat(ok % ())
    tails = (next(values) if s else bad for s in stable.tolist())
    return [
        head + head.join(map(str.__add__, cells, itertools.islice(tails, len(cells))))
        for head in ("%.12g," % x for x in rows.tolist())
    ]


def _write_csv(path: Path, header: list, texts) -> None:
    """Write ``header``, then each block's text as ``texts`` yields it, letting
    go of one block's text before taking the next.  The file is created once
    the first block is ready, so a sweep that fails there writes nothing; a
    later failure removes the file."""
    fh = None
    try:
        with contextlib.ExitStack() as stack:
            for text in texts:
                if fh is None:
                    try:
                        fh = open(path, "w", newline="", encoding="utf-8")
                    except FileNotFoundError:  # the directory is made only when missing
                        os.makedirs(path.parent, exist_ok=True)
                        fh = open(path, "w", newline="", encoding="utf-8")
                    stack.enter_context(fh)
                    fh.write(",".join(header) + "\n")
                fh.writelines(text)
                del text  # else held while the next block is evaluated
    except BaseException as exc:
        if fh is not None:
            path.unlink(missing_ok=True)
        if isinstance(exc, OSError):
            raise ConfigError(f"[sweep] output: cannot write {path}: {exc}") from exc
        raise


def _in_order(pool, fn, items: list, depth: int):
    """``pool.map(fn, items)`` with at most ``depth`` items submitted and not
    yet taken, so that results wait in memory only that many at a time however
    slowly they are taken.  Items not yet run are cancelled if the caller stops
    early."""
    pending = collections.deque()
    try:
        for item in items:
            if len(pending) == depth:
                yield pending.popleft().result()
            pending.append(pool.submit(fn, item))
        while pending:
            yield pending.popleft().result()
    finally:
        for future in pending:
            future.cancel()


def run_sweep(config: SweepConfig, out_dir=None, jobs: int = 1) -> SweepResult:
    """Evaluate the configured grid and write the CSV file.

    The grid is evaluated in contiguous blocks of whole rows, each of at most
    ``_BLOCK_POINTS`` points; with ``jobs`` above 1 there are at least
    ``jobs * _BLOCKS_PER_JOB`` blocks, spread over a process pool of at most
    one worker per block, with at most that many blocks submitted and not yet
    written.  Each block is evaluated and formatted to its CSV text in one
    step, in a worker when there is a pool, and its text is written before
    the next block's is taken.  Rows are always written in
    deterministic row-major axis order with fixed 12-significant-digit
    formatting, so identical configs produce byte-identical files at any
    ``jobs``.  Unstable source points keep their axis columns, carry stable=0
    and leave every metric cell empty.
    """
    spec = EXPERIMENTS[config.experiment]
    blocks = _row_blocks(config.axes, jobs * _BLOCKS_PER_JOB if jobs > 1 else 1)
    evaluate = functools.partial(_evaluate_block, config.experiment, config.fixed, config.axes)
    out_path = Path(config.output) if out_dir is None else Path(out_dir, config.output)
    header = [axis.name for axis in config.axes] + ["stable"] + list(spec.metrics)
    with contextlib.ExitStack() as stack:
        if jobs > 1:
            # imported here: multiprocessing adds about 1.2 MB of RSS to every process
            from concurrent.futures import ProcessPoolExecutor

            pool = stack.enter_context(ProcessPoolExecutor(max_workers=min(jobs, len(blocks))))
            texts = _in_order(pool, evaluate, blocks, jobs * _BLOCKS_PER_JOB)
        else:
            texts = map(evaluate, blocks)
        _write_csv(out_path, header, texts)
    return SweepResult(path=out_path, columns=tuple(header), axes=config.axes)
