"""Quantum-capacity lower bounds for single-mode bosonic channels."""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .gaussian import GaussianChannelSpec
from .transducer import TransducerParams

__all__ = [
    "BosonicChannelKind",
    "g_function",
    "q_lb_loss_amp",
    "coherent_info_loss_amp",
    "q_lb_displacement",
    "coherent_info_displacement",
    "dqt_capacity_boundary",
]

THERMAL_LOSS = "thermal_loss"
THERMAL_AMP = "thermal_amplification"
RANDOM_DISPLACEMENT = "random_displacement"

_KINDS = (THERMAL_LOSS, THERMAL_AMP, RANDOM_DISPLACEMENT)
# Round-off allowed in eta across a kind's bound at 1 (loss eta <= 1, amplifier
# eta >= 1, displacement eta = 1), for kinds built from computed gains; the
# induced channels keep |kappa - 1| >= 1e-9 off unit gain and eta = 1 on it.
_ETA_SLACK = 1e-9
# |1 - eta| below this is round-off of eta = 1, the displacement channel
_UNIT_ETA_TOL = 1e-12


@dataclass(frozen=True)
class BosonicChannelKind:
    """One of the three single-mode channel families.

    ``eta`` is the transmissivity (< 1 loss, > 1 amplification, = 1
    displacement) and ``noise`` holds the thermal occupation n_e for
    loss/amplification or the variance sigma^2 for displacement.
    """

    kind: str
    eta: float
    noise: float

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown channel kind {self.kind!r}")
        _check_finite(eta=self.eta, noise=self.noise)
        if self.eta <= 0:
            raise ValueError("eta must be positive")
        if self.noise < 0:
            raise ValueError("noise must be nonnegative")
        if self.kind == THERMAL_LOSS and not self.eta < 1.0 + _ETA_SLACK:
            raise ValueError("thermal loss requires eta <= 1")
        if self.kind == THERMAL_AMP and not self.eta > 1.0 - _ETA_SLACK:
            raise ValueError("thermal amplification requires eta >= 1")
        if self.kind == RANDOM_DISPLACEMENT and abs(self.eta - 1.0) > _ETA_SLACK:
            raise ValueError("random displacement requires eta = 1")

    def to_gaussian_channel(self) -> GaussianChannelSpec:
        if self.kind == RANDOM_DISPLACEMENT:
            return GaussianChannelSpec(T=np.eye(2), N=self.noise * np.eye(2))
        t = np.sqrt(self.eta) * np.eye(2)
        n = abs(1.0 - self.eta) * (2.0 * self.noise + 1.0) * np.eye(2)
        return GaussianChannelSpec(T=t, N=n)


def _check_finite(**values) -> None:
    """Raise ValueError naming the first of the scalar ``values`` that is nan or infinite."""
    for name, x in values.items():
        if not math.isfinite(x):
            raise ValueError(f"{name} must be finite")


def g_function(x: float) -> float:
    """Bosonic entropy g(x) = (x+1) log2(x+1) - x log2(x), with g(0) = 0."""
    _check_finite(x=x)
    if x < 0:
        raise ValueError("mean photon number must be nonnegative")
    # minus the loss/amplifier bound at eta = 1/2, whose log term is log2(1) = 0
    return 0.0 - float(_coherent_info_loss_amp(np.array([0.5]), np.array([float(x)]))[0])


# log2(eta / |1 - eta|) has slope 4 / ln 2 at eta = 1/2, so one ulp of round-off
# in eta (as at C_om = 1, C_em = 2, zeta = 1) reads 6.4e-16 bits.  Log terms this
# small, |eta - 1/2| within about 16 ulps, are round-off and count as 0.
_LOG_ROUNDOFF = 1e-14


def _loss_amp_info(eta: np.ndarray, gap: np.ndarray, n_e: np.ndarray) -> np.ndarray:
    """log2(eta / gap) - g(n_e) of arrays, unclamped below zero, for
    gap = |1 - eta| > 0 and n_e >= 0 of the result's shape, with
    g(x) = (x+1) log2(x+1) - x log2(x) and g(0) = 0.

    It sets no floating-point error state and takes no log of 0, so only
    inputs outside these ranges warn or raise, as the caller's error state
    has it.  Its temporaries are updated in place, not rebuilt per operation.
    """
    log_term = eta / gap
    np.log2(log_term, out=log_term)
    log_term = np.where(np.abs(log_term) < _LOG_ROUNDOFF, 0.0, log_term)
    up = n_e + 1.0
    g = np.log2(up)
    g *= up
    # up stays n_e + 1 = 1 where n_e = 0, so that x log2(x) reads 1 * 0 = 0 there
    np.log2(n_e, out=up, where=n_e > 0)
    up *= n_e
    g -= up
    return np.subtract(log_term, g, out=g)


def _coherent_info_loss_amp(eta: np.ndarray, n_e: np.ndarray) -> np.ndarray:
    """log2(eta / |1 - eta|) - g(n_e) of arrays of one shape, unclamped below zero."""
    return _loss_amp_info(eta, np.abs(1.0 - eta), n_e)


def _coherent_info_displacement(sigma_sq) -> np.ndarray:
    """log2(2 / (e sigma^2)) of an array."""
    return np.log2(2.0 / (np.e * sigma_sq))


def _q_lb_loss_amp(eta: np.ndarray, n_e: np.ndarray) -> np.ndarray:
    """max(0, log2(eta / |1 - eta|) - g(n_e)) of arrays; 0 where eta <= 1/2, where
    the log term is at most 0 and is not taken (it is log2(0) at eta = 0)."""
    out = np.zeros(eta.shape)
    open_ch = eta > 0.5
    out[open_ch] = np.maximum(0.0, _coherent_info_loss_amp(eta[open_ch], n_e[open_ch]))
    return out


def coherent_info_loss_amp(eta: float, n_e: float) -> float:
    """Unclamped coherent-information bound log2(eta/|1-eta|) - g(n_e)."""
    _check_finite(eta=eta, n_e=n_e)
    if eta <= 0:
        raise ValueError("eta must be positive")
    if abs(eta - 1.0) < _UNIT_ETA_TOL:
        raise ValueError("eta = 1 is the displacement channel; use its bound")
    if n_e < 0:
        raise ValueError("n_e must be nonnegative")
    return float(_coherent_info_loss_amp(np.array([float(eta)]), np.array([float(n_e)]))[0])


def q_lb_loss_amp(eta: float, n_e: float) -> float:
    """Capacity lower bound of a thermal loss or amplification channel (bits)."""
    _check_finite(eta=eta, n_e=n_e)
    if 0.0 <= eta <= 0.5 and n_e >= 0:  # log2(eta / (1 - eta)) <= 0 - g(n_e)
        return 0.0
    return max(0.0, coherent_info_loss_amp(eta, n_e))


def coherent_info_displacement(sigma_sq: float) -> float:
    """Unclamped achievable rate log2(2 / (e sigma^2)) of grid-state encoding."""
    _check_finite(sigma_sq=sigma_sq)
    if sigma_sq <= 0:
        raise ValueError("sigma^2 must be positive")
    return float(_coherent_info_displacement(sigma_sq))


def q_lb_displacement(sigma_sq: float) -> float:
    """Capacity lower bound of the random displacement channel (bits)."""
    return max(0.0, coherent_info_displacement(sigma_sq))


def dqt_capacity_boundary(zeta_o: float, zeta_e: float) -> float:
    """Least cooperativity product C_om * C_em allowing positive DQT capacity.

    Returns (1 / (2 sqrt(2 zeta_o zeta_e) - 2))^2; when
    zeta_o * zeta_e <= 1/2 the efficiency can never exceed 1/2 and the
    boundary is infinite (returned as math.inf).
    """
    if not 0 < zeta_o <= 1 or not 0 < zeta_e <= 1:
        raise ValueError("extraction ratios must lie in (0, 1]")
    root = 2.0 * np.sqrt(2.0 * zeta_o * zeta_e)
    if root <= 2.0:
        return math.inf
    return float((1.0 / (root - 2.0)) ** 2)


# Frequency integrals of spectral quantities use one fixed policy.  The window
# is [-W, W] with W = _WINDOW_FACTOR * max(kappa) (_window).  The trapezoid
# starts on _INITIAL_POINTS nodes and halves its step, reusing the nodes already
# evaluated, until successive totals differ by at most
# max(_REL_TOL * |total|, _ABS_TOL), and raises ValueError if that takes more
# than _MAX_DOUBLINGS doublings.
_WINDOW_FACTOR = 10.0
_REL_TOL = 1e-6
_INITIAL_POINTS = 257
_MAX_DOUBLINGS = 12
# Absolute stop tolerance: it ends integrands that are round-off noise (E_F ~
# 1e-18 on the homodyne swap's separability boundary, tau = 1/2).  It binds
# only where |total| < _ABS_TOL / _REL_TOL = 1e-6, which no total of the shipped
# configs or golden grids reaches (the smallest positive fig5b integral is
# about 3e-5); such totals are accurate to 1e-12 absolute, not 1e-6 relative.
_ABS_TOL = 1e-12
# Nodes per call of the integrand, which gets all lanes of a group at once: a
# lane whose new nodes alone are more (the 524,288 midpoints of a twelfth
# doubling) gets them in chunks.  A fig5b call costs about 0.9 kB per node (the
# spectra) and a few buffers of 8 bytes per element (the EoF).  Calls of 2**12
# and 2**13 elements once ran 5% and 21% slower than 2**11 per element: the
# integrand then built a new array per operation, and glibc trimmed and
# page-faulted those heap temporaries back in, a cost that larger calls hit
# more often and that goes away with raised malloc trim and mmap thresholds.
_CHUNK_NODES = 2**11
# Values (lanes x nodes) a lane group holds on one level, 128 kB, which also
# bounds the elements of one call: the 30 tau lanes of a fig5b row reach 513
# nodes as one group, with one integrand call for all 513 nodes, one node array
# and one stop test.
_GROUP_ELEMENTS = 8 * _CHUNK_NODES


def _window(p: TransducerParams) -> float:
    """Half-width W of the frequency window of device ``p``."""
    return _WINDOW_FACTOR * max(p.kappa_o, p.kappa_e, p.kappa_m)


def _evaluate(fn, rows: np.ndarray, omegas: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Fill ``out``, (rows.size, omegas.size), with ``fn`` of the lanes ``rows``
    at ``omegas``: one call of all the rows per _CHUNK_NODES nodes."""
    for at in range(0, omegas.size, _CHUNK_NODES):
        out[:, at : at + _CHUNK_NODES] = fn(rows, omegas[at : at + _CHUNK_NODES])
    return out


def _even(fn):
    """Wrap an integrand ``fn(..., omegas)`` that is even in omega bit for bit:
    on a node array that is its own mirror image, omegas[i] == -omegas[-1 - i],
    it evaluates ``fn`` on the nonnegative half, omegas[size // 2:], and reflects
    the values along the last axis; any other node array is evaluated whole."""

    # wraps keeps fn's module, to which perfbench's tracer books its time
    @functools.wraps(fn)
    def even(*args):
        *rows, omegas = args
        h = omegas.size // 2
        if not (omegas[:h] == -omegas[::-1][:h]).all():
            return fn(*args)
        half = fn(*rows, omegas[h:])
        return np.concatenate((half[..., omegas.size % 2 :][..., ::-1], half), axis=-1)

    return even


def _nested_trapezoids(fn, lanes: int, omega_max: float) -> np.ndarray:
    """Nested trapezoids of ``lanes`` vectorized, pointwise spectral functions on
    [-W, W], one total per lane.

    ``fn(rows, omegas)`` gives the values of the lanes ``rows`` (an index array)
    at ``omegas``, shape (rows.size, omegas.size), or (omegas.size,) for one lane.
    linspace(-W, W, 2n - 1)[::2] is linspace(-W, W, n) exactly.  No lane can
    stop on the first level, so a group's first call of ``fn`` covers the
    2 * _INITIAL_POINTS - 1 nodes of the second, whose even-indexed values give
    the first level's total; each further doubling evaluates ``fn`` only at the
    new midpoints.  The lanes go up the levels in groups that hold at most
    _GROUP_ELEMENTS values (lanes x nodes) each, unless one lane alone has
    more; a group splits as its levels grow, each part going on to convergence
    in turn, so memory stays bounded however many lanes run deep.  A group
    shares each level's nodes, one call of ``fn`` per _CHUNK_NODES new nodes
    (`_evaluate`), so at most _GROUP_ELEMENTS elements a call, one trapezoid
    along the last axis of its values, whose row sums are the 1-D sums, and one
    stop test, so every lane stops at its own doubling with the bits of a lone
    integral; since ``fn`` is pointwise, neither grouping changes a total.
    Every level's nodes are a view of the finest level built so far, so groups
    that follow one another up the same levels, as single deep lanes do, build
    each level's nodes once.  A lane that runs out of doublings raises, the
    lowest such lane first.
    """
    totals = np.empty(lanes)
    second = finest = np.linspace(-omega_max, omega_max, 2 * _INITIAL_POINTS - 1)
    fit = max(1, _GROUP_ELEMENTS // second.size)
    # lane groups left, the lowest on top: (rows, their values and totals on the
    # level they have reached, the change of their last doubling, doublings)
    todo = [(np.arange(lo, min(lo + fit, lanes)), None, None, None, 0)
            for lo in reversed(range(0, lanes, fit))]
    while todo:
        rows, values, total, change, doubling = todo.pop()
        while rows.size:
            if values is None:
                omegas = second
                values = _evaluate(fn, rows, omegas, np.empty((rows.size, omegas.size)))
                prev = np.trapezoid(values[:, ::2], omegas[::2])
            elif doubling >= _MAX_DOUBLINGS:
                raise ValueError(f"frequency integral not converged on {values.shape[1]} nodes: "
                                 f"last change {change[0]:.3e} on a total of {total[0]:.3e}")
            else:
                n = 2 * values.shape[1] - 1
                fit = max(1, _GROUP_ELEMENTS // n)
                if rows.size > fit:
                    todo += [tuple(x[lo : lo + fit] for x in (rows, values, total, change)) + (doubling,)
                             for lo in reversed(range(0, rows.size, fit))]
                    break
                if n > finest.size:
                    finest = np.linspace(-omega_max, omega_max, n)
                omegas = finest[:: (finest.size - 1) // (n - 1)]
                finer = np.empty((rows.size, n))
                finer[:, ::2] = values
                _evaluate(fn, rows, omegas[1::2], finer[:, 1::2])
                values, prev = finer, total
            total = np.trapezoid(values, omegas)
            change = np.abs(total - prev)
            done = change <= np.maximum(_REL_TOL * np.abs(total), _ABS_TOL)
            if done.any():
                totals[rows[done]] = total[done]
                rows, values, total, change = (x[~done] for x in (rows, values, total, change))
            doubling += 1
    return totals

