"""Quantum-capacity lower bounds for single-mode bosonic channels."""

import math
from dataclasses import dataclass

import numpy as np

from .gaussian import GaussianChannelSpec
from .transducer import TransducerParams, _dqt_eta_ne, _require

__all__ = [
    "BosonicChannelKind",
    "g_function",
    "q_lb_loss_amp",
    "coherent_info_loss_amp",
    "q_lb_displacement",
    "coherent_info_displacement",
    "dqt_capacity_boundary",
    "q_lb_bandwidth_integrated",
]

THERMAL_LOSS = "thermal_loss"
THERMAL_AMP = "thermal_amplification"
RANDOM_DISPLACEMENT = "random_displacement"

_KINDS = (THERMAL_LOSS, THERMAL_AMP, RANDOM_DISPLACEMENT)
# Round-off allowed in eta across a kind's bound at 1 (loss eta <= 1, amplifier
# eta >= 1, displacement eta = 1), for kinds built from computed gains; the
# induced channels keep |kappa - 1| >= 1e-9 off unit gain and eta = 1 on it.
_ETA_SLACK = 1e-9


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


def _g(x) -> np.ndarray:
    """Bosonic entropy g(x) = (x+1) log2(x+1) - x log2(x) of an array, 0 where x <= 0."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    pos = x > 0
    xp = x[pos]
    out[pos] = (xp + 1.0) * np.log2(xp + 1.0) - xp * np.log2(xp)
    return out


def g_function(x: float) -> float:
    """Bosonic entropy g(x) = (x+1) log2(x+1) - x log2(x), with g(0) = 0."""
    if x < 0:
        raise ValueError("mean photon number must be nonnegative")
    return float(_g(x))


# log2(eta / |1 - eta|) has slope 4 / ln 2 at eta = 1/2, so one ulp of round-off
# in eta (as at C_om = 1, C_em = 2, zeta = 1) reads 6.4e-16 bits.  Log terms this
# small, |eta - 1/2| within about 16 ulps, are round-off and count as 0.
_LOG_ROUNDOFF = 1e-14


def _coherent_info_loss_amp(eta, n_e) -> np.ndarray:
    """log2(eta / |1 - eta|) - g(n_e) of arrays, unclamped below zero."""
    log_term = np.log2(eta / np.abs(1.0 - eta))
    return np.where(np.abs(log_term) < _LOG_ROUNDOFF, 0.0, log_term) - _g(n_e)


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
    if eta <= 0:
        raise ValueError("eta must be positive")
    if abs(eta - 1.0) < 1e-12:
        raise ValueError("eta = 1 is the displacement channel; use its bound")
    if n_e < 0:
        raise ValueError("n_e must be nonnegative")
    return float(_coherent_info_loss_amp(eta, n_e))


def q_lb_loss_amp(eta: float, n_e: float) -> float:
    """Capacity lower bound of a thermal loss or amplification channel (bits)."""
    if 0.0 <= eta <= 0.5 and n_e >= 0:  # log2(eta / (1 - eta)) <= 0 - g(n_e)
        return 0.0
    return max(0.0, coherent_info_loss_amp(eta, n_e))


def coherent_info_displacement(sigma_sq: float) -> float:
    """Unclamped achievable rate log2(2 / (e sigma^2)) of grid-state encoding."""
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
# Elements (lanes x nodes) per call of the integrand.  A fig5b call costs about
# 1.5 kB per node (the spectra) and 0.2 kB per element (the EoF), so it peaks
# below 3.5 MB; a lane whose new nodes alone are more (the 524,288 midpoints of a
# twelfth doubling would need 0.8 GB) gets them in chunks.  On a 30-lane fig5b
# device 2**11 peaks 0.1 MB above one lane at a time, and 2**12 0.5 MB.
_CHUNK_NODES = 2**11


def _window(p: TransducerParams) -> float:
    """Half-width W of the frequency window of device ``p``."""
    return _WINDOW_FACTOR * max(p.kappa_o, p.kappa_e, p.kappa_m)


def _evaluate(fn, rows: np.ndarray, omegas: np.ndarray) -> np.ndarray:
    """``fn`` of the lanes ``rows`` at ``omegas``, a (rows.size, omegas.size)
    array; one lane with more than _CHUNK_NODES nodes gets them in calls of
    that many."""
    values = np.empty((rows.size, omegas.size))
    for at in range(0, omegas.size, _CHUNK_NODES):
        values[:, at : at + _CHUNK_NODES] = fn(rows, omegas[at : at + _CHUNK_NODES])
    return values


def _nested_trapezoids(fn, lanes: int, omega_max: float) -> np.ndarray:
    """Nested trapezoids of ``lanes`` vectorized, pointwise spectral functions on
    [-W, W], one total per lane.

    ``fn(rows, omegas)`` gives the values of the lanes ``rows`` (an index array)
    at ``omegas``, shape (rows.size, omegas.size), or (omegas.size,) for one lane.
    linspace(-W, W, 2n - 1)[::2] is linspace(-W, W, n) exactly, so each doubling
    evaluates ``fn`` only at the new midpoints.  The lanes go up the levels in
    groups, so that no call of ``fn`` gets more than _CHUNK_NODES elements (lanes
    x new nodes) unless one lane alone has more; a group splits as its levels
    grow, each part going on to convergence in turn, so memory stays bounded
    however many lanes run deep.  A group shares each level's nodes and one
    trapezoid along the last axis of its C-contiguous values, whose row sums are
    the 1-D sums, so every lane stops at its own doubling with the bits of a lone
    integral; since ``fn`` is pointwise, grouping changes no total.  A lane that
    runs out of doublings raises, the lowest such lane first.
    """
    totals = np.empty(lanes)
    n = _INITIAL_POINTS
    first = np.linspace(-omega_max, omega_max, n)
    fit = max(1, _CHUNK_NODES // n)
    # lane groups left, the lowest on top: (rows, their values and totals on the
    # level they have reached, the change of their last doubling, doublings)
    todo = [(np.arange(lo, min(lo + fit, lanes)), None, None, None, 0)
            for lo in reversed(range(0, lanes, fit))]
    while todo:
        rows, values, total, change, doubling = todo.pop()
        if values is None:
            values = _evaluate(fn, rows, first)
            total, change = np.trapezoid(values, first), np.full(rows.size, math.inf)
        while rows.size:
            if doubling >= _MAX_DOUBLINGS:
                raise ValueError(f"frequency integral not converged on {values.shape[1]} nodes: "
                                 f"last change {change[0]:.3e} on a total of {total[0]:.3e}")
            n = 2 * values.shape[1] - 1
            fit = max(1, _CHUNK_NODES // (n // 2))
            if rows.size > fit:
                todo += [tuple(x[lo : lo + fit] for x in (rows, values, total, change)) + (doubling,)
                         for lo in reversed(range(0, rows.size, fit))]
                break
            omegas = np.linspace(-omega_max, omega_max, n)
            finer = np.empty((rows.size, n))
            finer[:, ::2] = values
            finer[:, 1::2] = _evaluate(fn, rows, omegas[1::2])
            values, prev = finer, total
            total = np.trapezoid(values, omegas)
            change = np.abs(total - prev)
            done = change <= np.maximum(_REL_TOL * np.abs(total), _ABS_TOL)
            totals[rows[done]] = total[done]
            rows, values, total, change = (x[~done] for x in (rows, values, total, change))
            doubling += 1
    return totals


def integrate_spectrum(fn, omega_max: float) -> float:
    """Nested trapezoid of a vectorized, pointwise spectral function on [-W, W]:
    the one-lane _nested_trapezoids."""
    return float(_nested_trapezoids(lambda rows, omegas: fn(omegas), 1, omega_max)[0])


def q_lb_bandwidth_integrated(p: TransducerParams) -> float:
    """Frequency-integrated capacity rate of the direct conversion channel.

    Integrates max{0, log2(eta/(1-eta)) - g(n_e)} over the frequency window,
    using the conversion channel at each offset; the result scales linearly
    with the overall rate unit, i.e. it is a rate in ebits per second when
    the decay rates are in rad/s.
    """
    _require(p, "red")
    return integrate_spectrum(lambda omegas: _q_lb_loss_amp(*_dqt_eta_ne(p, omegas)), _window(p))
