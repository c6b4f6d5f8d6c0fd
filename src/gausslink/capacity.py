"""Quantum-capacity lower bounds for single-mode bosonic channels."""

import math
from dataclasses import dataclass

import numpy as np

from .gaussian import GaussianChannelSpec
from .transducer import TransducerParams, _dqt_eta_ne, _require

__all__ = [
    "BosonicChannelKind",
    "FrequencyQuadrature",
    "g_function",
    "q_lb_loss_amp",
    "coherent_info_loss_amp",
    "q_lb_displacement",
    "coherent_info_displacement",
    "q_lb_for_channel",
    "dqt_capacity_boundary",
    "q_lb_bandwidth_integrated",
]

THERMAL_LOSS = "thermal_loss"
THERMAL_AMP = "thermal_amplification"
RANDOM_DISPLACEMENT = "random_displacement"

_KINDS = (THERMAL_LOSS, THERMAL_AMP, RANDOM_DISPLACEMENT)


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
        if self.kind == THERMAL_LOSS and not self.eta < 1.0 + 1e-9:
            raise ValueError("thermal loss requires eta <= 1")
        if self.kind == THERMAL_AMP and not self.eta > 1.0 - 1e-9:
            raise ValueError("thermal amplification requires eta >= 1")
        if self.kind == RANDOM_DISPLACEMENT and abs(self.eta - 1.0) > 1e-9:
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


def q_lb_for_channel(ch: BosonicChannelKind) -> float:
    """Dispatch the matching lower bound for a classified channel."""
    if ch.kind == RANDOM_DISPLACEMENT:
        if ch.noise == 0:
            return math.inf
        return q_lb_displacement(ch.noise)
    return q_lb_loss_amp(ch.eta, ch.noise)


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


@dataclass(frozen=True)
class FrequencyQuadrature:
    """Policy for frequency integrals of spectral quantities.

    The window is [-omega_max_factor * max(kappa), +same].  The trapezoid
    halves its step, reusing the nodes already evaluated, until successive
    totals differ by at most max(rel_tol * |total|, _ABS_TOL), and raises
    ValueError if that takes more than max_doublings doublings.
    """

    omega_max_factor: float = 10.0
    rel_tol: float = 1e-6
    initial_points: int = 257
    max_doublings: int = 12

    def window(self, p: TransducerParams) -> float:
        return self.omega_max_factor * max(p.kappa_o, p.kappa_e, p.kappa_m)


DEFAULT_QUADRATURE = FrequencyQuadrature()
# Absolute stop tolerance: it ends integrands that are round-off noise (E_F ~
# 1e-18 on the homodyne swap's separability boundary, tau = 1/2).  It binds
# only where |total| < _ABS_TOL / rel_tol = 1e-6, which no total of the shipped
# configs or golden grids reaches (the smallest positive fig5b integral is
# about 3e-5); such totals are accurate to 1e-12 absolute, not 1e-6 relative.
_ABS_TOL = 1e-12
# Nodes per call of the integrand: at about 1.5 kB per node (fig5b) a call peaks
# near 25 MB, where the 524,288 midpoints of a twelfth doubling would need 0.8 GB.
_CHUNK_NODES = 2**14


def _chunked(fn, omegas: np.ndarray) -> np.ndarray:
    """``fn`` at each node, in calls of at most _CHUNK_NODES nodes."""
    return np.concatenate(
        [fn(omegas[lo : lo + _CHUNK_NODES]) for lo in range(0, omegas.size, _CHUNK_NODES)]
    )


def integrate_spectrum(fn, omega_max: float, quad: FrequencyQuadrature) -> float:
    """Nested trapezoid of a vectorized, pointwise spectral function on [-W, W].

    linspace(-W, W, 2n - 1)[::2] is linspace(-W, W, n) exactly, so each
    doubling evaluates ``fn`` only at the new midpoints, at most _CHUNK_NODES
    of them per call; since ``fn`` is pointwise, the chunking changes no total.
    """
    n = quad.initial_points
    omegas = np.linspace(-omega_max, omega_max, n)
    values = _chunked(fn, omegas)
    total = float(np.trapezoid(values, omegas))
    change = math.inf
    for _ in range(quad.max_doublings):
        n = 2 * n - 1
        omegas = np.linspace(-omega_max, omega_max, n)
        finer = np.empty(n)
        finer[::2] = values
        finer[1::2] = _chunked(fn, omegas[1::2])
        values, prev = finer, total
        total = float(np.trapezoid(values, omegas))
        change = abs(total - prev)
        if change <= max(quad.rel_tol * abs(total), _ABS_TOL):
            return total
    raise ValueError(f"frequency integral not converged on {n} nodes: "
                     f"last change {change:.3e} on a total of {total:.3e}")


def q_lb_bandwidth_integrated(
    p: TransducerParams, quad: FrequencyQuadrature = DEFAULT_QUADRATURE
) -> float:
    """Frequency-integrated capacity rate of the direct conversion channel.

    Integrates max{0, log2(eta/(1-eta)) - g(n_e)} over the frequency window,
    using the conversion channel at each offset; the result scales linearly
    with the overall rate unit, i.e. it is a rate in ebits per second when
    the decay rates are in rad/s.
    """
    _require(p, "red")

    def integrand(omegas):
        eta, n_e = _dqt_eta_ne(p, omegas)
        out = np.zeros_like(eta)
        open_ch = eta > 0.5
        if np.any(open_ch):
            out[open_ch] = np.maximum(0.0, _coherent_info_loss_amp(eta[open_ch], n_e[open_ch]))
        return out

    return integrate_spectrum(integrand, quad.window(p), quad)
