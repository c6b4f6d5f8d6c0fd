"""Entanglement measures for two-mode Gaussian states in standard form."""

from dataclasses import dataclass

import numpy as np

from .capacity import DEFAULT_QUADRATURE, FrequencyQuadrature, integrate_spectrum
from .transducer import TransducerParams, TwoModeStandardForm, _all, mo_standard_form_spectra

__all__ = [
    "EofIntermediates",
    "eof_intermediates",
    "entanglement_of_formation",
    "duan_quantity",
    "ppt_min_symplectic",
    "entanglement_rate",
]


def _eof(u, v, w) -> tuple:
    """Entanglement of formation of standard forms (ebits), with its intermediates.

    Returns arrays (E_F, nu_min^2, gamma, beta_plus, beta_minus, r), where
    nu_min is the smallest partial-transpose symplectic eigenvalue and r the
    minimal disentangling anti-squeezing (Tserkis & Ralph, PRA 96, 062338,
    2017), 0 where the PPT test finds the state separable.  For standard forms
    the general beta_+- collapse to (u + v +- 2|w|)^2; a physical form has
    u v - w^2 >= 1, so u + v > 2|w| and beta_- > 0.
    """
    u, v, w = np.asarray(u, dtype=float), np.asarray(v, dtype=float), np.abs(w)
    det_v = (u * v - w * w) ** 2
    delta = u * u + v * v + 2.0 * w * w
    nu_min_sq = 0.5 * (delta - np.sqrt(np.maximum(delta * delta - 4.0 * det_v, 0.0)))
    gamma = 2.0 * (det_v + 1.0) - (u - v) ** 2
    beta_plus = (u + v + 2.0 * w) ** 2
    beta_minus = (u + v - 2.0 * w) ** 2
    rad = np.sqrt(np.maximum(gamma * gamma - beta_plus * beta_minus, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        arg = (gamma - rad) / beta_minus
    entangled = (nu_min_sq < 1.0 - 1e-9) & (arg > 1.0)
    r = np.where(entangled, 0.25 * np.log(np.where(entangled, arg, 1.0)), 0.0)
    c2 = np.cosh(r) ** 2
    s2 = np.sinh(r) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        e_f = c2 * np.log2(c2) - np.where(s2 > 0, s2 * np.log2(np.maximum(s2, 1e-300)), 0.0)
    return e_f, nu_min_sq, gamma, beta_plus, beta_minus, r


def ppt_min_symplectic(u: float, v: float, w: float) -> float:
    """Smallest symplectic eigenvalue of the partial transpose.

    Values below 1 witness entanglement; at or above 1 the standard-form
    state is separable.
    """
    return float(np.sqrt(max(_eof(u, v, w)[1], 0.0)))


@dataclass(frozen=True)
class EofIntermediates:
    """Intermediate quantities of the entanglement-of-formation closed form."""

    gamma: float
    beta_plus: float
    beta_minus: float
    r_min: float


def eof_intermediates(form: TwoModeStandardForm) -> EofIntermediates:
    """Expose (gamma, beta_+-, r) for a standard-form state."""
    return EofIntermediates(*(float(x) for x in _eof(form.u, form.v, form.w)[2:]))


def entanglement_of_formation(form: TwoModeStandardForm) -> float:
    """Entanglement of formation of a symmetric-standard-form state (ebits).

    E_F = cosh^2(r) log2 cosh^2(r) - sinh^2(r) log2 sinh^2(r) where r is the
    minimal anti-squeezing needed to disentangle the state.  Separable states
    (squared smallest partial-transpose symplectic eigenvalue at or above
    1 - 1e-9) return 0; the measure is invariant under the local phase flip
    w -> -w.
    """
    return float(_eof(form.u, form.v, form.w)[0])


def _optical_loss(u, w, tau) -> tuple:
    """(u, w) after optical loss of transmissivity tau: u -> tau (u - 1) + 1,
    w -> sqrt(tau) w; floats or arrays, with tau checked on every lane."""
    if not _all((0.0 <= tau) & (tau <= 1.0)):
        raise ValueError("tau must lie in [0, 1]")
    return tau * (u - 1.0) + 1.0, np.sqrt(tau) * w


def _swap_form(u, v, w) -> tuple:
    """(diag, off) = (v - w^2 / 2u, w^2 / 2u) of the ideal swap of two
    identical sources; floats or arrays."""
    off = w * w / (2.0 * u)
    return v - off, off


def duan_quantity(form: TwoModeStandardForm) -> float:
    """u + v - 2w; values below 1 certify entanglement."""
    return form.u + form.v - 2 * form.w


def entanglement_rate(
    p: TransducerParams,
    tau: float = 1.0,
    quad: FrequencyQuadrature = DEFAULT_QUADRATURE,
) -> float:
    """Entanglement-of-formation rate of the homodyne swapping scheme.

    At each frequency the source spectra (u, v, w) pick up the optical path
    loss u -> tau (u - 1) + 1, w -> sqrt(tau) w, the two-source swap maps
    them to the symmetric microwave-microwave form
    (v - w^2 / 2u, w^2 / 2u), and the entanglement of formation of that
    state is integrated: E_R = (1 / 2 pi) * integral of E_F(omega).  A tau
    outside [0, 1] raises ValueError.
    """
    def integrand(omegas):
        u, v, w = mo_standard_form_spectra(p, omegas)
        u, w = _optical_loss(u, w, tau)
        diag, off = _swap_form(u, v, w)
        return _eof(diag, diag, off)[0]

    return integrate_spectrum(integrand, quad.window(p), quad) / (2.0 * np.pi)
