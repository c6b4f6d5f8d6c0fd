"""Entanglement measures for two-mode Gaussian states in standard form."""

import numpy as np

from .capacity import _nested_trapezoids, _window
from .transducer import TransducerParams, TwoModeStandardForm, _all, mo_standard_form_spectra

__all__ = [
    "entanglement_of_formation",
    "duan_quantity",
    "entanglement_rate",
]

# PPT test: a state is entangled where nu_min^2 < _PPT_THRESHOLD.  The margin
# below 1 absorbs round-off in nu_min^2, the small root of a quadratic, on
# states at the separability boundary, where nu_min = 1 exactly.
_PPT_THRESHOLD = 1.0 - 1e-9


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
    entangled = (nu_min_sq < _PPT_THRESHOLD) & (arg > 1.0)
    if not entangled.any():  # r = 0 and E_F = 1 log2(1) - 0 = 0 on every lane
        e_f, r = np.zeros((2,) + entangled.shape)
        return e_f, nu_min_sq, gamma, beta_plus, beta_minus, r
    r = np.where(entangled, 0.25 * np.log(np.where(entangled, arg, 1.0)), 0.0)
    c2 = np.cosh(r) ** 2
    s2 = np.sinh(r) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        e_f = c2 * np.log2(c2) - np.where(s2 > 0, s2 * np.log2(np.maximum(s2, 1e-300)), 0.0)
    return e_f, nu_min_sq, gamma, beta_plus, beta_minus, r


def entanglement_of_formation(form: TwoModeStandardForm) -> float:
    """Entanglement of formation of a symmetric-standard-form state (ebits).

    E_F = cosh^2(r) log2 cosh^2(r) - sinh^2(r) log2 sinh^2(r) where r is the
    minimal anti-squeezing needed to disentangle the state.  Separable states
    (squared smallest partial-transpose symplectic eigenvalue at or above
    _PPT_THRESHOLD = 1 - 1e-9) return 0; the measure is invariant under the
    local phase flip w -> -w.
    """
    return float(_eof(form.u, form.v, form.w)[0])


def _check_tau(tau) -> None:
    """Raise ValueError unless the transmissivity tau, a float or an array, lies
    in [0, 1] on every lane."""
    if not _all((0.0 <= tau) & (tau <= 1.0)):
        raise ValueError("tau must lie in [0, 1]")


def _optical_loss(u, w, tau) -> tuple:
    """(u, w) after optical loss of transmissivity tau: u -> tau (u - 1) + 1,
    w -> sqrt(tau) w; floats or arrays, tau checked by the caller."""
    return tau * (u - 1.0) + 1.0, np.sqrt(tau) * w


def _swap_form(u, v, w) -> tuple:
    """(diag, off) = (v - w^2 / 2u, w^2 / 2u) of the ideal swap of two
    identical sources; floats or arrays."""
    off = w * w / (2.0 * u)
    return v - off, off


def duan_quantity(form: TwoModeStandardForm) -> float:
    """u + v - 2w; values below 1 certify entanglement."""
    return form.u + form.v - 2 * form.w


def _entanglement_rates(p: TransducerParams, taus) -> np.ndarray:
    """entanglement_rate of one device at each optical transmissivity in ``taus``.

    Every tau is checked before anything is integrated.  The lanes share one
    nested trapezoid, which stops each lane at the doubling its one-lane
    integral stops at, with the same bits.  The source spectra depend on the
    device only: they are solved once per node array the trapezoid asks for,
    keyed by the nodes themselves, and every lane group reads them.  That cache
    lives for this call and holds 3 floats (and the node itself as key) per node
    visited by the deepest lane.
    """
    taus = np.asarray(taus, dtype=float)
    _check_tau(taus)
    spectra = {}

    def integrand(rows, omegas):
        key = omegas.tobytes()
        if key not in spectra:
            spectra[key] = mo_standard_form_spectra(p, omegas)
        u, v, w = spectra[key]
        u, w = _optical_loss(u, w, taus[rows, None])
        diag, off = _swap_form(u, v, w)
        return _eof(diag, diag, off)[0]

    return _nested_trapezoids(integrand, taus.size, _window(p)) / (2.0 * np.pi)


def entanglement_rate(p: TransducerParams, tau: float = 1.0) -> float:
    """Entanglement-of-formation rate of the homodyne swapping scheme.

    At each frequency the source spectra (u, v, w) pick up the optical path
    loss u -> tau (u - 1) + 1, w -> sqrt(tau) w, the two-source swap maps
    them to the symmetric microwave-microwave form
    (v - w^2 / 2u, w^2 / 2u), and the entanglement of formation of that
    state is integrated: E_R = (1 / 2 pi) * integral of E_F(omega).  A tau
    outside [0, 1] raises ValueError.
    """
    return float(_entanglement_rates(p, [tau])[0])
