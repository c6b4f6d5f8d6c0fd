"""Microwave-microwave entanglement swapping between two transducer sources.

Two blue-pumped devices each emit a microwave-optical pair; projecting the
two optical modes onto an EPR state (ideal joint homodyne) swaps the
entanglement onto the microwave pair.  The experiments evaluate that swap in
closed form; a finite-squeezing general-dyne measurement is its oracle.  A
click-based alternative heralds Bell pairs from single-photon detections of
the same optical outputs.
"""

import numpy as np

from .capacity import _even, _window, integrate_spectrum
from .entanglement import _check_tau, _optical_loss, _swap_form
from .gaussian import GaussianState, general_dyne_condition, tensor, two_mode_squeezed
from .transducer import TransducerParams, TwoModeStandardForm, _all, mo_standard_form_spectra

__all__ = [
    "mm_swap_closed",
    "mm_swap_numeric",
    "mm_standard_form",
    "apply_optical_loss",
    "click_rate",
]


def mm_swap_closed(form: TwoModeStandardForm) -> np.ndarray:
    """Microwave-microwave covariance after an ideal swap of identical sources.

    Diagonal blocks (v - w^2/2u) I and off-diagonal blocks (w^2/2u) Z; this
    is the r -> infinity limit of the EPR measurement on the optical pair.
    """
    return mm_standard_form(form).to_covariance()


def _pair_state(form1: TwoModeStandardForm, form2: TwoModeStandardForm) -> GaussianState:
    a = GaussianState(2, np.zeros(4), form1.to_covariance())
    b = GaussianState(2, np.zeros(4), form2.to_covariance())
    return tensor(a, b)  # mode order (o1, e1, o2, e2)


def mm_swap_numeric(
    form1: TwoModeStandardForm, form2: TwoModeStandardForm, r: float
) -> np.ndarray:
    """Swap via a finite-squeezing general-dyne measurement of the optical pair.

    Conditions the four-mode state on a two-mode-squeezed seed with parameter
    ``r`` measured on the optical modes; converges to ``mm_swap_closed`` as r
    grows.  Supports asymmetric devices.  This is the oracle of the closed
    form: the tests and ``selftest`` compare the two at large r, and no
    experiment calls it.
    """
    if r < 0:
        raise ValueError("measurement squeezing must be nonnegative")
    state = _pair_state(form1, form2)
    cond, _ = general_dyne_condition(
        state, measured=(0, 2), v_meas=two_mode_squeezed(r).cov, outcome=np.zeros(4)
    )
    return np.array(cond.cov)


def mm_standard_form(form: TwoModeStandardForm) -> TwoModeStandardForm:
    """Standard form (u_mm = v_mm, w_mm) of the swapped microwave pair."""
    diag, off = _swap_form(form.u, form.v, form.w)
    return TwoModeStandardForm(u=diag, v=diag, w=off)


def apply_optical_loss(form: TwoModeStandardForm, tau: float) -> TwoModeStandardForm:
    """Beam-splitter loss of transmissivity tau on the optical arm.

    u -> tau (u - 1) + 1, w -> sqrt(tau) w, v unchanged.
    """
    _check_tau(tau)
    u, w = _optical_loss(form.u, form.w, tau)
    return TwoModeStandardForm(u=u, v=form.v, w=w)


# flux densities below this are round-off, zeroed so a dark source integrates to 0
_FLUX_FLOOR = 1e-12


def _click_rates(p: TransducerParams, tau, dt) -> tuple:
    """(r_t, r_B) of one device over lanes of tau and dt: optical photon rate
    and heralded Bell-pair rate; the checks apply to every lane.

    The photon-flux spectral density of the optical coupling output,
    (S_qq + S_pp - 2)/4 in vacuum units, is integrated over frequency once
    (divided by 2 pi), on the nonnegative half of each mirror-image node array
    (`_even`): the first call covers the first two levels' 513 nodes and solves
    257 of them.  r_t scales the integral by each lane's path transmissivity.
    With two devices feeding the detectors the Bell rate follows the Poisson
    heralding model r_B = 2 r_t exp(-r_t dt).
    """
    _check_tau(tau)
    if not _all(dt > 0):
        raise ValueError("pulse duration must be positive")

    @_even
    def flux(omegas):
        u, _, _ = mo_standard_form_spectra(p, omegas)
        # optical q and p spectra coincide, so S_qq + S_pp - 2 = 2 (u - 1);
        # the flux density is nonnegative
        excess = np.maximum(u - 1.0, 0.0)
        excess[excess < _FLUX_FLOOR] = 0.0
        return excess / 2.0

    r_t = tau * integrate_spectrum(flux, _window(p)) / (2.0 * np.pi)
    return r_t, 2.0 * r_t * np.exp(-r_t * dt)


def click_rate(p: TransducerParams, tau: float, dt: float) -> tuple:
    """(r_t, r_B) at one tau and pulse length dt: one lane of `_click_rates`."""
    r_t, r_b = _click_rates(p, np.array([tau], float), np.array([dt], float))
    return float(r_t[0]), float(r_b[0])

