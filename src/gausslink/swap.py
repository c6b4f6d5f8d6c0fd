"""Microwave-microwave entanglement swapping between two transducer sources.

Two blue-pumped devices each emit a microwave-optical pair; projecting the
two optical modes onto an EPR state (ideal joint homodyne) swaps the
entanglement onto the microwave pair.  A click-based alternative heralds
Bell pairs from single-photon detections of the same optical outputs.
"""

from dataclasses import dataclass

import numpy as np

from .capacity import DEFAULT_QUADRATURE, FrequencyQuadrature, integrate_spectrum
from .entanglement import _optical_loss, _swap_form
from .gaussian import (
    GaussianState,
    general_dyne_condition,
    homodyne_epr_limit,
    tensor,
    two_mode_squeezed,
)
from .teleport import optimize_gain
from .transducer import (
    TransducerParams,
    TwoModeStandardForm,
    mo_standard_form_spectra,
    stability_check,
)

__all__ = [
    "SwapSetup",
    "mm_swap_closed",
    "mm_swap_numeric",
    "mm_swap_epr_limit",
    "mm_standard_form",
    "apply_optical_loss",
    "click_rate",
    "mm_capacity",
]

@dataclass(frozen=True)
class SwapSetup:
    """Two source devices, a per-arm optical transmissivity and a pulse length."""

    device_1: TransducerParams
    device_2: TransducerParams
    tau: float = 1.0
    pulse_duration: float = 1.0

    def __post_init__(self):
        for dev in (self.device_1, self.device_2):
            if dev.detuning != "blue":
                raise ValueError("swap sources must be blue detuned")
            if not stability_check(dev):
                raise ValueError("swap sources must be stable")
        if not 0.0 <= self.tau <= 1.0:
            raise ValueError("tau must lie in [0, 1]")
        if self.pulse_duration <= 0:
            raise ValueError("pulse duration must be positive")


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
    grows.  Supports asymmetric devices.
    """
    if r < 0:
        raise ValueError("measurement squeezing must be nonnegative")
    state = _pair_state(form1, form2)
    cond, _ = general_dyne_condition(
        state, measured=(0, 2), v_meas=two_mode_squeezed(r).cov, outcome=np.zeros(4)
    )
    return np.array(cond.cov)


def mm_swap_epr_limit(
    form1: TwoModeStandardForm, form2: TwoModeStandardForm
) -> np.ndarray:
    """Ideal-measurement swap evaluated as the analytic limit."""
    cond = homodyne_epr_limit(_pair_state(form1, form2), measured_pair=(0, 2))
    return np.array(cond.cov)


def mm_standard_form(form: TwoModeStandardForm) -> TwoModeStandardForm:
    """Standard form (u_mm = v_mm, w_mm) of the swapped microwave pair."""
    diag, off = _swap_form(form.u, form.v, form.w)
    return TwoModeStandardForm(u=diag, v=diag, w=off)


def apply_optical_loss(form: TwoModeStandardForm, tau: float) -> TwoModeStandardForm:
    """Beam-splitter loss of transmissivity tau on the optical arm.

    u -> tau (u - 1) + 1, w -> sqrt(tau) w, v unchanged.
    """
    u, w = _optical_loss(form.u, form.w, tau)
    return TwoModeStandardForm(u=u, v=form.v, w=w)


def click_rate(
    p: TransducerParams,
    tau: float,
    dt: float,
    quad: FrequencyQuadrature = DEFAULT_QUADRATURE,
) -> tuple:
    """(r_t, r_B): optical photon rate and heralded Bell-pair rate.

    r_t integrates the photon-flux spectral density of the optical coupling
    output, (S_qq + S_pp - 2)/4 in vacuum units, over frequency (divided by
    2 pi) and is scaled by the path transmissivity.  With two devices
    feeding the detectors the Bell rate follows the Poisson heralding model
    r_B = 2 r_t exp(-r_t dt).
    """
    if not 0.0 <= tau <= 1.0:
        raise ValueError("tau must lie in [0, 1]")
    if dt <= 0:
        raise ValueError("pulse duration must be positive")

    def flux(omegas):
        u, _, _ = mo_standard_form_spectra(p, omegas)
        # optical q and p spectra coincide, so S_qq + S_pp - 2 = 2 (u - 1);
        # the flux density is nonnegative, and values at round-off scale are
        # zeroed so a dark source integrates to exactly zero
        excess = np.maximum(u - 1.0, 0.0)
        excess[excess < 1e-12] = 0.0
        return excess / 2.0

    r_t = tau * integrate_spectrum(flux, quad.window(p), quad) / (2.0 * np.pi)
    r_b = 2.0 * r_t * np.exp(-r_t * dt)
    return float(r_t), float(r_b)


def mm_capacity(form: TwoModeStandardForm) -> float:
    """Capacity lower bound of teleporting over the swapped microwave pair.

    Takes the source standard form, swaps it through the ideal measurement
    and optimizes the teleportation gain over the resulting symmetric state.
    """
    return optimize_gain(mm_standard_form(form)).q_lb_opt
