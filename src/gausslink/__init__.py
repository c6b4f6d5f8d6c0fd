"""Gaussian-channel models of microwave-optical quantum transduction.

The package simulates a piezo-optomechanical transducer as a Gaussian
quantum channel and compares direct conversion against teleportation over
the device's entangled output, including microwave-microwave entanglement
swapping between two devices.  Everything uses the hbar = 2 convention with
vacuum covariance equal to the identity.
"""

from .capacity import (
    BosonicChannelKind,
    dqt_capacity_boundary,
    g_function,
    q_lb_bandwidth_integrated,
    q_lb_displacement,
    q_lb_loss_amp,
)
from .entanglement import (
    duan_quantity,
    entanglement_of_formation,
    entanglement_rate,
)
from .gaussian import (
    GaussianChannelSpec,
    GaussianState,
    apply_channel,
    extract_modes,
    general_dyne_condition,
    symplectic_eigenvalues,
    symplectic_form,
    tensor,
    two_mode_squeezed,
    vacuum_state,
)
from .swap import (
    apply_optical_loss,
    click_rate,
    mm_standard_form,
    mm_swap_closed,
    mm_swap_numeric,
)
from .teleport import (
    GainSearchResult,
    induced_channel,
    optimize_gain,
    optimize_gains,
    teleport_oracle,
)
from .transducer import (
    DqtChannelPoint,
    TransducerParams,
    TwoModeStandardForm,
    cooperativities,
    dqt_channel,
    dqt_efficiency_bandwidth,
    output_mo_covariance,
    quadrature_scattering,
    scattering_blue,
    scattering_red,
    stability_check,
)

__version__ = "0.1.0"

__all__ = [
    "BosonicChannelKind",
    "DqtChannelPoint",
    "GainSearchResult",
    "GaussianChannelSpec",
    "GaussianState",
    "TransducerParams",
    "TwoModeStandardForm",
    "apply_channel",
    "apply_optical_loss",
    "click_rate",
    "cooperativities",
    "dqt_capacity_boundary",
    "dqt_channel",
    "dqt_efficiency_bandwidth",
    "duan_quantity",
    "entanglement_of_formation",
    "entanglement_rate",
    "extract_modes",
    "g_function",
    "general_dyne_condition",
    "induced_channel",
    "mm_standard_form",
    "mm_swap_closed",
    "mm_swap_numeric",
    "optimize_gain",
    "optimize_gains",
    "output_mo_covariance",
    "q_lb_bandwidth_integrated",
    "q_lb_displacement",
    "q_lb_loss_amp",
    "quadrature_scattering",
    "scattering_blue",
    "scattering_red",
    "stability_check",
    "symplectic_eigenvalues",
    "symplectic_form",
    "tensor",
    "teleport_oracle",
    "two_mode_squeezed",
    "vacuum_state",
]
