"""Frequency-domain scattering model of a piezo-optomechanical transducer.

The device couples an optical cavity (a), a mechanical thickness mode (b)
and a microwave resonator (c).  A red-detuned pump produces beam-splitter
conversion between the microwave and optical coupling ports; a blue-detuned
pump produces parametric down-conversion and emits an entangled
microwave-optical two-mode state.  Everything is evaluated on resonance in
the co-rotating frame, so the frequency argument ``omega`` is the offset
from the common resonance and may be in any unit consistent with the decay
rates (only rate ratios matter).
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .gaussian import GaussianChannelSpec, check_physical

__all__ = [
    "TransducerParams",
    "TwoModeStandardForm",
    "DqtChannelPoint",
    "cooperativities",
    "scattering_red",
    "dqt_channel",
    "dqt_efficiency_bandwidth",
    "scattering_blue",
    "quadrature_scattering",
    "output_mo_covariance",
    "mo_standard_form_spectra",
    "stability_check",
]

_Z2 = np.diag([1.0, -1.0])

# Input/output port order used by both pump configurations:
# 0 optical coupling, 1 optical intrinsic, 2 mechanical bath,
# 3 microwave coupling, 4 microwave intrinsic.
PORT_OPTICAL_C = 0
PORT_OPTICAL_I = 1
PORT_MECH = 2
PORT_MICROWAVE_C = 3
PORT_MICROWAVE_I = 4


@dataclass(frozen=True)
class TransducerParams:
    """Rates and couplings of the piezo-optomechanical device.

    All rates share one unit (rad/s, or any fixed multiple of it).  ``n_th``
    is the occupation of the common thermal bath seen by the mechanical mode
    and the intrinsic microwave port; optical inputs are always vacuum.
    ``detuning`` selects the pump sideband: "red" for direct conversion,
    "blue" for entanglement generation.
    """

    g_om: float
    g_em: float
    kappa_o_c: float
    kappa_o_i: float
    kappa_e_c: float
    kappa_e_i: float
    kappa_m: float
    n_th: float = 0.0
    detuning: str = "red"

    def __post_init__(self):
        for name in ("g_om", "g_em", "kappa_o_c", "kappa_o_i", "kappa_e_c", "kappa_e_i"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if self.kappa_m <= 0:
            raise ValueError("kappa_m must be positive")
        if self.kappa_o <= 0 or self.kappa_e <= 0:
            raise ValueError("total optical and microwave linewidths must be positive")
        if self.n_th < 0:
            raise ValueError("n_th must be nonnegative")
        if self.detuning not in ("red", "blue"):
            raise ValueError("detuning must be 'red' or 'blue'")

    @property
    def kappa_o(self) -> float:
        return self.kappa_o_c + self.kappa_o_i

    @property
    def kappa_e(self) -> float:
        return self.kappa_e_c + self.kappa_e_i

    @property
    def zeta_o(self) -> float:
        return self.kappa_o_c / self.kappa_o

    @property
    def zeta_e(self) -> float:
        return self.kappa_e_c / self.kappa_e

    @classmethod
    def from_cooperativities(
        cls,
        c_om: float,
        c_em: float,
        zeta_o: float = 1.0,
        zeta_e: float = 1.0,
        n_th: float = 0.0,
        detuning: str = "red",
        kappa_o: float = 1.0,
        kappa_e: float = 1.0,
        kappa_m: float = 1.0,
    ) -> "TransducerParams":
        """Back-solve couplings from cooperativities and extraction ratios."""
        if not 0.0 <= zeta_o <= 1.0 or not 0.0 <= zeta_e <= 1.0:
            raise ValueError("extraction ratios must lie in [0, 1]")
        if c_om < 0 or c_em < 0:
            raise ValueError("cooperativities must be nonnegative")
        return cls(
            g_om=0.5 * np.sqrt(c_om * kappa_o * kappa_m),
            g_em=0.5 * np.sqrt(c_em * kappa_e * kappa_m),
            kappa_o_c=zeta_o * kappa_o,
            kappa_o_i=(1.0 - zeta_o) * kappa_o,
            kappa_e_c=zeta_e * kappa_e,
            kappa_e_i=(1.0 - zeta_e) * kappa_e,
            kappa_m=kappa_m,
            n_th=n_th,
            detuning=detuning,
        )


def cooperativities(p: TransducerParams) -> tuple:
    """(C_om, C_em) = (4 g_om^2 / (kappa_o kappa_m), 4 g_em^2 / (kappa_e kappa_m))."""
    c_om = 4.0 * p.g_om**2 / (p.kappa_o * p.kappa_m)
    c_em = 4.0 * p.g_em**2 / (p.kappa_e * p.kappa_m)
    return c_om, c_em


@dataclass(frozen=True)
class TwoModeStandardForm:
    """Two-mode covariance in standard form (u I, v I, w Z).

    ``u`` is the optical quadrature variance, ``v`` the microwave one and
    ``w`` the quadrature cross-correlation, all in vacuum units.
    """

    u: float
    v: float
    w: float

    def __post_init__(self):
        object.__setattr__(self, "u", float(self.u))
        object.__setattr__(self, "v", float(self.v))
        object.__setattr__(self, "w", float(self.w))
        if self.u < 1.0 - 1e-9 or self.v < 1.0 - 1e-9:
            raise ValueError("diagonal variances must be at least the vacuum value")
        check_physical(self.to_covariance())

    def to_covariance(self) -> np.ndarray:
        """Assemble the 4x4 covariance matrix, optical mode first."""
        return np.block(
            [[self.u * np.eye(2), self.w * _Z2], [self.w * _Z2, self.v * np.eye(2)]]
        )


# --- red detuning: beam-splitter conversion ---------------------------------


def _drift_red(p: TransducerParams) -> np.ndarray:
    # mode order (a, c, b); resonance terms removed by the rotating frame
    return np.array(
        [
            [-p.kappa_o / 2.0, 0.0, -1j * p.g_om],
            [0.0, -p.kappa_e / 2.0, -1j * p.g_em],
            [-1j * p.g_om, -1j * p.g_em, -p.kappa_m / 2.0],
        ],
        dtype=complex,
    )


def _require(p: TransducerParams, detuning: str):
    if p.detuning != detuning:
        raise ValueError(f"operation requires {detuning}-detuned parameters")


def _require_stable_blue(p: TransducerParams):
    if not stability_check(p):
        raise ValueError("blue-detuned parameters are unstable")


# Each port couples to one mode: port m enters drift row _PORT_ROWS[m] with
# amplitude sqrt(kappa) of its decay channel.
_PORT_ROWS = {"red": np.array([0, 0, 1, 1, 2]), "blue": np.array([0, 0, 1, 2, 2])}
_EYE5 = np.eye(5)


def _scattering_batch(p: TransducerParams, omegas) -> np.ndarray:
    """Stacked S = A^T (-i omega - M)^-1 A - 1 over an array of frequencies.

    The input matrix A has one nonzero per column, so each entry of
    A^T inv A is the single product (a_i inv[r_i, r_m]) a_m; adding 0.0 turns
    its zeros to +0, as a full contraction returns them.
    """
    if p.detuning == "red":
        drift = _drift_red(p)
        rates = (p.kappa_o_c, p.kappa_o_i, p.kappa_e_c, p.kappa_e_i, p.kappa_m)
    else:
        drift = _drift_blue(p)
        rates = (p.kappa_o_c, p.kappa_o_i, p.kappa_m, p.kappa_e_c, p.kappa_e_i)
    rows, amps = _PORT_ROWS[p.detuning], np.sqrt(rates)
    omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
    m = -1j * omegas[:, None, None] * np.eye(3) - drift[None, :, :]
    inv = np.linalg.inv(m)
    return amps[:, None] * inv[:, rows[:, None], rows] * amps + 0.0 - _EYE5


def scattering_red(p: TransducerParams, omega: float = 0.0) -> np.ndarray:
    """5x5 scattering matrix of the red-detuned (conversion) configuration.

    Ports are ordered (optical coupling, optical intrinsic, microwave
    coupling, microwave intrinsic, mechanical).  The matrix is unitary for
    any parameters: the red-detuned device is a passive beam-splitter
    network and conserves photon flux.
    """
    _require(p, "red")
    return _scattering_batch(p, omega)[0]


class DqtChannelPoint(NamedTuple):
    """Thermal-loss channel (eta, n_e) induced by direct conversion."""

    eta: float
    n_e: float

    def to_channel(self) -> GaussianChannelSpec:
        t = np.sqrt(self.eta) * np.eye(2)
        n = (1.0 - self.eta) * (2.0 * self.n_e + 1.0) * np.eye(2)
        return GaussianChannelSpec(T=t, N=n)


def _dqt_eta_ne(p: TransducerParams, omegas) -> tuple:
    """Vectorized (eta, n_e) over an array of frequencies."""
    s = _scattering_batch(p, omegas)
    eta = np.abs(s[:, 0, 2]) ** 2
    noise_flux = np.abs(s[:, 0, 3]) ** 2 + np.abs(s[:, 0, 4]) ** 2
    n_e = noise_flux * p.n_th / (1.0 - eta)
    return eta, n_e


def dqt_channel(p: TransducerParams, omega: float = 0.0) -> DqtChannelPoint:
    """Direct microwave-to-optical conversion channel at a given frequency.

    The transmissivity is the conversion efficiency eta(omega) and the added
    thermal occupation comes from the mechanical bath and the intrinsic
    microwave port, both at ``n_th``.
    """
    _require(p, "red")
    eta, n_e = _dqt_eta_ne(p, omega)
    eta, n_e = float(eta[0]), float(n_e[0])
    if eta >= 1.0:
        raise ValueError("conversion efficiency >= 1 is impossible for this passive model")
    return DqtChannelPoint(eta=eta, n_e=n_e)


def dqt_efficiency_bandwidth(p: TransducerParams, omega) -> np.ndarray:
    """Closed-form conversion efficiency eta(omega).

    eta = 4 C_om C_em zeta_o zeta_e / |C_om a + C_em b + a b c|^2 with
    a = 1 - 2i omega/kappa_e, b = 1 - 2i omega/kappa_o, c = 1 - 2i omega/kappa_m.
    Accepts a scalar or an array of frequencies.
    """
    _require(p, "red")
    omega = np.asarray(omega, dtype=float)
    c_om, c_em = cooperativities(p)
    a = 1.0 - 2j * omega / p.kappa_e
    b = 1.0 - 2j * omega / p.kappa_o
    c = 1.0 - 2j * omega / p.kappa_m
    denom = np.abs(c_om * a + c_em * b + a * b * c) ** 2
    out = 4.0 * c_om * c_em * p.zeta_o * p.zeta_e / denom
    return out if out.ndim else float(out)


# --- blue detuning: two-mode-squeezing source --------------------------------


def _drift_blue(p: TransducerParams) -> np.ndarray:
    # mode order (a^dag, b, c); parametric optical-mechanical coupling
    return np.array(
        [
            [-p.kappa_o / 2.0, -1j * p.g_om, 0.0],
            [1j * p.g_om, -p.kappa_m / 2.0, 1j * p.g_em],
            [0.0, 1j * p.g_em, -p.kappa_e / 2.0],
        ],
        dtype=complex,
    )


def stability_check(p: TransducerParams) -> bool:
    """True when the blue-detuned dynamics are stable.

    All eigenvalues of the drift matrix must have real part < -1e-9; the
    parametric gain destabilizes the system once C_om reaches 1 + C_em.
    """
    _require(p, "blue")
    return bool(np.max(np.linalg.eigvals(_drift_blue(p)).real) < -1e-9)


def scattering_blue(p: TransducerParams, omega: float = 0.0) -> np.ndarray:
    """5x5 scattering matrix of the blue-detuned (source) configuration.

    Rows and columns follow the port order above, with the two optical
    entries referring to daggered operators: the parametric interaction
    couples the optical creation operator to the other annihilation
    operators.  Unstable parameters are rejected.
    """
    _require_stable_blue(p)
    return _scattering_batch(p, omega)[0]


_DAGGERED = [port in (PORT_OPTICAL_C, PORT_OPTICAL_I) for port in range(5)]
# With q = a + a^dag and p = -i(a - a^dag), an entry s linking output port a
# to input port b gives the 2x2 quadrature block
#   [[Re s, -f c Im s], [c Im s, f Re s]]
# where c = -1 conjugates s when port a is daggered and f = -1 makes the
# block reflection-type when exactly one of a and b is daggered.
_CONJ = np.array([[-1.0 if a else 1.0] for a in _DAGGERED])
_FLIP = np.array([[-1.0 if a != b else 1.0 for b in _DAGGERED] for a in _DAGGERED])


def _quadrature_rows(s_tilde: np.ndarray, ports) -> np.ndarray:
    """Rows of the real quadrature maps of stacked 5x5 scattering matrices.

    Returns the (k, 2 len(ports), 10) rows (q, p) of the output ``ports``.
    Each entry is +-Re s or +-Im s exactly; adding 0.0 turns zeros to +0.
    """
    s = s_tilde[:, ports, :]
    flip, re, im = _FLIP[ports], s.real, _CONJ[ports] * s.imag
    quad = np.empty(s.shape[:2] + (2, 5, 2))
    quad[:, :, 0, :, 0] = re
    quad[:, :, 0, :, 1] = -flip * im
    quad[:, :, 1, :, 0] = im
    quad[:, :, 1, :, 1] = flip * re
    return quad.reshape(len(s), 2 * len(ports), 10) + 0.0


def quadrature_scattering(s_tilde: np.ndarray) -> np.ndarray:
    """10x10 real quadrature transformation for a blue scattering matrix.

    Uses q = a + a^dag, p = -i(a - a^dag) on every port; each entry is
    +-Re or +-Im of one scattering coefficient.
    """
    s_tilde = np.asarray(s_tilde, dtype=complex)
    if s_tilde.shape != (5, 5):
        raise ValueError("expected a 5x5 scattering matrix")
    return _quadrature_rows(s_tilde[None], np.arange(5))[0]


# quadratures of the inputs at the bath occupation n_th; the others are vacuum
_THERMAL = np.array([port in (PORT_MECH, PORT_MICROWAVE_I) for port in range(5) for _ in "qp"])


def mo_standard_form_spectra(p: TransducerParams, omegas) -> tuple:
    """Arrays (u(omega), v(omega), w(omega)) of the source output spectra.

    The cross block of the optical/microwave covariance is reflection-like
    and is brought to w Z by an implicit local phase rotation, so w is
    reported as a magnitude.
    """
    _require_stable_blue(p)
    s = _scattering_batch(p, omegas)
    quad = _quadrature_rows(s, [PORT_OPTICAL_C, PORT_MICROWAVE_C])
    # the input covariance is diagonal: scaling columns is quad @ vin, exactly
    vin = np.where(_THERMAL, 2.0 * p.n_th + 1.0, 1.0)
    block = (quad * vin) @ quad.transpose(0, 2, 1)
    u = 0.5 * (block[:, 0, 0] + block[:, 1, 1])
    v = 0.5 * (block[:, 2, 2] + block[:, 3, 3])
    alpha = 0.5 * (block[:, 0, 2] - block[:, 1, 3])
    beta = 0.5 * (block[:, 0, 3] + block[:, 1, 2])
    return u, v, np.hypot(alpha, beta)


def _closed_form_uvw(p: TransducerParams) -> tuple:
    """On-resonance (u, v, w) closed forms, validated against the scattering path.

    The published expression for v carries a spurious extra factor of C_om;
    the form used here is the one that reproduces the quadrature-scattering
    computation identically (see the tests fitting both variants).
    """
    c_om, c_em = cooperativities(p)
    zo, ze, n = p.zeta_o, p.zeta_e, p.n_th
    den = (1.0 - c_om + c_em) ** 2
    u = 1.0 + 8.0 * c_om * (1.0 + n + c_em * (1.0 + n - n * ze)) * zo / den
    v = 1.0 + 8.0 * (c_em * (c_om + n) - (c_om - 1.0) ** 2 * (ze - 1.0) * n) * ze / den
    w = (
        4.0
        * (1.0 + c_em + c_om + 2.0 * n * c_om * (1.0 - ze) + 2.0 * n * ze)
        * np.sqrt(c_om * c_em * ze * zo)
        / den
    )
    return u, v, w


def output_mo_covariance(
    p: TransducerParams, omega: float = 0.0, method: str = "numeric"
) -> TwoModeStandardForm:
    """Standard form of the microwave-optical state emitted by a blue pump.

    method="numeric" propagates vacuum and thermal inputs through the
    quadrature scattering map (works at any frequency); method="closed"
    evaluates the on-resonance closed forms and therefore requires omega = 0.
    """
    _require(p, "blue")
    if method == "closed":
        if omega != 0.0:
            raise ValueError("closed-form path is only defined on resonance")
        _require_stable_blue(p)
        u, v, w = _closed_form_uvw(p)
    elif method == "numeric":
        u, v, w = (float(x[0]) for x in mo_standard_form_spectra(p, omega))
    else:
        raise ValueError("method must be 'numeric' or 'closed'")
    return TwoModeStandardForm(u=u, v=v, w=w)
