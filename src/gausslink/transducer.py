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

from .gaussian import PHYSICALITY_FLOOR

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


def _all(ok) -> bool:
    """Whether a check holds for a bool, or on every lane of a bool array.

    Checks are written as the condition a valid value meets, so NaN fails them.
    """
    return bool(ok.all()) if isinstance(ok, np.ndarray) else bool(ok)


@dataclass(frozen=True)
class TransducerParams:
    """Rates and couplings of the piezo-optomechanical device.

    All rates share one unit (rad/s, or any fixed multiple of it).  ``n_th``
    is the occupation of the common thermal bath seen by the mechanical mode
    and the intrinsic microwave port; optical inputs are always vacuum.
    ``detuning`` selects the pump sideband: "red" for direct conversion,
    "blue" for entanglement generation.  The numeric fields may also be
    arrays, one device per lane, mixed with floats or with each other as long
    as they broadcast against each other (a fixed C_om and a swept C_em give a
    float ``g_om`` and an array ``g_em``); every input check then applies to
    every lane.
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
            if not _all(getattr(self, name) >= 0):
                raise ValueError(f"{name} must be nonnegative")
        if not _all(self.kappa_m > 0):
            raise ValueError("kappa_m must be positive")
        if not _all((self.kappa_o > 0) & (self.kappa_e > 0)):
            raise ValueError("total optical and microwave linewidths must be positive")
        if not _all(self.n_th >= 0):
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
        if not _all((0.0 <= zeta_o) & (zeta_o <= 1.0) & (0.0 <= zeta_e) & (zeta_e <= 1.0)):
            raise ValueError("extraction ratios must lie in [0, 1]")
        if not _all((c_om >= 0) & (c_em >= 0)):
            raise ValueError("cooperativities must be nonnegative")
        # before the square roots of the couplings, which a negative one would warn in
        for name, kappa in (("kappa_o", kappa_o), ("kappa_e", kappa_e), ("kappa_m", kappa_m)):
            if not _all(kappa > 0):
                raise ValueError(f"{name} must be positive")
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
    """(C_om, C_em) = (4 g_om^2 / (kappa_o kappa_m), 4 g_em^2 / (kappa_e kappa_m)).

    np.float_power squares with libm pow, as ``x ** 2`` on a float does, so
    array lanes equal scalar values bit for bit (an array's ``x ** 2`` is x * x).
    """
    c_om = 4.0 * np.float_power(p.g_om, 2.0) / (p.kappa_o * p.kappa_m)
    c_em = 4.0 * np.float_power(p.g_em, 2.0) / (p.kappa_e * p.kappa_m)
    return c_om, c_em


_VACUUM_FLOOR = 1e-9  # round-off allowed below the vacuum variance


def _check_forms(u, v, w):
    """Raise ValueError unless every standard form (u, v, w) is physical.

    Floats or arrays.  The smallest eigenvalue of V + i Omega is
    (u + v - sqrt((|u - v| + 2)^2 + 4 w^2)) / 2, held to the floor of
    `gaussian.check_physical`, scaled as there by max(1, |V|_max).
    """
    if not _all((u >= 1.0 - _VACUUM_FLOOR) & (v >= 1.0 - _VACUUM_FLOOR)):
        raise ValueError("diagonal variances must be at least the vacuum value")
    lo = 0.5 * (u + v - np.sqrt((np.abs(u - v) + 2.0) ** 2 + 4.0 * w * w))
    scale = np.maximum(np.maximum(1.0, np.abs(w)), np.maximum(np.abs(u), np.abs(v)))
    ok = lo >= PHYSICALITY_FLOOR * scale
    if not _all(ok):
        worst = np.extract(~ok, lo)[0]
        raise ValueError(f"covariance is not physical: min eig(V + iOmega) = {worst:.3e}")


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
        _check_forms(self.u, self.v, self.w)

    def to_covariance(self) -> np.ndarray:
        """Assemble the 4x4 covariance matrix, optical mode first."""
        return np.block(
            [[self.u * np.eye(2), self.w * _Z2], [self.w * _Z2, self.v * np.eye(2)]]
        )


# --- red detuning: beam-splitter conversion ---------------------------------


def _lane_shape(p: TransducerParams) -> tuple:
    """The shape the numeric fields of ``p`` broadcast to."""
    return np.broadcast(p.g_om, p.g_em, p.kappa_o, p.kappa_e, p.kappa_m).shape


def _drift_red(p: TransducerParams) -> np.ndarray:
    """Drift matrix of each lane, shape (..., 3, 3)."""
    # mode order (a, c, b); resonance terms removed by the rotating frame
    drift = np.zeros(_lane_shape(p) + (3, 3), dtype=complex)
    drift[..., 0, 0] = -p.kappa_o / 2.0
    drift[..., 0, 2] = drift[..., 2, 0] = -1j * p.g_om
    drift[..., 1, 1] = -p.kappa_e / 2.0
    drift[..., 1, 2] = drift[..., 2, 1] = -1j * p.g_em
    drift[..., 2, 2] = -p.kappa_m / 2.0
    return drift


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


def _scattering_batch(p: TransducerParams, omegas, ports=slice(None)) -> np.ndarray:
    """Rows ``ports`` of S = A^T (-i omega - M)^-1 A - 1 over device lanes or frequencies.

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
    if len({getattr(r, "shape", ()) for r in rates}) > 1:
        rates = np.broadcast_arrays(*rates)
    rows, amps = _PORT_ROWS[p.detuning], np.sqrt(np.stack(rates, axis=-1))
    omegas = np.asarray(omegas, dtype=float)[..., None, None]
    inv = np.linalg.inv(-1j * omegas * np.eye(3) - drift)
    gathered = amps[..., ports, None] * inv[..., rows[ports, None], rows] * amps[..., None, :]
    return gathered + 0.0 - _EYE5[ports]


def scattering_red(p: TransducerParams, omega: float = 0.0) -> np.ndarray:
    """5x5 scattering matrix of the red-detuned (conversion) configuration.

    Ports are ordered (optical coupling, optical intrinsic, microwave
    coupling, microwave intrinsic, mechanical).  The matrix is unitary for
    any parameters: the red-detuned device is a passive beam-splitter
    network and conserves photon flux.
    """
    _require(p, "red")
    return _scattering_batch(p, omega)


class DqtChannelPoint(NamedTuple):
    """Thermal-loss channel (eta, n_e) induced by direct conversion; its action
    is BosonicChannelKind("thermal_loss", eta, n_e).to_gaussian_channel()."""

    eta: float
    n_e: float


def _dqt_eta_ne(p: TransducerParams, omegas) -> tuple:
    """(eta, n_e) over device lanes or frequencies; ValueError where eta >= 1."""
    s = _scattering_batch(p, omegas, [PORT_OPTICAL_C])[..., 0, :]
    eta = np.abs(s[..., 2]) ** 2
    if not _all(eta < 1.0):
        raise ValueError("conversion efficiency >= 1 is impossible for this passive model")
    noise_flux = np.abs(s[..., 3]) ** 2 + np.abs(s[..., 4]) ** 2
    n_e = noise_flux * p.n_th / (1.0 - eta)
    return eta, n_e


def dqt_channel(p: TransducerParams, omega: float = 0.0) -> DqtChannelPoint:
    """Direct microwave-to-optical conversion channel at a given frequency.

    The transmissivity is the conversion efficiency eta(omega) and the added
    thermal occupation comes from the mechanical bath and the intrinsic
    microwave port, both at ``n_th``.
    """
    _require(p, "red")
    # a one-frequency array, so that eta squares as x * x, as on every lane
    eta, n_e = _dqt_eta_ne(p, [omega])
    return DqtChannelPoint(eta=float(eta[0]), n_e=float(n_e[0]))


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
    """Drift matrix of each lane, shape (..., 3, 3)."""
    # mode order (a^dag, b, c); parametric optical-mechanical coupling
    drift = np.zeros(_lane_shape(p) + (3, 3), dtype=complex)
    drift[..., 0, 0] = -p.kappa_o / 2.0
    drift[..., 0, 1] = -1j * p.g_om
    drift[..., 1, 0] = 1j * p.g_om
    drift[..., 1, 1] = -p.kappa_m / 2.0
    drift[..., 1, 2] = drift[..., 2, 1] = 1j * p.g_em
    drift[..., 2, 2] = -p.kappa_e / 2.0
    return drift


# Drift eigenvalues must have real parts below this to count as stable.  The
# margin is absolute: the Routh-Hurwitz test of `stability_check` shifts every
# decay rate by it, so a device with 1 + C_em - C_om = 1e-8 still passes, with
# u near 1e17 to 1e19.
_STABILITY_MARGIN = -1e-9


def stability_check(p: TransducerParams) -> bool:
    """True when the blue-detuned dynamics are stable.

    All eigenvalues of the drift matrix must have real part below
    _STABILITY_MARGIN (-1e-9); the parametric gain destabilizes the system
    once C_om reaches 1 + C_em.  The drift's characteristic polynomial is the
    real cubic (x + a)(x + b)(x + c) + g_em^2 (x + a) - g_om^2 (x + c), with
    a, b, c the halved optical, mechanical and microwave linewidths; shifted by
    the margin, its roots lie in the open left half plane exactly when the
    Routh-Hurwitz conditions hold, so no eigenvalue is computed.
    Array-valued parameters give a bool array.
    """
    _require(p, "blue")
    a, b, c = (k / 2.0 + _STABILITY_MARGIN for k in (p.kappa_o, p.kappa_m, p.kappa_e))
    g_om2, g_em2 = p.g_om * p.g_om, p.g_em * p.g_em
    a2 = a + b + c
    a1 = a * b + b * c + a * c + g_em2 - g_om2
    a0 = a * b * c + g_em2 * a - g_om2 * c
    stable = np.asarray((a2 > 0) & (a0 > 0) & (a2 * a1 > a0))
    return stable if stable.ndim else bool(stable)


def scattering_blue(p: TransducerParams, omega: float = 0.0) -> np.ndarray:
    """5x5 scattering matrix of the blue-detuned (source) configuration.

    Rows and columns follow the port order above, with the two optical
    entries referring to daggered operators: the parametric interaction
    couples the optical creation operator to the other annihilation
    operators.  Unstable parameters are rejected.  With
    `quadrature_scattering` it gives the full 10x10 quadrature map, the
    oracle view of the rows the source spectra gather: the tests check it
    against the conjugation of S, and no experiment calls it.
    """
    _require_stable_blue(p)
    return _scattering_batch(p, omega)


_DAGGERED = [port in (PORT_OPTICAL_C, PORT_OPTICAL_I) for port in range(5)]
# With q = a + a^dag and p = -i(a - a^dag), an entry s linking output port a
# to input port b gives the 2x2 quadrature block
#   [[Re s, -f c Im s], [c Im s, f Re s]]
# where c = -1 conjugates s when port a is daggered and f = -1 makes the
# block reflection-type when exactly one of a and b is daggered.
_CONJ = np.array([[-1.0 if a else 1.0] for a in _DAGGERED])
_FLIP = np.array([[-1.0 if a != b else 1.0 for b in _DAGGERED] for a in _DAGGERED])


def _quadrature_rows(s: np.ndarray, ports) -> np.ndarray:
    """Rows of the real quadrature maps of stacked scattering rows.

    ``s`` holds the (k, len(ports), 5) rows of the output ``ports``; returns
    their (k, 2 len(ports), 10) quadrature rows (q, p).  Each entry is +-Re s
    or +-Im s exactly; adding 0.0 turns zeros to +0.
    """
    flip, re, im = _FLIP[ports], s.real, _CONJ[ports] * s.imag
    quad = np.empty(s.shape[:2] + (2, 5, 2))
    quad[:, :, 0, :, 0] = re
    quad[:, :, 0, :, 1] = -flip * im
    quad[:, :, 1, :, 0] = im
    quad[:, :, 1, :, 1] = flip * re
    return quad.reshape(len(s), 2 * s.shape[1], 10) + 0.0


def quadrature_scattering(s_tilde: np.ndarray) -> np.ndarray:
    """10x10 real quadrature transformation for a blue scattering matrix.

    Uses q = a + a^dag, p = -i(a - a^dag) on every port; each entry is
    +-Re or +-Im of one scattering coefficient.  An oracle route: see
    `scattering_blue`.
    """
    s_tilde = np.asarray(s_tilde, dtype=complex)
    if s_tilde.shape != (5, 5):
        raise ValueError("expected a 5x5 scattering matrix")
    return _quadrature_rows(s_tilde[None], slice(None))[0]


# quadratures of the inputs at the bath occupation n_th; the others are vacuum
_THERMAL = np.array([port in (PORT_MECH, PORT_MICROWAVE_I) for port in range(5) for _ in "qp"])


def mo_standard_form_spectra(p: TransducerParams, omegas) -> tuple:
    """Arrays (u(omega), v(omega), w(omega)) of the source output spectra.

    The cross block of the optical/microwave covariance is reflection-like
    and is brought to w Z by an implicit local phase rotation, so w is
    reported as a magnitude.
    """
    _require_stable_blue(p)
    ports = [PORT_OPTICAL_C, PORT_MICROWAVE_C]
    quad = _quadrature_rows(_scattering_batch(p, np.atleast_1d(omegas), ports), ports)
    # the input covariance is diagonal: scaling columns is quad @ vin, exactly
    vin = np.where(_THERMAL, 2.0 * p.n_th + 1.0, 1.0)
    block = (quad * vin) @ quad.transpose(0, 2, 1)
    u = 0.5 * (block[:, 0, 0] + block[:, 1, 1])
    v = 0.5 * (block[:, 2, 2] + block[:, 3, 3])
    alpha = 0.5 * (block[:, 0, 2] - block[:, 1, 3])
    beta = 0.5 * (block[:, 0, 3] + block[:, 1, 2])
    return u, v, np.hypot(alpha, beta)


def _closed_form_uvw(c_om, c_em, zo, ze, n) -> tuple:
    """On-resonance (u, v, w) closed forms, validated against the scattering path.

    Floats or arrays of stable devices; squares use pow as in `cooperativities`.
    The published expression for v carries a spurious extra factor of C_om;
    the form used here is the one that reproduces the quadrature-scattering
    computation identically (see the tests fitting both variants).
    """
    den = np.float_power(1.0 - c_om + c_em, 2.0)
    u = 1.0 + 8.0 * c_om * (1.0 + n + c_em * (1.0 + n - n * ze)) * zo / den
    v = 1.0 + 8.0 * (
        c_em * (c_om + n) - np.float_power(c_om - 1.0, 2.0) * (ze - 1.0) * n
    ) * ze / den
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
        u, v, w = _closed_form_uvw(*cooperativities(p), p.zeta_o, p.zeta_e, p.n_th)
    elif method == "numeric":
        u, v, w = (float(x[0]) for x in mo_standard_form_spectra(p, omega))
    else:
        raise ValueError("method must be 'numeric' or 'closed'")
    return TwoModeStandardForm(u=u, v=v, w=w)
