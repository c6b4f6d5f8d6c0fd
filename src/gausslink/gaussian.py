"""Phase-space algebra for multimode Gaussian states.

Conventions used throughout the package: hbar = 2, quadratures ordered as
(q1, p1, ..., qn, pn) with q = a + a^dag and p = -i(a - a^dag), so the
vacuum covariance matrix is the identity.  A state is physical when
V + i*Omega >= 0 for the symplectic form Omega.
"""

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

__all__ = [
    "GaussianState",
    "GaussianChannelSpec",
    "symplectic_form",
    "apply_channel",
    "tensor",
    "extract_modes",
    "general_dyne_condition",
    "symplectic_eigenvalues",
    "vacuum_state",
    "two_mode_squeezed",
]

# Tolerances: covariance symmetry is absolute, the physicality floor scales
# with the matrix norm so that strongly squeezed states survive round-off.
SYMMETRY_ATOL = 1e-10
PHYSICALITY_FLOOR = -1e-9

_OMEGA_1 = np.array([[0.0, 1.0], [-1.0, 0.0]])


@lru_cache(maxsize=64)
def _symplectic_form_cached(n_modes: int) -> np.ndarray:
    omega = np.zeros((2 * n_modes, 2 * n_modes))
    for k in range(n_modes):
        omega[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = _OMEGA_1
    omega.flags.writeable = False
    return omega


def symplectic_form(n_modes: int) -> np.ndarray:
    """Return the 2n x 2n symplectic form, block diagonal [[0, 1], [-1, 0]].

    Parameters
    ----------
    n_modes : int
        Number of bosonic modes, must be >= 1.

    Returns
    -------
    ndarray
        Read-only antisymmetric matrix with Omega^2 = -identity.
    """
    if n_modes < 1:
        raise ValueError("mode count must be a positive integer")
    return _symplectic_form_cached(int(n_modes))


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float, copy=True)
    out.flags.writeable = False
    return out


def check_physical(cov: np.ndarray, floor: float = PHYSICALITY_FLOOR) -> float:
    """Smallest eigenvalue of cov + i*Omega; raises if below the floor.

    The floor is scaled by max(1, |cov|_max) so that large, legitimately
    near-pure covariance matrices are not rejected by round-off.
    """
    n = cov.shape[0] // 2
    omega = symplectic_form(n)
    vals = np.linalg.eigvalsh(cov + 1j * omega)
    lo = float(vals[0])
    scale = max(1.0, float(np.max(np.abs(cov))))
    if lo < floor * scale:
        raise ValueError(f"covariance is not physical: min eig(V + iOmega) = {lo:.3e}")
    return lo


@dataclass(frozen=True, eq=False)
class GaussianState:
    """An n-mode Gaussian state given by its first and second moments.

    Attributes
    ----------
    n_modes : int
        Number of modes.
    mean : ndarray
        Length-2n vector of quadrature means, order (q1, p1, ..., qn, pn).
    cov : ndarray
        2n x 2n symmetric covariance matrix, vacuum = identity (hbar = 2).
    """

    n_modes: int
    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        n = int(self.n_modes)
        if n < 1:
            raise ValueError("n_modes must be >= 1")
        mean = np.asarray(self.mean, dtype=float).reshape(-1)
        cov = np.asarray(self.cov, dtype=float)
        if mean.shape != (2 * n,):
            raise ValueError(f"mean must have length {2 * n}, got {mean.shape}")
        if cov.shape != (2 * n, 2 * n):
            raise ValueError(f"cov must be {2 * n} x {2 * n}, got {cov.shape}")
        if np.max(np.abs(cov - cov.T)) > SYMMETRY_ATOL * max(1.0, np.max(np.abs(cov))):
            raise ValueError("covariance matrix is not symmetric")
        cov = 0.5 * (cov + cov.T)
        check_physical(cov)
        object.__setattr__(self, "n_modes", n)
        object.__setattr__(self, "mean", _frozen(mean))
        object.__setattr__(self, "cov", _frozen(cov))


def vacuum_state(n_modes: int = 1) -> GaussianState:
    """Vacuum of n modes: zero mean, identity covariance."""
    return GaussianState(n_modes, np.zeros(2 * n_modes), np.eye(2 * n_modes))


def two_mode_squeezed(r: float) -> GaussianState:
    """Two-mode squeezed vacuum with squeezing parameter r.

    Covariance blocks cosh(2r) I on the diagonal and sinh(2r) Z off diagonal;
    the squeezed joint quadratures are (q1 - q2) and (p1 + p2).
    """
    c, s = np.cosh(2.0 * r), np.sinh(2.0 * r)
    z = np.diag([1.0, -1.0])
    cov = np.block([[c * np.eye(2), s * z], [s * z, c * np.eye(2)]])
    return GaussianState(2, np.zeros(4), cov)


@dataclass(frozen=True, eq=False)
class GaussianChannelSpec:
    """Gaussian channel acting as mean -> T mean + d, cov -> T cov T^T + N."""

    T: np.ndarray
    N: np.ndarray
    d: np.ndarray = field(default=None)

    def __post_init__(self):
        T = np.asarray(self.T, dtype=float)
        N = np.asarray(self.N, dtype=float)
        if T.ndim != 2 or T.shape[0] != T.shape[1] or T.shape[0] % 2:
            raise ValueError("T must be square with even dimension")
        if N.shape != T.shape:
            raise ValueError("N must match the shape of T")
        if np.max(np.abs(N - N.T)) > SYMMETRY_ATOL * max(1.0, np.max(np.abs(N))):
            raise ValueError("N must be symmetric")
        d = self.d
        d = np.zeros(T.shape[0]) if d is None else np.asarray(d, dtype=float).reshape(-1)
        if d.shape != (T.shape[0],):
            raise ValueError("d must have the same dimension as T")
        object.__setattr__(self, "T", _frozen(T))
        object.__setattr__(self, "N", _frozen(0.5 * (N + N.T)))
        object.__setattr__(self, "d", _frozen(d))

    @property
    def n_modes(self) -> int:
        return self.T.shape[0] // 2


def apply_channel(state: GaussianState, ch: GaussianChannelSpec) -> GaussianState:
    """Propagate a state through a Gaussian channel."""
    if ch.n_modes != state.n_modes:
        raise ValueError(
            f"channel acts on {ch.n_modes} modes, state has {state.n_modes}"
        )
    mean = ch.T @ state.mean + ch.d
    cov = ch.T @ state.cov @ ch.T.T + ch.N
    return GaussianState(state.n_modes, mean, cov)


def tensor(a: GaussianState, b: GaussianState) -> GaussianState:
    """Tensor product of two states, modes of ``a`` first."""
    n = a.n_modes + b.n_modes
    mean = np.concatenate([a.mean, b.mean])
    cov = np.zeros((2 * n, 2 * n))
    cov[: 2 * a.n_modes, : 2 * a.n_modes] = a.cov
    cov[2 * a.n_modes :, 2 * a.n_modes :] = b.cov
    return GaussianState(n, mean, cov)


def _quad_indices(modes) -> list:
    return [q for m in modes for q in (2 * m, 2 * m + 1)]


def extract_modes(state: GaussianState, modes) -> GaussianState:
    """Partial trace: keep only the listed modes, in the order given."""
    modes = list(modes)
    if len(set(modes)) != len(modes):
        raise ValueError("mode indices must be distinct")
    for m in modes:
        if not 0 <= m < state.n_modes:
            raise ValueError(f"mode index {m} out of range")
    idx = _quad_indices(modes)
    return GaussianState(len(modes), state.mean[idx], state.cov[np.ix_(idx, idx)])


# Condition number above which the measurement normal matrix is treated as
# singular and inverted by SVD pseudo-inverse instead.
_COND_LIMIT = 1e12
_PINV_CUTOFF = 1e-12


def _robust_inverse(m: np.ndarray) -> np.ndarray:
    if np.linalg.cond(m) < _COND_LIMIT:
        return np.linalg.inv(m)
    return np.linalg.pinv(m, rcond=_PINV_CUTOFF)


def _restore_physicality(cov: np.ndarray, rel_budget: float = 1e-6) -> np.ndarray:
    """Nudge a marginally unphysical covariance back onto the physical cone.

    Conditioning on a strongly squeezed seed inverts a matrix whose condition
    number grows like exp(2r), so boundary (pure) conditional states can come
    out below the physicality floor by round-off of that order.  Violations
    within the budget are repaired by a multiple of the identity; larger ones
    are left for the state constructor to reject.
    """
    n = cov.shape[0] // 2
    lo = float(np.linalg.eigvalsh(cov + 1j * symplectic_form(n))[0])
    if lo < 0 and lo >= -rel_budget * max(1.0, float(np.max(np.abs(cov)))):
        cov = cov + (-lo) * 1.001 * np.eye(cov.shape[0])
    return cov


def general_dyne_condition(state, measured, v_meas, outcome):
    """Condition a Gaussian state on a general-dyne measurement.

    The POVM is seeded by a Gaussian state with covariance ``v_meas`` on the
    measured modes; heterodyne corresponds to v_meas = identity and ideal
    homodyne to the appropriate squeezed limit.  It is the swap's oracle
    route: no experiment calls it, but through `swap.mm_swap_numeric` the
    tests and ``selftest`` check the closed-form swap against it.

    Parameters
    ----------
    state : GaussianState
    measured : sequence of int
        Mode indices that are measured (kept modes are the complement,
        in their original order).
    v_meas : ndarray
        Covariance matrix of the measurement seed state, shape matching the
        measured block.
    outcome : ndarray
        Measurement outcome vector, length 2 * len(measured).

    Returns
    -------
    (GaussianState, float)
        The conditional state of the kept modes and the outcome probability
        density.  The density is returned in un-normalized Gaussian form
        exp(-d^T (Gamma_B + V)^-1 d) / (pi^m sqrt(det(Gamma_B + V)));
        downstream users only ever take ratios of it.

    Notes
    -----
    The conditional covariance Gamma_A - Gamma_AB (Gamma_B + V)^-1 Gamma_AB^T
    does not depend on the outcome; only the conditional mean does.
    """
    measured = list(measured)
    kept = [m for m in range(state.n_modes) if m not in measured]
    if not kept:
        raise ValueError("at least one mode must be kept")
    if len(set(measured)) != len(measured):
        raise ValueError("measured mode indices must be distinct")
    mdim = 2 * len(measured)
    v_meas = np.asarray(v_meas, dtype=float)
    if v_meas.shape != (mdim, mdim):
        raise ValueError(f"v_meas must be {mdim} x {mdim}")
    check_physical(0.5 * (v_meas + v_meas.T))
    outcome = np.asarray(outcome, dtype=float).reshape(-1)
    if outcome.shape != (mdim,):
        raise ValueError(f"outcome must have length {mdim}")

    ia, ib = _quad_indices(kept), _quad_indices(measured)
    gamma_a = state.cov[np.ix_(ia, ia)]
    gamma_b = state.cov[np.ix_(ib, ib)]
    gamma_ab = state.cov[np.ix_(ia, ib)]
    normal = gamma_b + v_meas
    inv = _robust_inverse(normal)

    delta = outcome - state.mean[ib]
    cond_cov = gamma_a - gamma_ab @ inv @ gamma_ab.T
    cond_cov = _restore_physicality(0.5 * (cond_cov + cond_cov.T))
    cond_mean = state.mean[ia] + gamma_ab @ inv @ delta

    m = len(measured)
    det = np.linalg.det(normal)
    density = float(np.exp(-delta @ inv @ delta) / (np.pi**m * np.sqrt(abs(det))))
    return GaussianState(len(kept), cond_mean, cond_cov), density


def symplectic_eigenvalues(cov: np.ndarray) -> np.ndarray:
    """Symplectic spectrum of a covariance matrix, sorted ascending.

    The n values are the moduli of the eigenvalues of i Omega V, which come
    in +/- pairs; physical states have all values >= 1.
    """
    cov = np.asarray(cov, dtype=float)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1] or cov.shape[0] % 2:
        raise ValueError("covariance must be square with even dimension")
    if np.max(np.abs(cov - cov.T)) > SYMMETRY_ATOL * max(1.0, np.max(np.abs(cov))):
        raise ValueError("covariance must be symmetric")
    n = cov.shape[0] // 2
    vals = np.sort(np.abs(np.linalg.eigvals(1j * symplectic_form(n) @ cov)))
    return vals.reshape(n, 2).mean(axis=1)
