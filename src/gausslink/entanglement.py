"""Entanglement measures for two-mode Gaussian states in standard form."""

import numpy as np

from .capacity import _even, _nested_trapezoids, _window
from .transducer import TransducerParams, TwoModeStandardForm, _all, mo_standard_form_spectra

__all__ = [
    "entanglement_of_formation",
    "duan_quantity",
    "entanglement_rate",
]

# `_eof`'s PPT test: E_F = 0 where nu_min^2 >= _PPT_THRESHOLD.  The margin
# below 1 absorbs the few-ulp round-off of nu_min^2 = det_v / nu_max^2 on
# states at the separability boundary, where nu_min = 1 exactly.
_PPT_THRESHOLD = 1.0 - 1e-9


def _eof(u, v, w) -> np.ndarray:
    """Entanglement of formation (ebits) of standard forms (u I, v I, w Z), from
    float arrays u, v and w of one shape.

    r = ln(arg) / 4 with arg = (gamma - rad) / beta_- is the minimal
    disentangling anti-squeezing (Tserkis & Ralph, PRA 96, 062338, 2017),
    where beta_+- = (u + v +- 2|w|)^2 for standard forms; a physical form has
    u v - w^2 >= 1, so u + v > 2|w| and beta_- > 0.  Lanes that fail the PPT
    test or read arg <= 1 get arg = 1 before the log, so r = +0 and E_F = +0.
    Where gamma = 2 (det_v + 1) - (u - v)^2 passes about 1e16, gamma - rad
    cancels: lanes that pass the PPT test but not arg > 1 take the same arg as
    beta_+ / (gamma + rad), written beta_+ beta_- / (gamma + rad) / beta_-.

    Past the PPT test it works on the span of rows (along the first axis)
    holding a lane that passes it; the rows around read +0.  It writes
    nu_min^2, then (u - v)^2, over its own |w|, and E_F over delta.
    """
    w = np.abs(w)
    w2 = 2.0 * w
    det_v = (u * v - w * w) ** 2
    delta = u * u + v * v + w2 * w
    # nu_min^2 nu_max^2 = det_v: the small root from the large one, which does
    # not cancel where nu_min << nu_max, near the stability boundary
    nu_sq = np.multiply(delta, delta, out=w)
    nu_sq -= det_v * 4.0
    np.maximum(nu_sq, 0.0, out=nu_sq)
    np.sqrt(nu_sq, out=nu_sq)
    nu_sq += delta
    nu_sq *= 0.5
    np.divide(det_v, nu_sq, out=nu_sq)
    ppt = nu_sq < _PPT_THRESHOLD
    if not ppt.any():
        return np.zeros(ppt.shape)
    rows = np.flatnonzero(ppt.any(axis=tuple(range(1, ppt.ndim))))
    first, stop = rows[0], rows[-1] + 1
    out = delta
    out[:first] = out[stop:] = 0.0
    at = slice(first, stop)
    u, v, det_v, delta, w2, ppt, buf = (x[at] for x in (u, v, det_v, delta, w2, ppt, nu_sq))
    gamma = np.add(det_v, 1.0, out=det_v)
    gamma *= 2.0
    diff_sq = np.subtract(u, v, out=buf)
    diff_sq *= diff_sq
    gamma -= diff_sq
    total = np.add(u, v, out=buf)
    beta = np.add(total, w2, out=delta)
    beta_minus = np.subtract(total, w2, out=total)
    beta *= beta
    beta_minus *= beta_minus
    beta *= beta_minus
    rad = np.multiply(gamma, gamma, out=w2)
    rad -= beta
    np.maximum(rad, 0.0, out=rad)
    np.sqrt(rad, out=rad)
    with np.errstate(divide="ignore", invalid="ignore"):
        arg = np.subtract(gamma, rad, out=rad)
        arg /= beta_minus
        entangled = arg > 1.0
        entangled &= ppt
        lost = ppt ^ entangled
        if lost.any():
            g, p = gamma[lost], beta[lost]
            arg[lost] = p / (g + np.sqrt(np.maximum(g * g - p, 0.0))) / beta_minus[lost]
            entangled[lost] = arg[lost] > 1.0
        np.putmask(arg, ~entangled, 1.0)
        r = np.log(arg, out=arg)
        r *= 0.25
        c2 = np.cosh(r, out=beta_minus)
        c2 *= c2
        s2 = np.sinh(r, out=r)
        s2 *= s2
        e_f = np.log2(c2, out=beta)
        e_f *= c2
        # s2 log2 s2 -> 0 as s2 -> 0: where s2 = 0 this reads log2(1e-300) 0 = -0,
        # and E_F = 0 - (-0) = +0
        tail = np.maximum(s2, 1e-300, out=gamma)
        np.log2(tail, out=tail)
        tail *= s2
        e_f -= tail
    return out


def entanglement_of_formation(form: TwoModeStandardForm) -> float:
    """Entanglement of formation of a standard form (u I, v I, w Z) (ebits).

    E_F = cosh^2(r) log2 cosh^2(r) - sinh^2(r) log2 sinh^2(r) where r is the
    minimal anti-squeezing needed to disentangle the state.  Separable states
    (squared smallest partial-transpose symplectic eigenvalue at or above
    _PPT_THRESHOLD = 1 - 1e-9) return 0; the measure is invariant under the
    local phase flip w -> -w.
    """
    return float(_eof(*np.array([[form.u], [form.v], [form.w]]))[0])


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


def _duan(u, v, w):
    """u + v - 2w of floats or arrays; values below 1 certify entanglement."""
    return u + v - 2 * w


def duan_quantity(form: TwoModeStandardForm) -> float:
    """u + v - 2w of a standard form; see `_duan`."""
    return _duan(form.u, form.v, form.w)


def _entanglement_rates(p: TransducerParams, taus) -> np.ndarray:
    """entanglement_rate of one device at each optical transmissivity in ``taus``.

    Every tau is checked before anything is integrated.  The lanes share one
    nested trapezoid, which stops each lane at the doubling its one-lane
    integral stops at, with the same bits.  E_F of the swapped pair is `_eof`
    of `_swap_form` of `_optical_loss`, as for fig4a, taken once per lane group
    on the first two levels' 513 nodes, then once per group and further level
    (per chunk of _CHUNK_NODES new nodes).  The spectra, and so E_F, are even in
    omega bit for bit: `_even` solves the nonnegative half of a node array that
    is its own mirror image (257 of the first 513 nodes) and reflects the
    values.  The source spectra, which depend on the device only, are cached
    for this call keyed by the nodes evaluated: one entry for the first two
    levels and one per further level (or chunk), read by every lane group, 3
    floats and the node itself per node of the deepest lane.
    """
    taus = np.asarray(taus, dtype=float)
    _check_tau(taus)
    spectra = {}

    @_even
    def integrand(rows, omegas):
        key = omegas.tobytes()
        if key not in spectra:
            spectra[key] = mo_standard_form_spectra(p, omegas)
        u, v, w = spectra[key]
        # u and w become the lossy form, then (diag, off), freeing each block
        u, w = _optical_loss(u, w, taus[rows, None])
        u, w = _swap_form(u, v, w)
        return _eof(u, u, w)

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
