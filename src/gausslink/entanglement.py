"""Entanglement measures for two-mode Gaussian states in standard form."""

import numpy as np

from .capacity import _even, _nested_trapezoids, _window
from .transducer import TransducerParams, TwoModeStandardForm, _all, mo_standard_form_spectra

__all__ = [
    "entanglement_of_formation",
    "duan_quantity",
    "entanglement_rate",
]

# PPT test: a state is entangled where nu_min^2 < _PPT_THRESHOLD.  The margin
# below 1 absorbs the few-ulp round-off of nu_min^2 = det_v / nu_max^2 on
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
    if len({np.shape(x) for x in (u, v, w) if np.ndim(x)}) > 1:  # no update may broadcast up
        u, v, w = np.broadcast_arrays(u, v, w)
    # the textbook operations in the textbook order, the arrays among their
    # temporaries updated in place: an augmented operation is in place on an
    # array and the same operation on a 0-d value, where x **= 2 is pow(x, 2)
    # as x ** 2 is, not x * x
    ww = w * w
    det_v = u * v
    det_v -= ww
    det_v **= 2
    w2 = 2.0 * w
    delta = u * u
    delta += v * v
    delta += w2 * w
    # nu_min^2 nu_max^2 = det_v: the small root from the large one, which does
    # not cancel where nu_min << nu_max, near the stability boundary
    nu_max_sq = delta * delta
    nu_max_sq -= 4.0 * det_v
    nu_max_sq = np.sqrt(np.maximum(nu_max_sq, 0.0))
    nu_max_sq += delta
    nu_max_sq *= 0.5
    nu_min_sq = det_v / nu_max_sq
    gamma = det_v + 1.0
    gamma *= 2.0
    delta = u - v
    delta **= 2
    gamma -= delta
    beta_minus = u + v
    beta_plus = beta_minus + w2
    beta_plus **= 2
    beta_minus -= w2
    beta_minus **= 2
    rad = gamma * gamma
    rad -= beta_plus * beta_minus
    rad = np.sqrt(np.maximum(rad, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        arg = gamma - rad
        arg /= beta_minus
        entangled = (nu_min_sq < _PPT_THRESHOLD) & (arg > 1.0)
        if not entangled.any():  # r = 0 and E_F = 1 log2(1) - 0 = 0 on every lane
            e_f, r = np.zeros((2,) + entangled.shape)
            return e_f, nu_min_sq, gamma, beta_plus, beta_minus, r
        r = np.zeros(entangled.shape)
        np.log(arg, out=r, where=entangled)
        r *= 0.25
        c2 = np.cosh(r)
        c2 **= 2
        s2 = np.sinh(r)
        s2 **= 2
        e_f = np.log2(c2)
        e_f *= c2
        tail = np.log2(np.maximum(s2, 1e-300))
        tail *= s2
        e_f -= np.where(s2 > 0, tail, 0.0)
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


def _swapped_eof(u, v, w, tau) -> np.ndarray:
    """E_F of the swapped microwave pair after optical loss tau, from source
    form arrays (u, v, w) of one shape and a tau that broadcasts against them
    (a column of lanes against a row of frequencies).  It has the bits of
    ``_eof(diag, diag, off)[0]`` with ``lossy_u, lossy_w = _optical_loss(u, w,
    tau)`` and ``diag, off = _swap_form(lossy_u, v, lossy_w)``.

    It runs the same operations in the same order on a few buffers updated in
    place, with one product d d of the diagonal d for the composition's u v,
    u u and v v.  Three steps that change no bit of E_F are left out: |off|,
    as off >= +0 where u >= 1; gamma -= (u - v)^2, as that is +0 where d is
    finite and a d that is not fails the PPT test; and zeroing the entropy
    tail off the entangled elements, where r = +0 makes E_F = +0 - (-0).  It
    returns zeros as soon as no element passes the PPT test, and sets arg to 1
    off the entangled elements before its log, which reads r = +0 there as the
    masked log does, but faster.
    """
    lossy = tau * (u - 1.0)
    lossy += 1.0
    off = np.sqrt(tau) * w
    off *= off
    lossy *= 2.0
    off /= lossy
    d = np.subtract(v, off, out=lossy)
    delta = d * d
    det_v = off * off
    np.subtract(delta, det_v, out=det_v)
    det_v *= det_v
    w2 = off * 2.0
    off *= w2
    delta += delta
    delta += off
    nu_sq = np.multiply(delta, delta, out=off)
    nu_sq -= det_v * 4.0
    np.maximum(nu_sq, 0.0, out=nu_sq)
    np.sqrt(nu_sq, out=nu_sq)
    nu_sq += delta
    nu_sq *= 0.5
    np.divide(det_v, nu_sq, out=nu_sq)
    ppt = nu_sq < _PPT_THRESHOLD
    if not ppt.any():
        return np.zeros(nu_sq.shape)
    gamma = np.add(det_v, 1.0, out=det_v)
    gamma *= 2.0
    d += d
    beta = np.add(d, w2, out=delta)
    beta_minus = np.subtract(d, w2, out=d)
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
        if not entangled.any():
            return np.zeros(arg.shape)
        np.putmask(arg, ~entangled, 1.0)
        r = np.log(arg, out=arg)
        r *= 0.25
        c2 = np.cosh(r, out=beta_minus)
        c2 *= c2
        s2 = np.sinh(r, out=r)
        s2 *= s2
        e_f = np.log2(c2, out=beta)
        e_f *= c2
        tail = np.maximum(s2, 1e-300, out=gamma)
        np.log2(tail, out=tail)
        tail *= s2
        e_f -= tail
    return e_f


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
    integral stops at, with the same bits, and evaluates `_swapped_eof` once per
    lane group and level (per node chunk, on levels past _CHUNK_NODES new
    nodes).  The spectra, and so E_F, are even in omega bit for bit: on a node
    array that is its own mirror image `_even` solves and swaps its nonnegative
    half only and reflects the values.  The source spectra depend on the device
    only: they are solved once per node array evaluated, keyed by the nodes
    themselves (the nonnegative half of a mirror image, or the whole chunk), so
    the cache holds one entry per level (per chunk) that every lane group reads.
    It lives for this call and holds 3 floats (and the node itself as key) per
    node evaluated for the deepest lane.
    """
    taus = np.asarray(taus, dtype=float)
    _check_tau(taus)
    spectra = {}

    @_even
    def integrand(rows, omegas):
        key = omegas.tobytes()
        if key not in spectra:
            spectra[key] = mo_standard_form_spectra(p, omegas)
        return _swapped_eof(*spectra[key], taus[rows, None])

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
