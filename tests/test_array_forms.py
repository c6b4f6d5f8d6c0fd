"""Array formulas against verbatim copies of the scalar code they replaced.

Each closed-form formula of the package has one array implementation, and
the scalar public functions are one-lane wrappers over it.  The functions
prefixed ``scalar_`` below are the earlier per-point implementations, kept
here as oracles: the sweep's block source forms must equal them bit for bit,
and the scalar wrappers must agree with them to round-off.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gausslink.capacity import (
    coherent_info_displacement,
    coherent_info_loss_amp,
    g_function,
)
from gausslink.entanglement import (
    entanglement_of_formation,
    eof_intermediates,
    ppt_min_symplectic,
)
from gausslink.gaussian import check_physical
from gausslink.swap import apply_optical_loss, mm_standard_form, mm_swap_closed
from gausslink.sweeps import FIXED_DEFAULTS, _source_forms
from gausslink.transducer import (
    TransducerParams,
    TwoModeStandardForm,
    _drift_blue,
    output_mo_covariance,
)

_Z2 = np.diag([1.0, -1.0])


# --- the earlier scalar implementations ---------------------------------------


def scalar_cooperativities(p):
    c_om = 4.0 * p.g_om**2 / (p.kappa_o * p.kappa_m)
    c_em = 4.0 * p.g_em**2 / (p.kappa_e * p.kappa_m)
    return c_om, c_em


def scalar_closed_form_uvw(p):
    c_om, c_em = scalar_cooperativities(p)
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


def scalar_drift_blue(p):
    return np.array(
        [
            [-p.kappa_o / 2.0, -1j * p.g_om, 0.0],
            [1j * p.g_om, -p.kappa_m / 2.0, 1j * p.g_em],
            [0.0, 1j * p.g_em, -p.kappa_e / 2.0],
        ],
        dtype=complex,
    )


def scalar_stability_check(p):
    return bool(np.max(np.linalg.eigvals(scalar_drift_blue(p)).real) < -1e-9)


def scalar_ppt_min_symplectic(u, v, w):
    w = abs(w)
    det_v = (u * v - w * w) ** 2
    delta = u * u + v * v + 2.0 * w * w
    rad = max(delta * delta - 4.0 * det_v, 0.0)
    return float(np.sqrt(max((delta - np.sqrt(rad)) / 2.0, 0.0)))


def scalar_eof_pieces(u, v, w):
    w = abs(w)
    det_v = (u * v - w * w) ** 2
    gamma = 2.0 * (det_v + 1.0) - (u - v) ** 2
    return gamma, (u + v + 2.0 * w) ** 2, (u + v - 2.0 * w) ** 2


def scalar_r_min(gamma, beta_plus, beta_minus):
    rad = max(gamma * gamma - beta_plus * beta_minus, 0.0)
    arg = (gamma - np.sqrt(rad)) / beta_minus
    if arg <= 1.0:
        return 0.0
    return float(0.25 * np.log(arg))


def scalar_entanglement_of_formation(u, v, w):
    w = abs(w)
    if scalar_ppt_min_symplectic(u, v, w) >= 1.0 - 1e-9:
        return 0.0
    r = scalar_r_min(*scalar_eof_pieces(u, v, w))
    if r <= 0.0:
        return 0.0
    c2 = np.cosh(r) ** 2
    s2 = np.sinh(r) ** 2
    return float(c2 * np.log2(c2) - s2 * np.log2(s2))


def scalar_g_function(x):
    if x == 0:
        return 0.0
    return float((x + 1.0) * np.log2(x + 1.0) - x * np.log2(x))


def scalar_coherent_info_loss_amp(eta, n_e):
    return float(np.log2(eta / abs(1.0 - eta)) - scalar_g_function(n_e))


def scalar_mm_standard_form(u, v, w):
    diag = v - w**2 / (2.0 * u)
    return diag, diag, w**2 / (2.0 * u)


# --- strategies ----------------------------------------------------------------


def _cooperativity():
    return st.one_of(st.just(0.0), st.floats(1e-4, 50.0))


@st.composite
def _points(draw):
    """One sweep point: random device, often at zeta = 1 or n_th = 0, and
    sometimes on or just inside the stability boundary C_om = 1 + C_em."""
    c_em = draw(_cooperativity())
    c_om = draw(
        st.one_of(
            _cooperativity(),
            st.just(1.0 + c_em),
            st.floats(1e-12, 1e-3).map(lambda d: (1.0 + c_em) * (1.0 - d)),
        )
    )
    unit_or = lambda s: st.one_of(st.just(1.0), s)  # noqa: E731
    pt = dict(FIXED_DEFAULTS)
    pt.update(
        C_om=c_om,
        C_em=c_em,
        zeta_o=draw(unit_or(st.floats(0.05, 1.0))),
        zeta_e=draw(unit_or(st.floats(0.05, 1.0))),
        n_th=draw(st.one_of(st.just(0.0), st.floats(0.0, 5.0))),
        kappa_o=draw(unit_or(st.floats(0.1, 10.0))),
        kappa_e=draw(unit_or(st.floats(0.1, 10.0))),
        kappa_m=draw(unit_or(st.floats(0.1, 10.0))),
    )
    return pt


def _params(pt):
    return TransducerParams.from_cooperativities(
        *(pt[k] for k in ("C_om", "C_em", "zeta_o", "zeta_e", "n_th")),
        "blue",
        *(pt[k] for k in ("kappa_o", "kappa_e", "kappa_m")),
    )


@st.composite
def _forms(draw, umax=20.0):
    """A physical standard form, w up to the limit (min - 1)(max + 1)."""
    u, v = draw(st.floats(1.0, umax)), draw(st.floats(1.0, umax))
    reach = draw(st.floats(0.0, 1.0))
    sign = draw(st.sampled_from([1.0, -1.0]))
    w = sign * reach * np.sqrt((min(u, v) - 1.0) * (max(u, v) + 1.0))
    try:
        return TwoModeStandardForm(u, v, w)
    except ValueError:
        assume(False)


# --- the sweep's block source forms --------------------------------------------


@settings(max_examples=100, deadline=None)
@given(points=st.lists(_points(), min_size=1, max_size=12))
def test_source_forms_equal_the_scalar_chain(points):
    stable, u, v, w = _source_forms(points)
    params = [_params(pt) for pt in points]
    assert stable.tolist() == [scalar_stability_check(p) for p in params]
    expected = np.array([scalar_closed_form_uvw(p) for p, s in zip(params, stable) if s])
    assert np.array_equal(np.stack([u, v, w], axis=-1), expected.reshape(-1, 3))


@settings(max_examples=40, deadline=None)
@given(points=st.lists(_points(), min_size=1, max_size=6))
def test_block_drift_equals_the_scalar_drift(points):
    params = [_params(pt) for pt in points]
    block = _drift_blue(
        TransducerParams.from_cooperativities(
            *(np.array([pt[k] for pt in points]) for k in ("C_om", "C_em", "zeta_o", "zeta_e", "n_th")),
            "blue",
            *(np.array([pt[k] for pt in points]) for k in ("kappa_o", "kappa_e", "kappa_m")),
        )
    )
    expected = np.array([scalar_drift_blue(p) for p in params])
    for part in (np.real, np.imag):
        assert np.array_equal(part(block), part(expected))
        assert np.array_equal(np.signbit(part(block)), np.signbit(part(expected)))


@settings(max_examples=60, deadline=None)
@given(pt=_points())
def test_closed_output_covariance_is_the_scalar_closed_form(pt):
    p = _params(pt)
    assume(scalar_stability_check(p))
    form = output_mo_covariance(p, method="closed")
    assert (form.u, form.v, form.w) == scalar_closed_form_uvw(p)


@settings(max_examples=150, deadline=None)
@given(form=_forms(umax=1e3))
def test_form_check_matches_the_covariance_eigenvalues(form):
    # the closed-form smallest eigenvalue of V + i Omega that the form check
    # uses, against the eigenvalues check_physical computes
    u, v, w = form.u, form.v, form.w
    closed = 0.5 * (u + v - np.sqrt((abs(u - v) + 2.0) ** 2 + 4.0 * w * w))
    assert closed == pytest.approx(check_physical(form.to_covariance()), abs=1e-12 * max(u, v))


@pytest.mark.parametrize("u, v, w", [(2.0, 2.0, 1.99), (3.0, 3.0, 3.0), (5.0, 2.0, 2.5)])
def test_form_check_rejects_what_check_physical_rejects(u, v, w):
    cov = np.block([[u * np.eye(2), w * _Z2], [w * _Z2, v * np.eye(2)]])
    with pytest.raises(ValueError, match="not physical"):
        check_physical(cov)
    with pytest.raises(ValueError, match="not physical"):
        TwoModeStandardForm(u, v, w)


# --- scalar wrappers against the scalar code -----------------------------------


@settings(max_examples=150, deadline=None)
@given(form=_forms())
def test_entanglement_wrappers_agree_with_the_scalar_code(form):
    u, v, w = form.u, form.v, form.w
    assert ppt_min_symplectic(u, v, w) == pytest.approx(
        scalar_ppt_min_symplectic(u, v, w), abs=1e-13
    )
    assert entanglement_of_formation(form) == pytest.approx(
        scalar_entanglement_of_formation(u, v, w), abs=1e-13
    )
    inter = eof_intermediates(form)
    gamma, bp, bm = scalar_eof_pieces(u, v, w)
    scale = max(1.0, bp)
    assert inter.gamma == pytest.approx(gamma, abs=1e-13 * scale)
    assert inter.beta_plus == pytest.approx(bp, abs=1e-13 * scale)
    assert inter.beta_minus == pytest.approx(bm, abs=1e-13 * scale)
    if entanglement_of_formation(form) > 0.0:
        assert inter.r_min == pytest.approx(scalar_r_min(gamma, bp, bm), abs=1e-13)


@settings(max_examples=150, deadline=None)
@given(form=_forms(), tau=st.floats(0.0, 1.0))
def test_swap_wrappers_agree_with_the_scalar_code(form, tau):
    lossy = apply_optical_loss(form, tau)
    assert (lossy.u, lossy.v, lossy.w) == (tau * (form.u - 1.0) + 1.0, form.v, np.sqrt(tau) * form.w)
    mm = mm_standard_form(lossy)
    expected = scalar_mm_standard_form(lossy.u, lossy.v, lossy.w)
    assert (mm.u, mm.v, mm.w) == pytest.approx(expected, abs=1e-13)
    closed = mm_swap_closed(lossy)
    assert np.allclose(closed, mm.to_covariance(), rtol=0.0, atol=1e-13)


@settings(max_examples=150, deadline=None)
@given(eta=st.floats(1e-6, 50.0), n_e=st.one_of(st.just(0.0), st.floats(0.0, 100.0)))
def test_capacity_wrappers_agree_with_the_scalar_code(eta, n_e):
    assume(abs(eta - 1.0) >= 1e-12)
    assert g_function(n_e) == pytest.approx(scalar_g_function(n_e), abs=1e-13)
    assert coherent_info_loss_amp(eta, n_e) == pytest.approx(
        scalar_coherent_info_loss_amp(eta, n_e), abs=1e-13
    )
    assert coherent_info_displacement(eta) == float(np.log2(2.0 / (np.e * eta)))


def test_half_transmission_rounds_to_zero():
    # one ulp above 1/2 the scalar code read 6.4e-16 bits
    eta = np.nextafter(0.5, 1.0)
    assert scalar_coherent_info_loss_amp(eta, 0.0) == pytest.approx(6.4e-16, rel=1e-2)
    assert coherent_info_loss_amp(eta, 0.0) == 0.0
    assert coherent_info_loss_amp(0.5 + 1e-14, 0.0) > 0.0
