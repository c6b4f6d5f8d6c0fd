"""Array formulas against verbatim copies of the scalar code they replaced.

Each closed-form formula of the package has one array implementation, and
the scalar public functions are one-lane wrappers over it.  The functions
prefixed ``scalar_`` below are the earlier per-point implementations, kept
here as oracles: the sweep's block source forms must equal them bit for bit,
and the scalar wrappers must agree with them to round-off.
"""

import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gausslink.capacity import (
    RANDOM_DISPLACEMENT,
    THERMAL_AMP,
    THERMAL_LOSS,
    BosonicChannelKind,
    _q_lb_loss_amp,
    _window,
    coherent_info_displacement,
    coherent_info_loss_amp,
    g_function,
    integrate_spectrum,
    q_lb_loss_amp,
)
from gausslink import entanglement
from gausslink.entanglement import (
    _entanglement_rates,
    _eof,
    _optical_loss,
    _swap_form,
    duan_quantity,
    entanglement_of_formation,
)
from gausslink.gaussian import check_physical
from gausslink.swap import _click_rates, apply_optical_loss, mm_standard_form, mm_swap_closed
from gausslink.sweeps import FIXED_DEFAULTS, _source_forms
from gausslink.teleport import _UNIT_GAIN_TOL, _induced_channels
from gausslink.transducer import (
    TransducerParams,
    TwoModeStandardForm,
    _drift_blue,
    _drift_red,
    _dqt_eta_ne,
    mo_standard_form_spectra,
    output_mo_covariance,
    stability_check,
)
from test_entanglement import earlier_eof

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


def scalar_drift_red(p):
    return np.array(
        [
            [-p.kappa_o / 2.0, 0.0, -1j * p.g_om],
            [0.0, -p.kappa_e / 2.0, -1j * p.g_em],
            [-1j * p.g_om, -1j * p.g_em, -p.kappa_m / 2.0],
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
    # det_v over the large root: the small root (delta - sqrt(rad)) / 2 cancels
    return float(np.sqrt(det_v / ((delta + np.sqrt(rad)) / 2.0)))


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


def scalar_entanglement_rate(p, tau=1.0):
    # the per-point integral, with the earlier _eof
    def integrand(omegas):
        u, v, w = mo_standard_form_spectra(p, omegas)
        u, w = _optical_loss(u, w, tau)
        diag, off = _swap_form(u, v, w)
        return earlier_eof(diag, diag, off)[0]

    return integrate_spectrum(integrand, _window(p)) / (2.0 * np.pi)


def scalar_g_function(x):
    if x == 0:
        return 0.0
    return float((x + 1.0) * np.log2(x + 1.0) - x * np.log2(x))


def scalar_coherent_info_loss_amp(eta, n_e):
    return float(np.log2(eta / abs(1.0 - eta)) - scalar_g_function(n_e))


def scalar_mm_standard_form(u, v, w):
    diag = v - w**2 / (2.0 * u)
    return diag, diag, w**2 / (2.0 * u)


def scalar_induced_channel(form, kappa):
    if kappa <= 0:
        raise ValueError("gain must be positive")
    if abs(kappa - 1.0) < _UNIT_GAIN_TOL:
        return BosonicChannelKind(RANDOM_DISPLACEMENT, 1.0, duan_quantity(form))
    noise_num = form.v * kappa**2 + form.u - 2 * form.w * kappa
    n_e = noise_num / (2.0 * abs(1.0 - kappa**2)) - 0.5
    if n_e < -1e-9:
        raise ValueError("negative effective occupation: source form is unphysical")
    kind = THERMAL_LOSS if kappa < 1.0 else THERMAL_AMP
    return BosonicChannelKind(kind, kappa**2, max(n_e, 0.0))


def scalar_click_rate(p, tau, dt):
    if not 0.0 <= tau <= 1.0:
        raise ValueError("tau must lie in [0, 1]")
    if dt <= 0:
        raise ValueError("pulse duration must be positive")

    def flux(omegas):
        u, _, _ = mo_standard_form_spectra(p, omegas)
        excess = np.maximum(u - 1.0, 0.0)
        excess[excess < 1e-12] = 0.0
        return excess / 2.0

    r_t = tau * integrate_spectrum(flux, _window(p)) / (2.0 * np.pi)
    r_b = 2.0 * r_t * np.exp(-r_t * dt)
    return float(r_t), float(r_b)


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


def _params(pt, detuning="blue"):
    return TransducerParams.from_cooperativities(
        *(pt[k] for k in ("C_om", "C_em", "zeta_o", "zeta_e", "n_th")),
        detuning,
        *(pt[k] for k in ("kappa_o", "kappa_e", "kappa_m")),
    )


def _columns(points):
    return {k: np.array([pt[k] for pt in points]) for k in points[0]}


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
    stable, u, v, w = _source_forms(_columns(points))
    params = [_params(pt) for pt in points]
    assert stable.tolist() == [scalar_stability_check(p) for p in params]
    expected = np.array([scalar_closed_form_uvw(p) for p, s in zip(params, stable) if s])
    assert np.array_equal(np.stack([u, v, w], axis=-1), expected.reshape(-1, 3))


@settings(max_examples=40, deadline=None)
@given(points=st.lists(_points(), min_size=1, max_size=6))
def test_block_drift_equals_the_scalar_drift(points):
    for detuning, drift, scalar_drift in (
        ("blue", _drift_blue, scalar_drift_blue),
        ("red", _drift_red, scalar_drift_red),
    ):
        block = drift(_params(_columns(points), detuning))
        expected = np.array([scalar_drift(_params(pt, detuning)) for pt in points])
        for part in (np.real, np.imag):
            assert np.array_equal(part(block), part(expected))
            assert np.array_equal(np.signbit(part(block)), np.signbit(part(expected)))


def _same_bytes(mixed, arrays):
    """Whether ``mixed``, broadcast to the shape of ``arrays``, has its bytes."""
    arrays = np.asarray(arrays)
    mixed = np.broadcast_to(mixed, arrays.shape)
    return mixed.dtype == arrays.dtype and mixed.tobytes() == arrays.tobytes()


@settings(max_examples=40, deadline=None)
@given(points=st.lists(_points(), min_size=1, max_size=6), data=st.data())
def test_block_of_floats_and_arrays_equals_the_array_block(points, data):
    # a parameter every point shares may stay a float: the device's fields
    # broadcast, and its drift, stability, conversion channel and source forms
    # have the bits of the block whose every parameter is an array
    shared = data.draw(st.sets(st.sampled_from(sorted(points[0]))))
    points = [dict(pt, **{k: points[0][k] for k in shared}) for pt in points]
    arrays = _columns(points)
    mixed = {k: points[0][k] if k in shared else c for k, c in arrays.items()}
    for detuning, drift in (("blue", _drift_blue), ("red", _drift_red)):
        assert _same_bytes(drift(_params(mixed, detuning)), drift(_params(arrays, detuning)))
    assert _same_bytes(stability_check(_params(mixed)), stability_check(_params(arrays)))
    zeros = np.zeros(len(points))
    for x, y in zip(_dqt_eta_ne(_params(mixed, "red"), zeros),
                    _dqt_eta_ne(_params(arrays, "red"), zeros)):
        assert _same_bytes(x, y)
    for x, y in zip(_source_forms(mixed), _source_forms(arrays)):
        assert _same_bytes(x, y)


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


# --- the stability verdict ------------------------------------------------------


def _log_floats(lo, hi):
    return st.floats(np.log10(lo), np.log10(hi)).map(lambda x: float(10.0**x))


@st.composite
def _near_boundary(draw):
    """A device with unequal linewidths, at a distance d = 1 + C_em - C_om
    from the stability boundary of magnitude 1e-12 to 1, on either side."""
    c_em = draw(st.one_of(st.just(0.0), _log_floats(0.01, 100.0)))
    d = draw(st.sampled_from([1.0, -1.0])) * draw(_log_floats(1e-12, 1.0))
    pt = dict(FIXED_DEFAULTS)
    pt.update(
        C_om=max(1.0 + c_em - d, 0.0),
        C_em=c_em,
        zeta_o=draw(st.floats(0.01, 1.0)),
        zeta_e=draw(st.floats(0.01, 1.0)),
        n_th=draw(st.one_of(st.just(0.0), st.floats(0.0, 5.0))),
        kappa_o=draw(_log_floats(0.03, 30.0)),
        kappa_e=draw(_log_floats(0.03, 30.0)),
        kappa_m=draw(_log_floats(0.03, 30.0)),
    )
    return pt


@settings(max_examples=150, deadline=None)
@given(points=st.lists(st.one_of(_near_boundary(), _points()), min_size=1, max_size=12))
def test_stability_verdict_equals_the_eigenvalue_oracle(points):
    params = [_params(pt) for pt in points]
    expected = [scalar_stability_check(p) for p in params]
    assert [stability_check(p) for p in params] == expected
    assert stability_check(_params(_columns(points))).tolist() == expected


@pytest.mark.parametrize(
    "c_om, c_em, stable",
    [
        (0.0, 0.0, True),  # no coupling: the bare decay rates
        (3.0 - 1e-8, 2.0, True),  # its largest real part is still below the margin
        (3.0, 2.0, False),  # the boundary C_om = 1 + C_em itself
        (3.5, 2.0, False),
    ],
    ids=["uncoupled", "d=1e-8", "boundary", "d=-0.5"],
)
def test_stability_verdict_at_pinned_points(c_om, c_em, stable):
    pt = dict(FIXED_DEFAULTS, C_om=c_om, C_em=c_em)
    p = _params(pt)
    assert stability_check(p) is stable
    assert scalar_stability_check(p) is stable
    assert stability_check(_params(_columns([pt, pt]))).tolist() == [stable, stable]


# --- scalar wrappers against the scalar code -----------------------------------


@settings(max_examples=150, deadline=None)
@given(form=_forms())
def test_entanglement_wrappers_agree_with_the_scalar_code(form):
    u, v, w = form.u, form.v, form.w
    _, nu_min_sq, gamma_a, bp_a, bm_a, r_min = earlier_eof(u, v, w)
    assert np.sqrt(max(nu_min_sq, 0.0)) == pytest.approx(
        scalar_ppt_min_symplectic(u, v, w), abs=1e-13
    )
    assert entanglement_of_formation(form) == pytest.approx(
        scalar_entanglement_of_formation(u, v, w), abs=1e-13
    )
    gamma, bp, bm = scalar_eof_pieces(u, v, w)
    scale = max(1.0, bp)
    assert gamma_a == pytest.approx(gamma, abs=1e-13 * scale)
    assert bp_a == pytest.approx(bp, abs=1e-13 * scale)
    assert bm_a == pytest.approx(bm, abs=1e-13 * scale)
    if entanglement_of_formation(form) > 0.0:
        assert r_min == pytest.approx(scalar_r_min(gamma, bp, bm), abs=1e-13)


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


def _ulps_from_half(k):
    eta = 0.5
    for _ in range(abs(k)):
        eta = float(np.nextafter(eta, 1.0 if k > 0 else 0.0))
    return eta


_etas = st.one_of(
    st.sampled_from([0.0, 0.5]),
    st.integers(-6, 6).map(_ulps_from_half),
    st.floats(0.0, 50.0).filter(lambda eta: abs(eta - 1.0) >= 1e-12),
)


@settings(max_examples=150, deadline=None)
@given(
    lanes=st.lists(
        st.tuples(_etas, st.one_of(st.just(0.0), st.floats(0.0, 100.0))), min_size=1, max_size=12
    )
)
def test_array_bound_equals_the_scalar_bound(lanes):
    eta, n_e = (np.array(x) for x in zip(*lanes))
    bound = _q_lb_loss_amp(eta, n_e)
    expected = np.array([q_lb_loss_amp(*lane) for lane in lanes])
    assert np.array_equal(bound, expected)
    assert np.array_equal(np.signbit(bound), np.signbit(expected))


# --- the teleportation-induced channel and the click rates ---------------------


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


# unit gain, the edges of the displacement window |kappa - 1| < 1e-9 and a few
# ulps either side of them, gains just around it, random gains, and a zero or
# negative gain now and then
_gains = st.one_of(
    st.just(1.0),
    st.sampled_from([1.0 - 1e-9, 1.0 + 1e-9]).flatmap(
        lambda edge: st.integers(-3, 3).map(
            lambda k: float(edge + k * np.spacing(edge))
        )
    ),
    st.floats(1.0 - 3e-9, 1.0 + 3e-9),
    st.floats(1e-3, 10.0),
    st.sampled_from([0.0, -0.5]),
)


@settings(max_examples=200, deadline=None)
@given(lanes=st.lists(st.tuples(_forms(), _gains), min_size=1, max_size=10))
def test_induced_channels_equal_the_scalar_code(lanes):
    forms, kappas = zip(*lanes)
    u, v, w = (np.array([getattr(f, x) for f in forms]) for x in "uvw")
    expected = []
    for form, kappa in lanes:
        try:
            expected.append(scalar_induced_channel(form, kappa))
        except ValueError as exc:
            expected.append(str(exc))
    errors = [e for e in expected if isinstance(e, str)]
    if errors:
        with pytest.raises(ValueError) as info:
            _induced_channels(u, v, w, np.array(kappas))
        assert str(info.value) in errors
        return
    kinds, eta, noise = _induced_channels(u, v, w, np.array(kappas))
    assert kinds == [ch.kind for ch in expected]
    assert _same_bits(eta, [ch.eta for ch in expected])
    assert _same_bits(noise, [ch.noise for ch in expected])


@settings(max_examples=25, deadline=None)
@given(
    pt=_points(),
    lanes=st.lists(
        st.tuples(
            st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
            st.one_of(st.just(1.0), st.floats(1e-3, 10.0)),
        ),
        min_size=1,
        max_size=5,
    ),
)
def test_click_rates_equal_the_scalar_code(pt, lanes):
    # stable, and away from C_om = 1 + C_em, where the flux integral converges
    p = _params(pt)
    assume(pt["C_om"] < 0.99 * (1.0 + pt["C_em"]) and scalar_stability_check(p))
    tau, dt = (np.array(x) for x in zip(*lanes))
    r_t, r_b = _click_rates(p, tau, dt)
    expected = np.array([scalar_click_rate(p, *lane) for lane in lanes])
    assert _same_bits(r_t, expected[:, 0])
    assert _same_bits(r_b, expected[:, 1])


@pytest.mark.parametrize("tau, dt, match", [(1.2, 1.0, "tau"), (0.5, 0.0, "pulse duration")])
def test_click_rates_check_every_lane(tau, dt, match):
    p = _params(dict(FIXED_DEFAULTS, C_om=0.5))
    with pytest.raises(ValueError, match=match):
        _click_rates(p, np.array([0.5, tau, 0.5]), np.array([1.0, dt, 1.0]))


@settings(max_examples=150, deadline=None)
@given(forms=st.lists(_forms(umax=1e3), min_size=1, max_size=8), separable=st.booleans())
def test_eof_equals_the_earlier_eof(forms, separable):
    u, v, w = (np.array([getattr(f, x) for f in forms]) for x in "uvw")
    if separable:  # w = 0 on every lane: the all-separable shortcut
        w = np.zeros_like(w)
    assert _same_bits(_eof(u, v, w), earlier_eof(u, v, w)[0])


# tau = 0 (a product state), the separable tau = 1/2, no loss, and random values
_taus = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0))


@settings(max_examples=25, deadline=None)
@given(pt=_points(), taus=st.lists(_taus, min_size=1, max_size=5))
def test_entanglement_rates_equal_the_per_point_integrals(pt, taus):
    p = _params(pt)
    assume(pt["C_om"] < 0.99 * (1.0 + pt["C_em"]) and scalar_stability_check(p))
    expected = []
    for tau in taus:
        try:
            expected.append(scalar_entanglement_rate(p, tau))
        except ValueError as exc:
            expected.append(str(exc))
    errors = [e for e in expected if isinstance(e, str)]
    if errors:  # lanes run in order, so the first failing lane raises
        with pytest.raises(ValueError, match=re.escape(errors[0])):
            _entanglement_rates(p, np.array(taus))
        return
    assert _same_bits(_entanglement_rates(p, np.array(taus)), expected)


def test_spectra_are_solved_once_per_level(monkeypatch):
    solve = entanglement.mo_standard_form_spectra
    calls = []

    def counted(p, omegas):
        calls.append(omegas.size)
        return solve(p, omegas)

    monkeypatch.setattr(entanglement, "mo_standard_form_spectra", counted)
    p = _params(dict(FIXED_DEFAULTS, C_om=2.0, C_em=10.0))
    taus = [0.0, 0.3, 0.5, 0.8, 1.0]
    levels = []
    for tau in taus:
        calls.clear()
        entanglement.entanglement_rate(p, tau)
        levels.append(len(calls))
    calls.clear()
    _entanglement_rates(p, np.array(taus))
    # no chunk splits a level at these node counts, so a call is a level
    assert max(calls) <= 2**14
    assert len(calls) == max(levels) < sum(levels)


@pytest.mark.parametrize("bad", [1.2, -0.1, float("nan")])
def test_taus_are_checked_before_any_spectra_solve(monkeypatch, bad):
    calls = []
    monkeypatch.setattr(entanglement, "mo_standard_form_spectra", lambda p, om: calls.append(om))
    p = _params(dict(FIXED_DEFAULTS, C_om=2.0, C_em=10.0))
    with pytest.raises(ValueError, match=re.escape("tau must lie in [0, 1]")):
        _entanglement_rates(p, np.array([0.5, 1.0, bad, 0.3]))
    assert calls == []
