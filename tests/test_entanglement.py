import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gausslink.capacity import g_function
from gausslink.entanglement import (
    _eof,
    _optical_loss,
    _swap_form,
    duan_quantity,
    entanglement_of_formation,
    entanglement_rate,
)
from gausslink.gaussian import extract_modes, symplectic_eigenvalues, two_mode_squeezed
from gausslink.selftest import random_physical_form
from gausslink.teleport import optimize_gains
from gausslink.transducer import TransducerParams, TwoModeStandardForm, _closed_form_uvw


def tmsv_form(s):
    return TwoModeStandardForm(np.cosh(2 * s), np.cosh(2 * s), np.sinh(2 * s))


class TestEntanglementOfFormation:
    def test_product_vacuum(self):
        assert entanglement_of_formation(TwoModeStandardForm(1.0, 1.0, 0.0)) == 0.0

    def test_worked_value_with_radical_collapse(self):
        form = TwoModeStandardForm(17.0, 9.0, 12.0)
        _, _, gamma, beta_plus, beta_minus, r_min = _eof(17.0, 9.0, 12.0)
        # gamma^2 = beta_+ beta_- exactly here, so r = ln(25)/4
        assert gamma == pytest.approx(100.0, abs=1e-9)
        assert beta_plus == pytest.approx(2500.0, abs=1e-9)
        assert beta_minus == pytest.approx(4.0, abs=1e-9)
        assert r_min == pytest.approx(0.25 * np.log(25.0), abs=1e-12)
        ef = entanglement_of_formation(form)
        assert ef == pytest.approx(1.8 * np.log2(1.8) - 0.8 * np.log2(0.8), abs=1e-12)
        assert ef == pytest.approx(1.7844, abs=1e-3)

    @pytest.mark.parametrize("s", [0.2, 0.5, 1.0])
    def test_tmsv_against_reduced_entropy(self, s):
        nu = symplectic_eigenvalues(extract_modes(two_mode_squeezed(s), [1]).cov)[0]
        nbar = (nu - 1.0) / 2.0
        entropy = (nbar + 1) * np.log2(nbar + 1) - nbar * np.log2(nbar)
        assert entanglement_of_formation(tmsv_form(s)) == pytest.approx(
            entropy, abs=1e-6
        )

    def test_separable_thermal_pair(self):
        assert entanglement_of_formation(TwoModeStandardForm(3.0, 3.0, 0.0)) == 0.0

    def test_sign_flip_invariance(self, rng):
        for _ in range(50):
            form = random_physical_form(rng)
            flipped = TwoModeStandardForm(form.u, form.v, -form.w)
            assert entanglement_of_formation(form) == entanglement_of_formation(flipped)

    def test_positive_implies_ppt_violation(self, rng):
        for _ in range(200):
            form = random_physical_form(rng)
            if entanglement_of_formation(form) > 0:
                nu_min_sq = _eof(form.u, form.v, form.w)[1]
                assert np.sqrt(max(nu_min_sq, 0.0)) < 1.0 + 1e-9

    def test_epr_singular_guard(self, rng):
        # beta_- = (u + v - 2|w|)^2 = 0 would divide by zero, but a physical
        # form has u v - w^2 >= 1, hence u + v > 2|w|: the form check is the guard
        with pytest.raises(ValueError, match="not physical"):
            TwoModeStandardForm(3.0, 3.0, 3.0)
        for _ in range(200):
            form = random_physical_form(rng, umax=40.0)
            assert _eof(form.u, form.v, form.w)[4] > 0.0


class TestDuan:
    def test_vacuum_pair(self):
        assert duan_quantity(TwoModeStandardForm(1.0, 1.0, 0.0)) == 2.0

    def test_tmsv_identity(self):
        # 2 cosh(2s) - 2 sinh(2s) = 2 exp(-2s)
        val = duan_quantity(tmsv_form(1.0))
        assert val == pytest.approx(2.0 * np.exp(-2.0), abs=1e-12)
        assert val == pytest.approx(0.2707, abs=1e-4)

    def test_worked_point(self):
        assert duan_quantity(TwoModeStandardForm(17.0, 9.0, 12.0)) == 2.0

    def test_certifies_entanglement(self, rng):
        for _ in range(100):
            form = random_physical_form(rng)
            if duan_quantity(form) < 1.0:
                assert entanglement_of_formation(form) > 0.0


def _blue(c_om, c_em, **kw):
    return TransducerParams.from_cooperativities(c_om, c_em, detuning="blue", **kw)


class TestEntanglementRate:
    def test_no_coupling_no_entanglement(self):
        assert entanglement_rate(_blue(0.0, 1.0), tau=1.0) == 0.0

    def test_zero_transmissivity(self):
        assert entanglement_rate(_blue(0.8, 2.0), tau=0.0) == 0.0

    def test_monotone_in_transmissivity(self):
        p = _blue(5.0, 10.0)
        rates = [entanglement_rate(p, tau) for tau in (1.0, 0.8, 0.6, 0.4)]
        assert rates[0] > 0
        assert all(a >= b - 1e-12 for a, b in zip(rates, rates[1:]))

    def test_invalid_tau(self):
        with pytest.raises(ValueError):
            entanglement_rate(_blue(1.0, 2.0), tau=1.2)

    def test_unstable_rejected(self):
        with pytest.raises(ValueError, match="unstable"):
            entanglement_rate(_blue(5.0, 1.0), tau=1.0)


def test_simplified_betas_match_general_form(rng):
    # for a standard form, the general beta_+- of Tserkis & Ralph (PRA 96,
    # 062338, 2017) collapse to the (u + v +- 2|w|)^2 the closed form uses
    for _ in range(300):
        form = random_physical_form(rng, umax=40.0)
        u, v, w = form.u, form.v, abs(form.w)
        base = u * u + v * v + 2.0 * w * w + 2.0 * u * v + 2.0 * w * w
        beta_plus, beta_minus = _eof(form.u, form.v, form.w)[3:5]
        scale = max(1.0, beta_plus)
        assert abs(beta_plus - (base + 4.0 * w * (u + v))) <= 1e-12 * scale
        assert abs(beta_minus - (base - 4.0 * w * (u + v))) <= 1e-12 * scale


@settings(max_examples=300, deadline=None)
@given(
    u=st.floats(1.0, 1e3),
    v=st.floats(1.0, 1e3),
    reach=st.floats(0.0, 1.0),
    sign=st.sampled_from([1.0, -1.0]),
)
def test_eof_properties(u, v, reach, sign):
    # w up to the physical limit w^2 = (min(u, v) - 1)(max(u, v) + 1)
    w = reach * np.sqrt((min(u, v) - 1.0) * (max(u, v) + 1.0))
    try:
        form = TwoModeStandardForm(u, v, sign * w)
    except ValueError:
        return
    ef = entanglement_of_formation(form)
    assert ef == entanglement_of_formation(TwoModeStandardForm(u, v, -sign * w))
    # bounded by the entropy of the less mixed reduced state
    assert 0.0 <= ef <= g_function((min(u, v) - 1.0) / 2.0) + 1e-9


# --- monotonicity over random stable devices -----------------------------------


# Two nearly equal states can read in either order by round-off.  It is
# largest at pure states (n_th = 0, zeta = 1), where gamma^2 - beta_+ beta_-
# is 0 and its round-off enters E_F through a square root: after optical loss
# tau a few ulps below 1, 400k random devices with C_om <= 0.9 (1 + C_em) read
# up to 2.7e-6 ebits (5.3e-7 of E_F) higher.  Nearer the stability boundary
# u grows like 1 / (1 + C_em - C_om)^2 and the round-off outgrows this slack.
_EOF_SLACK = 1e-5


def _at_most(a, b) -> bool:
    return a <= b + _EOF_SLACK * max(1.0, b)


@st.composite
def _stable_devices(draw):
    """(C_om, C_em, zeta_o, zeta_e, n_th) of a stable device, C_om <= 0.9 (1 + C_em),
    often with unit extraction or no thermal noise."""
    c_em = draw(st.one_of(st.just(0.0), st.floats(0.0, 20.0)))
    c_om = (1.0 + c_em) * draw(st.one_of(st.just(0.0), st.floats(0.0, 0.9)))
    zeta = st.one_of(st.just(1.0), st.floats(0.05, 1.0))
    n_th = draw(st.one_of(st.just(0.0), st.floats(0.0, 5.0)))
    return c_om, c_em, draw(zeta), draw(zeta), n_th


def _e_f(u, v, w):
    return float(_eof(u, v, w)[0])


def _e_f_mm(u, v, w, tau):
    """E_F of the swapped microwave pair after optical loss tau, as fig4a."""
    u, w = _optical_loss(u, w, tau)
    diag, off = _swap_form(u, v, w)
    return _e_f(diag, diag, off)


@settings(max_examples=300, deadline=None)
@given(device=_stable_devices(), tau=st.floats(0.0, 1.0))
def test_optical_loss_does_not_increase_eof(device, tau):
    u, v, w = _closed_form_uvw(*device)
    lossy_u, lossy_w = _optical_loss(u, w, tau)
    assert _at_most(_e_f(lossy_u, v, lossy_w), _e_f(u, v, w))


def test_optical_loss_does_not_create_entanglement_near_the_boundary():
    # u = 1.37e7: nu_min^2 as the small root of its quadratic, (delta - rad) / 2,
    # lost the PPT verdict of the lossless state here and read E_F = 0
    u, v, w = _closed_form_uvw(1.0059544, 0.0073930, 1.0, 1.0, 2.525)
    lossy_u, lossy_w = _optical_loss(u, w, 0.841)
    lossy = _e_f(lossy_u, v, lossy_w)
    assert lossy > 0.002
    assert _e_f(u, v, w) >= lossy


@settings(max_examples=300, deadline=None)
@given(device=_stable_devices(), extra=st.floats(0.0, 5.0), tau=st.floats(0.0, 1.0))
def test_thermal_noise_does_not_increase_eof(device, extra, tau):
    cold = _closed_form_uvw(*device)
    hot = _closed_form_uvw(*device[:4], device[4] + extra)
    assert _at_most(_e_f(*hot), _e_f(*cold))
    assert _at_most(_e_f_mm(*hot, tau), _e_f_mm(*cold, tau))


@settings(max_examples=300, deadline=None)
@given(device=_stable_devices(), taus=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)))
def test_swapped_eof_does_not_decrease_with_tau(device, taus):
    form = _closed_form_uvw(*device)
    lo, hi = sorted(taus)
    assert _at_most(_e_f_mm(*form, lo), _e_f_mm(*form, hi))


# The gain search refines each optimum to 1e-6 in kappa, so two nearly equal
# forms can read in either order by that and by round-off.  Over 500k random
# devices as above, with n_th steps and tau gaps from 1e-16 to 1e-6 (58,000
# and 2,100 such near ties with a positive bound), q_lb_eqt rose with n_th by
# at most 7.0e-12 of max(1, q) and q_lb_mm fell with tau by at most 9.8e-13.
_Q_SLACK = 1e-9


def _q_lb(u, v, w):
    return float(optimize_gains(u, v, w)[1][0])


def _q_lb_mm(u, v, w, tau):
    """q_lb of the swapped microwave pair after optical loss tau, as fig4b."""
    u, w = _optical_loss(u, w, tau)
    diag, off = _swap_form(u, v, w)
    return _q_lb(diag, diag, off)


def _q_at_most(a, b) -> bool:
    return a <= b + _Q_SLACK * max(1.0, b)


@settings(max_examples=200, deadline=None)
@given(device=_stable_devices(), extra=st.one_of(st.floats(0.0, 5.0), st.floats(0.0, 1e-6)))
def test_thermal_noise_does_not_increase_q_lb_eqt(device, extra):
    cold = _closed_form_uvw(*device)
    hot = _closed_form_uvw(*device[:4], device[4] + extra)
    assert _q_at_most(_q_lb(*hot), _q_lb(*cold))


@settings(max_examples=200, deadline=None)
@given(
    device=_stable_devices(),
    tau=st.floats(0.0, 1.0),
    gap=st.one_of(st.floats(0.0, 1.0), st.floats(0.0, 1e-6)),
)
def test_q_lb_mm_does_not_decrease_with_tau(device, tau, gap):
    form = _closed_form_uvw(*device)
    assert _q_at_most(_q_lb_mm(*form, tau), _q_lb_mm(*form, min(1.0, tau + gap)))
