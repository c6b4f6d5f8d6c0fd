import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gausslink.capacity import g_function
from gausslink.entanglement import (
    _PPT_THRESHOLD,
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
from gausslink.transducer import (
    TransducerParams,
    TwoModeStandardForm,
    _closed_form_uvw,
    mo_standard_form_spectra,
)


def tmsv_form(s):
    return TwoModeStandardForm(np.cosh(2 * s), np.cosh(2 * s), np.sinh(2 * s))


class TestEntanglementOfFormation:
    def test_product_vacuum(self):
        assert entanglement_of_formation(TwoModeStandardForm(1.0, 1.0, 0.0)) == 0.0

    def test_worked_value_with_radical_collapse(self):
        form = TwoModeStandardForm(17.0, 9.0, 12.0)
        _, _, gamma, beta_plus, beta_minus, r_min = earlier_eof(17.0, 9.0, 12.0)
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

    def test_scalar_equals_its_lane_in_a_block(self):
        # forms whose E_F moves in its last digits where det_v and (u - v)^2 are
        # squared by libm pow instead of a product: a lone form reads the value
        # its lane of a block (a fig2d row) reads
        forms = [
            TwoModeStandardForm(4.090238140274421, 2.0602267049564538, 1.8597768430924606),
            TwoModeStandardForm(1.4508568290267965, 10.825080523830563, 2.121399467115294),
            TwoModeStandardForm(4.693307003440328, 7.296822424488417, 5.26714480169941),
        ]
        lanes = _eof(*(np.array([getattr(f, x) for f in forms]) for x in "uvw"))
        scalars = np.array([entanglement_of_formation(f) for f in forms])
        assert scalars[0] == 0.00787451092913394
        assert scalars.tobytes() == lanes.tobytes()

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
                nu_min_sq = earlier_eof(form.u, form.v, form.w)[1]
                assert np.sqrt(max(nu_min_sq, 0.0)) < 1.0 + 1e-9

    def test_epr_singular_guard(self, rng):
        # beta_- = (u + v - 2|w|)^2 = 0 would divide by zero, but a physical
        # form has u v - w^2 >= 1, hence u + v > 2|w|: the form check is the guard
        with pytest.raises(ValueError, match="not physical"):
            TwoModeStandardForm(3.0, 3.0, 3.0)
        for _ in range(200):
            form = random_physical_form(rng, umax=40.0)
            assert earlier_eof(form.u, form.v, form.w)[4] > 0.0


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
        beta_plus, beta_minus = earlier_eof(form.u, form.v, form.w)[3:5]
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
    return float(_eof(*np.atleast_1d(u, v, w))[0])


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


# --- the in-place EoF kernel against the textbook form -------------------------


def earlier_eof(u, v, w) -> tuple:
    """(E_F, nu_min^2, gamma, beta_plus, beta_minus, r) of standard forms, as
    `_eof` computed them before its temporaries were updated in place: the same
    operations in the same order, each in a new array, under two errstates.
    `_eof` returns its E_F with the same bits on arrays of one shape."""
    u, v, w = np.asarray(u, dtype=float), np.asarray(v, dtype=float), np.abs(w)
    det_v = (u * v - w * w) ** 2
    delta = u * u + v * v + 2.0 * w * w
    nu_max_sq = 0.5 * (delta + np.sqrt(np.maximum(delta * delta - 4.0 * det_v, 0.0)))
    nu_min_sq = det_v / nu_max_sq
    gamma = 2.0 * (det_v + 1.0) - (u - v) ** 2
    beta_plus = (u + v + 2.0 * w) ** 2
    beta_minus = (u + v - 2.0 * w) ** 2
    rad = np.sqrt(np.maximum(gamma * gamma - beta_plus * beta_minus, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        arg = (gamma - rad) / beta_minus
    entangled = (nu_min_sq < 1.0 - 1e-9) & (arg > 1.0)
    if not entangled.any():
        e_f, r = np.zeros((2,) + entangled.shape)
        return e_f, nu_min_sq, gamma, beta_plus, beta_minus, r
    r = np.where(entangled, 0.25 * np.log(np.where(entangled, arg, 1.0)), 0.0)
    c2 = np.cosh(r) ** 2
    s2 = np.sinh(r) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        e_f = c2 * np.log2(c2) - np.where(s2 > 0, s2 * np.log2(np.maximum(s2, 1e-300)), 0.0)
    return e_f, nu_min_sq, gamma, beta_plus, beta_minus, r


def exact_symmetric_eof(d, off) -> float:
    """E_F of the symmetric form (d, d, off) from its smallest partial-transpose
    symplectic eigenvalue nu = d - |off|, computed exactly from the floats:
    E_F = c+ log2 c+ - c- log2 c- with c+- = (1 +- nu)^2 / (4 nu) (Giedke et
    al., PRL 91, 107901, 2003)."""
    nu = Fraction(float(d)) - abs(Fraction(float(off)))
    if nu >= 1:
        return 0.0
    c_plus, c_minus = (float((1 + sign * nu) ** 2 / (4 * nu)) for sign in (1, -1))
    return c_plus * math.log2(c_plus) - (c_minus * math.log2(c_minus) if c_minus else 0.0)


def _assert_same_eof(u, v, w):
    """`_eof` has the bits of the earlier E_F, on (u, v, w) broadcast to lanes of
    one shape, as `entanglement_of_formation` makes a form one lane.  The one
    exception are lanes that pass the PPT test where the earlier E_F reads 0,
    as its gamma - rad cancelled: where `_eof` reads more, the form must be
    symmetric and E_F within 1e-15 d of the exact E_F of (d, d, off)."""
    u, v, w = np.broadcast_arrays(*np.atleast_1d(u, v, w))
    got = _eof(u, v, w)
    expected, nu_min_sq = earlier_eof(u, v, w)[:2]
    assert got.shape == expected.shape == u.shape
    mended = (nu_min_sq < _PPT_THRESHOLD) & (expected == 0.0) & (got != 0.0)
    assert got[~mended].tobytes() == expected[~mended].tobytes()
    assert np.array_equal(np.signbit(got), np.signbit(expected))
    d, off = u[mended], w[mended]
    assert np.array_equal(d, v[mended])
    exact = np.array([exact_symmetric_eof(*form) for form in zip(d, off)])
    assert np.all(np.abs(got[mended] - exact) <= 1e-15 * d)


def _near_boundary_forms():
    """Closed-form (u, v, w) from C_om = 1 + C_em - d, u up to about 1e8."""
    d = np.geomspace(1e-2, 2e-4, 9)
    return _closed_form_uvw(3.0 - d, 2.0, 1.0, 1.0, 0.0)


def _swapped(u, v, w, tau):
    """The (u, v, w) form of the swapped pair after optical loss tau."""
    u, w = _optical_loss(u, w, tau)
    diag, off = _swap_form(u, v, w)
    return diag, diag, off


# cases of 0-d values or of mixed shapes are broadcast to lanes of one shape
_EOF_EDGES = {
    "0-d": (17.0, 9.0, 12.0),
    "0-d-arrays": (np.array(3.0), np.array(2.0), np.array(-1.5)),
    "0-d-separable": (2.0, 2.0, 0.5),
    "w-zero": (np.array([1.0, 3.0, 5.0]), np.array([1.0, 2.0, 5.0]), np.zeros(3)),
    "w-negative-zero": (np.array([1.0, 3.0, 5.0]), np.array([1.0, 2.0, 5.0]), np.full(3, -0.0)),
    # w^2 and 2 w^2 are subnormal or zero, where 2.0 * w * w is not 2 (w * w)
    "w-subnormal-square": (np.ones(6), np.ones(6), np.array([1e-155, 3e-160, 2.2e-162, 1e-170, 5e-324, -3e-159])),
    # the same with u = v = 0, where 2 w^2 alone is delta: nu_max^2 reads 0 or
    # not, and nu_min^2 = 0 / nu_max^2 nan or 0, by how 2 w^2 rounds
    "w-subnormal-square-alone": (np.zeros(5), np.zeros(5), np.array([1.2e-162, 1.8e-162, 3e-162, 1e-160, 1e-155])),
    "pure": _closed_form_uvw(np.linspace(0.05, 2.2, 12), 1.5, 1.0, 1.0, 0.0),
    "pure-swapped": _swapped(*_closed_form_uvw(np.linspace(0.05, 2.2, 12), 1.5, 1.0, 1.0, 0.0), 1.0),
    "swapped-at-half": _swapped(*_closed_form_uvw(np.linspace(0.05, 9.0, 12), 10.0, 0.9, 0.8, 0.3), 0.5),
    "near-boundary": _near_boundary_forms(),
    "near-boundary-swapped": _swapped(*_near_boundary_forms(), 0.9),
    "mixed-shapes": (np.array([[3.0, 9.0], [2.0, 40.0]]), 3.0, np.array([2.0, 1.0])),
    # a u - v whose libm pow(u - v, 2) rounds away from (u - v) * (u - v) on
    # x86-64 glibc, where lanes square by the product
    "0-d-u-v-with-w-lanes": (205.80276645593358, 1.0, np.array([0.0, 1.0, 10.0])),
}


@pytest.mark.parametrize("case", sorted(_EOF_EDGES))
def test_eof_edges_equal_the_earlier_eof(case):
    if case == "w-subnormal-square-alone":  # 0 / 0 in nu_min^2 = det_v / nu_max^2
        with np.errstate(invalid="ignore"):
            _assert_same_eof(*_EOF_EDGES[case])
    else:
        _assert_same_eof(*_EOF_EDGES[case])


def test_eof_edge_forms_reach_their_regimes():
    # the edge forms above hold what their names say
    assert np.max(_EOF_EDGES["near-boundary"][0]) > 5e7
    w = _EOF_EDGES["w-subnormal-square"][2]
    assert np.any((w * w != 0) & (np.abs(w * w) < np.finfo(float).tiny))
    w = _EOF_EDGES["w-subnormal-square-alone"][2]
    assert np.any(2.0 * w * w != 2.0 * (w * w))
    with np.errstate(invalid="ignore"):
        assert np.isnan(earlier_eof(*_EOF_EDGES["w-subnormal-square-alone"])[1]).any()
    assert np.all(_eof(*_EOF_EDGES["swapped-at-half"]) == 0.0)
    assert _eof(*_EOF_EDGES["pure"]).min() > 0.0
    assert type(entanglement_of_formation(TwoModeStandardForm(17.0, 9.0, 12.0))) is float


@settings(max_examples=200, deadline=None)
@given(
    forms=st.lists(
        st.tuples(st.floats(1.0, 1e3), st.floats(1.0, 1e3), st.floats(0.0, 1.0), st.sampled_from([1.0, -1.0])),
        min_size=1,
        max_size=12,
    ),
    tau=st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)),
)
def test_eof_equals_the_earlier_eof_on_physical_forms(forms, tau):
    u, v, reach, sign = (np.array(x) for x in zip(*forms))
    w = sign * reach * np.sqrt((np.minimum(u, v) - 1.0) * (np.maximum(u, v) + 1.0))
    _assert_same_eof(u, v, w)
    _assert_same_eof(*_swapped(u, v, np.abs(w), tau))
    _assert_same_eof(u[0], v[0], w[0])


@settings(max_examples=100, deadline=None)
@given(device=_stable_devices(), taus=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8))
def test_eof_equals_the_earlier_eof_on_swapped_spectra(device, taus):
    # fig5b's integrand shape: tau lanes by frequencies
    p = TransducerParams.from_cooperativities(*device, "blue")
    u, v, w = mo_standard_form_spectra(p, np.linspace(-10.0, 10.0, 33))
    _assert_same_eof(*_swapped(u, v, w, np.array(taus)[:, None]))


# --- the swapped pair's E_F on blocks of lanes, as fig5b's integrand --------


# tau lanes at the ends of [0, 1], one ulp below 1 and at the separability
# boundary 1/2, as a column against forms along a row, the integrand's layout
_TAU_EDGES = np.array([0.0, 0.5, np.nextafter(1.0, 0.0), 1.0])


def _assert_same_swapped_eof(u, v, w, tau):
    """`_eof` of the composed swapped block, its diagonal passed once for both
    modes as fig5b's integrand passes it, has the bits of `_eof` of each lane
    alone, its diagonal passed as two arrays; neither call warns.  The block
    then meets the earlier E_F through `_assert_same_eof`."""
    tau = np.asarray(tau, dtype=float)[:, None]
    diag, _, off = _swapped(u, v, w, tau)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = _eof(diag, diag, off)
        expected = np.array([_eof(d, d.copy(), o) for d, o in zip(diag, off)])
    assert got.shape == expected.shape == (tau.size, np.size(u))
    assert got.tobytes() == expected.tobytes()
    _assert_same_eof(diag, diag, off)


@settings(max_examples=200, deadline=None)
@given(
    forms=st.lists(
        st.tuples(st.floats(1.0, 1e3), st.floats(1.0, 1e3), st.floats(0.0, 1.0)),
        min_size=1,
        max_size=12,
    ),
    taus=st.lists(st.floats(0.0, 1.0), max_size=6),
)
def test_swapped_eof_equals_the_composition_on_physical_forms(forms, taus):
    u, v, reach = (np.array(x) for x in zip(*forms))
    w = reach * np.sqrt((np.minimum(u, v) - 1.0) * (np.maximum(u, v) + 1.0))
    _assert_same_swapped_eof(u, v, w, np.concatenate([_TAU_EDGES, taus]))


def _thermal_near_boundary_forms(d):
    """Closed-form (u, v, w) of thermal devices (n_th = 0.2 and 1) with
    C_om = 1 + C_em - d, as flat arrays."""
    forms = _closed_form_uvw(3.0 - np.asarray(d)[:, None], 2.0, 1.0, 1.0, np.array([0.2, 1.0]))
    return tuple(x.ravel() for x in forms)


_SWAPPED_EOF_EDGES = {
    "pure": _closed_form_uvw(np.linspace(0.05, 2.2, 12), 1.5, 1.0, 1.0, 0.0),
    "near-boundary": _near_boundary_forms(),
    # u from 8e7 to 1e10
    "thermal-near-boundary": _thermal_near_boundary_forms([1e-3, 3e-4, 1e-4]),
    "w-zero": (np.array([1.0, 3.0, 5.0]), np.array([1.0, 2.0, 5.0]), np.zeros(3)),
    "w-negative-zero": (np.array([1.0, 3.0, 5.0]), np.array([1.0, 2.0, 5.0]), np.full(3, -0.0)),
}


@pytest.mark.parametrize("case", sorted(_SWAPPED_EOF_EDGES))
def test_swapped_eof_edges_equal_the_composition(case, rng):
    taus = np.concatenate([_TAU_EDGES, rng.random(4)])
    _assert_same_swapped_eof(*_SWAPPED_EOF_EDGES[case], taus)


# (forms, tau lanes, lanes that pass the PPT test, lanes with E_F > 0): blocks
# that leave the kernel at its PPT return or run it through.  On thermal forms
# of u >= 8e8 near the stability boundary gamma - rad cancels, and the lanes
# that pass the PPT test take arg from beta_+ / (gamma + rad).
_SWAPPED_EOF_BLOCKS = {
    "no-lane-passes-ppt": (_SWAPPED_EOF_EDGES["pure"], [0.0, 0.25, 0.5], 0, 0),
    "cancelled-lanes": (_thermal_near_boundary_forms([3e-4, 1e-4]), [0.6, 0.9, 1.0], 3, 3),
    "some-lanes-entangled": (_SWAPPED_EOF_EDGES["pure"], [0.0, 0.5, 0.9, 1.0], 2, 2),
    "every-lane-entangled": (_SWAPPED_EOF_EDGES["pure"], [0.7, np.nextafter(1.0, 0.0), 1.0], 3, 3),
}


@pytest.mark.parametrize("case", sorted(_SWAPPED_EOF_BLOCKS))
def test_swapped_eof_blocks_equal_the_composition(case):
    form, taus, ppt_lanes, entangled_lanes = _SWAPPED_EOF_BLOCKS[case]
    swapped = _swapped(*form, np.array(taus)[:, None])
    e_f, nu_min_sq = _eof(*swapped), earlier_eof(*swapped)[1]
    assert np.any(nu_min_sq < _PPT_THRESHOLD, axis=1).sum() == ppt_lanes
    assert np.any(e_f > 0.0, axis=1).sum() == entangled_lanes
    _assert_same_swapped_eof(*form, taus)


@pytest.mark.parametrize("d", [3e-4, 1e-4])
def test_cancelled_lanes_equal_the_exact_eof(d):
    # C_em = 2, n_th = 0.2 and C_om = 3 - d (u = 8.5e8 and 7.7e9): gamma =
    # 2 (det_v + 1) passes 1e17, and the textbook gamma - rad cancels to
    # arg <= 1 on lanes that pass the PPT test
    source = tuple(np.array([x]) for x in _closed_form_uvw(3.0 - d, 2.0, 1.0, 1.0, 0.2))
    taus = np.array([[0.6], [0.9], [1.0]])
    block = _swapped(*source, taus)
    diag, _, off = (x[:, 0] for x in block)
    expected, nu_min_sq = earlier_eof(diag, diag, off)[:2]
    assert np.all(nu_min_sq < _PPT_THRESHOLD) and np.all(expected == 0.0)
    exact = np.array([exact_symmetric_eof(*form) for form in zip(diag, off)])
    assert exact == pytest.approx([0.0500, 0.588, 0.791], abs=1e-3)
    for got in (_eof(diag, diag, off), _eof(*block)[:, 0]):
        assert np.all(np.abs(got - exact) <= 1e-15 * diag)


@pytest.mark.parametrize(
    "form",
    [
        _SWAPPED_EOF_EDGES["pure"],
        _near_boundary_forms(),
        _thermal_near_boundary_forms([3e-4, 1e-4]),
    ],
    ids=["physical", "near-threshold", "cancelled"],
)
def test_shared_diagonal_and_skipped_rows_change_no_bit(form):
    # `_eof` writes over none of its inputs, so a diagonal passed once for both
    # modes reads as its copy does.  The tau < 1/2 rows hold no lane that passes
    # the PPT test and are skipped; the others run the whole kernel, the
    # cancelled forms through beta_+.  The block flattened to one row skips
    # the elements before and after its span instead.
    diag, _, off = _swapped(*form, np.array([0.0, 0.25, 0.5, 0.6, 0.9, 1.0])[:, None])
    e_f = _eof(diag, diag, off)
    assert e_f.tobytes() == _eof(diag, diag.copy(), off).tobytes()
    lanes = [_eof(d, d.copy(), o) for d, o in zip(diag, off)]
    assert e_f.tobytes() == np.array(lanes).tobytes()
    assert e_f.tobytes() == _eof(diag.ravel(), diag.ravel(), off.ravel()).tobytes()
    assert e_f[:2].tobytes() == np.zeros_like(e_f[:2]).tobytes()
    assert not np.signbit(e_f).any()
    assert np.all(e_f[3:].max(axis=1) > 0.0)
