import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gausslink.capacity import g_function
from gausslink.entanglement import (
    duan_quantity,
    entanglement_of_formation,
    entanglement_rate,
    eof_intermediates,
    ppt_min_symplectic,
)
from gausslink.gaussian import extract_modes, symplectic_eigenvalues, two_mode_squeezed
from gausslink.selftest import random_physical_form
from gausslink.transducer import TransducerParams, TwoModeStandardForm


def tmsv_form(s):
    return TwoModeStandardForm(np.cosh(2 * s), np.cosh(2 * s), np.sinh(2 * s))


class TestEntanglementOfFormation:
    def test_product_vacuum(self):
        assert entanglement_of_formation(TwoModeStandardForm(1.0, 1.0, 0.0)) == 0.0

    def test_worked_value_with_radical_collapse(self):
        form = TwoModeStandardForm(17.0, 9.0, 12.0)
        inter = eof_intermediates(form)
        # gamma^2 = beta_+ beta_- exactly here, so r = ln(25)/4
        assert inter.gamma == pytest.approx(100.0, abs=1e-9)
        assert inter.beta_plus == pytest.approx(2500.0, abs=1e-9)
        assert inter.beta_minus == pytest.approx(4.0, abs=1e-9)
        assert inter.r_min == pytest.approx(0.25 * np.log(25.0), abs=1e-12)
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
                assert ppt_min_symplectic(form.u, form.v, form.w) < 1.0 + 1e-9

    def test_epr_singular_guard(self, rng):
        # beta_- = (u + v - 2|w|)^2 = 0 would divide by zero, but a physical
        # form has u v - w^2 >= 1, hence u + v > 2|w|: the form check is the guard
        with pytest.raises(ValueError, match="not physical"):
            TwoModeStandardForm(3.0, 3.0, 3.0)
        for _ in range(200):
            assert eof_intermediates(random_physical_form(rng, umax=40.0)).beta_minus > 0.0


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
        inter = eof_intermediates(form)
        scale = max(1.0, inter.beta_plus)
        assert abs(inter.beta_plus - (base + 4.0 * w * (u + v))) <= 1e-12 * scale
        assert abs(inter.beta_minus - (base - 4.0 * w * (u + v))) <= 1e-12 * scale


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
