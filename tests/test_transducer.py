import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gausslink import capacity, transducer
from gausslink.capacity import BosonicChannelKind
from gausslink.gaussian import symplectic_form
from gausslink.selftest import random_red_params, random_stable_blue_params
from gausslink.transducer import (
    TransducerParams,
    TwoModeStandardForm,
    _check_forms,
    cooperativities,
    dqt_channel,
    dqt_efficiency_bandwidth,
    mo_standard_form_spectra,
    output_mo_covariance,
    quadrature_scattering,
    scattering_blue,
    scattering_red,
    stability_check,
)


def make(c_om, c_em, zo=1.0, ze=1.0, n_th=0.0, detuning="red", **kw):
    return TransducerParams.from_cooperativities(
        c_om, c_em, zo, ze, n_th, detuning, **kw
    )


class TestParams:
    def test_cooperativities_zero_coupling(self):
        assert cooperativities(make(0.0, 2.0))[0] == 0.0

    def test_cooperativities_direct_substitution(self):
        p = TransducerParams(
            g_om=0.5, g_em=0.5, kappa_o_c=1.0, kappa_o_i=0.0,
            kappa_e_c=1.0, kappa_e_i=0.0, kappa_m=1.0,
        )
        assert cooperativities(p) == (1.0, 1.0)

    def test_cooperativities_symmetry(self, rng):
        g1, g2, k1, k2, km = rng.uniform(0.2, 2.0, 5)
        a = TransducerParams(g1, g2, k1, 0.0, k2, 0.0, km)
        b = TransducerParams(g2, g1, k2, 0.0, k1, 0.0, km)
        assert cooperativities(a) == cooperativities(b)[::-1]

    def test_extraction_ratios(self):
        p = make(1.0, 1.0, zo=0.8, ze=0.3)
        assert p.zeta_o == pytest.approx(0.8)
        assert p.zeta_e == pytest.approx(0.3)

    def test_validation(self):
        with pytest.raises(ValueError):
            TransducerParams(-1.0, 1.0, 1.0, 0.0, 1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            TransducerParams(1.0, 1.0, 1.0, 0.0, 1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            TransducerParams(1.0, 1.0, 0.0, 0.0, 1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            TransducerParams(1.0, 1.0, 1.0, 0.0, 1.0, 0.0, 1.0, detuning="green")
        with pytest.raises(ValueError):
            make(1.0, 1.0, zo=1.2)


class TestStandardFormType:
    def test_vacuum_form(self):
        f = TwoModeStandardForm(1.0, 1.0, 0.0)
        assert np.array_equal(f.to_covariance(), np.eye(4))

    def test_subunit_variance_rejected(self):
        with pytest.raises(ValueError):
            TwoModeStandardForm(0.5, 1.0, 0.0)

    def test_unphysical_correlation_rejected(self):
        with pytest.raises(ValueError):
            TwoModeStandardForm(2.0, 2.0, 1.99)


class TestRedScattering:
    def test_decoupled_full_reflection(self):
        p = make(0.0, 0.0, zo=1.0, ze=1.0)
        s = scattering_red(p, 0.0)
        assert abs(abs(s[0, 0]) - 1.0) < 1e-12
        assert np.max(np.abs(s - np.diag(np.diag(s)))) < 1e-12

    def test_unitarity_random(self, rng):
        for _ in range(10):
            p = random_red_params(rng)
            for omega in rng.uniform(-4.0, 4.0, 10):
                s = scattering_red(p, omega)
                assert np.max(np.abs(s @ s.conj().T - np.eye(5))) < 1e-9

    def test_conversion_element_matches_closed_form(self, rng):
        for _ in range(20):
            p = random_red_params(rng)
            c_om, c_em = cooperativities(p)
            eta = 4 * c_om * c_em * p.zeta_o * p.zeta_e / (1 + c_om + c_em) ** 2
            s = scattering_red(p, 0.0)
            assert abs(abs(s[2, 0]) ** 2 - eta) < 1e-9

    def test_blue_params_rejected(self):
        with pytest.raises(ValueError, match="red"):
            scattering_red(make(1.0, 1.0, detuning="blue"))


class TestDqtChannel:
    def test_worked_efficiency(self):
        ch = dqt_channel(make(1.0, 1.0))
        assert ch.eta == pytest.approx(4.0 / 9.0, abs=1e-12)

    def test_no_coupling_no_conversion(self):
        assert dqt_channel(make(0.0, 3.0)).eta == 0.0

    def test_vacuum_bath_no_noise(self, rng):
        p = random_red_params(rng, n_th=0.0)
        assert dqt_channel(p).n_e == 0.0

    def test_channel_spec(self):
        ch = dqt_channel(make(1.0, 1.0, n_th=0.5))
        spec = BosonicChannelKind("thermal_loss", ch.eta, ch.n_e).to_gaussian_channel()
        assert np.allclose(spec.T, np.sqrt(ch.eta) * np.eye(2))
        assert np.allclose(spec.N, (1 - ch.eta) * (2 * ch.n_e + 1) * np.eye(2))

    def test_noise_from_scattering_elements(self, rng):
        # n_e = (|S14|^2 n_c + |S15|^2 n_b) / (1 - eta), common bath occupation
        for _ in range(10):
            p = random_red_params(rng)
            omega = rng.uniform(-2, 2)
            s = scattering_red(p, omega)
            eta = abs(s[0, 2]) ** 2
            expected = (abs(s[0, 3]) ** 2 + abs(s[0, 4]) ** 2) * p.n_th / (1 - eta)
            assert dqt_channel(p, omega).n_e == pytest.approx(expected, abs=1e-12)


class TestEfficiencyBandwidth:
    def test_resonance_reduction(self, rng):
        for _ in range(10):
            p = random_red_params(rng)
            c_om, c_em = cooperativities(p)
            eta0 = 4 * c_om * c_em * p.zeta_o * p.zeta_e / (1 + c_om + c_em) ** 2
            assert dqt_efficiency_bandwidth(p, 0.0) == pytest.approx(eta0, abs=1e-12)

    def test_matches_scattering_off_resonance(self, rng):
        for _ in range(20):
            p = random_red_params(rng)
            omega = p.kappa_m / 2
            s = scattering_red(p, omega)
            assert dqt_efficiency_bandwidth(p, omega) == pytest.approx(
                abs(s[2, 0]) ** 2, abs=1e-9
            )

    def test_even_in_frequency(self, rng):
        p = random_red_params(rng)
        omegas = rng.uniform(0.1, 5.0, 20)
        assert np.allclose(
            dqt_efficiency_bandwidth(p, omegas),
            dqt_efficiency_bandwidth(p, -omegas),
        )

    def test_bounded_and_peaked_for_weak_coupling(self, rng):
        for _ in range(10):
            c_om, c_em = rng.uniform(0.05, 1.0, 2)
            p = make(c_om, c_em, *rng.uniform(0.3, 1.0, 2), detuning="red")
            omegas = np.linspace(-8, 8, 401)
            eta = dqt_efficiency_bandwidth(p, omegas)
            assert np.all(eta <= 1.0 + 1e-12)
            assert np.argmax(eta) == 200  # omega = 0


class TestBlueScattering:
    def test_no_down_conversion_vacuum_output(self):
        p = make(0.0, 1.0, detuning="blue")
        u, _, w = (x[0] for x in mo_standard_form_spectra(p, 0.0))
        assert u == pytest.approx(1.0, abs=1e-12)
        assert w == pytest.approx(0.0, abs=1e-12)

    def test_quadrature_map_is_real(self, rng):
        for _ in range(10):
            p = random_stable_blue_params(rng)
            sq = quadrature_scattering(scattering_blue(p, rng.uniform(-2, 2)))
            assert sq.dtype == float

    def test_worked_point(self):
        p = make(1.0, 1.0, detuning="blue")
        form = output_mo_covariance(p)
        assert (form.u, form.v, form.w) == pytest.approx((17.0, 9.0, 12.0), abs=1e-9)

    def test_closed_matches_numeric_50_draws(self, rng):
        worst = 0.0
        for _ in range(50):
            p = random_stable_blue_params(rng)
            a = output_mo_covariance(p, method="closed")
            b = output_mo_covariance(p, method="numeric")
            worst = max(worst, abs(a.u - b.u), abs(a.v - b.v), abs(a.w - b.w))
        assert worst < 1e-9

    @settings(max_examples=120, deadline=None)
    @given(
        log_d=st.floats(-8.0, -2.0),
        c_em=st.floats(0.2, 8.0),
        zetas=st.tuples(st.floats(0.2, 1.0), st.floats(0.2, 1.0)),
        n_th=st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
        kappas=st.tuples(*[st.floats(0.5, 4.0)] * 3),
    )
    def test_closed_matches_numeric_near_the_stability_boundary(self, log_d, c_em, zetas, n_th, kappas):
        # u, v and w grow like 1/d^2 as C_om -> 1 + C_em, d = 1 + C_em - C_om,
        # and the relative gap between the two routes like 1/d: at most
        # 8e-15 / d was seen from d = 1e-2 down to 1e-8
        c_om = 1.0 + c_em - 10.0**log_d
        p = make(c_om, c_em, *zetas, n_th, "blue", kappa_o=kappas[0], kappa_e=kappas[1],
                 kappa_m=kappas[2])
        assume(stability_check(p))
        d = 1.0 + c_em - c_om
        a = output_mo_covariance(p, method="closed")
        b = output_mo_covariance(p, method="numeric")
        for closed, numeric in ((a.u, b.u), (a.v, b.v), (a.w, b.w)):
            assert abs(closed - numeric) <= 4e-14 / d * abs(numeric)

    def test_unstable_rejected(self):
        p = make(5.0, 1.0, detuning="blue")
        with pytest.raises(ValueError, match="unstable"):
            output_mo_covariance(p)

    def test_closed_form_off_resonance_rejected(self):
        p = make(1.0, 1.0, detuning="blue")
        with pytest.raises(ValueError):
            output_mo_covariance(p, omega=0.5, method="closed")

    def test_physicality_of_random_outputs(self, rng):
        omega4 = symplectic_form(2)
        for _ in range(30):
            p = random_stable_blue_params(rng)
            cov = output_mo_covariance(p, omega=rng.uniform(-2, 2)).to_covariance()
            lo = np.linalg.eigvalsh(cov + 1j * omega4)[0]
            assert lo >= -1e-9 * max(1.0, np.max(np.abs(cov)))

    def test_spectra_even_in_frequency(self, rng):
        p = random_stable_blue_params(rng)
        omegas = rng.uniform(0.05, 3.0, 8)
        up, vp, wp = mo_standard_form_spectra(p, omegas)
        um, vm, wm = mo_standard_form_spectra(p, -omegas)
        assert np.allclose(up, um, atol=1e-11)
        assert np.allclose(vp, vm, atol=1e-11)
        assert np.allclose(wp, wm, atol=1e-11)

    def test_variances_nondecreasing_in_bath_occupation(self):
        prev_u, prev_v = -np.inf, -np.inf
        for n_th in np.linspace(0.0, 2.0, 9):
            p = make(0.8, 2.0, 0.7, 0.9, n_th, "blue")
            form = output_mo_covariance(p)
            assert form.u >= prev_u - 1e-12
            assert form.v >= prev_v - 1e-12
            prev_u, prev_v = form.u, form.v


class TestStability:
    def test_pure_damping_stable(self):
        assert stability_check(make(0.0, 0.0, detuning="blue"))

    def test_overdriven_unstable(self):
        c_em = 2.0
        assert not stability_check(make(1.0 + c_em + 0.5, c_em, detuning="blue"))

    def test_boundary_matches_divergence_locus(self):
        # closed forms diverge at (1 - C_om + C_em)^2 = 0
        for c_em in (0.5, 3.0, 10.0):
            grid = np.linspace(0.05, 1.0 + c_em + 2.0, 400)
            flags = [stability_check(make(c, c_em, detuning="blue")) for c in grid]
            flips = [i for i in range(1, len(grid)) if flags[i] != flags[i - 1]]
            assert len(flips) == 1
            crossing = 0.5 * (grid[flips[0] - 1] + grid[flips[0]])
            assert abs(crossing - (1.0 + c_em)) < grid[1] - grid[0]

    def test_red_params_rejected(self):
        with pytest.raises(ValueError, match="blue"):
            stability_check(make(1.0, 1.0))


class TestClosedFormResolution:
    """Fit of the thermal-occupation symbol in the closed forms.

    The numeric scattering path is ground truth; candidate closed-form
    variants with the published v expression (carrying an extra C_om) and
    with a doubled bath occupation must all lose to the adopted form.
    """

    @staticmethod
    def _candidates(c_om, c_em, zo, ze, n):
        den = (1 - c_om + c_em) ** 2
        u = 1 + 8 * c_om * (1 + n + c_em * (1 + n - n * ze)) * zo / den
        w = (
            4 * (1 + c_em + c_om + 2 * n * c_om * (1 - ze) + 2 * n * ze)
            * np.sqrt(c_om * c_em * ze * zo) / den
        )
        v_adopted = 1 + 8 * (c_em * (c_om + n) - (c_om - 1) ** 2 * (ze - 1) * n) * ze / den
        v_published = 1 + 8 * (
            c_em * (c_om + n) - (c_om - 1) ** 2 * (ze - 1) * n
        ) * ze * c_om / den
        return u, w, v_adopted, v_published

    def test_adopted_convention_wins(self, rng):
        worst_adopted = 0.0
        published_ok = True
        doubled_ok = True
        for _ in range(20):
            p = random_stable_blue_params(rng)
            if p.n_th < 0.05:
                continue
            c_om, c_em = cooperativities(p)
            numeric = output_mo_covariance(p, method="numeric")
            u, w, v_ad, v_pub = self._candidates(
                c_om, c_em, p.zeta_o, p.zeta_e, p.n_th
            )
            worst_adopted = max(
                worst_adopted,
                abs(u - numeric.u), abs(w - numeric.w), abs(v_ad - numeric.v),
            )
            if abs(v_pub - numeric.v) > 1e-9:
                published_ok = False
            _, _, v_2n, _ = self._candidates(c_om, c_em, p.zeta_o, p.zeta_e, 2 * p.n_th)
            if abs(v_2n - numeric.v) > 1e-9:
                doubled_ok = False
        assert worst_adopted < 1e-9
        assert not published_ok
        assert not doubled_ok


# --- oracles: the constructions the fast paths replaced ----------------------


def _input_matrix(p):
    """3x5 input matrix of the red or blue drift, as an explicit array."""
    if p.detuning == "red":
        rows = [
            [np.sqrt(p.kappa_o_c), np.sqrt(p.kappa_o_i), 0, 0, 0],
            [0, 0, np.sqrt(p.kappa_e_c), np.sqrt(p.kappa_e_i), 0],
            [0, 0, 0, 0, np.sqrt(p.kappa_m)],
        ]
    else:
        rows = [
            [np.sqrt(p.kappa_o_c), np.sqrt(p.kappa_o_i), 0, 0, 0],
            [0, 0, np.sqrt(p.kappa_m), 0, 0],
            [0, 0, 0, np.sqrt(p.kappa_e_c), np.sqrt(p.kappa_e_i)],
        ]
    return np.array(rows)


def _einsum_scattering(p, omegas):
    drift = transducer._drift_red(p) if p.detuning == "red" else transducer._drift_blue(p)
    m = -1j * omegas[:, None, None] * np.eye(3) - drift[None, :, :]
    inv = np.linalg.inv(m)
    inmat = _input_matrix(p)
    return np.einsum("ji,kjl,lm->kim", inmat, inv, inmat) - np.eye(5)


def _lambda_quadrature(s_tilde):
    """10x10 quadrature maps by conjugating the mode-space map with Lambda."""
    lam1 = np.array([[1.0, 1.0], [-1j, 1j]])
    lam1_inv = np.array([[0.5, 0.5j], [0.5, -0.5j]])
    sc = np.zeros((len(s_tilde), 10, 10), dtype=complex)
    for a in range(5):
        for b in range(5):
            s = s_tilde[:, a, b]
            ad, bd = a < 2, b < 2  # the optical ports carry daggered operators
            sc[:, 2 * a + ad, 2 * b + bd] += s
            sc[:, 2 * a + (not ad), 2 * b + (not bd)] += np.conj(s)
    lam = np.kron(np.eye(5), lam1)
    lam_inv = np.kron(np.eye(5), lam1_inv)
    return (lam[None] @ sc @ lam_inv[None]).real


def _identical(a, b):
    """Equal values and equal signs, zeros included."""
    if np.iscomplexobj(a) or np.iscomplexobj(b):
        return _identical(a.real, b.real) and _identical(a.imag, b.imag)
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


_zeta = st.one_of(st.just(1.0), st.floats(0.05, 1.0))


def _coupling(high):
    # zero or at least 1e-6: halving a subnormal entry is inexact, so the
    # Lambda route is an exact oracle only for normal scattering entries
    return st.one_of(st.just(0.0), st.floats(1e-6, high))


@st.composite
def devices(draw, detuning, reach=0.99):
    """Random devices, blue ones with C_om up to ``reach`` (1 + C_em); zeta = 1
    gives zero-amplitude intrinsic ports."""
    c_em = draw(_coupling(8.0))
    if detuning == "blue":
        c_om = draw(_coupling(reach)) * (1.0 + c_em)
    else:
        c_om = draw(_coupling(10.0))
    n_th = draw(st.one_of(st.just(0.0), st.floats(0.0, 2.0)))
    kappa_o, kappa_e, kappa_m = draw(st.tuples(*(st.floats(0.3, 4.0),) * 3))
    p = make(c_om, c_em, draw(_zeta), draw(_zeta), n_th, detuning,
             kappa_o=kappa_o, kappa_e=kappa_e, kappa_m=kappa_m)
    assume(detuning == "red" or stability_check(p))
    return p


# frequencies likewise keep the scattering entries normal
_omegas = st.lists(
    st.floats(-30.0, 30.0).filter(lambda x: x == 0.0 or abs(x) > 1e-100),
    min_size=1,
    max_size=6,
).map(lambda xs: np.array([0.0, -0.0] + xs))


class TestFastPathsAreBitExact:
    @settings(max_examples=150, deadline=None)
    @given(p=st.one_of(devices("red"), devices("blue")), omegas=_omegas)
    def test_gather_equals_einsum_resolvent(self, p, omegas):
        fast = transducer._scattering_batch(p, omegas)
        assert _identical(fast, _einsum_scattering(p, omegas))

    @settings(max_examples=100, deadline=None)
    @given(
        lanes=st.lists(devices("red"), min_size=1, max_size=6),
        omega=st.one_of(st.just(0.0), _omegas.map(lambda x: float(x[-1]))),
    )
    def test_lane_red_resolvent_equals_one_device(self, lanes, omega):
        fields = [f.name for f in dataclasses.fields(TransducerParams) if f.name != "detuning"]
        block = TransducerParams(
            **{f: np.array([getattr(p, f) for p in lanes]) for f in fields}, detuning="red"
        )
        s = transducer._scattering_batch(block, omega)
        for lane, p in zip(s, lanes):
            assert _identical(lane, transducer._scattering_batch(p, [omega])[0])
        eta, n_e = transducer._dqt_eta_ne(block, omega)
        assert [dqt_channel(p, omega) for p in lanes] == list(zip(eta.tolist(), n_e.tolist()))

    @settings(max_examples=100, deadline=None)
    @given(
        p=st.one_of(devices("red"), devices("blue")),
        omegas=_omegas,
        ports=st.lists(st.integers(0, 4), min_size=1, max_size=5, unique=True),
    )
    def test_row_gather_equals_rows_of_the_full_gather(self, p, omegas, ports):
        rows = transducer._scattering_batch(p, omegas, ports)
        assert _identical(rows, transducer._scattering_batch(p, omegas)[:, ports])

    @settings(max_examples=150, deadline=None)
    @given(p=devices("blue"), omegas=_omegas)
    def test_exact_map_equals_lambda_conjugation(self, p, omegas):
        s = _einsum_scattering(p, omegas)
        fast = np.array([quadrature_scattering(x) for x in s])
        # the complex products of the conjugation give some zeros a sign from
        # the BLAS kernel's tiling (whole -0 columns); no spectrum reads a
        # zero's sign, and every zero of the exact map is +0
        assert _identical(fast, _lambda_quadrature(s) + 0.0)

    @settings(max_examples=100, deadline=None)
    @given(p=devices("blue"), omegas=_omegas)
    def test_spectra_equal_full_covariance_route(self, p, omegas):
        quad = _lambda_quadrature(_einsum_scattering(p, omegas))
        hot = 2.0 * p.n_th + 1.0  # mechanical bath and intrinsic microwave port
        vin = np.diag([1.0, 1.0, 1.0, 1.0, hot, hot, 1.0, 1.0, hot, hot])
        vout = quad @ vin[None] @ quad.transpose(0, 2, 1)
        block = vout[:, [0, 1, 6, 7]][:, :, [0, 1, 6, 7]]
        u = 0.5 * (block[:, 0, 0] + block[:, 1, 1])
        v = 0.5 * (block[:, 2, 2] + block[:, 3, 3])
        w = np.hypot(0.5 * (block[:, 0, 2] - block[:, 1, 3]), 0.5 * (block[:, 0, 3] + block[:, 1, 2]))
        for fast, slow in zip(mo_standard_form_spectra(p, omegas), (u, v, w)):
            assert _identical(fast, slow)


@settings(max_examples=200, deadline=None)
@given(
    p=devices("blue", reach=0.9),
    where=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=64),
)
def test_spectra_are_physical_across_the_window(p, where):
    # the standard forms the frequency integrals read, away from resonance too
    omegas = np.array(where) * capacity._window(p)
    _check_forms(*mo_standard_form_spectra(p, omegas))


@st.composite
def _lopsided_blue(draw):
    """Stable blue devices with unequal, non-unit linewidths, a warm bath,
    lossy extraction and C_om up to 0.999 (1 + C_em)."""
    kappas = draw(st.lists(st.floats(0.05, 8.0).filter(lambda k: k != 1.0),
                           min_size=3, max_size=3, unique=True))
    c_em = draw(st.floats(0.01, 8.0))
    c_om = draw(st.floats(0.0, 0.999)) * (1.0 + c_em)
    zo, ze = draw(st.tuples(*(st.floats(0.05, 0.99),) * 2))
    p = make(c_om, c_em, zo, ze, draw(st.floats(0.01, 2.0)), "blue",
             kappa_o=kappas[0], kappa_e=kappas[1], kappa_m=kappas[2])
    assume(stability_check(p))
    return p


@settings(max_examples=200, deadline=None)
@given(p=_lopsided_blue(), where=st.lists(st.floats(-1.0, 1.0), max_size=12))
def test_spectra_are_even_bit_for_bit(p, where):
    # conj(M) = D M D with D = diag(1, -1, 1) for the blue drift M, so the
    # resolvent at -omega is D conj(R(omega)) D, and rounding and pivoting treat
    # those sign flips and conjugates alike: the frequency integrals evaluate
    # the nonnegative half of a mirror-image node array and reflect it
    window = capacity._window(p)
    omegas = np.array([0.0, window, -window, window / 3.0, 0.1] + [x * window for x in where])
    for at_minus, at_plus in zip(mo_standard_form_spectra(p, -omegas),
                                 mo_standard_form_spectra(p, omegas)):
        assert at_minus.tobytes() == at_plus.tobytes()
