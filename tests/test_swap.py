import warnings
from fractions import Fraction

import numpy as np
import pytest

from gausslink import entanglement
from gausslink.capacity import _nested_trapezoids, _window
from gausslink.entanglement import (
    _entanglement_rates,
    _eof,
    _optical_loss,
    _swap_form,
    entanglement_of_formation,
    entanglement_rate,
)
from gausslink.gaussian import symplectic_form
from gausslink.selftest import random_physical_form, random_stable_blue_params
from gausslink.swap import (
    _click_rates,
    apply_optical_loss,
    click_rate,
    mm_standard_form,
    mm_swap_closed,
    mm_swap_numeric,
)
from gausslink.sweeps import EXPERIMENTS, FIXED_DEFAULTS
from gausslink.teleport import optimize_gain
from gausslink.transducer import (
    TransducerParams,
    TwoModeStandardForm,
    mo_standard_form_spectra,
    output_mo_covariance,
)
from test_capacity import integrate_spectrum

WORKED = TwoModeStandardForm(17.0, 9.0, 12.0)
Z2 = np.diag([1.0, -1.0])


def _blue(c_om, c_em, **kw):
    return TransducerParams.from_cooperativities(c_om, c_em, detuning="blue", **kw)


def _epr_limit(form1, form2):
    """Microwave pair after an ideal EPR measurement of the optical modes of two
    sources: diagonal blocks (v_i - w_i^2 / (u_1 + u_2)) I, off-diagonal blocks
    (w_1 w_2 / (u_1 + u_2)) Z."""
    s = form1.u + form2.u
    cross = form1.w * form2.w / s * Z2
    return np.block(
        [[(form1.v - form1.w**2 / s) * np.eye(2), cross],
         [cross, (form2.v - form2.w**2 / s) * np.eye(2)]]
    )


class TestSwapSetup:
    """A swap needs blue-detuned, stable sources and tau in [0, 1]; the rate
    functions of both swap schemes check this."""

    def test_valid(self):
        for p in (_blue(1.0, 1.0), _blue(0.5, 2.0)):
            r_t, r_b = click_rate(p, 0.7, 2.0)
            assert r_t > 0 and r_b > 0 and entanglement_rate(p, 0.7) > 0

    def test_red_device_rejected(self):
        red = TransducerParams.from_cooperativities(1.0, 1.0)
        with pytest.raises(ValueError, match="blue"):
            click_rate(red, 1.0, 1.0)
        with pytest.raises(ValueError, match="blue"):
            entanglement_rate(red, 1.0)

    def test_unstable_device_rejected(self):
        with pytest.raises(ValueError, match="stable"):
            click_rate(_blue(5.0, 1.0), 1.0, 1.0)
        with pytest.raises(ValueError, match="stable"):
            entanglement_rate(_blue(5.0, 1.0), 1.0)

    def test_bad_tau(self):
        with pytest.raises(ValueError, match="tau"):
            click_rate(_blue(1.0, 1.0), 1.5, 1.0)
        with pytest.raises(ValueError, match="tau"):
            entanglement_rate(_blue(1.0, 1.0), 1.5)


class TestClosedSwap:
    def test_worked_values(self):
        v_mm = mm_swap_closed(WORKED)
        assert v_mm[0, 0] == pytest.approx(9.0 - 144.0 / 34.0, abs=1e-12)
        assert v_mm[0, 2] == pytest.approx(144.0 / 34.0, abs=1e-12)
        assert v_mm[0, 0] == pytest.approx(4.76471, abs=1e-4)
        assert v_mm[0, 2] == pytest.approx(4.23529, abs=1e-4)

    def test_uncorrelated_source_yields_thermal_product(self):
        v_mm = mm_swap_closed(TwoModeStandardForm(4.0, 3.0, 0.0))
        assert np.allclose(v_mm, 3.0 * np.eye(4))

    def test_output_physical_for_random_forms(self, rng):
        omega = symplectic_form(2)
        for _ in range(200):
            v_mm = mm_swap_closed(random_physical_form(rng))
            lo = np.linalg.eigvalsh(v_mm + 1j * omega)[0]
            assert lo >= -1e-9 * max(1.0, np.max(np.abs(v_mm)))

    def test_matches_epr_limit_route(self, rng):
        for _ in range(20):
            form = random_physical_form(rng)
            assert np.allclose(mm_swap_closed(form), _epr_limit(form, form), atol=1e-9)


class TestNumericSwap:
    def test_large_squeezing_matches_closed(self, rng):
        worst = 0.0
        for _ in range(20):
            form = random_physical_form(rng)
            worst = max(
                worst,
                np.max(np.abs(mm_swap_numeric(form, form, 10.0) - mm_swap_closed(form))),
            )
        assert worst < 1e-6

    def test_monotone_convergence(self):
        closed = mm_swap_closed(WORKED)
        errs = [
            np.max(np.abs(mm_swap_numeric(WORKED, WORKED, r) - closed))
            for r in (4.0, 6.0, 8.0, 10.0)
        ]
        assert all(a > b for a, b in zip(errs, errs[1:]))

    def test_heterodyne_limit_weaker_correlation(self):
        weak = mm_swap_numeric(WORKED, WORKED, 0.0)
        strong = mm_swap_numeric(WORKED, WORKED, 10.0)
        assert abs(weak[0, 2]) < abs(strong[0, 2])

    def test_asymmetric_sources_match_epr_limit(self):
        form2 = TwoModeStandardForm(5.0, 3.0, 3.0)
        out = mm_swap_numeric(WORKED, form2, 10.0)
        assert np.max(np.abs(out - _epr_limit(WORKED, form2))) < 1e-6

    def test_product_second_source_kills_cross_block(self, rng):
        form2 = TwoModeStandardForm(3.0, 2.0, 0.0)
        out = mm_swap_numeric(WORKED, form2, 6.0)
        assert np.max(np.abs(out[:2, 2:])) < 1e-10

    def test_negative_squeezing_rejected(self):
        with pytest.raises(ValueError):
            mm_swap_numeric(WORKED, WORKED, -1.0)


class TestOpticalLoss:
    def test_identity_at_unit_tau(self, rng):
        form = random_physical_form(rng)
        lossy = apply_optical_loss(form, 1.0)
        assert (lossy.u, lossy.v, lossy.w) == (form.u, form.v, form.w)

    def test_full_loss_replaces_with_vacuum(self):
        lossy = apply_optical_loss(WORKED, 0.0)
        assert (lossy.u, lossy.v, lossy.w) == (1.0, 9.0, 0.0)

    def test_physicality_preserved(self, rng):
        omega = symplectic_form(2)
        for _ in range(100):
            lossy = apply_optical_loss(random_physical_form(rng), rng.uniform(0, 1))
            cov = lossy.to_covariance()
            assert np.linalg.eigvalsh(cov + 1j * omega)[0] >= -1e-9 * max(
                1.0, np.max(np.abs(cov))
            )

    def test_loss_composition(self, rng):
        for _ in range(20):
            form = random_physical_form(rng)
            t1, t2 = rng.uniform(0.1, 1.0, 2)
            once = apply_optical_loss(form, t1 * t2)
            twice = apply_optical_loss(apply_optical_loss(form, t1), t2)
            assert once.u == pytest.approx(twice.u, abs=1e-12)
            assert once.v == pytest.approx(twice.v, abs=1e-12)
            assert once.w == pytest.approx(twice.w, abs=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            apply_optical_loss(WORKED, -0.1)


# W of the wide-window trapezoid, in units of max(kappa): the flux falls off as
# omega^-4, so its tails beyond W are below 1e-10 of the rate on the devices here
_WIDE_WINDOW = 1024.0


def wide_window_photon_rate(p):
    """Optical photon rate of a stable blue device integrated from its spectra,
    independently of the steady-state solve of `_click_rates`: the nested
    trapezoid of the flux density (u(omega) - 1) / 2 of the optical output over
    [-W, W], W = _WIDE_WINDOW max(kappa), divided by 2 pi.  It raises
    ValueError where the trapezoid does not converge, as on narrow spectra."""
    window = _WIDE_WINDOW * max(p.kappa_o, p.kappa_e, p.kappa_m)
    flux = lambda omegas: (mo_standard_form_spectra(p, omegas)[0] - 1.0) / 2.0  # noqa: E731
    return integrate_spectrum(flux, window) / (2.0 * np.pi)


def fraction_photon_rate(p) -> Fraction:
    """kappa_o_c Re X[0, 0] of the steady state M X + X M^H + D = 0 of a blue
    device, solved exactly in rationals from the exact values of its float
    fields: (I kron M + conj(M) kron I) vec X = -vec D, with M = R + i I (mode
    order a^dag, b, c), split into real and imaginary parts and solved by
    Gauss-Jordan elimination."""
    ko, km, ke, g_om, g_em = map(Fraction, (p.kappa_o, p.kappa_m, p.kappa_e, p.g_om, p.g_em))
    re = [[-ko / 2, 0, 0], [0, -km / 2, 0], [0, 0, -ke / 2]]
    im = [[0, -g_om, 0], [g_om, 0, g_em], [0, g_em, 0]]
    eye = [[int(i == j) for j in range(3)] for i in range(3)]

    def kron(a, b):
        return [[a[r // 3][c // 3] * b[r % 3][c % 3] for c in range(9)] for r in range(9)]

    a_re = [[x + y for x, y in zip(*rows)] for rows in zip(kron(eye, re), kron(re, eye))]
    a_im = [[x - y for x, y in zip(*rows)] for rows in zip(kron(eye, im), kron(im, eye))]
    noise = [0] * 9
    noise[4] = km * (Fraction(p.n_th) + 1)
    noise[8] = Fraction(p.kappa_e_c) + Fraction(p.kappa_e_i) * (Fraction(p.n_th) + 1)
    # [[a_re, -a_im], [a_im, a_re]] [Re vec X; Im vec X] = [-vec D; 0], augmented
    rows = [a_re[r] + [-x for x in a_im[r]] + [-noise[r]] for r in range(9)]
    rows += [a_im[r] + a_re[r] + [0] for r in range(9)]
    for col in range(18):
        pivot = next(r for r in range(col, 18) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [x / rows[col][col] for x in rows[col]]
        for r in range(18):
            if r != col and rows[r][col] != 0:
                rows[r] = [x - rows[r][col] * y for x, y in zip(rows[r], rows[col])]
    return Fraction(p.kappa_o_c) * rows[0][18]


class TestClickRate:
    def test_no_coupling_no_photons(self):
        r_t, r_b = click_rate(_blue(0.0, 1.0), tau=1.0, dt=1.0)
        assert r_t == 0.0
        assert r_b == 0.0

    def test_heralding_model(self):
        r_t, r_b = click_rate(_blue(2.0, 5.0), tau=0.8, dt=0.5)
        assert r_t > 0
        assert r_b == pytest.approx(2.0 * r_t * np.exp(-r_t * 0.5), abs=1e-12)

    def test_small_probability_limit(self):
        r_t, r_b = click_rate(_blue(0.05, 5.0), tau=0.01, dt=1e-4)
        assert r_b == pytest.approx(2.0 * r_t, rel=1e-3)

    def test_peak_of_heralding_curve(self, rng):
        # 2 x exp(-x dt) peaks at x = 1/dt with value 2/(e dt)
        for dt in (0.3, 1.0, 4.0):
            xs = np.linspace(1e-3, 8.0 / dt, 200001)
            curve = 2 * xs * np.exp(-xs * dt)
            assert xs[np.argmax(curve)] == pytest.approx(1.0 / dt, rel=1e-4)
            assert np.max(curve) <= 2.0 / (np.e * dt) + 1e-9
            assert 2 * (1 / dt) * np.exp(-1.0) == pytest.approx(
                2.0 / (np.e * dt), abs=1e-9
            )
        for _ in range(10):
            p = random_stable_blue_params(rng)
            dt = rng.uniform(0.1, 3.0)
            _, r_b = click_rate(p, rng.uniform(0, 1), dt)
            assert r_b <= 2.0 / (np.e * dt) + 1e-9

    def test_tau_scales_photon_rate(self):
        p = _blue(1.5, 4.0)
        full, _ = click_rate(p, 1.0, 1.0)
        half, _ = click_rate(p, 0.5, 1.0)
        assert half == pytest.approx(0.5 * full, rel=1e-12)

    def test_unstable_rejected(self):
        with pytest.raises(ValueError, match="unstable"):
            click_rate(_blue(5.0, 1.0), 1.0, 1.0)

    @pytest.mark.parametrize(
        "device, exact",
        [
            ((1.0, 1.0, 1.0, 1.0, 0.0), 7 / 8),
            ((5.0, 10.0, 0.8, 1.0, 1.0), 16 / 9),
            ((0.0, 1.0, 1.0, 1.0, 0.0), 0.0),  # a dark source
        ],
    )
    def test_lyapunov_oracle_exact_values(self, device, exact):
        # rates known in closed form: the steady-state solve gives them to a few ulp
        p = TransducerParams.from_cooperativities(*device, "blue")
        r_t, _ = click_rate(p, 1.0, 1.0)
        assert r_t == pytest.approx(exact, rel=1e-14, abs=0.0)
        assert float(fraction_photon_rate(p)) == pytest.approx(exact, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize(
        "device",
        [
            (0.1, 10.0, 1.0, 1.0, 0.0),
            (1.0, 1.0, 1.0, 1.0, 0.0),
            (5.0, 10.0, 0.8, 1.0, 1.0),
            (2.9, 2.0, 1.0, 1.0, 0.0),
            (2.9, 2.0, 1.0, 1.0, 0.5),
            (0.5, 0.3, 0.8, 0.9, 2.0),
        ],
    )
    def test_windowed_flux_misses_only_the_tails(self, device):
        # integrated over a window wide enough that its tails are below 1e-10,
        # the flux spectrum gives the steady-state rate; the W = 10 max(kappa)
        # window fig5a once used fell short by 1.8e-6 to 1.9e-4 here
        p = TransducerParams.from_cooperativities(*device, "blue")
        r_t, _ = click_rate(p, 1.0, 1.0)
        assert r_t == pytest.approx(wide_window_photon_rate(p), rel=1e-8, abs=0.0)

    @pytest.mark.parametrize(
        "gap, bound", [(1e-4, 1e-10), (1e-6, 2e-8), (1e-8, 1e-6)], ids=["1e-4", "1e-6", "1e-8"]
    )
    def test_exact_near_the_threshold(self, gap, bound):
        # d = 1 + C_em - C_om: the solve's round-off follows the system's
        # condition number, about 5 / d (5.5e-12, 1.3e-9 and 8.8e-8 measured);
        # the windowed flux integral did not converge at d = 1e-4
        p = _blue(3.0 - gap, 2.0)
        exact = fraction_photon_rate(p)
        r_t, _ = click_rate(p, 1.0, 1.0)
        assert abs(r_t - exact) <= bound * exact
        if gap == 1e-4:
            assert float(exact) == pytest.approx(44997.50007, rel=1e-10)

    def test_weak_source_is_not_zeroed(self):
        # the windowed flux integral zeroed flux densities below 1e-12 and read 0
        p = _blue(1e-20, 2.0, zeta_o=0.9, kappa_o=1.3, kappa_e=0.7)
        r_t, r_b = click_rate(p, 1.0, 1.0)
        exact = fraction_photon_rate(p)
        assert r_t > 0.0 and r_b > 0.0
        assert r_t == pytest.approx(float(exact), rel=1e-14, abs=0.0)
        assert float(exact) == pytest.approx(3.9e-21, rel=1e-12)

    @pytest.mark.parametrize("n_th", [0.0, 0.5])
    def test_dark_source_is_positive_zero(self, n_th):
        r_t, r_b = _click_rates(_blue(0.0, 2.0, n_th=n_th), np.array([0.0, 1.0]), np.ones(2))
        assert r_t.tolist() == r_b.tolist() == [0.0, 0.0]
        assert not np.signbit(r_t).any() and not np.signbit(r_b).any()
        assert fraction_photon_rate(_blue(0.0, 2.0, n_th=n_th)) == 0


def _mm_capacity(form):
    """Capacity lower bound of teleporting over the swapped microwave pair."""
    return optimize_gain(mm_standard_form(form)).q_lb_opt


class TestMmCapacity:
    def test_uncorrelated_source(self):
        assert _mm_capacity(TwoModeStandardForm(4.0, 3.0, 0.0)) == 0.0

    def test_worked_composition(self):
        # fig4b chains the source form, the swap and the gain search alike
        for c_om, c_em in [(1.0, 1.0), (2.0, 5.0)]:
            point = dict(FIXED_DEFAULTS, C_om=c_om, C_em=c_em)
            stable, columns = EXPERIMENTS["fig4b_mm_capacity"].evaluate(
                {name: np.array([value]) for name, value in point.items()}
            )
            assert stable.tolist() == [True]
            (q_lb_mm,) = columns["q_lb_mm"]
            source = output_mo_covariance(_blue(c_om, c_em), method="closed")
            assert q_lb_mm == pytest.approx(_mm_capacity(source), rel=1e-9, abs=1e-12)
        assert q_lb_mm > 0.4
        mm = mm_standard_form(WORKED)
        assert mm.u == pytest.approx(4.76471, abs=1e-4)
        assert mm.w == pytest.approx(4.23529, abs=1e-4)

    def test_bounded_by_mm_entanglement(self, rng):
        for _ in range(100):
            form = random_physical_form(rng)
            mm = mm_standard_form(form)
            assert _mm_capacity(form) <= entanglement_of_formation(mm) + 1e-9

    def test_swap_never_amplifies_entanglement(self, rng):
        for _ in range(200):
            form = random_physical_form(rng)
            assert (
                entanglement_of_formation(mm_standard_form(form))
                <= entanglement_of_formation(form) + 1e-9
            )


def earlier_entanglement_rates(p, taus):
    """`_entanglement_rates` as it was before its integrand evaluated half of
    each mirror-image node array: every node solved and swapped."""
    taus = np.asarray(taus, dtype=float)
    spectra = {}

    def integrand(rows, omegas):
        key = omegas.tobytes()
        if key not in spectra:
            spectra[key] = mo_standard_form_spectra(p, omegas)
        u, v, w = spectra[key]
        u, w = _optical_loss(u, w, taus[rows, None])
        diag, off = _swap_form(u, v, w)
        return _eof(diag, diag, off)

    return _nested_trapezoids(integrand, taus.size, _window(p)) / (2.0 * np.pi)


# windows W = 10 max(kappa): 10 and 17, whose node arrays are their own mirror
# images, and 1.23, whose are not
_WINDOWS = {
    "W10": {},
    "W17": dict(kappa_o=1.7),
    "W1.23": dict(kappa_o=0.123, kappa_e=0.0123, kappa_m=0.07),
}


@pytest.mark.parametrize("kappas", _WINDOWS.values(), ids=_WINDOWS.keys())
@pytest.mark.parametrize("c_om, c_em, n_th", [(0.5, 1.0, 0.0), (1.0, 2.0, 0.1), (1.5, 10.0, 0.02)])
def test_rates_equal_the_earlier_rates(kappas, c_om, c_em, n_th, monkeypatch):
    # fig5b's rates keep the earlier bits; fig5a's photon rate, a steady-state
    # solve that integrates no spectrum, agrees with the wide-window trapezoid
    p = _blue(c_om, c_em, zeta_o=0.9, zeta_e=0.8, n_th=n_th, **kappas)
    tau, dt = np.array([0.0, 0.5, 1.0]), np.array([1.0, 0.3, 2.0])
    expected = earlier_entanglement_rates(p, tau)
    seen = []

    def spectra(p, omegas):
        seen.append(omegas.size)
        return mo_standard_form_spectra(p, omegas)

    monkeypatch.setattr(entanglement, "mo_standard_form_spectra", spectra)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = _entanglement_rates(p, tau)
        r_t, r_b = _click_rates(p, tau, dt)
    assert got.tobytes() == expected.tobytes()
    assert expected[-1] > 0.0 and r_t[-1] > 0.0
    assert r_t == pytest.approx(tau * wide_window_photon_rate(p), rel=1e-8, abs=0.0)
    assert r_b.tobytes() == (2.0 * r_t * np.exp(-r_t * dt)).tobytes()
    # the first call covers the first two levels' 513 nodes, and solves the
    # spectra on their nonnegative half when they are a mirror image
    assert seen[:1] == ([513] if "kappa_m" in kappas else [257])
