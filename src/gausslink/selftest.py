"""Randomized oracle-equivalence suites, runnable from the command line.

Each suite cross-checks an independent computation route against a closed
form: scattering unitarity, the on-resonance standard-form expressions, the
teleportation moment pipeline, the swap measurement limit and end-to-end
physicality.  The generators here are also reused by the test suite.
"""

import numpy as np

from .entanglement import entanglement_of_formation
from .gaussian import (
    GaussianState,
    apply_channel,
    check_physical,
    extract_modes,
    symplectic_eigenvalues,
    two_mode_squeezed,
)
from .swap import apply_optical_loss, mm_swap_closed, mm_swap_numeric, mm_standard_form
from .teleport import induced_channel, teleport_oracle
from .transducer import (
    TransducerParams,
    TwoModeStandardForm,
    dqt_efficiency_bandwidth,
    output_mo_covariance,
    scattering_red,
    stability_check,
)

__all__ = [
    "random_red_params",
    "random_stable_blue_params",
    "random_physical_form",
    "random_physical_state",
    "run_selftest",
]


def random_red_params(rng, n_th=None) -> TransducerParams:
    c_om, c_em = rng.uniform(0.1, 10.0, 2)
    zo, ze = rng.uniform(0.2, 1.0, 2)
    ko, ke, km = rng.uniform(0.5, 4.0, 3)
    n = rng.uniform(0.0, 2.0) if n_th is None else n_th
    return TransducerParams.from_cooperativities(
        c_om, c_em, zo, ze, n, "red", ko, ke, km
    )


def random_stable_blue_params(rng, n_th=None) -> TransducerParams:
    while True:
        c_em = rng.uniform(0.2, 8.0)
        c_om = rng.uniform(0.05, 0.95 * (1.0 + c_em))
        zo, ze = rng.uniform(0.2, 1.0, 2)
        ko, ke, km = rng.uniform(0.5, 4.0, 3)
        n = rng.uniform(0.0, 2.0) if n_th is None else n_th
        p = TransducerParams.from_cooperativities(
            c_om, c_em, zo, ze, n, "blue", ko, ke, km
        )
        if stability_check(p):
            return p


def random_physical_form(rng, umax: float = 20.0) -> TwoModeStandardForm:
    """Rejection-sample a physical standard form (u, v, w >= 0)."""
    while True:
        u = rng.uniform(1.0, umax)
        v = rng.uniform(1.0, umax)
        w = rng.uniform(0.0, np.sqrt(u * v))
        try:
            return TwoModeStandardForm(u, v, w)
        except ValueError:
            continue


def _rotation(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, s], [-s, c]])


def random_physical_state(rng, n_modes: int = 1) -> GaussianState:
    """Random mixed state, built from squeezed-rotated thermal modes."""
    blocks = []
    for _ in range(n_modes):
        nbar = rng.uniform(0.0, 2.0)
        r = rng.uniform(-0.8, 0.8)
        sq = np.diag([np.exp(r), np.exp(-r)])
        rot = _rotation(rng.uniform(0.0, np.pi))
        blocks.append(rot @ sq @ ((2 * nbar + 1) * np.eye(2)) @ sq @ rot.T)
    cov = np.zeros((2 * n_modes, 2 * n_modes))
    for k, b in enumerate(blocks):
        cov[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = b
    mean = rng.normal(0.0, 1.0, 2 * n_modes)
    return GaussianState(n_modes, mean, cov)


def _suite_red_unitarity(rng):
    worst = 0.0
    for _ in range(20):
        p = random_red_params(rng)
        for omega in rng.uniform(-3.0, 3.0, 5):
            s = scattering_red(p, omega)
            worst = max(worst, float(np.max(np.abs(s @ s.conj().T - np.eye(5)))))
            eta = abs(s[0, 2]) ** 2
            worst = max(worst, abs(eta - dqt_efficiency_bandwidth(p, omega)))
    return worst < 1e-9, f"max deviation {worst:.2e}"


def _suite_closed_vs_numeric(rng):
    worst = 0.0
    for _ in range(50):
        p = random_stable_blue_params(rng)
        closed = output_mo_covariance(p, method="closed")
        numeric = output_mo_covariance(p, method="numeric")
        worst = max(
            worst,
            abs(closed.u - numeric.u),
            abs(closed.v - numeric.v),
            abs(closed.w - numeric.w),
        )
    return worst < 1e-9, f"max |closed - numeric| {worst:.2e}"


def _suite_teleport(rng):
    worst = 0.0
    for _ in range(50):
        form = random_physical_form(rng)
        state = random_physical_state(rng)
        kappa = rng.uniform(0.05, 3.0)
        out = teleport_oracle(form.to_covariance(), state.cov, kappa)
        expect = apply_channel(state, induced_channel(form, kappa).to_gaussian_channel()).cov
        worst = max(worst, float(np.max(np.abs(out - expect))))
    return worst < 1e-8, f"max |pipeline - closed| {worst:.2e}"


def _suite_swap(rng):
    worst = 0.0
    for _ in range(20):
        form = random_physical_form(rng)
        closed = mm_swap_closed(form)
        numeric = mm_swap_numeric(form, form, 10.0)
        worst = max(worst, float(np.max(np.abs(closed - numeric))))
    return worst < 1e-6, f"max |closed - numeric(r=10)| {worst:.2e}"


def _suite_tmsv_eof(rng):
    worst = 0.0
    for s in (0.2, 0.5, 1.0):
        tmsv = two_mode_squeezed(s)
        form = TwoModeStandardForm(np.cosh(2 * s), np.cosh(2 * s), np.sinh(2 * s))
        nu = symplectic_eigenvalues(extract_modes(tmsv, [1]).cov)[0]
        nbar = (nu - 1.0) / 2.0
        entropy = (nbar + 1) * np.log2(nbar + 1) - nbar * np.log2(nbar)
        worst = max(worst, abs(entanglement_of_formation(form) - entropy))
    return worst < 1e-6, f"max |E_F - reduced entropy| {worst:.2e}"


def _suite_pipeline_physicality(rng):
    worst = np.inf
    for _ in range(100):
        p = random_stable_blue_params(rng)
        form = output_mo_covariance(p, method="numeric")
        lossy = apply_optical_loss(form, rng.uniform(0.2, 1.0))
        worst = min(worst, check_physical(lossy.to_covariance()))
        mm = mm_standard_form(lossy)
        worst = min(worst, check_physical(mm.to_covariance()))
        v_in = random_physical_state(rng).cov
        out = teleport_oracle(mm.to_covariance(), v_in, rng.uniform(0.3, 2.0))
        worst = min(worst, check_physical(out))
    return worst > -1e-9, f"min eigenvalue margin {worst:.2e}"


SUITES = (
    ("red-scattering-unitarity", _suite_red_unitarity),
    ("standard-form-closed-vs-numeric", _suite_closed_vs_numeric),
    ("teleport-oracle-equivalence", _suite_teleport),
    ("swap-measurement-limit", _suite_swap),
    ("tmsv-entanglement-entropy", _suite_tmsv_eof),
    ("end-to-end-physicality", _suite_pipeline_physicality),
)


def run_selftest(seed: int = 0) -> bool:
    """Run every suite with one seeded generator, printing each verdict; returns overall success."""
    rng = np.random.default_rng(seed)
    ok = True
    for name, suite in SUITES:
        passed, detail = suite(rng)
        ok = ok and passed
        print(f"{'PASS' if passed else 'FAIL'} {name}: {detail}")
    return ok
