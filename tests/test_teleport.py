import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import gausslink.teleport as teleport
from gausslink.capacity import RANDOM_DISPLACEMENT, THERMAL_AMP, THERMAL_LOSS
from gausslink.entanglement import duan_quantity, entanglement_of_formation
from gausslink.selftest import random_physical_form, random_physical_state
from gausslink.teleport import (
    _bounds_at_gains,
    induced_channel,
    optimize_gain,
    optimize_gains,
    teleport_oracle,
)
from gausslink.transducer import TwoModeStandardForm

WORKED = TwoModeStandardForm(17.0, 9.0, 12.0)


def _low_seed_form(ratio):
    # v = 2 is a power of two, so w / v is exactly `ratio`
    return TwoModeStandardForm(3.0, 2.0, 2.0 * ratio)


def _high_seed_form(ratio):
    # just inside the physical region w^2 <= (u + 1)(v - 1), where the noise
    # minimum at kappa = w / v ~ 10 leaves the amplifier a positive bound
    v = 1024.0
    w = ratio * v
    return TwoModeStandardForm((w * w / (v - 1.0) - 1.0) * (1.0 + 1e-9), v, w)


# lanes at the edges of the gain search; TestBatchedSearch checks each hits its case
EDGE_FORMS = {
    "product": TwoModeStandardForm(2.0, 3.0, 0.0),
    "seed_below_lo": _low_seed_form(np.nextafter(1e-3, 0.0)),
    "seed_at_lo": _low_seed_form(1e-3),
    "seed_above_lo": _low_seed_form(np.nextafter(1e-3, 1.0)),
    "seed_below_hi": _high_seed_form(np.nextafter(10.0, 0.0)),
    "seed_at_hi": _high_seed_form(10.0),
    "seed_above_hi": _high_seed_form(np.nextafter(10.0, 20.0)),
    "unit_gain_optimum": TwoModeStandardForm(4.0, 4.5, 4.0),
}
# (kappa_opt, q_lb_opt) of each edge lane, recorded with the per-point search
# that preceded the batched one
EDGE_RESULTS = {
    "product": (1.0, 0.0),
    "seed_below_lo": (1.0, 0.0),
    "seed_at_lo": (1.0, 0.0),
    "seed_above_lo": (1.0, 0.0),
    "seed_below_hi": (10.0, 0.008358659388101635),
    "seed_at_hi": (10.0, 0.008358659386487163),
    "seed_above_hi": (10.0, 0.008358659386487163),
    "unit_gain_optimum": (1.0, 0.5573049591110366),
}


@st.composite
def physical_forms(draw):
    """Standard forms with w >= 0, many near the edge of the physical region
    w^2 <= (max(u, v) + 1)(min(u, v) - 1), where the capacity bound is positive."""
    low = draw(st.floats(1.0, 30.0))
    high = draw(st.floats(low, 300.0))
    u, v = (high, low) if draw(st.booleans()) else (low, high)
    reach = 1.0 - 10.0 ** draw(st.floats(-6.0, 0.0))
    try:
        return TwoModeStandardForm(u, v, reach * np.sqrt((high + 1.0) * (low - 1.0)))
    except ValueError:
        assume(False)


def _search(forms):
    return optimize_gains(*(np.array([getattr(f, x) for f in forms]) for x in "uvw"))


class TestInducedChannel:
    def test_unentangled_vacuum_resource(self):
        ch = induced_channel(TwoModeStandardForm(1.0, 1.0, 0.0), 1.0)
        assert ch.kind == RANDOM_DISPLACEMENT
        assert ch.noise == 2.0

    def test_worked_displacement(self):
        ch = induced_channel(WORKED, 1.0)
        assert ch.kind == RANDOM_DISPLACEMENT
        assert ch.noise == 2.0

    def test_worked_amplification(self):
        ch = induced_channel(WORKED, 4.0 / 3.0)
        assert ch.kind == THERMAL_AMP
        assert ch.eta == pytest.approx(16.0 / 9.0, abs=1e-12)
        assert ch.noise == pytest.approx(1.0 / 7.0, abs=1e-12)

    def test_loss_below_unit_gain(self):
        ch = induced_channel(WORKED, 0.5)
        assert ch.kind == THERMAL_LOSS
        assert ch.eta == pytest.approx(0.25)
        # noise numerator: 9/4 + 17 - 12 = 7.25
        assert ch.noise == pytest.approx(7.25 / (2 * 0.75) - 0.5, abs=1e-12)

    def test_classification_window(self):
        assert induced_channel(WORKED, 1.0 + 5e-10).kind == RANDOM_DISPLACEMENT
        assert induced_channel(WORKED, 1.0 + 5e-9).kind == THERMAL_AMP
        assert induced_channel(WORKED, 1.0 - 5e-9).kind == THERMAL_LOSS

    def test_nonpositive_gain_rejected(self):
        with pytest.raises(ValueError):
            induced_channel(WORKED, 0.0)

    def test_unit_gain_noise_equals_duan_bitwise(self, rng):
        for _ in range(100):
            form = random_physical_form(rng)
            assert induced_channel(form, 1.0).noise == duan_quantity(form)

    def test_noise_continuity_across_unit_gain(self, rng):
        for _ in range(20):
            form = random_physical_form(rng)
            sigma = duan_quantity(form)
            for kappa in (1.0 - 1e-4, 1.0 + 1e-4):
                num = form.v * kappa**2 + form.u - 2 * form.w * kappa
                assert num == pytest.approx(sigma, abs=1e-3 * max(1.0, sigma))


class TestOptimizeGain:
    def test_product_state_gives_zero(self):
        res = optimize_gain(TwoModeStandardForm(2.0, 3.0, 0.0))
        assert res.q_lb_opt == 0.0
        assert res.kappa_opt == 1.0

    def test_never_worse_than_seeds(self, rng):
        from gausslink.teleport import _bounds_at_gains

        for _ in range(50):
            form = random_physical_form(rng)
            res = optimize_gain(form)
            seeds = np.array([form.w / form.v, 1.0])
            seeds = seeds[(seeds > 0) & (seeds < 10)]
            assert res.q_lb_opt >= np.max(_bounds_at_gains(form, seeds)) - 1e-12

    def test_worked_point_beats_noise_minimizing_seed(self):
        # the true optimum trades extra gain against noise and exceeds the
        # value 4/7 obtained at the seed kappa = w/v
        res = optimize_gain(WORKED)
        assert res.q_lb_opt >= 4.0 / 7.0
        assert res.channel.kind == THERMAL_AMP

    def test_matches_dense_scan(self, rng):
        from gausslink.teleport import _bounds_at_gains

        for _ in range(5):
            form = random_physical_form(rng)
            res = optimize_gain(form)
            dense = np.max(_bounds_at_gains(form, np.linspace(1e-3, 10, 400001)))
            assert res.q_lb_opt >= dense - 1e-7

    def test_invariant_under_tolerance_tightening(self, monkeypatch):
        base = optimize_gain(WORKED).q_lb_opt
        monkeypatch.setattr(teleport, "_GOLDEN_TOL", 1e-8)
        tight = optimize_gain(WORKED).q_lb_opt
        assert abs(tight - base) < 1e-9

    def test_entanglement_needed_for_positive_capacity(self, rng):
        for _ in range(200):
            form = random_physical_form(rng)
            if optimize_gain(form).q_lb_opt > 0:
                assert entanglement_of_formation(form) > 0


class TestBatchedSearch:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), forms=st.lists(physical_forms(), min_size=1, max_size=30))
    def test_each_lane_equals_its_one_lane_search(self, data, forms):
        # up to 38 lanes, more than one coarse-scan chunk
        lanes = data.draw(st.permutations(forms + list(EDGE_FORMS.values())))
        kappa, q = _search(lanes)
        for form, k_lane, q_lane in zip(lanes, kappa, q):
            one = optimize_gain(form)
            assert (k_lane, q_lane) == (one.kappa_opt, one.q_lb_opt)

    def test_edge_lanes_hit_their_case(self):
        lo, hi = teleport.GAIN_SEARCH_RANGE
        seeded = {name: lo < f.w / f.v < hi for name, f in EDGE_FORMS.items()}
        assert [name for name in EDGE_FORMS if name.startswith("seed") and seeded[name]] == [
            "seed_above_lo",
            "seed_below_hi",
        ]
        results = {}
        for name, form in EDGE_FORMS.items():
            res = optimize_gain(form)
            results[name] = (res.kappa_opt, res.q_lb_opt)
        assert results == EDGE_RESULTS
        # the coarse maximum sits at the last node, of a 402-node and a 401-node grid
        for name in ("seed_below_hi", "seed_above_hi"):
            form = EDGE_FORMS[name]
            grid = np.sort(np.append(teleport._coarse_grid(), [form.w / form.v] * seeded[name]))
            assert np.argmax(_bounds_at_gains(form, grid)) == grid.size - 1

    def test_empty_and_all_zero_blocks(self):
        kappa, q = optimize_gains([], [], [])
        assert kappa.shape == q.shape == (0,)
        kappa, q = _search([EDGE_FORMS["product"]] * 3)
        assert kappa.tolist() == [1.0] * 3 and q.tolist() == [0.0] * 3


class TestTeleportOracle:
    def test_worked_unit_gain(self):
        out = teleport_oracle(WORKED.to_covariance(), np.eye(2), 1.0)
        assert np.allclose(out, 3.0 * np.eye(2), atol=1e-10)

    def test_worked_half_gain(self):
        out = teleport_oracle(WORKED.to_covariance(), np.eye(2), 0.5)
        assert np.allclose(out, 7.5 * np.eye(2), atol=1e-10)

    def test_product_resource_ignores_cross_block(self, rng):
        for kappa in (0.4, 1.0, 1.7):
            v_in = random_physical_state(rng).cov
            out = teleport_oracle(
                TwoModeStandardForm(5.0, 3.0, 0.0).to_covariance(), v_in, kappa
            )
            expected = kappa**2 * v_in + (3 * kappa**2 + 5) * np.eye(2)
            assert np.allclose(out, expected, atol=1e-10)

    def test_matches_induced_channel_on_random_triples(self, rng):
        worst = 0.0
        for _ in range(50):
            form = random_physical_form(rng)
            v_in = random_physical_state(rng).cov
            kappa = rng.uniform(0.05, 3.0)
            out = teleport_oracle(form.to_covariance(), v_in, kappa)
            spec = induced_channel(form, kappa).to_gaussian_channel()
            expected = spec.T @ v_in @ spec.T.T + spec.N
            worst = max(worst, float(np.max(np.abs(out - expected))))
        assert worst < 1e-8

    def test_input_validation(self):
        with pytest.raises(ValueError):
            teleport_oracle(np.eye(4), np.eye(2), -1.0)
        with pytest.raises(ValueError):
            teleport_oracle(np.eye(3), np.eye(2), 1.0)
        with pytest.raises(ValueError, match="physical"):
            teleport_oracle(0.1 * np.eye(4), np.eye(2), 1.0)
