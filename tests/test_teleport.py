import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import gausslink.teleport as teleport
from gausslink.capacity import (
    RANDOM_DISPLACEMENT,
    THERMAL_AMP,
    THERMAL_LOSS,
    _LOG_ROUNDOFF,
    _coherent_info_displacement,
    _coherent_info_loss_amp,
)
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


# The reference search: every lane scans all 402 coarse gains, 8 lanes at a
# time, and takes each bound with separate masks for the unit-gain and the
# loss/amplifier lanes; its golden section and candidate pick are those of
# `optimize_gains`, which must give its bits and take no more memory.
FULL_GRID = np.sort(np.append(np.geomspace(*teleport.GAIN_SEARCH_RANGE, teleport._COARSE_POINTS), 1.0))
LAST_CLOSED = int(np.count_nonzero(FULL_GRID**2 <= 0.5)) - 1


def _masked_bounds_at_gains(form, kappas):
    u, v, w = form.u, form.v, form.w
    k = np.asarray(kappas, dtype=float)
    noise = v * k**2 + u - 2.0 * w * k
    k = np.broadcast_to(k, noise.shape)
    out = np.zeros_like(noise)
    unit = np.abs(k - 1.0) < teleport._UNIT_GAIN_TOL
    if np.any(unit):
        sigma = noise[unit]
        good = sigma > 0
        vals = np.zeros_like(sigma)
        vals[good] = _coherent_info_displacement(sigma[good])
        out[unit] = vals
    rest = ~unit
    if np.any(rest):
        eta = k[rest] ** 2
        n_e = np.maximum(noise[rest] / (2.0 * np.abs(1.0 - eta)) - 0.5, 0.0)
        out[rest] = _coherent_info_loss_amp(eta, n_e)
    return np.maximum(out, 0.0)


def _full_grid_scan(lanes, extra):
    n = lanes.u.size
    best_q, best_k, a, b = (np.empty(n) for _ in range(4))
    last = FULL_GRID.size
    for lo in range(0, n, 8):
        part = slice(lo, lo + 8)
        rows = np.arange(extra[part].size)
        grid = np.column_stack([np.broadcast_to(FULL_GRID, (rows.size, last)), extra[part]])
        grid.sort(axis=1)
        vals = _masked_bounds_at_gains(lanes.take(part).column(), grid)
        best = np.argmax(vals, axis=1)
        best_q[part] = vals[rows, best]
        best_k[part] = grid[rows, best]
        a[part] = grid[rows, np.maximum(best - 1, 0)]
        b[part] = grid[rows, np.minimum(best + 1, last)]
    return best_q, best_k, a, b


def _masked_golden_section(lanes, a, b):
    phi, tol = teleport._PHI, teleport._GOLDEN_TOL
    x1 = b - phi * (b - a)
    x2 = a + phi * (b - a)
    f1, f2 = _masked_bounds_at_gains(lanes, x1), _masked_bounds_at_gains(lanes, x2)
    live = np.flatnonzero(b - a > tol)
    while live.size:
        up = f1[live] < f2[live]
        lu, ld = live[up], live[~up]
        a[lu], x1[lu], f1[lu] = x1[lu], x2[lu], f2[lu]
        b[ld], x2[ld], f2[ld] = x2[ld], x1[ld], f1[ld]
        x2[lu] = a[lu] + phi * (b[lu] - a[lu])
        x1[ld] = b[ld] - phi * (b[ld] - a[ld])
        probe = _masked_bounds_at_gains(lanes.take(live), np.where(up, x2[live], x1[live]))
        f2[lu], f1[ld] = probe[up], probe[~up]
        live = live[b[live] - a[live] > tol]
    return 0.5 * (a + b)


def full_grid_search(u, v, w):
    lanes = teleport._Lanes(*(np.asarray(x, dtype=float).reshape(-1) for x in (u, v, w)))
    lo, hi = teleport.GAIN_SEARCH_RANGE
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = lanes.w / lanes.v
    seeded = (lanes.v > 0) & (lo < ratio) & (ratio < hi)
    best_q, best_k, a, b = _full_grid_scan(lanes, np.where(seeded, ratio, FULL_GRID[-1]))

    kappa, q = np.ones_like(best_q), np.zeros_like(best_q)
    found = np.flatnonzero(best_q > 0.0)
    if found.size:
        sub = lanes.take(found)
        mid = _masked_golden_section(sub, a[found], b[found])
        seeds = np.where(seeded[found], ratio[found], 1.0)
        cand_k = np.column_stack([mid, np.ones_like(mid), seeds, best_k[found]])
        cand_q = _masked_bounds_at_gains(sub.column(), cand_k)
        top = cand_q.max(axis=1)
        kappa[found] = np.where(cand_q == top[:, None], cand_k, -np.inf).max(axis=1)
        q[found] = top
    return kappa, q


def _seeded_form(ratio, v):
    # w / v is exactly `ratio` for v a power of two, and u puts the form just
    # inside the physical region w^2 <= (max(u, v) + 1)(min(u, v) - 1)
    w = ratio * v
    u = w * w / (v + 1.0) + 1.0
    if u > v:
        u = w * w / (v - 1.0) - 1.0
    return TwoModeStandardForm(u * (1.0 + 1e-9), v, w)


# lanes around the last gain with kappa^2 <= 1/2 (the "closed" node, whose
# bound is 0) and the first one above it (the "open" node); each but the
# products has a positive bound, and TestPrunedScan checks each hits its case
NEAR_CLOSED_FORMS = {
    "seed_below_closed": _seeded_form(0.5, 1.0625),
    "seed_closed_side": _seeded_form(0.705, 1.0625),
    "seed_on_closed": _seeded_form(FULL_GRID[LAST_CLOSED], 1.0625),
    "best_at_seed_open_side": _seeded_form(0.715, 128.0),
    "best_at_seed_on_open": _seeded_form(FULL_GRID[LAST_CLOSED + 1], 128.0),
    "best_at_open": _seeded_form(0.72, 128.0),
    "best_at_seed_on_node": _seeded_form(FULL_GRID[LAST_CLOSED + 6], 128.0),
    "best_at_seed_one": _seeded_form(1.0, 128.0),
    "product": TwoModeStandardForm(2.0, 3.0, 0.0),
    "vacuum": TwoModeStandardForm(1.0, 1.0, 0.0),
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


class TestPrunedScan:
    def test_scanned_grid_is_the_full_grid_from_the_last_closed_node(self):
        assert LAST_CLOSED == 284
        assert np.array_equal(teleport._coarse_grid(), FULL_GRID[LAST_CLOSED:])
        assert FULL_GRID[LAST_CLOSED] ** 2 <= 0.5 < FULL_GRID[LAST_CLOSED + 1] ** 2

    @settings(max_examples=60, deadline=None)
    @given(form=physical_forms())
    def test_every_dropped_gain_reads_exactly_zero(self, form):
        closed = FULL_GRID[: LAST_CLOSED + 1]
        assert np.all(_bounds_at_gains(form, closed) == 0.0)
        assert np.all(_masked_bounds_at_gains(form, closed) == 0.0)

    def test_near_closed_lanes_hit_their_case(self):
        closed, first_open = FULL_GRID[LAST_CLOSED], FULL_GRID[LAST_CLOSED + 1]
        forms = list(NEAR_CLOSED_FORMS.values())
        lanes = teleport._Lanes(*(np.array([getattr(f, x) for f in forms]) for x in "uvw"))
        ratio = lanes.w / lanes.v
        lo, hi = teleport.GAIN_SEARCH_RANGE
        best_q, best_k, a, _ = _full_grid_scan(lanes, np.where((lo < ratio) & (ratio < hi), ratio, hi))
        case = dict(zip(NEAR_CLOSED_FORMS, zip(ratio, best_q, best_k, a)))
        for name, (seed, q, k, lower) in case.items():
            assert (q > 0.0) == (name not in ("product", "vacuum")), name
        assert case["seed_below_closed"][0] < closed
        assert closed < case["seed_closed_side"][0] < np.sqrt(0.5)
        assert case["seed_on_closed"][0] == closed
        for name in ("best_at_seed_open_side", "best_at_seed_on_open", "best_at_open"):
            assert case[name][3] == closed, name
        assert np.sqrt(0.5) < case["best_at_seed_open_side"][2] == case["best_at_seed_open_side"][0] < first_open
        assert case["best_at_seed_on_open"][2] == case["best_at_seed_on_open"][0] == first_open
        assert case["best_at_open"][2] == first_open < case["best_at_open"][0]
        assert case["best_at_seed_on_node"][2] == case["best_at_seed_on_node"][0] == FULL_GRID[LAST_CLOSED + 6]
        assert case["best_at_seed_one"][2] == case["best_at_seed_one"][0] == 1.0

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), forms=st.lists(physical_forms(), max_size=40))
    def test_search_equals_the_full_grid_search_bit_for_bit(self, data, forms):
        extra = list(EDGE_FORMS.values()) + list(NEAR_CLOSED_FORMS.values())
        lanes = data.draw(st.permutations(forms + extra))
        u, v, w = (np.array([getattr(f, x) for f in lanes]) for x in "uvw")
        kappa, q = optimize_gains(u, v, w)
        ref_kappa, ref_q = full_grid_search(u, v, w)
        assert kappa.tobytes() == ref_kappa.tobytes()
        assert q.tobytes() == ref_q.tobytes()

    def test_search_equals_the_full_grid_search_on_random_lanes(self, rng):
        n = 3000
        low = rng.uniform(1.0, 30.0, n)
        high = rng.uniform(low, 300.0)
        flip = rng.random(n) < 0.5
        reach = 1.0 - 10.0 ** rng.uniform(-6.0, 0.0, n)
        u, v = np.where(flip, high, low), np.where(flip, low, high)
        w = reach * np.sqrt((high + 1.0) * (low - 1.0))
        kappa, q = optimize_gains(u, v, w)
        ref_kappa, ref_q = full_grid_search(u, v, w)
        assert np.count_nonzero(q > 0.0) > n // 10
        assert kappa.tobytes() == ref_kappa.tobytes()
        assert q.tobytes() == ref_q.tobytes()

    @pytest.mark.parametrize("n", [100, 10_000])
    def test_search_memory_peak_is_not_above_the_full_grid_search(self, n):
        # tracemalloc peaks with numpy 2.4 on CPython 3.11: the full-grid
        # search 354,156 B at 100 lanes and 1,576,424 B at 10,000 lanes, the
        # pruned one 296,584 B and 1,566,416 B.  Coarse-scan chunks of twice
        # the element budget raise the pruned peak above the full-grid one at
        # 100 lanes.
        rng = np.random.default_rng(7)
        low = rng.uniform(1.0, 30.0, n)
        high = rng.uniform(low, 300.0)
        flip = rng.random(n) < 0.5
        reach = 1.0 - 10.0 ** rng.uniform(-6.0, 0.0, n)
        lanes = (np.where(flip, high, low), np.where(flip, low, high),
                 reach * np.sqrt((high + 1.0) * (low - 1.0)))
        peaks = []
        for search in (full_grid_search, optimize_gains):
            search(*lanes)
            tracemalloc.start()
            try:
                search(*lanes)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0]


def _ulps(x, n):
    # n representable steps from x, up for n > 0 and down for n < 0
    for _ in range(abs(n)):
        x = np.nextafter(x, np.inf if n > 0 else -np.inf)
    return float(x)


def _bits_unwarned(form, kappas):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with np.errstate(all="raise"):
            return _bounds_at_gains(form, kappas).tobytes()


class TestBoundKernel:
    """`_bounds_at_gains` against the masked reference on the edge lanes of its
    arithmetic: bit for bit, with no floating-point warning or error escaping."""

    # gains at and around the unit-gain window |kappa - 1| < 1e-9
    UNIT_GAINS = [1.0, _ulps(1.0, 1), _ulps(1.0, -1), 1.0 + 1e-12, 1.0 - 1e-12,
                  1.0 + 1e-10, 1.0 - 1e-10, 1.0 + 9.99e-10, 1.0 - 9.99e-10,
                  1.0 + 1e-9, 1.0 - 1e-9, 1.0 + 1.01e-9, 1.0 - 1.01e-9, 1.0 + 2e-9, 0.5, 2.0]

    def test_gains_around_unit_gain(self):
        k = np.array(self.UNIT_GAINS)
        unit = np.abs(k - 1.0) < teleport._UNIT_GAIN_TOL
        assert 0 < np.count_nonzero(unit) < k.size
        for form in (WORKED, EDGE_FORMS["unit_gain_optimum"], EDGE_FORMS["product"]):
            assert _bits_unwarned(form, k) == _masked_bounds_at_gains(form, k).tobytes()
        # a unit-gain lane whose Duan variance is not positive reads 0
        bad = teleport._Lanes(1.0, 1.0, 1.0)
        assert _bits_unwarned(bad, k) == _masked_bounds_at_gains(bad, k).tobytes()
        assert not _bounds_at_gains(bad, k)[unit].any()

    def test_occupation_at_and_below_zero(self):
        # (1, 1, 3/4) at kappa = 3/4 and (1, 1, 1/2) at kappa = 2 give n_e = 0
        # exactly, every step being exact in binary; a w one ulp above gives
        # n_e just below 0
        forms = teleport._Lanes(np.ones(4), np.ones(4),
                                np.array([0.75, _ulps(0.75, 1), 0.5, _ulps(0.5, 1)]))
        k = np.array([0.75, 0.75, 2.0, 2.0])
        eta = k * k
        n_e = (forms.v * eta + forms.u - 2.0 * forms.w * k) / (2.0 * np.abs(1.0 - eta)) - 0.5
        assert n_e[0] == n_e[2] == 0.0 and n_e[1] < 0.0 and n_e[3] < 0.0
        bits = _bits_unwarned(forms, k)
        assert bits == _masked_bounds_at_gains(forms, k).tobytes()
        assert np.array_equal(np.frombuffer(bits), np.log2(eta / np.abs(1.0 - eta)))

    def test_transmissivity_ulps_from_half(self):
        # the pure form (3, 3, 2 sqrt 2) has n_e = 0 at kappa^2 = 1/2, so the
        # zeroed round-off of the log term is all there is to the bound there
        form = TwoModeStandardForm(3.0, 3.0, 2.0 * np.sqrt(2.0))
        k = np.array([_ulps(np.sqrt(0.5), n) for n in range(-8, 9)])
        eta = k * k
        log_term = np.log2(eta / np.abs(1.0 - eta))
        n_e = (form.v * eta + form.u - 2.0 * form.w * k) / (2.0 * np.abs(1.0 - eta)) - 0.5
        zeroed = (log_term > 0.0) & (log_term < _LOG_ROUNDOFF) & (n_e <= 0.0)
        assert zeroed.any()
        bits = _bits_unwarned(form, k)
        assert bits == _masked_bounds_at_gains(form, k).tobytes()
        assert not np.frombuffer(bits)[zeroed].any()

    def test_lane_and_gain_shapes(self, rng):
        forms = [random_physical_form(rng) for _ in range(6)] + list(EDGE_FORMS.values())
        lanes = teleport._Lanes(*(np.array([getattr(f, x) for f in forms]) for x in "uvw"))
        gains = np.concatenate([self.UNIT_GAINS, [_ulps(np.sqrt(0.5), 1), 0.75, 9.5]])
        # (m, 1) lanes against (m, k) gains, as the coarse scan and the candidates
        grid = np.broadcast_to(gains, (len(forms), gains.size)).copy()
        grid[:, ::2] = grid[:, ::2][::-1]
        assert _bits_unwarned(lanes.column(), grid) == \
            _masked_bounds_at_gains(lanes.column(), grid).tobytes()
        # one gain per lane, as the golden section
        one = grid[:, 3]
        assert _bits_unwarned(lanes, one) == _masked_bounds_at_gains(lanes, one).tobytes()
        # a scalar form against 1-D gains, and (m, 1) lanes against one shared 1-D grid
        for form in forms:
            assert _bits_unwarned(form, gains) == _masked_bounds_at_gains(form, gains).tobytes()
        assert _bits_unwarned(lanes.column(), gains) == \
            _masked_bounds_at_gains(lanes.column(), gains).tobytes()

    def test_loss_amp_kernel_raises_under_the_callers_state(self):
        # a sweep evaluates the kernel with numpy raising on these errors: n_e = 0
        # takes no log of 0, and a division by 1 - eta = 0 is not hidden
        eta, n_e = np.array([0.75, 4.0]), np.zeros(2)
        with np.errstate(divide="raise", invalid="raise"):
            assert np.array_equal(_coherent_info_loss_amp(eta, n_e), np.log2(eta / np.abs(1.0 - eta)))
            with pytest.raises(FloatingPointError):
                _coherent_info_loss_amp(np.array([1.0]), np.zeros(1))


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
