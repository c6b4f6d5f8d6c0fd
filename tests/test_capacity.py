import math
import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gausslink import capacity
from gausslink.capacity import (
    _ABS_TOL,
    _CHUNK_NODES,
    _GROUP_ELEMENTS,
    BosonicChannelKind,
    _even,
    coherent_info_displacement,
    coherent_info_loss_amp,
    dqt_capacity_boundary,
    g_function,
    _nested_trapezoids,
    integrate_spectrum,
    q_lb_displacement,
    q_lb_loss_amp,
)
from gausslink.entanglement import entanglement_rate
from gausslink.teleport import _bounds_at_gains, induced_channel
from gausslink.transducer import TransducerParams, TwoModeStandardForm, mo_standard_form_spectra


class TestGFunction:
    def test_zero_limit(self):
        assert g_function(0.0) == 0.0

    def test_one(self):
        assert g_function(1.0) == pytest.approx(2.0, abs=1e-12)

    def test_half(self):
        expected = 1.5 * np.log2(1.5) - 0.5 * np.log2(0.5)
        assert g_function(0.5) == pytest.approx(expected, abs=1e-12)
        assert g_function(0.5) == pytest.approx(1.37744, abs=1e-5)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            g_function(-0.1)

    def test_increasing_and_concave(self):
        xs = np.linspace(1e-3, 8.0, 200)
        h = 1e-4
        first = [(g_function(x + h) - g_function(x - h)) / (2 * h) for x in xs]
        second = [
            (g_function(x + h) - 2 * g_function(x) + g_function(x - h)) / h**2
            for x in xs
        ]
        assert all(d > 0 for d in first)
        assert all(d2 < 0 for d2 in second)


class TestLossAmpBound:
    def test_threshold(self):
        assert q_lb_loss_amp(0.5, 0.0) == 0.0

    def test_two_thirds(self):
        assert q_lb_loss_amp(2.0 / 3.0, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_teleportation_point(self):
        assert q_lb_loss_amp(16.0 / 9.0, 1.0 / 7.0) == pytest.approx(4.0 / 7.0, abs=1e-12)
        assert q_lb_loss_amp(16.0 / 9.0, 1.0 / 7.0) == pytest.approx(0.571, abs=1e-3)

    def test_unit_eta_rejected(self):
        with pytest.raises(ValueError):
            q_lb_loss_amp(1.0, 0.0)

    def test_zero_transmission_has_zero_capacity(self):
        assert q_lb_loss_amp(0.0, 0.0) == 0.0
        assert q_lb_loss_amp(0.0, 2.5) == 0.0
        with pytest.raises(ValueError):
            q_lb_loss_amp(0.0, -1.0)
        with pytest.raises(ValueError):
            coherent_info_loss_amp(0.0, 0.0)

    def test_zero_below_half_for_any_noise(self, rng):
        for eta in rng.uniform(0.01, 0.5, 20):
            for n_e in rng.uniform(0.0, 3.0, 5):
                assert q_lb_loss_amp(eta, n_e) == 0.0

    def test_monotonicity(self):
        etas = np.linspace(0.55, 0.99, 40)
        vals = [q_lb_loss_amp(e, 0.05) for e in etas]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        noises = np.linspace(0.0, 1.0, 40)
        vals = [coherent_info_loss_amp(0.9, n) for n in noises]
        assert all(b <= a for a, b in zip(vals, vals[1:]))


class TestDisplacementBound:
    def test_threshold(self):
        assert q_lb_displacement(2.0 / np.e) == 0.0

    def test_one_bit(self):
        assert q_lb_displacement(1.0 / np.e) == pytest.approx(1.0, abs=1e-12)

    def test_worked_duan_value(self):
        assert q_lb_displacement(2.0) == 0.0

    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError):
            q_lb_displacement(0.0)

    def test_positive_iff_below_threshold(self, rng):
        for s in rng.uniform(0.01, 3.0, 100):
            assert (q_lb_displacement(s) > 0) == (s < 2.0 / np.e)


class TestNonfiniteInputsRejected:
    # g_function(inf) read nan and g_function(nan) 0.0, and
    # coherent_info_loss_amp(0.7, nan) 1.2224, before the scalar entries checked
    @pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
    def test_g_function(self, x):
        with pytest.raises(ValueError, match="x must be finite"):
            g_function(x)

    @pytest.mark.parametrize("bound", [coherent_info_loss_amp, q_lb_loss_amp])
    @pytest.mark.parametrize("eta, n_e, name", [
        (0.7, math.nan, "n_e"),
        (0.7, math.inf, "n_e"),
        (0.3, math.inf, "n_e"),
        (math.nan, 0.0, "eta"),
        (math.inf, 0.0, "eta"),
        (math.nan, math.nan, "eta"),
    ])
    def test_loss_amp_bounds(self, bound, eta, n_e, name):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            bound(eta, n_e)

    @pytest.mark.parametrize("bound", [coherent_info_displacement, q_lb_displacement])
    @pytest.mark.parametrize("sigma_sq", [math.inf, math.nan])
    def test_displacement_bounds(self, bound, sigma_sq):
        with pytest.raises(ValueError, match="sigma_sq must be finite"):
            bound(sigma_sq)

    @pytest.mark.parametrize("kind, eta", [
        ("thermal_loss", 0.5),
        ("thermal_amplification", 2.0),
        ("random_displacement", 1.0),
    ])
    @pytest.mark.parametrize("bad, name", [
        ((math.nan, None), "eta"),
        ((math.inf, None), "eta"),
        ((-math.inf, None), "eta"),
        ((None, math.nan), "noise"),
        ((None, math.inf), "noise"),
        ((math.nan, math.nan), "eta"),
    ])
    def test_channel_kinds(self, kind, eta, bad, name):
        # nan failed every comparison of the checks, so nan and inf constructed
        eta_bad, noise_bad = bad
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            BosonicChannelKind(kind, eta if eta_bad is None else eta_bad,
                               0.5 if noise_bad is None else noise_bad)
        assert BosonicChannelKind(kind, eta, 0.5).noise == 0.5

    def test_finite_inputs_keep_their_values(self):
        assert g_function(np.float64(0.5)) == g_function(0.5) > 0.0
        assert coherent_info_loss_amp(0.7, 0.0) == float(np.log2(0.7 / abs(1.0 - 0.7)))
        assert q_lb_loss_amp(0.3, 1e300) == 0.0
        assert coherent_info_displacement(1e-300) > 0.0


class TestBoundary:
    def test_ideal_value(self):
        assert dqt_capacity_boundary(1.0, 1.0) == pytest.approx(
            1.0 / (2 * np.sqrt(2) - 2) ** 2, abs=1e-15
        )
        assert dqt_capacity_boundary(1.0, 1.0) == pytest.approx(1.4571067811865, abs=1e-9)

    def test_half_product_is_infinite(self):
        assert math.isinf(dqt_capacity_boundary(0.5, 1.0))
        assert math.isinf(dqt_capacity_boundary(0.7, 0.5))

    def test_decreasing_in_extraction(self):
        zetas = np.linspace(0.72, 1.0, 30)
        vals = [dqt_capacity_boundary(z, 1.0) for z in zetas]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(ValueError):
            dqt_capacity_boundary(0.0, 1.0)
        with pytest.raises(ValueError):
            dqt_capacity_boundary(1.0, 1.5)


class TestChannelKind:
    def test_loss_to_gaussian_channel(self):
        spec = BosonicChannelKind("thermal_loss", 0.25, 0.5).to_gaussian_channel()
        assert np.allclose(spec.T, 0.5 * np.eye(2))
        assert np.allclose(spec.N, 0.75 * 2.0 * np.eye(2))

    def test_bound_dispatch(self):
        # the gain search takes each gain's bound by the kind of channel it induces
        form = TwoModeStandardForm(np.cosh(2.0), np.cosh(2.0), np.sinh(2.0))
        kappas = np.array([0.9, 1.0, 1.2])
        kinds, expected = [], []
        for kappa in kappas:
            ch = induced_channel(form, kappa)
            kinds.append(ch.kind)
            if ch.kind == "random_displacement":
                expected.append(q_lb_displacement(ch.noise))
            else:
                expected.append(q_lb_loss_amp(ch.eta, ch.noise))
        assert kinds == ["thermal_loss", "random_displacement", "thermal_amplification"]
        assert min(expected) > 0
        assert _bounds_at_gains(form, kappas) == pytest.approx(expected, rel=1e-12)

    def test_kind_eta_consistency(self):
        with pytest.raises(ValueError):
            BosonicChannelKind("thermal_loss", 1.5, 0.0)
        with pytest.raises(ValueError):
            BosonicChannelKind("thermal_amplification", 0.5, 0.0)
        with pytest.raises(ValueError):
            BosonicChannelKind("random_displacement", 1.5, 1.0)
        with pytest.raises(ValueError):
            BosonicChannelKind("squeeze", 1.0, 0.0)


def _full_grid_doubling(fn, omega_max):
    """The trapezoid before node reuse: each pass evaluates fn on its whole grid."""
    n = capacity._INITIAL_POINTS
    prev = None
    for _ in range(capacity._MAX_DOUBLINGS + 1):
        omegas = np.linspace(-omega_max, omega_max, n)
        total = float(np.trapezoid(fn(omegas), omegas))
        if prev is not None and abs(total - prev) <= max(
            capacity._REL_TOL * abs(total), _ABS_TOL
        ):
            return total
        prev = total
        n = 2 * n - 1
    raise AssertionError("oracle did not converge")


_EARLIER_CHUNK_NODES = 2**14


def _earlier_chunked(fn, omegas: np.ndarray) -> np.ndarray:
    return np.concatenate(
        [fn(omegas[lo : lo + _EARLIER_CHUNK_NODES]) for lo in range(0, omegas.size, _EARLIER_CHUNK_NODES)]
    )


def earlier_integrate_spectrum(fn, omega_max):
    """The 1-D nested trapezoid that preceded the lane-valued one, with the
    policy read from the capacity constants at call time."""
    n = capacity._INITIAL_POINTS
    omegas = np.linspace(-omega_max, omega_max, n)
    values = _earlier_chunked(fn, omegas)
    total = float(np.trapezoid(values, omegas))
    change = math.inf
    for _ in range(capacity._MAX_DOUBLINGS):
        n = 2 * n - 1
        omegas = np.linspace(-omega_max, omega_max, n)
        finer = np.empty(n)
        finer[::2] = values
        finer[1::2] = _earlier_chunked(fn, omegas[1::2])
        values, prev = finer, total
        total = float(np.trapezoid(values, omegas))
        change = abs(total - prev)
        if change <= max(capacity._REL_TOL * abs(total), _ABS_TOL):
            return total
    raise ValueError(f"frequency integral not converged on {n} nodes: "
                     f"last change {change:.3e} on a total of {total:.3e}")


def _same_bits(got, expected) -> bool:
    got, expected = np.asarray(got), np.asarray(expected)
    return np.array_equal(got, expected) and np.array_equal(np.signbit(got), np.signbit(expected))


def _lorentzians(height, center, width):
    """Lane-valued Lorentzians, and the one-lane function of each lane."""
    height, center, width = (np.array(x, dtype=float) for x in (height, center, width))

    def lanes(rows, omegas):
        return height[rows, None] / (1.0 + ((omegas - center[rows, None]) / width[rows, None]) ** 2)

    def lane(i):
        return lambda omegas: height[i] / (1.0 + ((omegas - center[i]) / width[i]) ** 2)

    return lanes, [lane(i) for i in range(height.size)]


def _recorded(fn):
    """fn, and the (rows, nodes) of each of its calls."""
    calls = []

    def recording(rows, omegas):
        calls.append((rows.copy(), omegas.copy()))
        return fn(rows, omegas)

    return recording, calls


def _oracle(fns, omega_max) -> list:
    """Each lane's earlier 1-D integral, or the message it raised."""
    out = []
    for fn in fns:
        try:
            out.append(earlier_integrate_spectrum(fn, omega_max))
        except ValueError as exc:
            out.append(str(exc))
    return out


def _blue(c_om, c_em, zo=1.0, ze=1.0, n_th=0.0):
    return TransducerParams.from_cooperativities(c_om, c_em, zo, ze, n_th, "blue")


class TestIntegrateSpectrum:
    @settings(max_examples=200, deadline=None)
    @given(
        half_width=st.floats(1e-3, 1e4, allow_subnormal=False),
        n=st.integers(2, 5000),
    )
    def test_coarse_grid_is_every_other_fine_node(self, half_width, n):
        fine = np.linspace(-half_width, half_width, 2 * n - 1)
        assert np.array_equal(fine[::2], np.linspace(-half_width, half_width, n))

    @pytest.mark.parametrize(
        "fn, omega_max",
        [
            (lambda om: 1.0 / (1.0 + (om / 0.05) ** 2), 10.0),
            (lambda om: mo_standard_form_spectra(_blue(2.0, 3.0, 0.8, 0.9, 0.3), om)[0] - 1.0, 37.0),
            (lambda om: mo_standard_form_spectra(_blue(9.0, 10.0), om)[2], 10.0),
            (lambda om: np.abs(np.sin(3.0 * om)), 10.0),
        ],
        ids=["narrow-lorentzian", "source-u", "near-threshold-w", "kinked"],
    )
    def test_matches_full_grid_doubling(self, fn, omega_max):
        assert integrate_spectrum(fn, omega_max) == _full_grid_doubling(fn, omega_max)

    def test_each_node_evaluated_once(self):
        seen = []

        def gaussian(omegas):
            seen.append(omegas.copy())
            return np.exp(-(omegas**2))

        integrate_spectrum(gaussian, 10.0)
        # no lane stops on the first level: one call covers the second
        assert [len(x) for x in seen] == [513]
        nodes = np.sort(np.concatenate(seen))
        assert np.array_equal(nodes, np.linspace(-10.0, 10.0, 513))

    def test_capped_integral_evaluates_in_bounded_chunks(self, monkeypatch):
        # eight doublings of 257 nodes reach 65,537 nodes, whose last 32,768
        # midpoints would otherwise go to fn in one call
        sizes = []

        def recording(omegas):
            sizes.append(omegas.size)
            return omegas**2

        monkeypatch.setattr(capacity, "_REL_TOL", 0.0)
        monkeypatch.setattr(capacity, "_MAX_DOUBLINGS", 8)
        with pytest.raises(ValueError, match="not converged on 65537 nodes"):
            integrate_spectrum(recording, 1.0)
        assert max(sizes) == _CHUNK_NODES
        assert sum(sizes) == 65537
        assert sizes[-2:] == [_CHUNK_NODES, _CHUNK_NODES]

    def test_chunking_changes_no_total(self):
        # a Lorentzian of width 1e-4 on [-1, 1] converges on 131,073 nodes,
        # with its last three doublings in chunks
        fn = lambda om: 1.0 / (1.0 + (om / 1e-4) ** 2)  # noqa: E731
        assert integrate_spectrum(fn, 1.0) == _full_grid_doubling(fn, 1.0)

    def test_capped_integral_raises(self, monkeypatch):
        monkeypatch.setattr(capacity, "_REL_TOL", 0.0)
        monkeypatch.setattr(capacity, "_MAX_DOUBLINGS", 2)
        with pytest.raises(ValueError, match="not converged on 1025 nodes"):
            integrate_spectrum(lambda om: om**2, 1.0)

    @pytest.mark.parametrize(
        "fn, omega_max",
        [
            (lambda om: 1.0 / (1.0 + (om / 0.05) ** 2), 10.0),
            (lambda om: 1.0 / (1.0 + (om / 1e-4) ** 2), 1.0),
            (lambda om: -0.0 * om, 1.0),
        ],
        ids=["narrow-lorentzian", "chunked-lorentzian", "negative-zero"],
    )
    def test_equals_the_earlier_integral(self, fn, omega_max):
        expected = earlier_integrate_spectrum(fn, omega_max)
        assert _same_bits(integrate_spectrum(fn, omega_max), expected)

    def test_separability_boundary_converges(self, monkeypatch):
        # fig5b at C_om = 0.1, C_em = 10, tau = 1/2: the swapped state sits on
        # the separability boundary and E_F(omega) is round-off noise, which a
        # relative-only stop test doubled to 1,048,577 nodes (about 25 s and
        # several GB) before returning it unflagged
        p = _blue(0.1, 10.0)
        start = time.perf_counter()
        rate = entanglement_rate(p, 0.5)
        assert time.perf_counter() - start < 1.0
        assert 0.0 <= rate < 1e-12
        monkeypatch.setattr(capacity, "_MAX_DOUBLINGS", 1)
        assert entanglement_rate(p, 0.5) == rate


class TestNestedTrapezoids:
    """The lane-valued trapezoid against the earlier 1-D one, lane by lane."""

    @settings(max_examples=40, deadline=None)
    @given(
        lanes=st.lists(
            st.tuples(
                st.one_of(st.sampled_from([0.0, -0.0, 1.0]), st.floats(-2.0, 2.0)),
                st.floats(-0.5, 0.5),
                st.floats(2e-3, 1.0),
            ),
            min_size=1,
            max_size=40,
        ),
        max_doublings=st.sampled_from([1, 3, 12]),
    )
    def test_lanes_equal_the_earlier_integrals(self, lanes, max_doublings):
        # per-lane widths stop the lanes at different doublings, and with few
        # doublings the narrow ones run out of them
        # (a function-scoped monkeypatch fixture fails hypothesis's health check)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(capacity, "_MAX_DOUBLINGS", max_doublings)
            fn, fns = _lorentzians(*zip(*lanes))
            expected = _oracle(fns, 1.0)
            errors = [e for e in expected if isinstance(e, str)]
            if errors:  # the lowest failing lane raises
                with pytest.raises(ValueError, match=re.escape(errors[0])):
                    _nested_trapezoids(fn, len(lanes), 1.0)
                return
            assert _same_bits(_nested_trapezoids(fn, len(lanes), 1.0), expected)

    def test_lowest_failing_lane_raises(self, monkeypatch):
        # lanes 1-9 run out of doublings with different totals; they span two
        # lane groups, and the first group splits before its last doubling
        monkeypatch.setattr(capacity, "_MAX_DOUBLINGS", 2)
        width = np.concatenate([[0.5], np.geomspace(1e-3, 3e-3, 9)])
        fn, fns = _lorentzians(np.ones(10), np.zeros(10), width)
        expected = _oracle(fns, 1.0)
        assert [isinstance(e, str) for e in expected] == [False] + [True] * 9
        assert len(set(expected[1:])) == 9
        with pytest.raises(ValueError, match=re.escape(expected[1])):
            _nested_trapezoids(fn, 10, 1.0)

    @pytest.mark.parametrize("lanes", [1, 100])
    def test_calls_stay_within_the_element_cap(self, lanes):
        # a Lorentzian of width 1e-4 on [-1, 1] converges on 131,073 nodes,
        # whose last 65,536 midpoints exceed the node cap even for one lane;
        # a call gets all lanes of a group, which hold at most the group budget
        fn, fns = _lorentzians(np.ones(lanes), np.zeros(lanes), np.full(lanes, 1e-4))
        recording, calls = _recorded(fn)
        totals = _nested_trapezoids(recording, lanes, 1.0)
        assert _same_bits(totals, [earlier_integrate_spectrum(fns[0], 1.0)] * lanes)
        assert max(omegas.size for _, omegas in calls) == _CHUNK_NODES
        sizes = [rows.size * omegas.size for rows, omegas in calls]
        assert max(sizes) <= _GROUP_ELEMENTS
        assert sum(sizes) == lanes * 131073

    def test_each_node_is_evaluated_once_per_lane(self):
        # 100 lanes of widths from 1e-3 to 1 stop at different doublings
        width = np.geomspace(1e-3, 1.0, 100)
        fn, fns = _lorentzians(np.ones(100), np.zeros(100), width)
        recording, calls = _recorded(fn)
        totals = _nested_trapezoids(recording, 100, 1.0)
        nodes = [[] for _ in range(100)]
        for rows, omegas in calls:
            for i in rows.tolist():
                nodes[i].append(omegas)
        depths = set()
        for i, seen in enumerate(nodes):
            seen = np.sort(np.concatenate(seen))
            assert np.array_equal(seen, np.linspace(-1.0, 1.0, seen.size))
            alone = []
            assert earlier_integrate_spectrum(
                lambda om, f=fns[i]: alone.append(om.size) or f(om), 1.0
            ) == totals[i]
            assert seen.size == sum(alone)
            depths.add(seen.size)
        assert len(depths) > 3

    def test_a_row_of_lanes_shares_each_level(self, monkeypatch):
        # 30 lanes that all converge on 513 nodes, as the tau lanes of a fig5b
        # row do, go up as one group: one integrand call on the 513 nodes, and
        # two trapezoids, one per level, the first on the even-indexed values
        width = np.geomspace(0.02, 0.1, 30)
        fn, fns = _lorentzians(np.ones(30), np.zeros(30), width)
        assert all(30 * n <= _GROUP_ELEMENTS for n in (257, 513))
        fn, calls = _recorded(fn)
        recording, trapezoids = _recorded(np.trapezoid)
        monkeypatch.setattr(np, "trapezoid", recording)
        totals = _nested_trapezoids(fn, 30, 1.0)
        monkeypatch.undo()
        assert [(rows.size, omegas.size) for rows, omegas in calls] == [(30, 513)]
        assert [values.shape for values, _ in trapezoids] == [(30, 257), (30, 513)]
        assert _same_bits(totals, [earlier_integrate_spectrum(f, 1.0) for f in fns])

    @pytest.mark.parametrize("lanes", [30, 1000])
    def test_memory_follows_the_group_budget(self, lanes):
        # every lane of a Lorentzian of width 1e-4 on [-1, 1] runs to 131,073
        # nodes.  Below the deepest level, the lane groups waiting on the stack
        # hold at most _GROUP_ELEMENTS values per level; at it, one lane alone
        # holds its nodes, their spacings, its finer and coarser values and
        # one temporary of the trapezoid.  The bound holds at any lane count.
        deepest = 131073
        fn, _ = _lorentzians(np.ones(lanes), np.zeros(lanes), np.full(lanes, 1e-4))
        held = 5 * max(deepest, _GROUP_ELEMENTS) + capacity._MAX_DOUBLINGS * _GROUP_ELEMENTS
        tracemalloc.start()
        try:
            totals = _nested_trapezoids(fn, lanes, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.unique(totals).size == 1
        assert peak < 8 * held


_DEEP_MIDPOINTS = np.linspace(-1.0, 1.0, 8193)[1::2]
# node arrays, and whether each is its own mirror image
_MIRROR_CASES = {
    "odd": (np.linspace(-10.0, 10.0, 257), True),
    "even": (np.linspace(-17.0, 17.0, 513)[1::2], True),
    "odd-W1.23": (np.linspace(-1.23, 1.23, 257), False),
    "even-W1.23": (np.linspace(-1.23, 1.23, 513)[1::2], False),
    "negative-chunk": (_DEEP_MIDPOINTS[:_CHUNK_NODES], False),
    "positive-chunk": (_DEEP_MIDPOINTS[_CHUNK_NODES:], False),
}


class TestEven:
    """The half-node evaluation of even integrands against the whole one."""

    @pytest.mark.parametrize("omegas, halved", _MIRROR_CASES.values(), ids=_MIRROR_CASES.keys())
    def test_equals_the_whole_evaluation(self, omegas, halved):
        h = omegas.size // 2
        assert bool(np.array_equal(omegas[:h], -omegas[::-1][:h])) == halved
        seen = omegas[h:] if halved else omegas
        lanes, _ = _lorentzians([1.0, 0.5, 2.0], np.zeros(3), [0.3, 1e-4, 5.0])
        rows = np.array([2, 0, 1])
        recording, calls = _recorded(lanes)
        got = _even(recording)(rows, omegas)
        assert got.shape == (3, omegas.size)
        assert got.tobytes() == lanes(rows, omegas).tobytes()
        assert [x.tobytes() for x in calls[0]] == [rows.tobytes(), seen.tobytes()]
        one = []
        fn = lambda om: one.append(om.copy()) or 1.0 / (1.0 + (om / 0.3) ** 2)  # noqa: E731
        got = _even(fn)(omegas)
        assert got.shape == omegas.shape
        assert got.tobytes() == fn(omegas).tobytes()
        assert one[0].tobytes() == seen.tobytes()

    def test_deep_chunked_lanes_keep_their_totals(self):
        # a Lorentzian of width 1e-4 on [-1, 1] converges on 131,073 nodes: its
        # levels up to 4,097 nodes are mirror images and evaluated by halves,
        # the first two levels' 513 nodes in one call, and the 2,048-node chunks
        # of the deeper ones are one-sided and whole
        lanes, _ = _lorentzians([1.0, 3.0], np.zeros(2), [1e-4, 2e-4])
        recording, calls = _recorded(lanes)
        totals = _nested_trapezoids(_even(recording), 2, 1.0)
        assert totals.tobytes() == _nested_trapezoids(lanes, 2, 1.0).tobytes()
        sizes = [omegas.size for _, omegas in calls]
        assert sizes[:4] == [257, 256, 512, 1024]
        assert set(sizes[4:]) == {_CHUNK_NODES}
