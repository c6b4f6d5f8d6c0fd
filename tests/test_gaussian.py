import numpy as np
import pytest

from gausslink.gaussian import (
    GaussianChannelSpec,
    GaussianState,
    apply_channel,
    extract_modes,
    general_dyne_condition,
    symplectic_eigenvalues,
    symplectic_form,
    tensor,
    two_mode_squeezed,
    vacuum_state,
)
from gausslink.selftest import random_physical_state

Z2 = np.diag([1.0, -1.0])


def _thermal(nbar):
    """Single-mode thermal state, cov (2 nbar + 1) I."""
    return GaussianState(1, np.zeros(2), (2.0 * nbar + 1.0) * np.eye(2))


def _pair(u, v, w):
    """Two-mode state with covariance blocks u I, v I and w Z."""
    return GaussianState(2, np.zeros(4), np.block([[u * np.eye(2), w * Z2], [w * Z2, v * np.eye(2)]]))


class TestSymplecticForm:
    def test_single_mode(self):
        assert np.array_equal(symplectic_form(1), [[0, 1], [-1, 0]])

    def test_two_modes_direct_sum(self):
        omega = symplectic_form(2)
        expected = np.zeros((4, 4))
        expected[:2, :2] = [[0, 1], [-1, 0]]
        expected[2:, 2:] = [[0, 1], [-1, 0]]
        assert np.array_equal(omega, expected)

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_orthogonality_and_square(self, n):
        omega = symplectic_form(n)
        assert np.allclose(omega @ omega.T, np.eye(2 * n))
        assert np.allclose(omega @ omega, -np.eye(2 * n))
        assert np.allclose(omega.T, -omega)

    def test_zero_modes_rejected(self):
        with pytest.raises(ValueError):
            symplectic_form(0)


class TestGaussianState:
    def test_vacuum(self):
        vac = vacuum_state(2)
        assert np.array_equal(vac.cov, np.eye(4))
        assert np.array_equal(vac.mean, np.zeros(4))

    def test_arrays_are_read_only(self):
        vac = vacuum_state(1)
        with pytest.raises(ValueError):
            vac.cov[0, 0] = 5.0

    def test_asymmetric_cov_rejected(self):
        cov = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            GaussianState(1, np.zeros(2), cov)

    def test_unphysical_cov_rejected(self):
        with pytest.raises(ValueError, match="physical"):
            GaussianState(1, np.zeros(2), 0.1 * np.eye(2))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            GaussianState(2, np.zeros(2), np.eye(4))


class TestApplyChannel:
    def test_identity_channel(self):
        ch = GaussianChannelSpec(T=np.eye(2), N=np.zeros((2, 2)))
        out = apply_channel(vacuum_state(1), ch)
        assert np.allclose(out.cov, np.eye(2))

    def test_pure_loss_preserves_vacuum(self):
        eta = 0.5
        ch = GaussianChannelSpec(T=np.sqrt(eta) * np.eye(2), N=(1 - eta) * np.eye(2))
        out = apply_channel(vacuum_state(1), ch)
        assert np.allclose(out.cov, np.eye(2))

    def test_thermal_fixed_point(self):
        # loss channel with n_e = 1 keeps the matching thermal state in place
        eta = 0.5
        ch = GaussianChannelSpec(
            T=np.sqrt(eta) * np.eye(2), N=(1 - eta) * (2 * 1 + 1) * np.eye(2)
        )
        out = apply_channel(_thermal(1.0), ch)
        assert np.allclose(out.cov, 3.0 * np.eye(2))

    def test_displacement_moves_mean(self):
        ch = GaussianChannelSpec(T=np.eye(2), N=np.zeros((2, 2)), d=[1.0, -2.0])
        out = apply_channel(vacuum_state(1), ch)
        assert np.allclose(out.mean, [1.0, -2.0])

    def test_dimension_mismatch(self):
        ch = GaussianChannelSpec(T=np.eye(2), N=np.zeros((2, 2)))
        with pytest.raises(ValueError, match="modes"):
            apply_channel(vacuum_state(2), ch)


class TestTensorExtract:
    def test_vacuum_tensor_vacuum(self):
        assert np.array_equal(tensor(vacuum_state(1), vacuum_state(1)).cov, np.eye(4))

    def test_block_diagonal_variances(self):
        a = _thermal(1.0)  # cov 3 I
        b = _thermal(2.0)  # cov 5 I
        out = tensor(a, b)
        assert np.allclose(np.diag(out.cov), [3, 3, 5, 5])

    def test_tensor_extract_round_trip(self, rng):
        a = random_physical_state(rng, 2)
        b = random_physical_state(rng, 1)
        joint = tensor(a, b)
        back = extract_modes(joint, [0, 1])
        assert np.allclose(back.cov, a.cov)
        assert np.allclose(back.mean, a.mean)

    def test_extract_vacuum_from_product(self):
        joint = tensor(vacuum_state(1), _thermal(3.0))
        assert np.allclose(extract_modes(joint, [0]).cov, np.eye(2))

    def test_extract_tmsv_mode_is_thermal(self):
        r = 0.7
        reduced = extract_modes(two_mode_squeezed(r), [1])
        assert np.allclose(reduced.cov, np.cosh(2 * r) * np.eye(2))

    def test_extract_errors(self):
        vac = vacuum_state(2)
        with pytest.raises(ValueError, match="out of range"):
            extract_modes(vac, [2])
        with pytest.raises(ValueError, match="distinct"):
            extract_modes(vac, [0, 0])


class TestGeneralDyne:
    def test_zero_outcome_zero_mean(self, rng):
        state = tensor(random_physical_state(rng, 1), random_physical_state(rng, 1))
        state = GaussianState(2, np.zeros(4), state.cov)
        cond, _ = general_dyne_condition(state, [1], np.eye(2), np.zeros(2))
        assert np.allclose(cond.mean, 0.0)

    def test_covariance_outcome_independent(self, rng):
        state = GaussianState(2, np.zeros(4), two_mode_squeezed(0.8).cov)
        covs = []
        for _ in range(10):
            cond, _ = general_dyne_condition(
                state, [1], np.eye(2), rng.normal(size=2, scale=3.0)
            )
            covs.append(cond.cov)
        for c in covs[1:]:
            assert np.max(np.abs(c - covs[0])) < 1e-12

    def test_tmsv_heterodyne_closed_form(self):
        r = 0.6
        state = two_mode_squeezed(r)
        cond, _ = general_dyne_condition(state, [1], np.eye(2), np.zeros(2))
        c, s = np.cosh(2 * r), np.sinh(2 * r)
        assert np.allclose(cond.cov, (c - s**2 / (c + 1)) * np.eye(2), atol=1e-12)

    def test_density_is_decaying_gaussian(self):
        state = two_mode_squeezed(0.4)
        _, p0 = general_dyne_condition(state, [1], np.eye(2), np.zeros(2))
        _, p1 = general_dyne_condition(state, [1], np.eye(2), [4.0, -1.0])
        assert p0 > p1 > 0

    def test_unphysical_seed_rejected(self):
        state = two_mode_squeezed(0.4)
        with pytest.raises(ValueError, match="physical"):
            general_dyne_condition(state, [1], 0.1 * np.eye(2), np.zeros(2))


class TestHomodyneEprLimit:
    """The ideal EPR measurement of two modes, as general-dyne conditioning on
    a two-mode-squeezed seed whose squeezing r grows."""

    @staticmethod
    def _epr(state, measured, r):
        cond, _ = general_dyne_condition(state, measured, two_mode_squeezed(r).cov, np.zeros(4))
        return cond.cov

    def test_symmetric_swap_worked_values(self):
        joint = tensor(_pair(17.0, 9.0, 12.0), _pair(17.0, 9.0, 12.0))  # modes (o1, e1, o2, e2)
        diag, off = 9 - 144 / 34, 144 / 34
        expected = np.block(
            [[diag * np.eye(2), off * Z2], [off * Z2, diag * np.eye(2)]]
        )
        assert np.allclose(self._epr(joint, (0, 2), 10.0), expected, atol=1e-6)

    def test_matches_finite_squeezing_and_monotone(self):
        # EPR measurement across one arm of two unequal pairs (u_i, v_i, w_i),
        # u_i on the measured arm: the limit has diagonal blocks
        # (v_i - w_i^2 / (u_1 + u_2)) I and off-diagonal blocks (w_1 w_2 / (u_1 + u_2)) Z
        c1, s1, c2, s2 = np.cosh(1.8), np.sinh(1.8), np.cosh(1.4), np.sinh(1.4)
        cases = [
            # two-mode squeezed vacua, r = 0.9 and 0.7, measured on their second modes
            (tensor(two_mode_squeezed(0.9), two_mode_squeezed(0.7)), (1, 3), (c1, c1, s1), (c2, c2, s2)),
            (tensor(_pair(17.0, 9.0, 12.0), _pair(5.0, 3.0, 3.0)), (0, 2), (17.0, 9.0, 12.0), (5.0, 3.0, 3.0)),
        ]
        for state, measured, (u1, v1, w1), (u2, v2, w2) in cases:
            s = u1 + u2
            limit = np.block(
                [[(v1 - w1 * w1 / s) * np.eye(2), (w1 * w2 / s) * Z2],
                 [(w1 * w2 / s) * Z2, (v2 - w2 * w2 / s) * np.eye(2)]]
            )
            errs = [
                np.max(np.abs(self._epr(state, measured, r) - limit))
                for r in (2.0, 4.0, 6.0, 8.0, 10.0)
            ]
            assert errs[-1] < 1e-6
            assert all(a > b for a, b in zip(errs, errs[1:]))

    def test_product_input_gives_zero_cross_block(self, rng):
        parts = [random_physical_state(rng, 1) for _ in range(4)]
        joint = tensor(tensor(parts[0], parts[1]), tensor(parts[2], parts[3]))
        cond = self._epr(joint, (0, 2), 10.0)
        assert np.max(np.abs(cond[:2, 2:])) < 1e-10

    def test_requires_three_modes(self):
        with pytest.raises(ValueError, match="kept"):
            self._epr(two_mode_squeezed(0.5), (0, 1), 10.0)


class TestSymplecticEigenvalues:
    def test_vacuum(self):
        assert np.allclose(symplectic_eigenvalues(np.eye(4)), [1.0, 1.0])

    def test_thermal(self):
        assert np.allclose(symplectic_eigenvalues(3.0 * np.eye(2)), [3.0])

    def test_tmsv_is_pure(self):
        nus = symplectic_eigenvalues(two_mode_squeezed(0.9).cov)
        assert np.allclose(nus, [1.0, 1.0], atol=1e-9)

    def test_non_symmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            symplectic_eigenvalues(np.array([[1.0, 0.2], [0.0, 1.0]]))


def _random_cp_channel(rng, n_modes):
    t = rng.normal(size=(2 * n_modes, 2 * n_modes))
    omega = symplectic_form(n_modes)
    gap = np.linalg.eigvalsh(1j * omega - 1j * t @ omega @ t.T)[0]
    n = (abs(gap) + rng.uniform(0.0, 1.0)) * np.eye(2 * n_modes)
    return GaussianChannelSpec(T=t, N=n)


def test_cp_channels_preserve_physicality(rng):
    omega = symplectic_form(2)
    for _ in range(200):
        state = random_physical_state(rng, 2)
        out = apply_channel(state, _random_cp_channel(rng, 2))
        lo = np.linalg.eigvalsh(out.cov + 1j * omega)[0]
        assert lo >= -1e-9 * max(1.0, np.max(np.abs(out.cov)))


def _random_symplectic(rng, n_modes):
    """Product of single-mode rotation-squeeze-rotation blocks and a 50:50 mix."""
    def rot(theta):
        c, s = np.cos(theta), np.sin(theta)
        return np.array([[c, s], [-s, c]])

    s = np.eye(2 * n_modes)
    for k in range(n_modes):
        r = rng.uniform(-0.6, 0.6)
        local = (
            rot(rng.uniform(0, np.pi))
            @ np.diag([np.exp(r), np.exp(-r)])
            @ rot(rng.uniform(0, np.pi))
        )
        block = np.eye(2 * n_modes)
        block[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = local
        s = block @ s
    if n_modes > 1:
        mix = np.eye(2 * n_modes)
        c = 1 / np.sqrt(2)
        for q in range(2):
            mix[q, q] = c
            mix[q, 2 + q] = c
            mix[2 + q, q] = c
            mix[2 + q, 2 + q] = -c
        s = mix @ s
    return s


def test_symplectic_channels_preserve_symplectic_spectrum(rng):
    omega = symplectic_form(2)
    for _ in range(25):
        t = _random_symplectic(rng, 2)
        assert np.max(np.abs(t @ omega @ t.T - omega)) < 1e-9
        state = random_physical_state(rng, 2)
        out = apply_channel(state, GaussianChannelSpec(T=t, N=np.zeros((4, 4))))
        before = symplectic_eigenvalues(state.cov)
        after = symplectic_eigenvalues(out.cov)
        assert np.max(np.abs(np.sort(before) - np.sort(after))) < 1e-9
