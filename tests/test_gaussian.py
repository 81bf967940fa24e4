"""Covariance validity, purity, mode reduction, entropy, entropy continuity."""

import math

import numpy as np
import pytest

from conftest import random_symplectic, williamson_form
from sympspec.errors import (
    BadIndices,
    InvalidCovariance,
    NonFinite,
    NotInterior,
    NotPositiveDefinite,
    OddDimension,
)
from sympspec.gaussian import (
    GaussianState,
    entanglement_entropy,
    entropy_difference_bound,
    is_pure,
    reduced_state,
    validate_covariance,
)
from sympspec.symplectic import symplectic_spectrum


class TestValidateCovariance:
    def test_vacuum(self):
        check = validate_covariance(np.eye(2))
        assert check.valid
        assert check.min_d == pytest.approx(1.0)

    def test_squeezed_vacuum(self):
        check = validate_covariance(np.diag([2.0, 0.5]))
        assert check.valid
        assert check.min_d == pytest.approx(1.0, rel=1e-12)

    def test_sub_heisenberg(self):
        check = validate_covariance(0.5 * np.eye(2))
        assert not check.valid
        assert check.min_d == pytest.approx(0.5)

    def test_errors(self):
        with pytest.raises(NotPositiveDefinite):
            validate_covariance(np.diag([1.0, -1.0]))
        with pytest.raises(OddDimension):
            validate_covariance(np.eye(3))


class TestIsPure:
    def test_vacuum_is_pure(self):
        assert is_pure(np.eye(2))

    def test_thermal_is_not(self):
        assert not is_pure(2.0 * np.eye(2))

    def test_constructed_pure_state(self):
        rng = np.random.default_rng(90)
        s = random_symplectic(rng, 2)
        assert is_pure(s.T @ s)


class TestReducedState:
    def test_identity_block(self):
        np.testing.assert_array_equal(reduced_state(np.eye(8), [0, 1]), np.eye(4))

    def test_block_diagonal_two_party(self):
        rng = np.random.default_rng(91)
        ga = williamson_form(rng, [1.7])
        gb = williamson_form(rng, [2.3])
        # assemble diag(A_qq, B_qq, A_qp, ...) in global (q1,q2,p1,p2) ordering
        cov = np.zeros((4, 4))
        cov[np.ix_([0, 2], [0, 2])] = ga
        cov[np.ix_([1, 3], [1, 3])] = gb
        np.testing.assert_allclose(reduced_state(cov, [0]), ga, atol=1e-15)
        np.testing.assert_allclose(reduced_state(cov, [1]), gb, atol=1e-15)

    def test_all_modes_identity_map(self):
        rng = np.random.default_rng(92)
        cov = williamson_form(rng, [1.5, 2.5])
        np.testing.assert_array_equal(reduced_state(cov, [0, 1]), cov)

    def test_accepts_any_iterable(self):
        np.testing.assert_array_equal(
            reduced_state(np.eye(8), (i for i in (0, 1))), np.eye(4)
        )

    def test_bad_indices(self):
        with pytest.raises(BadIndices, match="dimension 3 is odd"):
            reduced_state(np.eye(3), [0])
        with pytest.raises(BadIndices):
            reduced_state(np.eye(4), [2])
        with pytest.raises(BadIndices):
            reduced_state(np.eye(4), [])
        with pytest.raises(BadIndices):
            reduced_state(np.eye(4), [0, 0])

    @pytest.mark.parametrize("modes", [[0.7], [1.0], [np.float64(0.0)], ["0"]])
    def test_non_integer_indices(self, modes):
        # int() would truncate 0.7 to mode 0
        with pytest.raises(BadIndices, match="mode indices must be integers"):
            reduced_state(np.eye(4), modes)

    def test_numpy_integer_indices(self):
        np.testing.assert_array_equal(reduced_state(np.eye(8), np.array([1])), np.eye(2))

    def test_top_of_float_range(self):
        # x + x overflows at 1.7e308; the slice keeps the entries as they are.
        cov = np.diag([1.7e308, 1.0, 1.7e308, 1.0])
        np.testing.assert_array_equal(
            reduced_state(cov, [0]), np.diag([1.7e308, 1.7e308])
        )


class TestEntanglementEntropy:
    def test_pure_state_zero(self):
        rep = entanglement_entropy(np.eye(4))
        assert rep.entropy == 0.0
        np.testing.assert_array_equal(rep.per_mode_terms, np.zeros(2))

    def test_single_mode_d3(self):
        rep = entanglement_entropy(np.diag([3.0, 3.0]))
        assert rep.entropy == pytest.approx(2.0 * math.log(2.0), abs=1e-12)

    def test_additivity_with_trivial_mode(self):
        rng = np.random.default_rng(93)
        cov = williamson_form(rng, [3.0, 1.0])
        rep = entanglement_entropy(cov)
        assert rep.entropy == pytest.approx(2.0 * math.log(2.0), abs=1e-8)

    def test_monotone_in_d(self):
        grid = np.linspace(1.0, 8.0, 40)
        values = [
            entanglement_entropy(np.diag([d, d])).entropy for d in grid
        ]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_zero_iff_pure(self):
        rng = np.random.default_rng(94)
        pure = williamson_form(rng, [1.0, 1.0])
        mixed = williamson_form(rng, [1.3, 1.0])
        assert entanglement_entropy(pure).entropy <= 1e-8
        assert is_pure(pure)
        assert entanglement_entropy(mixed).entropy > 1e-3
        assert not is_pure(mixed)

    def test_symplectic_invariance(self):
        rng = np.random.default_rng(95)
        cov = williamson_form(rng, [2.0, 1.4])
        h0 = entanglement_entropy(cov).entropy
        for _ in range(5):
            s = random_symplectic(rng, 2)
            h1 = entanglement_entropy((s.T @ cov @ s + (s.T @ cov @ s).T) / 2).entropy
            assert h1 == pytest.approx(h0, abs=1e-8)

    def test_invalid_covariance(self):
        with pytest.raises(InvalidCovariance):
            entanglement_entropy(0.5 * np.eye(2))

    def test_matches_x_log_x_form(self):
        def g(x):
            return x * math.log(x)

        for d in np.linspace(1.1, 3.0, 40):
            rep = entanglement_entropy(np.diag([d, d]))
            dk = rep.min_symplectic_eigenvalue
            want = g((dk + 1.0) / 2.0) - g((dk - 1.0) / 2.0)
            assert rep.entropy == pytest.approx(want, rel=1e-14)

    def test_top_of_float_range(self):
        # Symplectic eigenvalues near 1e307, where x log x at x = (d + 1) / 2
        # overflows; each term is then log(d / 2) + 1 to rounding.
        cov = np.full((4, 4), 1e308) + np.diag([1e307] * 4)
        rep = entanglement_entropy(cov)
        d = symplectic_spectrum(cov)
        np.testing.assert_allclose(rep.per_mode_terms, np.log(d / 2.0) + 1.0, rtol=1e-14)
        assert rep.entropy == pytest.approx(float(np.sum(rep.per_mode_terms)))


class TestEntropyDifferenceBound:
    def test_equal_states(self):
        cov = np.diag([2.0, 2.0])
        r = entropy_difference_bound(cov, cov)
        assert r.lhs == 0.0
        assert r.holds

    def test_frozen_thermal_pair(self):
        r = entropy_difference_bound(2.0 * np.eye(2), 2.1 * np.eye(2))
        h2 = entanglement_entropy(2.0 * np.eye(2)).entropy
        h21 = entanglement_entropy(2.1 * np.eye(2)).entropy
        assert r.lhs == pytest.approx(abs(h2 - h21), rel=1e-12)
        assert r.holds

    def test_boundary_rejected(self):
        with pytest.raises(NotInterior):
            entropy_difference_bound(np.eye(2), 2.0 * np.eye(2))

    def test_dimension_mismatch(self):
        from sympspec.errors import DimensionMismatch

        with pytest.raises(DimensionMismatch):
            entropy_difference_bound(2.0 * np.eye(2), 2.0 * np.eye(4))

    def test_interior_random_pairs_hold(self):
        rng = np.random.default_rng(96)
        for _ in range(25):
            d = rng.uniform(1.6, 4.0, size=2)
            cov = williamson_form(rng, d)
            pert = rng.standard_normal((4, 4))
            pert = (pert + pert.T) / 2
            pert *= 1e-3 / np.linalg.norm(pert, 2)
            cov2 = cov + pert
            r = entropy_difference_bound(cov, cov2)
            assert r.holds

    def test_top_of_float_range(self):
        r = entropy_difference_bound(1e307 * np.eye(2), 1.0001e307 * np.eye(2))
        assert r.lhs == pytest.approx(math.log(1.0001), rel=1e-6)
        assert r.holds

    def test_near_boundary_logged_not_asserted(self):
        # close to min_d = 1 the right side degrades; the checker must still
        # evaluate and report rather than raise
        r = entropy_difference_bound(
            np.diag([1.01, 1.01]), np.diag([1.02, 1.02])
        )
        assert r.lhs >= 0.0
        assert isinstance(r.holds, bool)


class TestGaussianState:
    def test_create_vacuum(self):
        state = GaussianState.create(np.eye(4))
        assert state.valid
        assert state.n_modes == 2
        np.testing.assert_array_equal(state.mean, np.zeros(4))

    def test_mean_shape_checked(self):
        with pytest.raises(BadIndices):
            GaussianState.create(np.eye(4), mean=[0.0, 0.0])

    @pytest.mark.parametrize(
        "mean",
        [[math.nan, 0, 0, 0], [0, math.inf, 0, 0], [1j, 0, 0, 0], ["a", "b", "c", "d"]],
        ids=["nan", "inf", "complex", "text"],
    )
    def test_mean_must_be_finite_and_real(self, mean):
        with pytest.raises(NonFinite):
            GaussianState.create(np.eye(4), mean=mean)
