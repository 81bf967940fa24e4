"""Symplectic form, spectra, Williamson factorizations, gauge alignment."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_spd, random_spd_generic, random_symplectic
from sympspec.densemat import NormKind, norm, psd_sqrt, singular_values
from sympspec.errors import (
    DegenerateSpectrum,
    DimensionMismatch,
    NonFinite,
    NotPositiveDefinite,
    OddDimension,
    ZeroModes,
)
from sympspec.symplectic import (
    RESIDUAL_TOL,
    gauge_align,
    is_symplectic,
    standard_form,
    symplectic_inverse,
    symplectic_spectrum,
    williamson,
)


class TestStandardForm:
    def test_one_mode(self):
        np.testing.assert_array_equal(standard_form(1), [[0.0, 1.0], [-1.0, 0.0]])

    def test_antisymmetric(self):
        sigma = standard_form(3)
        np.testing.assert_array_equal(sigma.T, -sigma)

    def test_squares_to_minus_identity(self):
        sigma = standard_form(2)
        np.testing.assert_array_equal(sigma @ sigma, -np.eye(4))

    def test_zero_modes(self):
        with pytest.raises(ZeroModes):
            standard_form(0)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_bytes_match_block_form(self, n):
        # including the -0.0 entries of -eye in the lower-left block
        eye, zero = np.eye(n), np.zeros((n, n))
        block = np.block([[zero, eye], [-eye, zero]])
        assert standard_form(n).tobytes() == block.tobytes()


class TestIsSymplectic:
    def test_identity(self):
        assert is_symplectic(np.eye(4), 1e-12)

    def test_squeeze(self):
        assert is_symplectic(np.diag([2.0, 0.5]), 1e-12)

    def test_scaled_identity_is_not(self):
        assert not is_symplectic(2.0 * np.eye(2), 1e-12)

    def test_odd_dimension(self):
        with pytest.raises(OddDimension):
            is_symplectic(np.eye(3), 1e-12)

    def test_magnitude_limit(self):
        # R(0.3) diag(2^k, 2^-k) R(0.7) is symplectic for every k, but S^T
        # sigma S rounds at about 2^-52 ||S||^2: past entries of ~1e4 no S
        # passes tol = 1e-8, and past ~2^512 the product overflows.
        def rot(t):
            return np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])

        def squeezed(k):
            return rot(0.3) @ np.diag([2.0 ** k, 2.0 ** -k]) @ rot(0.7)

        assert is_symplectic(squeezed(14), 1e-8)
        assert not is_symplectic(squeezed(20), 1e-8)
        assert not is_symplectic(squeezed(520), 1e-8)


class TestSymplecticSpectrum:
    def test_identity(self):
        np.testing.assert_allclose(symplectic_spectrum(np.eye(6)), np.ones(3), atol=0)

    def test_diag_x_one(self):
        for x in (1.0, 4.0, 9.0, 33.0):
            d = symplectic_spectrum(np.diag([x, 1.0]))
            np.testing.assert_allclose(d, [np.sqrt(x)], rtol=1e-14)

    def test_singular_value_oracle(self):
        rng = np.random.default_rng(3)
        m = random_spd_generic(rng, 4)
        root = psd_sqrt(m)
        s = singular_values(root @ standard_form(2) @ root)
        collapsed = (s[0::2] + s[1::2]) / 2.0
        np.testing.assert_allclose(symplectic_spectrum(m), collapsed, rtol=1e-12)

    def test_two_by_two_closed_form(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            m = random_spd_generic(rng, 2)
            a, b, c = m[0, 0], m[0, 1], m[1, 1]
            d = symplectic_spectrum(m)[0]
            assert d == pytest.approx(np.sqrt(a * c - b * b), rel=1e-12)

    @given(c=st.floats(min_value=1e-3, max_value=1e3))
    @settings(max_examples=25, deadline=None)
    def test_scaling_covariance(self, c):
        rng = np.random.default_rng(23)
        m = random_spd_generic(rng, 6)
        np.testing.assert_allclose(
            symplectic_spectrum(c * m), c * symplectic_spectrum(m), rtol=1e-11
        )

    def test_near_top_of_float_range(self):
        # d = [1.78e308, 8e307] fits, though the unscaled Gram matrix of
        # M^{1/2} sigma M^{1/2} would not.
        m = 8e307 * (np.eye(4) + 0.99 * np.ones((4, 4)))
        d = symplectic_spectrum(m)
        np.testing.assert_allclose(d, williamson(m).d, rtol=1e-12, atol=0)
        assert np.array_equal(symplectic_spectrum(np.ldexp(m, -600)), np.ldexp(d, -600))
        with pytest.raises(NonFinite):
            symplectic_spectrum(8.9e307 * (np.eye(4) + 0.99 * np.ones((4, 4))))

    def test_errors(self):
        with pytest.raises(NotPositiveDefinite):
            symplectic_spectrum(np.diag([1.0, -1.0]))
        with pytest.raises(OddDimension):
            symplectic_spectrum(np.eye(3))


class TestWilliamson:
    def test_identity_canonical_gauge(self):
        fac = williamson(np.eye(4))
        np.testing.assert_allclose(fac.S, np.eye(4), atol=1e-12)
        np.testing.assert_allclose(fac.d, [1.0, 1.0], atol=1e-14)

    def test_isotropic_single_mode(self):
        a = 2.5
        fac = williamson(a * np.eye(2))
        np.testing.assert_allclose(fac.d, [a], rtol=1e-14)
        sigma = standard_form(1)
        np.testing.assert_allclose(fac.S.T @ (a * np.eye(2)) @ fac.S, a * np.eye(2), atol=1e-12)
        np.testing.assert_allclose(fac.S.T @ sigma @ fac.S, sigma, atol=1e-12)

    def test_squeezed_single_mode(self):
        fac = williamson(np.diag([2.0, 0.5]))
        np.testing.assert_allclose(fac.d, [1.0], rtol=1e-14)
        assert fac.residual_diag <= 1e-10
        assert fac.residual_symp <= 1e-10

    def test_residuals_random_corpus(self):
        rng = np.random.default_rng(40)
        for _ in range(25):
            dim = 2 * rng.integers(1, 6)
            m = random_spd_generic(rng, int(dim))
            fac = williamson(m)
            assert fac.residual_diag <= 1e-8 * norm(m, NormKind.OPERATOR)
            assert fac.residual_symp <= 1e-8
            assert np.all(np.diff(fac.d) <= 0)
            assert fac.d[-1] > 0

    def test_d_matches_spectrum(self):
        rng = np.random.default_rng(41)
        for _ in range(15):
            m = random_spd_generic(rng, 6)
            fac = williamson(m)
            np.testing.assert_allclose(fac.d, symplectic_spectrum(m), rtol=1e-10)

    def test_diag_norm_bounds(self):
        rng = np.random.default_rng(42)
        for _ in range(15):
            m = random_spd_generic(rng, 4)
            d = williamson(m).d
            lam = np.linalg.eigvalsh(m)
            assert d[0] <= lam[-1] * (1 + 1e-10)
            assert 1.0 / d[-1] <= 1.0 / lam[0] * (1 + 1e-10)

    def test_unit_determinant(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            fac = williamson(random_spd_generic(rng, 6))
            assert np.linalg.det(fac.S) == pytest.approx(1.0, abs=1e-8)

    def test_scaling_returns_same_gauge(self):
        rng = np.random.default_rng(44)
        m = random_spd_generic(rng, 4)
        s1 = williamson(m).S
        s2 = williamson(7.0 * m).S
        assert norm(s1 - s2, NormKind.OPERATOR) <= 1e-8

    @pytest.mark.parametrize("k", [-900, -600, -520, 520, 600, 900])
    def test_extreme_power_of_two_scaling_is_exact(self, k):
        m = random_spd_generic(np.random.default_rng(46), 6)
        fac, fac_k = williamson(m), williamson(np.ldexp(m, k))
        assert np.array_equal(fac_k.S, fac.S)
        assert np.array_equal(fac_k.d, np.ldexp(fac.d, k))
        assert fac_k.residual_diag == np.ldexp(fac.residual_diag, k)
        assert fac_k.residual_symp == fac.residual_symp
        assert np.array_equal(
            symplectic_spectrum(np.ldexp(m, k)), np.ldexp(symplectic_spectrum(m), k)
        )

    @pytest.mark.parametrize("lo, hi, k", [(1.1, 1.9, 1023), (2.5, 3.5, 1022)])
    def test_top_of_float_range(self, lo, hi, k):
        # Entries and symplectic eigenvalues past 2^1023, where the plain
        # sums in the symmetrization and in the pair mean would overflow.
        m = random_spd(np.random.default_rng(64), 6, hi / lo, lo)
        big = np.ldexp(m, k)
        d, d_ref = symplectic_spectrum(big), np.ldexp(symplectic_spectrum(m), k)
        assert np.all(np.isfinite(d))
        np.testing.assert_allclose(d, d_ref, rtol=1e-12, atol=0)
        fac, fac_ref = williamson(big), williamson(m)
        assert fac.residual_diag <= RESIDUAL_TOL * norm(big, NormKind.OPERATOR)
        assert fac.residual_symp <= RESIDUAL_TOL
        np.testing.assert_allclose(fac.d, d, rtol=1e-12, atol=0)
        if k % 2 == 0:  # an even power of two passes square roots exactly
            assert np.array_equal(d, d_ref)
            assert np.array_equal(fac.S, fac_ref.S)
            assert np.array_equal(fac.d, np.ldexp(fac_ref.d, k))

    def test_symplectic_eigenvalue_beyond_float_range_raises(self):
        # Finite entries, a largest symplectic eigenvalue of about 2e308.
        a = 8.9e307
        m = a * np.eye(4) + 0.99 * a * np.ones((4, 4))
        with pytest.raises(NonFinite):
            williamson(m)

    def test_degenerate_spectrum_still_factorizes(self):
        rng = np.random.default_rng(45)
        s = random_symplectic(rng, 2)
        m = s @ s.T * 2.0  # both symplectic eigenvalues equal 2
        fac = williamson((m + m.T) / 2.0)
        np.testing.assert_allclose(fac.d, [2.0, 2.0], rtol=1e-10)
        assert fac.residual_symp <= 1e-8

    def test_errors(self):
        with pytest.raises(NotPositiveDefinite):
            williamson(np.diag([1.0, -1.0]))
        with pytest.raises(OddDimension):
            williamson(np.eye(3))


class TestSymplecticInverse:
    def test_round_trip(self):
        rng = np.random.default_rng(50)
        s = random_symplectic(rng, 2)
        np.testing.assert_allclose(symplectic_inverse(s) @ s, np.eye(4), atol=1e-10)


class TestGaugeAlign:
    def test_self_alignment(self):
        rng = np.random.default_rng(60)
        m = random_spd(rng, 4, 10.0)
        fac = williamson(m)
        ga = gauge_align(fac, fac)
        np.testing.assert_allclose(ga.angles, np.zeros(2), atol=1e-12)
        assert ga.distance <= 1e-12

    def test_recovers_constructed_rotation(self):
        rng = np.random.default_rng(61)
        m = random_spd(rng, 4, 10.0)
        fac = williamson(m)
        theta = 0.3
        rotated = fac.S.copy()
        c, s = np.cos(theta), np.sin(theta)
        u, w = fac.S[:, 0].copy(), fac.S[:, 2].copy()
        rotated[:, 0] = c * u + s * w
        rotated[:, 2] = -s * u + c * w
        other = type(fac)(
            n_modes=fac.n_modes,
            S=rotated,
            d=fac.d,
            residual_diag=fac.residual_diag,
            residual_symp=fac.residual_symp,
        )
        ga = gauge_align(fac, other)
        assert ga.angles[0] == pytest.approx(-theta, abs=1e-10)
        assert abs(ga.angles[1]) <= 1e-10
        assert ga.distance <= 1e-10

    def test_degenerate_reference_refused(self):
        fac = williamson(np.eye(4))
        with pytest.raises(DegenerateSpectrum):
            gauge_align(fac, fac)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(62)
        a = williamson(random_spd(rng, 4, 10.0))
        b = williamson(random_spd(rng, 6, 10.0))
        with pytest.raises(DimensionMismatch):
            gauge_align(a, b)

    def test_aligned_stays_symplectic_and_diagonalizing(self):
        rng = np.random.default_rng(63)
        m = random_spd(rng, 6, 50.0)
        e = rng.standard_normal((6, 6))
        e = (e + e.T) / 2.0
        e /= np.linalg.norm(e, 2)
        m_eps = m + 1e-4 * e
        fac = williamson(m)
        fac_eps = williamson(m_eps)
        ga = gauge_align(fac, fac_eps)
        assert is_symplectic(ga.aligned_S, 1e-8)
        d_full = np.concatenate([fac_eps.d, fac_eps.d])
        resid = np.linalg.norm(
            ga.aligned_S.T @ m_eps @ ga.aligned_S - np.diag(d_full), 2
        )
        assert resid <= 1e-8 * np.linalg.norm(m_eps, 2)
