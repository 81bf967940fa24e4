"""Symplectic form, spectra, Williamson factorizations, gauge alignment."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    eigvals_oracle,
    random_spd,
    random_spd_generic,
    random_symmetric_unit,
    random_symplectic,
    williamson_form,
)
from sympspec import densemat, symplectic
from sympspec.densemat import NormKind, norm, psd_sqrt, singular_values
from sympspec.errors import (
    DegenerateSpectrum,
    DimensionMismatch,
    NonFinite,
    NotPositiveDefinite,
    OddDimension,
    PairingFailure,
    SympspecError,
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


def _descending_d_cases():
    # (M, number of distinct d or None): 40 matrices drawn as in criterion 1
    # at 2n = 2..16; a repeated d, and gaps of 1e-9 and 1e-7 relative, which
    # GROUP_TOL = 1e-8 merges into one group and keeps apart; the identity.
    cases = []
    for k in range(40):
        rng = np.random.default_rng(2400 + k)
        kappa, scale = 10.0 ** rng.uniform(0.0, 6.0), 10.0 ** rng.uniform(-1.0, 1.0)
        cases.append((random_spd(rng, 2 + 2 * (k % 8), kappa, scale), None))
    for gap, distinct in ((0.0, 2), (1e-9, 2), (1e-7, 3)):
        m = williamson_form(np.random.default_rng(46), [3.0, 2.0 * (1.0 + gap), 2.0])
        cases.append((m, distinct))
    cases.append((np.eye(6), 1))
    return cases


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

    @pytest.mark.parametrize("case", range(len(_descending_d_cases())))
    def test_mode_pairs_come_out_in_descending_d(self, case, monkeypatch):
        # williamson keeps the order of _extract_mode_pairs: its groups ascend
        # in 1/d and lie more than GROUP_TOL apart, so d never rises.
        m, distinct = _descending_d_cases()[case]
        seen = []
        extract = symplectic._extract_mode_pairs

        def recording(b):
            xs, ys, ds = extract(b)
            seen.append(ds)
            return xs, ys, ds

        monkeypatch.setattr(symplectic, "_extract_mode_pairs", recording)
        fac = williamson(m)
        (ds,) = seen
        assert all(a >= b for a, b in zip(ds, ds[1:]))
        assert np.asarray(ds).tobytes() == fac.d.tobytes()
        if distinct is not None:
            assert len(set(ds)) == distinct

    def test_too_few_seeds_is_a_pairing_failure(self, monkeypatch):
        # No projected seed can reach norm 2, so every seed is rejected.
        monkeypatch.setattr(symplectic, "SEED_MIN_NORM", 2.0)
        with pytest.raises(PairingFailure, match="extracted 0 modes, expected 2"):
            williamson(np.eye(4))

    def test_pair_defect_past_tolerance_is_a_pairing_failure(self):
        # At kappa = 1e11 the paired basis drifts past PAIR_TOL (8e-8 here).
        m = random_spd(np.random.default_rng(5), 8, 1e11)
        with pytest.raises(PairingFailure, match="pair consistency defect"):
            williamson(m)

    def test_first_order_identity_matches_central_difference(self):
        # For a simple symplectic eigenvalue, d_j'(M)[E] = (s_j^T E s_j +
        # s_{n+j}^T E s_{n+j}) / 2 over the columns of S (Bhatia & Jain, J.
        # Math. Phys. 2015). This ties williamson's S to symplectic_spectrum's
        # d through two separate code paths.
        rng = np.random.default_rng(601)
        h = 1e-6
        for case in range(20):
            dim = 2 * (1 + case % 5)
            m = random_spd(rng, dim, 10.0 ** rng.uniform(0.0, 3.0))
            e = random_symmetric_unit(rng, dim)
            fac = williamson(m)
            n = fac.n_modes
            quad = (fac.S * (e @ fac.S)).sum(axis=0)
            first_order = (quad[:n] + quad[n:]) / 2.0
            central = (symplectic_spectrum(m + h * e) - symplectic_spectrum(m - h * e)) / (2.0 * h)
            assert np.all(np.abs(first_order - central) <= 1e-6 * fac.d)

    def test_errors(self):
        with pytest.raises(NotPositiveDefinite):
            williamson(np.diag([1.0, -1.0]))
        with pytest.raises(OddDimension):
            williamson(np.eye(3))


def _full_scan_mode_pairs(b, xp=np):
    # _extract_mode_pairs as it was before its scans could end early: every
    # seed of every group is projected and tested. xp.sqrt stands in for
    # np.sqrt, so a counting stand-in can count the seeds scanned.
    dim = b.shape[0]
    h = np.zeros((2 * dim, 2 * dim))
    h[:dim, dim:] = -b
    h[dim:, :dim] = b
    spec = symplectic.sym_eig(h)
    lam, vecs = spec.eigenvalues, spec.eigenvectors
    pos = lam > 0.0
    if int(np.sum(pos)) != dim:
        raise PairingFailure(
            f"expected {dim} positive doubled eigenvalues, got {int(np.sum(pos))}"
        )
    lam_pos = lam[pos]
    vecs_pos = vecs[:, pos]
    xs, ys, ds = [], [], []
    pair_defect = 0.0
    chosen_w = np.zeros((2 * dim, 0))
    chosen_xy = np.zeros((dim, 0))
    for group in symplectic._group_by_relative_gap(lam_pos, symplectic.GROUP_TOL):
        basis = vecs_pos[:, group]
        d_eig = 1.0 / float(np.mean(lam_pos[group]))
        for i in range(dim):
            w = basis @ basis[dim + i, :]
            w = w - chosen_w @ (chosen_w.T @ w)
            r = float(xp.sqrt(w @ w))
            if r < symplectic.SEED_MIN_NORM:
                continue
            w = w / r
            u, v = w[:dim], w[dim:]
            un, vn = float(xp.sqrt(u @ u)), float(xp.sqrt(v @ v))
            if min(un, vn) < 0.1:
                raise PairingFailure(
                    f"unbalanced eigenvector halves ({un:.3e}, {vn:.3e})"
                )
            x = v / vn
            bx = b @ x
            pair_defect = max(pair_defect, abs(d_eig * float(xp.sqrt(bx @ bx)) - 1.0))
            y = u / un
            y = y - x * (x @ y)
            y = y - chosen_xy @ (chosen_xy.T @ y)
            y = y / float(xp.sqrt(y @ y))
            xs.append(x)
            ys.append(y)
            ds.append(d_eig)
            jw = np.concatenate([-w[dim:], w[:dim]])
            chosen_w = np.column_stack([chosen_w, w, jw])
            chosen_xy = np.column_stack([chosen_xy, x, y])
    if pair_defect > symplectic.PAIR_TOL:
        raise PairingFailure(
            f"pair consistency defect {pair_defect:.3e} exceeds {symplectic.PAIR_TOL:.1e}"
        )
    return xs, ys, ds


class _SqrtCounter:
    """numpy, with its square roots counted."""

    def __init__(self):
        self.calls = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def sqrt(self, x):
        self.calls += 1
        return np.sqrt(x)


def _pairing_outcome(extract, b):
    # The bytes of every x, y and d, or the exception's type and message.
    try:
        xs, ys, ds = extract(b)
    except SympspecError as exc:
        return type(exc), str(exc)
    return [x.tobytes() for x in xs], [y.tobytes() for y in ys], np.asarray(ds).tobytes()


def _kernels_of(matrices, monkeypatch):
    # The antisymmetric kernels B that williamson hands _extract_mode_pairs.
    seen = []
    extract = symplectic._extract_mode_pairs

    def recording(b):
        seen.append(b.copy())
        return extract(b)

    with monkeypatch.context() as patch:
        patch.setattr(symplectic, "_extract_mode_pairs", recording)
        for m in matrices:
            try:
                williamson(m)
            except PairingFailure:
                pass
    return seen


def _pairing_corpus():
    # Criterion 1's style at 2n = 2..20, two each; symplectic spectra whose
    # modes lie 0, 1e-9 and 1e-7 apart relative, on both sides of GROUP_TOL
    # = 1e-8; a threefold and a twofold d; the identity; and a kappa = 1e11
    # matrix whose pairing defect passes PAIR_TOL.
    mats = []
    for k in range(20):
        rng = np.random.default_rng(2500 + k)
        kappa, scale = 10.0 ** rng.uniform(0.0, 6.0), 10.0 ** rng.uniform(-1.0, 1.0)
        mats.append(random_spd(rng, 2 + 2 * (k % 10), kappa, scale))
    for gap in (0.0, 1e-9, 1e-7):
        d = [3.0, 2.0 * (1.0 + gap), 2.0, 1.5 * (1.0 + gap), 1.5]
        mats.append(williamson_form(np.random.default_rng(47), d))
    mats.append(williamson_form(np.random.default_rng(48), [2.0, 2.0, 2.0, 1.0, 1.0]))
    mats += [np.eye(2), np.eye(6)]
    mats.append(random_spd(np.random.default_rng(5), 8, 1e11))
    return mats


class TestModePairing:
    """_extract_mode_pairs ends a group's seed scan once no later seed can
    be taken; every output and exception must match the full scan's."""

    def test_matches_the_full_scan(self, monkeypatch):
        kernels = _kernels_of(_pairing_corpus(), monkeypatch)
        assert len(kernels) == 27
        failed = shorter = 0
        for b in kernels:
            counter = _SqrtCounter()
            with monkeypatch.context() as patch:
                patch.setattr(symplectic, "np", counter)
                got = _pairing_outcome(symplectic._extract_mode_pairs, b)
            roots = counter.calls
            counter.calls = 0
            want = _pairing_outcome(lambda b: _full_scan_mode_pairs(b, counter), b)
            assert got == want
            failed += got[0] is PairingFailure
            # Both take the same four roots per accepted mode and one per
            # seed scanned, so fewer roots means fewer seeds scanned.
            assert roots <= counter.calls
            shorter += roots < counter.calls
        # One kernel of the corpus fails to pair; most scans end early.
        assert failed == 1
        assert shorter >= len(kernels) // 2

    def test_no_seed_taken_matches_the_full_scan(self, monkeypatch):
        (b,) = _kernels_of([np.eye(4)], monkeypatch)
        monkeypatch.setattr(symplectic, "SEED_MIN_NORM", 2.0)
        got = _pairing_outcome(symplectic._extract_mode_pairs, b)
        assert got == _pairing_outcome(_full_scan_mode_pairs, b)
        assert got == ([], [], b"")


def _criterion_1_corpus(count):
    # Criterion 1's style: 2n = 2..20, kappa = 10^U(0,6), scale 10^U(-1,1).
    mats = []
    for k in range(count):
        rng = np.random.default_rng(2600 + k)
        kappa, scale = 10.0 ** rng.uniform(0.0, 6.0), 10.0 ** rng.uniform(-1.0, 1.0)
        mats.append(random_spd(rng, 2 + 2 * (k % 10), kappa, scale))
    return mats


def _stretched_pairs(factor):
    # _extract_mode_pairs with its first x scaled by factor: K^T K then has
    # the eigenvalue factor^2 and otherwise 1, so the defect is
    # factor^2 - 1.
    extract = symplectic._extract_mode_pairs

    def stretched(b):
        xs, ys, ds = extract(b)
        return [xs[0] * factor] + xs[1:], ys, ds

    return stretched


class TestOrthogonalityGate:
    """williamson refuses a paired basis K with ||K^T K - I||_op past
    RESIDUAL_TOL, reading the norm off the eigenvalues of K^T K."""

    def test_defect_matches_the_solved_norm(self, monkeypatch):
        bases = []
        extract = symplectic._extract_mode_pairs

        def recording(b):
            pairs = extract(b)
            bases.append(np.column_stack(pairs[0] + pairs[1]))
            return pairs

        monkeypatch.setattr(symplectic, "_extract_mode_pairs", recording)
        for m in _criterion_1_corpus(60):
            williamson(m)
        assert len(bases) == 60
        for k in bases:
            solved = norm(k.T @ k - np.eye(k.shape[1]), NormKind.OPERATOR)
            assert abs(symplectic._orthogonality_defect(k) - solved) <= 1e-13

    @pytest.mark.parametrize("factor, fails", [(1.0 + 5e-7, True), (1.0 + 5e-11, False)])
    def test_defect_past_tolerance_is_a_pairing_failure(self, factor, fails, monkeypatch):
        # Defects near 1e-6 and 1e-10, on both sides of RESIDUAL_TOL = 1e-8.
        monkeypatch.setattr(symplectic, "_extract_mode_pairs", _stretched_pairs(factor))
        m = _criterion_1_corpus(3)[2]
        if fails:
            with pytest.raises(PairingFailure, match="assembled basis is not orthogonal"):
                williamson(m)
        else:
            assert williamson(m).n_modes == 3

    def test_williamson_never_takes_a_midpoint(self, monkeypatch):
        # Every matrix williamson hands sym_eig, the doubled kernel H
        # included, is bit-symmetric when M is, so none is symmetrized.
        def refused(*args):
            raise AssertionError("williamson took a midpoint")

        monkeypatch.setattr(densemat, "_midpoint", refused)
        degenerate = williamson_form(np.random.default_rng(48), [2.0, 2.0, 1.0])
        for m in _criterion_1_corpus(20) + [np.eye(2), degenerate]:
            williamson(m)


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

    def test_broken_reconstruction_is_a_pairing_failure(self):
        # 1.5 S is not symplectic, so the M rebuilt from it is not diagonalized
        fac = williamson(random_spd(np.random.default_rng(64), 4, 10.0))
        other = dataclasses.replace(fac, S=1.5 * fac.S)
        with pytest.raises(PairingFailure, match="alignment broke the factorization"):
            gauge_align(fac, other)

    def test_degenerate_reference_refused(self):
        fac = williamson(np.eye(4))
        with pytest.raises(DegenerateSpectrum):
            gauge_align(fac, fac)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(62)
        a = williamson(random_spd(rng, 4, 10.0))
        b = williamson(random_spd(rng, 6, 10.0))
        with pytest.raises(DimensionMismatch, match=r"^shape \(4, 4\) vs \(6, 6\)$"):
            gauge_align(a, b)

    def test_malformed_pair_is_a_dimension_mismatch(self):
        # S shapes agree, but d or n_modes does not fit S.
        fac = williamson(random_spd(np.random.default_rng(65), 4, 10.0))
        malformed = [
            symplectic.WilliamsonFactorization(1, fac.S, fac.d[:1], 0.0, 0.0),
            dataclasses.replace(fac, d=fac.d[:1]),
            dataclasses.replace(fac, n_modes=1),
            dataclasses.replace(fac, d=np.concatenate([fac.d, fac.d])),
        ]
        for bad in malformed:
            for ref, other in ((fac, bad), (bad, fac)):
                with pytest.raises(DimensionMismatch, match="modes with S of shape"):
                    gauge_align(ref, other)

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


@pytest.fixture(scope="module")
def eigvals_oracle_cases():
    """60 seeded SPD matrices in criterion 1's style, with numpy's d."""
    rng = np.random.default_rng(1609)
    cases = []
    for i in range(60):
        dim = 2 + 2 * (i % 10)
        kappa = 10.0 ** rng.uniform(0.0, 6.0)
        m = random_spd(rng, dim, kappa, 10.0 ** rng.uniform(-1.0, 1.0))
        ref = eigvals_oracle(m)
        assert ref.size == dim // 2
        cases.append((m, ref))
    return cases


class TestEigvalsOracle:
    """Oracle 2: d against the positive eigenvalues of i sigma M (2n 2..20,
    kappa <= 1e6). Worst relative errors measured on these seeds: 2.9e-8
    for symplectic_spectrum, whose Gram route squares the problem, and
    2.5e-11 for williamson (README, Numerical notes)."""

    @staticmethod
    def _worst(fn, cases):
        return max(float(np.max(np.abs(fn(m) - ref) / ref)) for m, ref in cases)

    def test_symplectic_spectrum(self, eigvals_oracle_cases):
        assert self._worst(symplectic_spectrum, eigvals_oracle_cases) <= 2e-7

    def test_williamson_d(self, eigvals_oracle_cases):
        """The 2e-10 bound holds for these 60 seeds only, not for every
        matrix of their kind: at 2n = 20, rng = np.random.default_rng(10985)
        and M = random_spd(rng, 20, 1e6, 10.0 ** rng.uniform(-1.0, 1.0))
        give 2.53e-10 against numpy's eigenvalues, this test's oracle, and
        2.55e-10 against a 40-digit mpmath reference."""
        assert self._worst(lambda m: williamson(m).d, eigvals_oracle_cases) <= 2e-10
