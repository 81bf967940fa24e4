"""Kernel-level checks: eigensolver residuals, square roots, inverses, norms."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_orthogonal, random_spd, random_spd_generic, williamson_form
from jacobi_reference import jacobi_kernel_loop
from sympspec.densemat import (
    JACOBI_MAX_SWEEPS,
    JACOBI_OFF_TOL,
    NormKind,
    as_matrix,
    condition_number,
    identity_norm,
    norm,
    psd_sqrt,
    singular_values,
    spd_inverse,
    sym_eig,
)
from sympspec.errors import (
    NonFinite,
    NotPositiveDefinite,
    NotPSD,
    NotSquare,
    NotSymmetric,
)
from sympspec.symplectic import standard_form

TRACE_FREE_E = np.array([[2.0, -5.0], [-5.0, -2.0]])


class TestSymEig:
    def test_diagonal_input(self):
        spec = sym_eig(np.diag([3.0, 1.0, 2.0]))
        np.testing.assert_allclose(spec.eigenvalues, [1.0, 2.0, 3.0], atol=0)
        # Eigenvectors of a diagonal matrix are signed identity columns; the
        # sign convention makes them exactly identity columns.
        expected = np.zeros((3, 3))
        expected[1, 0] = expected[2, 1] = expected[0, 2] = 1.0
        np.testing.assert_allclose(spec.eigenvectors, expected, atol=0)

    def test_offdiagonal_pair(self):
        spec = sym_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(spec.eigenvalues, [-1.0, 1.0], atol=1e-15)

    def test_random_residuals(self):
        rng = np.random.default_rng(101)
        a = rng.standard_normal((6, 6))
        a = (a + a.T) / 2.0
        spec = sym_eig(a)
        scale = np.linalg.norm(a, 2)
        for i in range(6):
            resid = np.linalg.norm(
                a @ spec.eigenvectors[:, i] - spec.eigenvalues[i] * spec.eigenvectors[:, i]
            )
            assert resid <= 1e-12 * scale
        ortho = spec.eigenvectors.T @ spec.eigenvectors - np.eye(6)
        assert np.abs(ortho).max() <= 1e-12

    def test_reconstruction(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = rng.standard_normal((5, 5))
            a = (a + a.T) / 2.0
            spec = sym_eig(a)
            recon = (spec.eigenvectors * spec.eigenvalues) @ spec.eigenvectors.T
            assert np.linalg.norm(recon - a, 2) <= 1e-10 * np.linalg.norm(a, 2)

    def test_matches_numpy_eigvalsh(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((8, 8))
        a = (a + a.T) / 2.0
        np.testing.assert_allclose(
            sym_eig(a).eigenvalues, np.linalg.eigvalsh(a), atol=1e-12
        )

    def test_deterministic(self):
        rng = np.random.default_rng(13)
        a = rng.standard_normal((5, 5))
        a = (a + a.T) / 2.0
        s1 = sym_eig(a)
        s2 = sym_eig(a.copy())
        assert np.array_equal(s1.eigenvalues, s2.eigenvalues)
        assert np.array_equal(s1.eigenvectors, s2.eigenvectors)

    def test_errors(self):
        with pytest.raises(NotSquare):
            sym_eig(np.zeros((2, 3)))
        with pytest.raises(NotSquare, match="ndim=1"):
            sym_eig(np.ones(3))
        with pytest.raises(NotSymmetric):
            sym_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(NonFinite):
            sym_eig(np.array([[np.nan, 0.0], [0.0, 1.0]]))


class TestAsMatrix:
    @pytest.mark.parametrize(
        "a",
        [
            [[1.0, 1j], [-1j, 1.0]],
            np.eye(2, dtype=complex),
            np.array([[1j, 0], [0, 1]], dtype=object),
            [[1.0, 2.0], [3.0]],
            [["a", "b"], ["c", "d"]],
        ],
        ids=["complex-list", "complex-array", "complex-object", "ragged", "text"],
    )
    def test_non_real_input_is_non_finite(self, a):
        for fn in (as_matrix, sym_eig, singular_values, psd_sqrt):
            with pytest.raises(NonFinite):
                fn(a)

    def test_hermitian_is_not_solved_as_its_real_part(self):
        # the real part of [[1, i], [-i, 1]] is I, with eigenvalues [1, 1], not [0, 2]
        with pytest.raises(NonFinite, match="complex"):
            sym_eig([[1, 1j], [-1j, 1]])

    def test_real_input_keeps_its_bits(self):
        a = np.eye(3)
        assert as_matrix(a) is a
        for real in ([[1, 2], [3, 4]], np.array([[0.1, 2.0]], dtype=np.float32)):
            got = as_matrix(real)
            assert got.dtype == np.float64
            assert np.array_equal(got, np.asarray(real, dtype=np.float64))


class TestExtremeScales:
    @pytest.mark.parametrize(
        "a",
        [
            [[1e200, 1e200], [1e200, 1e200]],
            [[1e-200, 1e-200], [1e-200, 3e-200]],
        ],
    )
    def test_matches_numpy_eigvalsh(self, a):
        a = np.array(a)
        expected = np.linalg.eigvalsh(a)
        got = sym_eig(a).eigenvalues
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))

    @pytest.mark.parametrize("k", [-900, -600, -520, 520, 600, 900])
    def test_power_of_two_scaling_is_exact(self, k):
        m = random_spd_generic(np.random.default_rng(61), 6)
        spec, spec_k = sym_eig(m), sym_eig(np.ldexp(m, k))
        assert np.array_equal(spec_k.eigenvalues, np.ldexp(spec.eigenvalues, k))
        assert np.array_equal(spec_k.eigenvectors, spec.eigenvectors)
        assert np.array_equal(
            singular_values(np.ldexp(m, k)), np.ldexp(singular_values(m), k)
        )
        assert np.array_equal(spd_inverse(np.ldexp(m, k)), np.ldexp(spd_inverse(m), -k))

    @pytest.mark.parametrize("k", [-600, 600])
    def test_norms_scale_exactly(self, k):
        # the trace norm sums at the scaled size, then unscales once
        m = random_spd_generic(np.random.default_rng(62), 6)
        for kind in NormKind:
            assert norm(np.ldexp(m, k), kind) == np.ldexp(norm(m, kind), k)

    def test_result_beyond_float_range_raises(self):
        # Finite entries whose largest eigenvalue, 3e308, is not a float.
        m = np.full((2, 2), 1.5e308)
        with pytest.raises(NonFinite):
            sym_eig(m)
        with pytest.raises(NonFinite):
            singular_values(m)
        for kind in NormKind:
            with pytest.raises(NonFinite):
                norm(m, kind)
        # 1.5e308 itself fits: the largest float is below 2^1024.
        assert sym_eig(np.diag([1.5e308, 0.0])).eigenvalues[-1] == 1.5e308

    def test_trace_norm_beyond_float_range_raises(self):
        # Each singular value fits; their sum, 3e308, does not.
        m = np.diag([1.5e308, 1.5e308])
        with pytest.raises(NonFinite):
            norm(m, NormKind.TRACE)
        assert norm(m, NormKind.OPERATOR) == 1.5e308

    def test_top_of_float_range(self):
        # Past 2^1023 the symmetrization's plain sum m + m.T overflows.
        got = sym_eig(np.diag([1.7e308, 1.0])).eigenvalues
        assert np.array_equal(got, [1.0, 1.7e308])
        m = random_spd(np.random.default_rng(63), 6, 1.9 / 1.1, 1.1)
        spec, spec_big = sym_eig(m), sym_eig(np.ldexp(m, 1023))
        assert np.array_equal(spec_big.eigenvalues, np.ldexp(spec.eigenvalues, 1023))
        assert np.array_equal(spec_big.eigenvectors, spec.eigenvectors)


class TestPsdSqrt:
    def test_identity(self):
        np.testing.assert_allclose(psd_sqrt(np.eye(3)), np.eye(3), atol=0)

    def test_diagonal(self):
        np.testing.assert_allclose(
            psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-15
        )

    def test_squaring_oracle(self):
        rng = np.random.default_rng(8)
        a = random_spd_generic(rng, 8)
        r = psd_sqrt(a)
        assert np.linalg.norm(r @ r - a, 2) <= 1e-10 * np.linalg.norm(a, 2)

    def test_not_psd(self):
        with pytest.raises(NotPSD):
            psd_sqrt(np.diag([1.0, -1.0]))


class TestSpdInverse:
    def test_identity(self):
        np.testing.assert_allclose(spd_inverse(np.eye(2)), np.eye(2), atol=0)

    def test_diagonal(self):
        np.testing.assert_allclose(
            spd_inverse(np.diag([2.0, 4.0])), np.diag([0.5, 0.25]), atol=1e-16
        )

    def test_residual_oracle(self):
        rng = np.random.default_rng(9)
        a = random_spd_generic(rng, 6)
        resid = np.linalg.norm(a @ spd_inverse(a) - np.eye(6), 2)
        assert resid <= 1e-10 * condition_number(a)

    def test_not_pd(self):
        with pytest.raises(NotPositiveDefinite):
            spd_inverse(np.diag([1.0, 0.0]))

    def test_inverse_beyond_float_range_raises(self):
        # Entries near 1e-310 are finite; the inverse's, near 1e310, are not.
        a = random_spd(np.random.default_rng(65), 4, 10.0)
        with pytest.raises(NonFinite):
            spd_inverse(a * 1e-310)


class TestNorms:
    def test_identity_trace(self):
        for n in (1, 2, 5):
            assert norm(np.eye(n), NormKind.TRACE) == pytest.approx(n, abs=1e-12)
            assert identity_norm(n, NormKind.TRACE) == n

    def test_operator_diag(self):
        assert norm(np.diag([3.0, -4.0]), NormKind.OPERATOR) == pytest.approx(4.0)

    def test_counterexample_direction(self):
        # trace-free with coincident singular values sqrt(29)
        s29 = np.sqrt(29.0)
        assert norm(TRACE_FREE_E, NormKind.OPERATOR) == pytest.approx(s29, rel=1e-14)
        assert norm(TRACE_FREE_E, NormKind.TRACE) == pytest.approx(2 * s29, rel=1e-14)
        np.testing.assert_allclose(singular_values(TRACE_FREE_E), [s29, s29], rtol=1e-14)

    def test_nonfinite(self):
        with pytest.raises(NonFinite):
            norm(np.array([[np.inf, 0.0], [0.0, 1.0]]), NormKind.OPERATOR)

    def test_majorization_chain(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            a = rng.standard_normal((4, 4))
            op = norm(a, NormKind.OPERATOR)
            fro = norm(a, NormKind.FROBENIUS)
            tr = norm(a, NormKind.TRACE)
            assert op <= fro + 1e-12 * max(1.0, fro)
            assert fro <= tr + 1e-12 * max(1.0, tr)

    def test_frobenius_matches_singular_values(self):
        rng = np.random.default_rng(22)
        a = rng.standard_normal((5, 5))
        s = singular_values(a)
        assert norm(a, NormKind.FROBENIUS) == pytest.approx(
            np.sqrt(np.sum(s**2)), rel=1e-12
        )


class TestSingularValues:
    def test_orthogonal(self):
        q = random_orthogonal(np.random.default_rng(4), 5)
        np.testing.assert_allclose(singular_values(q), np.ones(5), atol=1e-13)

    def test_diagonal_signs(self):
        np.testing.assert_allclose(singular_values(np.diag([-2.0, 5.0])), [5.0, 2.0])

    def test_matches_numpy(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((6, 6))
        np.testing.assert_allclose(
            singular_values(a),
            np.linalg.svd(a, compute_uv=False),
            rtol=1e-10,
            atol=1e-12,
        )


class TestConditionNumber:
    def test_identity(self):
        assert condition_number(np.eye(4)) == 1.0

    def test_diagonal(self):
        assert condition_number(np.diag([4.0, 1.0])) == pytest.approx(4.0)

    def test_product_oracle(self):
        rng = np.random.default_rng(6)
        a = random_spd_generic(rng, 5)
        product = norm(a, NormKind.OPERATOR) * norm(spd_inverse(a), NormKind.OPERATOR)
        assert condition_number(a) == pytest.approx(product, rel=1e-10)

    @given(c=st.floats(min_value=1e-6, max_value=1e6))
    @settings(max_examples=30, deadline=None)
    def test_scale_invariant(self, c):
        a = np.diag([3.0, 1.0, 2.0])
        assert condition_number(c * a) == pytest.approx(
            condition_number(a), rel=1e-12
        )

    def test_not_pd(self):
        with pytest.raises(NotPositiveDefinite):
            condition_number(np.diag([1.0, -2.0]))


class TestEmptyMatrix:
    def test_empty_results(self):
        z = np.zeros((0, 0))
        spec = sym_eig(z)
        assert spec.eigenvalues.shape == (0,)
        assert spec.eigenvectors.shape == (0, 0)
        assert singular_values(z).shape == (0,)
        assert psd_sqrt(z).shape == (0, 0)
        for kind in NormKind:
            assert norm(z, kind) == 0.0

    def test_positive_definite_routines_refuse(self):
        for fn in (spd_inverse, condition_number):
            with pytest.raises(NotPositiveDefinite):
                fn(np.zeros((0, 0)))


def _jacobi_cases():
    """(matrix, max_sweeps) pairs; every matrix is exactly symmetric."""
    rng = np.random.default_rng(55)

    def sym(dim):
        a = rng.standard_normal((dim, dim))
        return (a + a.T) / 2.0

    q = random_orthogonal(rng, 6)
    repeated = (q * np.array([1.0, 1.0, 1.0, 2.0, 2.0, 3.0])) @ q.T
    # The doubled embedding of an antisymmetric B, as williamson solves it:
    # its exact zero blocks make many pairs skip, and its eigenvalues come in
    # +-pairs, each twice.
    b = rng.standard_normal((6, 6))
    doubled = _doubled(b - b.T)
    cases = [(sym(6), JACOBI_MAX_SWEEPS) for _ in range(5)]
    cases += [(sym(dim), JACOBI_MAX_SWEEPS) for dim in (1, 2, 3, 5, 20, 40, 80)]
    cases += [
        (np.eye(7), JACOBI_MAX_SWEEPS),
        ((repeated + repeated.T) / 2.0, JACOBI_MAX_SWEEPS),
        (random_spd(rng, 20, 1e6, 1e-3), JACOBI_MAX_SWEEPS),
        (random_spd(rng, 40, 1e6, 10.0), JACOBI_MAX_SWEEPS),
        (np.zeros((5, 5)), JACOBI_MAX_SWEEPS),
        (doubled, JACOBI_MAX_SWEEPS),
        # too few sweeps: the unconverged exit
        (sym(20), 1),
        (doubled, 2),
    ]
    # An exactly zero row and column, which no rotation touches.
    hole = sym(6)
    hole[2, :] = 0.0
    hole[:, 2] = 0.0
    b = rng.standard_normal((20, 20))
    cases += [
        # the kernel of a degenerate symplectic spectrum, as williamson
        # builds it: whole passes over a row rotate nothing
        (_doubled(_antisymmetric_kernel(williamson_form(rng, [2.0, 2.0, 1.0]))), JACOBI_MAX_SWEEPS),
        (hole, JACOBI_MAX_SWEEPS),
        (np.array([[-3.5]]), JACOBI_MAX_SWEEPS),
        # cut after one sweep: the unconverged exit must write the diagonal too
        (_doubled(b - b.T), 1),
    ]
    # In the first sweep, row 0's pass skips its first and last pairs and
    # rotates the three between them: (0, 1) is zero, and so is (0, 5),
    # which those rotations leave zero since (2..4, 5) are zero too.
    ends_skip = sym(6)
    ends_skip[0, 1] = ends_skip[1, 0] = 0.0
    ends_skip[[0, 2, 3, 4], 5] = ends_skip[5, [0, 2, 3, 4]] = 0.0
    # Off-diagonal entries of 1e-9 against diagonal gaps of 1: every
    # rotation has t*t below half an ulp of 1, so c is exactly 1.0.
    g = sym(8)
    near_diagonal = np.diag(np.arange(1.0, 9.0)) + 1e-9 * g
    # The doubled kernel H and the Gram matrix K^T K of the paired basis
    # that williamson solves for criterion-1-style matrices at 2n = 20 and
    # 40: H is 40x40 and 80x80, and K^T K is the identity to rounding.
    (h20, gram20), (h40, gram40) = (
        _williamson_solves(random_spd(rng, dim, 1e6, 10.0 ** rng.uniform(-1.0, 1.0)))
        for dim in (20, 40)
    )
    cases += [
        (ends_skip, JACOBI_MAX_SWEEPS),
        (near_diagonal, JACOBI_MAX_SWEEPS),
        (h20, JACOBI_MAX_SWEEPS),
        (gram20, JACOBI_MAX_SWEEPS),
        (h40, JACOBI_MAX_SWEEPS),
        (gram40, JACOBI_MAX_SWEEPS),
        # cut after one sweep
        (h20, 1),
    ]
    return cases


def _williamson_solves(m):
    # The matrices williamson hands sym_eig after its solve of M: the
    # doubled kernel, then K^T K for its orthogonality gate.
    from sympspec import symplectic

    seen = []
    real = symplectic.sym_eig

    def recording(a):
        seen.append(np.array(a))
        return real(a)

    with mock.patch.object(symplectic, "sym_eig", recording):
        symplectic.williamson(m)
    return seen


def _doubled(b):
    # The doubled embedding [[0, -B], [B, 0]]: exactly symmetric when B is
    # exactly antisymmetric.
    zero = np.zeros_like(b)
    return np.block([[zero, -b], [b, zero]])


def _antisymmetric_kernel(m):
    # B = M^-1/2 sigma M^-1/2, exactly antisymmetric, as williamson builds it.
    vals, vecs = np.linalg.eigh(m)
    inv_root = (vecs / np.sqrt(vals)) @ vecs.T
    inv_root = (inv_root + inv_root.T) / 2.0
    b = inv_root @ standard_form(m.shape[0] // 2) @ inv_root
    return (b - b.T) / 2.0


def test_jacobi_kernel_matches_loop_bitwise():
    # The row-slice kernel sym_eig runs must give the bytes of the
    # per-element loop kernel, the plain statement of the algorithm.
    from sympspec.densemat import _jacobi_kernel

    unconverged = 0
    for a, max_sweeps in _jacobi_cases():
        dim = a.shape[0]
        tol = JACOBI_OFF_TOL * float(np.sqrt(np.sum(a * a)))
        a_ref, v_ref = a.copy(), np.eye(dim)
        ref = jacobi_kernel_loop(a_ref, v_ref, tol, max_sweeps)
        unconverged += not ref[0]
        a_in = a.copy()
        w, *result = _jacobi_kernel(a_in, tol, max_sweeps)
        assert tuple(result) == ref
        assert w[:, :dim].tobytes() == a_ref.tobytes()
        assert w[:, dim:].T.tobytes() == v_ref.tobytes()
        # the kernel works in its own stack, never in its input
        assert a_in.tobytes() == a.tobytes()
    assert unconverged == 4


def _off_norm2_loop(a):
    # The loop kernel's squared off-diagonal norm: row-major, left to right.
    off2 = 0.0
    for i, row in enumerate(a.tolist()):
        for x in row[i + 1:]:
            off2 += 2.0 * x * x
    return off2


def test_off_norm_matches_loop_bitwise():
    # The kernel's vectorized off-norm decides convergence, so it must give
    # the loop's bits; np.sum's pairwise order would not.
    from sympspec.densemat import _off_norm2_in_order

    rng = np.random.default_rng(56)
    mats = [a for a, _ in _jacobi_cases()]
    for dim in (1, 2, 3, 7, 16, 33, 64, 120):
        for scale in (1e-30, 1.0, 1e30):
            g = rng.standard_normal((dim, dim))
            mats.append(scale * (g + g.T))
    for a in mats:
        dim = a.shape[0]
        upper = np.triu(np.ones((dim, dim), dtype=bool), 1)
        expected = _off_norm2_loop(a)
        assert _off_norm2_in_order(a, upper).hex() == expected.hex()


def test_sqrt_is_operator_monotone_compatible():
    rng = np.random.default_rng(31)
    for _ in range(40):
        a = random_spd_generic(rng, 4)
        b = random_spd_generic(rng, 4)
        lhs = norm(psd_sqrt(a) - psd_sqrt(b), NormKind.OPERATOR)
        rhs = np.sqrt(norm(a - b, NormKind.OPERATOR))
        assert lhs <= rhs + 1e-12


def _reference_symmetrize(a):
    # The asymmetry gate and the midpoint, taken on every input.
    from sympspec.densemat import TOL_SYM, _midpoint

    m = np.asarray(a, dtype=np.float64)
    scale = float(np.max(np.abs(m))) if m.size else 0.0
    with np.errstate(over="ignore"):
        asym = float(np.max(np.abs(m - m.T))) if m.size else 0.0
    assert asym <= TOL_SYM * scale
    return _midpoint(m, m.T, scale)


def _reference_exponent(m):
    # An independent rescale rule: 0 inside [2^-256, 2^256] or for a zero m,
    # else the binary exponent of the largest entry magnitude, odd or even.
    # The library rounds that exponent up to an even one; Jacobi commutes
    # with powers of two, so the two rules must give the same bits.
    amax = float(np.max(np.abs(m))) if m.size else 0.0
    if amax == 0.0 or 2.0 ** -256 <= amax <= 2.0 ** 256:
        return 0
    return int(np.frexp(amax)[1])


def _reference_sym_eig(a):
    # sym_eig as it was before its bitwise-symmetric fast path: the midpoint
    # on every input, an ldexp rescale and a contiguous copy at every
    # exponent, and a sign fix column by column.
    from sympspec.densemat import _jacobi_kernel

    m = _reference_symmetrize(a)
    n = m.shape[0]
    if n == 0:
        return np.zeros(0), np.zeros((0, 0))
    exp = _reference_exponent(m)
    work = np.ascontiguousarray(np.ldexp(m, -exp))
    off_tol = JACOBI_OFF_TOL * float(np.sqrt(np.sum(work * work)))
    w, converged, _ = _jacobi_kernel(work, off_tol, JACOBI_MAX_SWEEPS)
    assert converged
    vals = np.diag(w[:, :n]).copy()
    vecs = w[:, n:].T.copy()
    order = np.argsort(vals, kind="stable")
    vals = vals[order]
    vecs = vecs[:, order]
    for j in range(n):
        lead = int(np.argmax(np.abs(vecs[:, j])))
        if vecs[lead, j] < 0.0:
            vecs[:, j] = -vecs[:, j]
    return np.ldexp(vals, exp), vecs


def _reference_singular_values(a):
    m = np.asarray(a, dtype=np.float64)
    exp = _reference_exponent(m)
    m = np.ldexp(m, -exp)
    gram = m.T @ m
    vals = _reference_sym_eig((gram + gram.T) / 2.0)[0]
    return np.ldexp(np.sqrt(np.clip(vals, 0.0, None))[::-1], exp)


def _reference_norm(a, kind):
    m = np.asarray(a, dtype=np.float64)
    if kind is NormKind.FROBENIUS:
        exp = _reference_exponent(m)
        m = np.ldexp(m, -exp)
        return float(np.ldexp(np.sqrt(np.sum(m * m)), exp))
    s = _reference_singular_values(m)
    if kind is NormKind.OPERATOR:
        return float(s[0]) if s.size else 0.0
    return float(np.sum(s))


def _reference_spd_inverse(a):
    # spd_inverse restated: invert the rescaled matrix from its eigenpairs,
    # then scale back.
    m = _reference_symmetrize(a)
    exp = _reference_exponent(m)
    vals, vecs = _reference_sym_eig(np.ldexp(m, -exp))
    w = (vecs / vals) @ vecs.T
    return np.ldexp((w + w.T) / 2.0, -exp)


def _parity_cases():
    rng = np.random.default_rng(56)
    cases = [a for a, _ in _jacobi_cases()]
    # -0.0 opposite +0.0: the midpoint makes both +0.0; -0.0 opposite -0.0
    # stays -0.0 on both paths.
    cases.append(np.array([[1.0, -0.0, 0.5], [0.0, 2.0, -0.0], [0.5, -0.0, 3.0]]))
    cases.append(np.array([[-0.0, 1.0], [1.0, -0.0]]))
    # asymmetric within TOL_SYM: the midpoint path
    a = random_spd_generic(rng, 5)
    a[0, 3] += 1e-14 * float(np.max(np.abs(a)))
    cases += [a, np.asfortranarray(a)]
    # power-of-two scales, past the window and at the top of the range; the
    # largest entry's binary exponent is odd at 2^+-600 and even at 2^+-601
    m = random_spd_generic(rng, 6)
    cases += [np.ldexp(m, k) for k in (600, -600, 601, -601)]
    q = random_orthogonal(rng, 3)
    cases.append(np.ldexp((q * np.array([0.3, 0.5, 0.9])) @ q.T, 1023))
    cases += [np.zeros((0, 0)), np.array([[3.0]]), np.array([[-2.0]])]
    # sign ties: eigenvectors with equal-magnitude entries of opposite sign
    cases += [
        np.array([[0.0, 1.0], [1.0, 0.0]]),
        np.array([[2.0, -1.0], [-1.0, 2.0]]),
        np.ones((4, 4)) - 2.0 * np.eye(4),
    ]
    # bit-symmetric inputs in layouts other than C order, which sym_eig
    # solves uncopied: Fortran order, strided and reversed views
    s = random_spd_generic(rng, 5)
    big = random_spd_generic(rng, 10)
    cases += [np.asfortranarray(s), big[::2, ::2], s[::-1, ::-1]]
    cases += [np.asfortranarray(np.ldexp(s, k)) for k in (600, -600)]
    return cases


def _hex(x):
    return np.asarray(x, dtype=np.float64).tobytes().hex()


def test_symmetrization_halves_only_the_entries_whose_sum_overflows():
    # Entries at 2^1023 and above are halved before they are added, which is
    # exact; every other entry keeps the bits of the plain (a + b) / 2, which
    # differ from a / 2 + b / 2 for the smallest subnormal (5e-324 vs 0.0).
    # reduced_state over every mode returns the symmetrized matrix itself.
    from sympspec.gaussian import reduced_state

    big = 1.5 * 2.0 ** 1023
    big_up = float(np.nextafter(big, np.inf))
    tiny = 5e-324
    m = np.array(
        [
            [1.0, big, 0.0, 0.0],
            [big_up, 2.0, 0.0, 0.0],
            [0.0, 0.0, 3.0, tiny],
            [0.0, 0.0, tiny, 4.0],
        ]
    )
    got = reduced_state(m, [0, 1])
    assert got.tobytes() == got.T.tobytes()
    assert got[0, 1].hex() == (big / 2.0 + big_up / 2.0).hex()
    assert got[2, 3] == tiny
    assert got.diagonal().tolist() == [1.0, 2.0, 3.0, 4.0]


def test_call_path_matches_reference_bitwise():
    from sympspec.densemat import TOL_PD, _symmetric

    for a in _parity_cases():
        a_before = a.copy()
        # the symmetrized matrix itself reaches callers other than sym_eig
        assert _hex(_symmetric(a)) == _hex(_reference_symmetrize(a))
        spec = sym_eig(a)
        vals, vecs = _reference_sym_eig(a)
        assert _hex(spec.eigenvalues) == _hex(vals)
        assert _hex(spec.eigenvectors) == _hex(vecs)
        assert _hex(singular_values(a)) == _hex(_reference_singular_values(a))
        for kind in NormKind:
            assert norm(a, kind).hex() == _reference_norm(a, kind).hex()
        if vals.size and vals[0] > TOL_PD * float(np.max(np.abs(vals))):
            assert _hex(spd_inverse(a)) == _hex(_reference_spd_inverse(a))
            assert condition_number(a).hex() == float(vals[-1] / vals[0]).hex()
        else:
            for fn in (spd_inverse, condition_number):
                with pytest.raises(NotPositiveDefinite):
                    fn(a)
        assert a.tobytes() == a_before.tobytes()


def test_public_functions_leave_their_input_unwritten():
    from sympspec.symplectic import symplectic_spectrum, williamson

    m = random_spd_generic(np.random.default_rng(57), 4)
    calls = [
        sym_eig,
        psd_sqrt,
        spd_inverse,
        singular_values,
        condition_number,
        symplectic_spectrum,
        williamson,
    ]
    calls += [lambda a, kind=kind: norm(a, kind) for kind in NormKind]
    big = random_spd_generic(np.random.default_rng(58), 8)
    layouts = [m, np.asfortranarray(m), big[::2, ::2], m[::-1, ::-1], np.ldexp(m, 600)]
    layouts += [np.asfortranarray(np.ldexp(m, k)) for k in (600, -600)]
    for a in layouts:
        for fn in calls:
            before = a.copy()
            fn(a)
            assert a.tobytes() == before.tobytes()


def test_kept_matrices_are_copies():
    # sym_eig and the gates hand a bit-symmetric input on uncopied, and
    # _as_real a float64 mean, so the objects that keep an array copy it: a
    # later write by the caller leaves them as they were built.
    from sympspec.gaussian import GaussianState
    from sympspec.perturb import PerturbationCase

    m = random_spd_generic(np.random.default_rng(59), 4)
    e = np.diag([1.0, -1.0, 0.5, 0.0])
    cov = 2.0 * np.eye(4)
    mean = np.zeros(4)
    case = PerturbationCase(m, e, 1e-3)
    state = GaussianState.create(cov, mean)
    kept = (case.m.copy(), case._scaled[0][0].copy(), state.cov.copy())
    m[0, 0] = cov[0, 0] = mean[0] = 99.0
    assert case.m.tobytes() == kept[0].tobytes()
    assert case._scaled[0][0].tobytes() == kept[1].tobytes()
    assert state.cov.tobytes() == kept[2].tobytes()
    assert state.mean.tolist() == [0.0] * 4
