"""Bound checkers: frozen examples, randomized holds, counterexample firing."""

import math

import numpy as np
import pytest

from conftest import random_spd, random_spd_generic, random_symmetric_unit
from sympspec.densemat import NormKind, norm
from sympspec.errors import (
    BadIndices,
    DegenerateSpectrum,
    DimensionMismatch,
    NonFinite,
    NotInvertible,
    NotPositiveDefinite,
    NotSquare,
    OddDimension,
    OutOfValidityRange,
    PreconditionViolated,
    ZeroGap,
)
from sympspec.perturb import (
    COUNTEREXAMPLE_E,
    SWEEPABLE,
    PerturbationCase,
    bound_S,
    bound_bhatia_jain,
    bound_gram,
    bound_spectrum,
    check_eigvec_bound,
    check_inv_lemma,
    check_kappa_growth,
    check_projection_bound,
    check_sqrt_lemma,
    check_woodbury_norm,
    counterexample_scaling,
    degenerate_demo,
    sweep,
    _min_opnorm_over_rotations,
)
from sympspec.symplectic import symplectic_spectrum, williamson

ALL_KINDS = (NormKind.OPERATOR, NormKind.FROBENIUS, NormKind.TRACE)


class TestPerturbationCase:
    def test_normalizes_direction(self):
        case = PerturbationCase(np.eye(2), 5.0 * np.eye(2), 0.1)
        assert norm(case.e, NormKind.OPERATOR) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_nonpositive_perturbed(self):
        with pytest.raises(NotPositiveDefinite):
            PerturbationCase(np.eye(2), -np.eye(2), 2.0)

    def test_rejects_bad_epsilon(self):
        with pytest.raises(OutOfValidityRange):
            PerturbationCase(np.eye(2), np.eye(2), 0.0)

    def test_rejects_zero_direction(self):
        with pytest.raises(OutOfValidityRange, match="E must be nonzero"):
            PerturbationCase(np.eye(2), np.zeros((2, 2)), 0.1)

    def test_rejects_odd_dimension_when_built(self):
        with pytest.raises(OddDimension):
            PerturbationCase(np.diag([1.0, 2.0, 3.0]), np.eye(3), 1e-3)

    def test_rejects_lambda_max_past_the_largest_float_when_built(self):
        # Every entry is finite, and M / 4^512 is positive definite, but
        # lambda_max(M) = 2.5e308 is not a float.
        m = np.array([[1.5e308, 1e308], [1e308, 1.5e308]])
        with pytest.raises(NonFinite, match="exceeds the largest float"):
            PerturbationCase(m, np.eye(2), 1e-3)


# Every epsilon gate, with inputs that pass it at a finite epsilon.
EPSILON_GATES = {
    "case": lambda eps: PerturbationCase(np.eye(2), np.eye(2), eps),
    "woodbury": lambda eps: check_woodbury_norm(np.diag([2.0, 3.0]), np.eye(2), eps),
    "kappa_growth": lambda eps: check_kappa_growth(np.diag([2.0, 3.0]), np.eye(2), eps),
    "eigvec": lambda eps: check_eigvec_bound(np.diag([1.0, 2.0, 4.0]), 0.5 * np.eye(3), eps),
}


@pytest.mark.parametrize("name", sorted(EPSILON_GATES))
def test_rejects_infinite_epsilon(name):
    # inf * E would otherwise reach numpy as inf * 0
    EPSILON_GATES[name](1e-3)
    with pytest.raises(OutOfValidityRange, match="epsilon must be finite, got inf"):
        EPSILON_GATES[name](math.inf)


class TestBoundSpectrum:
    def test_scaling_equality(self):
        for kind in ALL_KINDS:
            r = bound_spectrum(np.eye(2), 1.5 * np.eye(2), kind)
            assert r.holds
            assert r.lhs == pytest.approx(r.rhs, abs=1e-12)

    def test_frozen_counterexample_pair(self):
        # lhs is the closed-form root gap sqrt(33) - sqrt(33 - 3.2 - 0.0725)
        m = np.diag([33.0, 1.0])
        mp = m + 0.05 * COUNTEREXAMPLE_E
        r = bound_spectrum(m, mp, NormKind.OPERATOR)
        assert r.lhs == pytest.approx(0.2922695509680551, abs=1e-12)
        assert r.holds

    def test_random_pairs_hold(self):
        rng = np.random.default_rng(70)
        for _ in range(60):
            dim = 2 * rng.integers(1, 4)
            m = random_spd_generic(rng, int(dim))
            mp = random_spd_generic(rng, int(dim))
            for kind in ALL_KINDS:
                assert bound_spectrum(m, mp, kind).holds


class TestBhatiaJain:
    def test_frozen_double_identity(self):
        r = bound_bhatia_jain(np.eye(2), 2.0 * np.eye(2))
        assert r.lhs == pytest.approx(1.0, abs=1e-14)
        assert r.rhs == pytest.approx(1.0 + math.sqrt(2.0), abs=1e-14)
        assert "spectrum_rhs" in r.details

    def test_equal_inputs(self):
        m = np.diag([4.0, 1.0])
        r = bound_bhatia_jain(m, m)
        assert r.lhs == 0.0
        assert r.rhs == 0.0
        assert r.holds

    def test_random_pairs_hold(self):
        rng = np.random.default_rng(71)
        for _ in range(60):
            m = random_spd_generic(rng, 4)
            mp = random_spd_generic(rng, 4)
            assert bound_bhatia_jain(m, mp).holds


class TestCounterexampleScaling:
    def test_fires_at_33(self):
        r = counterexample_scaling(33.0, 0.05, 1.0)
        assert r.holds
        assert r.lhs == pytest.approx(0.05 * math.sqrt(29.0), rel=1e-15)
        assert r.rhs == pytest.approx(0.2922695509680551, abs=1e-12)
        assert r.details["x0"] == 29

    def test_does_not_fire_at_one(self):
        assert not counterexample_scaling(1.0, 0.05, 1.0).holds

    def test_x0_matches_direct_scan(self):
        # x0 is the first integer x >= 1 at which the firing inequality holds.
        xs = np.arange(1, 1_000_001, dtype=np.float64)
        rng = np.random.default_rng(88)
        pairs = [(0.05, 0.1), (0.05, 1.0), (1e-4, 100.0)] + list(
            zip(10.0 ** rng.uniform(-5.0, -1.1, 30), 10.0 ** rng.uniform(-1.0, 2.0, 30))
        )
        found = []
        for eps, c in pairs:
            eps, c = float(eps), float(c)
            left = 2.0 * np.sqrt(29.0 * xs) * c * eps
            right = 29.0 * eps * eps * (1.0 + c * c) + 2.0 * eps * (xs - 1.0)
            # squaring keeps the inequality only where sqrt(x) > c eps sqrt(29)
            fires = (left <= right) & (np.sqrt(xs) > np.sqrt(29.0) * c * eps)
            expected = int(xs[np.nonzero(fires)[0][0]])
            assert counterexample_scaling(50.0, eps, c).details["x0"] == expected
            found.append(expected)
        assert found[0] == 1 and found[2] > 200_000

    def test_x0_is_first_integer_that_fires(self):
        # c eps sqrt(29) = 26.9 > 1: the squared inequality alone holds at x = 1
        x0 = counterexample_scaling(1.0, 0.05, 100.0).details["x0"]
        assert x0 == 275310
        assert counterexample_scaling(float(x0), 0.05, 100.0).holds
        assert not counterexample_scaling(float(x0 - 1), 0.05, 100.0).holds

    def test_x0_beyond_scan_cap_is_none(self):
        assert counterexample_scaling(50.0, 1e-4, 1000.0).details["x0"] is None

    @pytest.mark.parametrize("eps, c", [(0.05, 1e154), (0.05, 1e300), (1e-160, 1e155)])
    def test_x0_for_huge_c_is_none(self, eps, c):
        # x0 >= 29 c^2 / 4 lies far past the cap; c * c would overflow
        assert counterexample_scaling(1.0, eps, c).details["x0"] is None

    @pytest.mark.parametrize("x, c, name", [(math.inf, 1.0, "x"), (33.0, math.inf, "c")])
    def test_rejects_non_finite_x_and_c(self, x, c, name):
        # at x = inf the rhs is inf - inf; at c = inf the lhs is inf
        with pytest.raises(OutOfValidityRange, match=f"{name} must be finite"):
            counterexample_scaling(x, 0.05, c)

    def test_closed_forms_match_library(self):
        x, eps = 33.0, 0.05
        r = counterexample_scaling(x, eps, 1.0)
        m = np.diag([x, 1.0])
        d0 = symplectic_spectrum(m)[0]
        de = symplectic_spectrum(m + eps * COUNTEREXAMPLE_E)[0]
        assert d0 == pytest.approx(r.details["d_unperturbed"], rel=1e-12)
        assert de == pytest.approx(r.details["d_perturbed"], rel=1e-12)

    def test_validity_gates(self):
        with pytest.raises(OutOfValidityRange):
            counterexample_scaling(0.5, 0.05, 1.0)
        with pytest.raises(OutOfValidityRange):
            counterexample_scaling(33.0, 0.2, 1.0)
        with pytest.raises(OutOfValidityRange):
            counterexample_scaling(33.0, 0.05, -1.0)


class TestBoundS:
    def test_pure_scaling_gives_zero_lhs(self):
        m = np.diag([4.0, 1.0])
        r = bound_S(PerturbationCase(m, m, 1e-3))
        assert r.lhs <= 1e-10
        assert r.holds

    def test_seeded_case_holds(self):
        rng = np.random.default_rng(72)
        m = np.diag([4.0, 1.0])
        e = random_symmetric_unit(rng, 2)
        r = bound_S(PerturbationCase(m, e, 1e-4))
        assert r.preconditions_met
        assert r.holds

    def test_degenerate_rejected(self):
        rng = np.random.default_rng(73)
        e = random_symmetric_unit(rng, 4)
        with pytest.raises(DegenerateSpectrum):
            bound_S(PerturbationCase(np.eye(4), e, 1e-5))

    def test_single_mode_delta_is_twice_d(self):
        r = bound_S(PerturbationCase(np.diag([4.0, 1.0]), np.eye(2), 1e-4))
        assert r.details["delta"] == pytest.approx(4.0, rel=1e-12)


class TestBoundGram:
    def test_pure_scaling(self):
        m = np.diag([4.0, 1.0])
        r = bound_gram(PerturbationCase(m, m, 1e-4))
        assert r.lhs <= 1e-10
        assert r.holds

    def test_degenerate_input_allowed(self):
        rng = np.random.default_rng(74)
        e = random_symmetric_unit(rng, 4)
        r = bound_gram(PerturbationCase(np.eye(4), e, 1e-6))
        assert r.preconditions_met
        assert r.holds

    def test_epsilon_gate_flagged_not_fatal(self):
        m = np.diag([4.0, 1.0])
        r = bound_gram(PerturbationCase(m, np.eye(2), 4.0))
        assert not r.preconditions_met
        assert not r.details["epsilon_in_range"]

    def test_gauge_invariance_of_lhs(self):
        # A degenerate spectrum has residual gauge freedom; the Gram factor
        # must not see it for another diagonalizer of the same M.
        rng = np.random.default_rng(75)
        e = random_symmetric_unit(rng, 4)
        case = PerturbationCase(np.eye(4), e, 1e-5)
        r1 = bound_gram(case)
        from sympspec.densemat import spd_inverse

        # The mode swap is symplectic and orthogonal: another diagonalizer of I.
        swap = np.eye(4)[:, [1, 0, 3, 2]]
        fac_eps = williamson(case.perturbed())
        lhs_rev = norm(
            spd_inverse(swap @ swap.T)
            - spd_inverse(fac_eps.S @ fac_eps.S.T),
            NormKind.OPERATOR,
        )
        assert abs(lhs_rev - r1.lhs) <= 1e-8


def _demo_pair(eps):
    block = np.array([[1.0, eps], [eps, 1.0]])
    m = np.block([[block, np.zeros((2, 2))], [np.zeros((2, 2)), block]])
    mp = np.diag([1 + eps, 1 - eps, 1 + eps, 1 - eps])
    return m, mp


def _loop_min_opnorm(s, sp, angles):
    # Per-angle reference for the gauge scan: D = S - S' R(theta1, theta2)
    # entry by entry, then 60 power steps on D^T D from a vector of ones.
    best = np.inf
    for t1 in angles:
        c1, s1 = np.cos(t1), np.sin(t1)
        for t2 in angles:
            c2, s2 = np.cos(t2), np.sin(t2)
            d = np.empty((4, 4))
            for r in range(4):
                d[r, 0] = s[r, 0] - (c1 * sp[r, 0] + s1 * sp[r, 2])
                d[r, 2] = s[r, 2] - (-s1 * sp[r, 0] + c1 * sp[r, 2])
                d[r, 1] = s[r, 1] - (c2 * sp[r, 1] + s2 * sp[r, 3])
                d[r, 3] = s[r, 3] - (-s2 * sp[r, 1] + c2 * sp[r, 3])
            g = d.T @ d
            v = np.ones(4)
            lam = 0.0
            for _ in range(60):
                w = g @ v
                nw = np.sqrt(w @ w)
                if nw == 0.0:
                    lam = 0.0
                    break
                v = w / nw
                lam = nw
            best = min(best, lam)
    return np.sqrt(best)


class TestDegenerateDemo:
    def test_commutator_positive(self):
        rep = degenerate_demo(1e-3)
        assert rep.commutator_norm > 0.0

    def test_aligned_distance_is_grid_minimum(self):
        # The scan's power iteration against a full SVD over the same grid.
        eps = 1e-3
        m, mp = _demo_pair(eps)
        s, sp = williamson(m).S, williamson(mp).S
        angles = np.arange(360) * (2.0 * math.pi / 360.0)
        c1, s1 = np.cos(angles)[:, None], np.sin(angles)[:, None]
        c2, s2 = np.cos(angles)[None, :], np.sin(angles)[None, :]
        rot = np.zeros((360, 360, 4, 4))
        rot[..., 0, 0], rot[..., 2, 0], rot[..., 0, 2], rot[..., 2, 2] = c1, s1, -s1, c1
        rot[..., 1, 1], rot[..., 3, 1], rot[..., 1, 3], rot[..., 3, 3] = c2, s2, -s2, c2
        svd_min = float(np.min(np.linalg.svd(s - sp @ rot, compute_uv=False)[..., 0]))
        rep = degenerate_demo(eps)
        assert rep.s_dist_aligned_over_gauge_family == pytest.approx(svd_min, rel=1e-12)

    def test_gauge_scan_matches_loop_bitwise(self):
        m, mp = _demo_pair(1e-3)
        s, sp = williamson(m).S, williamson(mp).S
        angles = np.arange(0, 360, 15) * (2.0 * math.pi / 360.0)
        assert _min_opnorm_over_rotations(s, sp, angles) == _loop_min_opnorm(s, sp, angles)
        # S' = S makes D = 0 at zero angles, the power iteration's early exit
        assert _min_opnorm_over_rotations(s, s, angles) == 0.0 == _loop_min_opnorm(s, s, angles)

    def test_matrices_spd_and_residuals(self):
        m, mp = _demo_pair(1e-3)
        for mat in (m, mp):
            assert np.linalg.eigvalsh(mat)[0] > 0
            fac = williamson(mat)
            assert fac.residual_diag <= 1e-8 * norm(mat, NormKind.OPERATOR)
            assert fac.residual_symp <= 1e-8

    def test_out_of_range(self):
        with pytest.raises(OutOfValidityRange):
            degenerate_demo(1.5)


class TestSqrtLemma:
    def test_frozen_example(self):
        r = check_sqrt_lemma(4.0 * np.eye(2), np.eye(2), NormKind.OPERATOR)
        assert r.lhs == pytest.approx(1.0, abs=1e-14)
        assert r.rhs == pytest.approx(math.sqrt(3.0), abs=1e-14)

    def test_equal_inputs(self):
        a = np.diag([2.0, 3.0])
        r = check_sqrt_lemma(a, a)
        assert r.lhs == 0.0 and r.holds

    def test_random_all_kinds(self):
        rng = np.random.default_rng(76)
        for _ in range(30):
            a = random_spd_generic(rng, 3)
            b = random_spd_generic(rng, 3)
            for kind in ALL_KINDS:
                assert check_sqrt_lemma(a, b, kind).holds

    def test_shape_gate_comes_first(self):
        # Two faults, mismatched shapes and an indefinite A: the gate reports
        # the shapes before any square root is taken.
        with pytest.raises(DimensionMismatch):
            check_sqrt_lemma(-np.eye(2), np.eye(4))


class TestInvLemma:
    def test_scalar_equality(self):
        r = check_inv_lemma(np.eye(2), 2.0 * np.eye(2), NormKind.OPERATOR)
        assert r.lhs == pytest.approx(0.5, abs=1e-15)
        assert r.rhs == pytest.approx(0.5, abs=1e-15)
        assert r.holds

    def test_random_all_kinds(self):
        rng = np.random.default_rng(77)
        for _ in range(30):
            a = random_spd_generic(rng, 3)
            b = random_spd_generic(rng, 3)
            for kind in ALL_KINDS:
                assert check_inv_lemma(a, b, kind).holds

    def test_shape_gate_comes_first(self):
        with pytest.raises(DimensionMismatch):
            check_inv_lemma(-np.eye(2), np.eye(4))

    def test_inverse_beyond_float_range_raises(self):
        a = random_spd(np.random.default_rng(78), 4, 10.0)
        with pytest.raises(NonFinite):
            check_inv_lemma(a * 1e-310, a * 2e-310)


class TestWoodbury:
    def test_singular_matrix(self):
        with pytest.raises(NotInvertible):
            check_woodbury_norm(np.diag([1.0, 0.0]), np.eye(2), 1e-3)

    def test_identity_floor(self):
        rng = np.random.default_rng(78)
        r = check_woodbury_norm(np.eye(2), rng.standard_normal((2, 2)), 0.25)
        assert r.lhs <= 4.0 / 3.0 + 1e-12
        assert r.holds

    def test_boundary_still_holds(self):
        # ||M^-1|| = 1/(2 eps) exactly
        r = check_woodbury_norm(np.diag([0.5, 3.0]), np.eye(2), 0.25)
        assert r.holds

    def test_gate_violation(self):
        with pytest.raises(PreconditionViolated):
            check_woodbury_norm(np.diag([0.4, 3.0]), np.eye(2), 0.25)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            check_woodbury_norm(np.eye(3), np.eye(2), 1e-3)

    def test_singular_perturbed_matrix(self):
        # M passes the gate at its boundary; M + eps E = diag(1, 1e-12) does not
        with pytest.raises(NotInvertible, match="perturbed"):
            check_woodbury_norm(np.diag([1.0, 2e-12]), np.diag([0.0, -1.0]), 1e-12)

    @pytest.mark.parametrize("eps", [0.0, -1.0, math.nan])
    def test_rejects_nonpositive_epsilon(self, eps):
        # before the 1/(2 eps) gate, which divides by zero at eps = 0
        with pytest.raises(OutOfValidityRange, match="epsilon must be positive"):
            check_woodbury_norm(np.diag([2.0, 3.0]), np.eye(2), eps)


class TestKappaGrowth:
    def test_identity_case(self):
        rng = np.random.default_rng(79)
        r = check_kappa_growth(np.eye(2), random_symmetric_unit(rng, 2), 0.25)
        assert r.lhs <= 5.0 / 3.0 + 1e-12
        assert r.holds

    def test_continuity_endpoint(self):
        m = np.diag([3.0, 1.0])
        r = check_kappa_growth(m, np.eye(2), 1e-12)
        assert r.lhs == pytest.approx(3.0, rel=1e-9)
        assert r.holds

    def test_random_within_gates(self):
        rng = np.random.default_rng(80)
        for _ in range(30):
            m = random_spd_generic(rng, 3)
            lam_min = np.linalg.eigvalsh(m)[0]
            eps = 0.4 * lam_min
            assert check_kappa_growth(m, random_symmetric_unit(rng, 3), eps).holds

    @pytest.mark.parametrize("eps", [0.0, -1.0, math.nan])
    def test_rejects_nonpositive_epsilon(self, eps):
        with pytest.raises(OutOfValidityRange, match="epsilon must be positive"):
            check_kappa_growth(np.diag([2.0, 3.0]), np.eye(2), eps)

    def test_gate_violation(self):
        # ||M^-1|| = 10 exceeds 1/(2 eps) = 5
        with pytest.raises(PreconditionViolated, match="exceeds 1/\\(2 eps\\)"):
            check_kappa_growth(np.diag([0.1, 1.0]), np.eye(2), 0.1)

    def test_rhs_is_finite_where_four_lambda_max_is_not(self):
        # kappa(M) = 1, so rhs = 4 kappa(M) = 4, although 4 * lambda_max
        # passes the largest float.
        r = check_kappa_growth(1e308 * np.eye(2), np.eye(2), 1e-3)
        assert (r.lhs, r.rhs, r.holds) == (1.0, 4.0, True)


class TestEigvecBound:
    def test_zero_epsilon(self):
        rng = np.random.default_rng(81)
        b = random_symmetric_unit(rng, 3)
        r = check_eigvec_bound(np.diag([1.0, 2.0, 4.0]), b, 0.0)
        assert r.lhs == 0.0

    def test_seeded_case(self):
        rng = np.random.default_rng(82)
        b = random_symmetric_unit(rng, 3)
        r = check_eigvec_bound(np.diag([1.0, 2.0, 4.0]), b, 1e-4)
        assert r.holds
        assert r.details["gap"] == pytest.approx(1.0)

    def test_negative_epsilon(self):
        rng = np.random.default_rng(84)
        b = random_symmetric_unit(rng, 3)
        with pytest.raises(OutOfValidityRange):
            check_eigvec_bound(np.diag([1.0, 2.0, 4.0]), b, -1.0)

    def test_empty_matrices(self):
        with pytest.raises(OutOfValidityRange):
            check_eigvec_bound(np.zeros((0, 0)), np.zeros((0, 0)), 1e-3)

    def test_direction_norm_above_one(self):
        with pytest.raises(PreconditionViolated, match="must not exceed 1"):
            check_eigvec_bound(np.diag([1.0, 2.0, 4.0]), 2.0 * np.eye(3), 1e-3)

    def test_repeated_eigenvalue(self):
        rng = np.random.default_rng(83)
        b = random_symmetric_unit(rng, 3)
        with pytest.raises(DegenerateSpectrum):
            check_eigvec_bound(np.diag([1.0, 1.0, 2.0]), b, 1e-4)


class TestProjectionBound:
    def test_same_matrix_disjoint_subsets(self):
        a = np.diag([0.0, 1.0, 5.0])
        r = check_projection_bound(a, a, (0, 1), (2, 3))
        assert r.lhs <= 1e-14
        assert r.holds

    def test_frozen_example(self):
        r = check_projection_bound(
            np.diag([0.0, 10.0]), np.diag([1.0, 10.5]), (0, 1), (1, 2)
        )
        assert r.details["delta"] == pytest.approx(10.5)
        assert r.holds

    def test_random_constructed_gap(self):
        rng = np.random.default_rng(84)
        for _ in range(30):
            a = random_spd_generic(rng, 4)
            b = a + 0.01 * random_symmetric_unit(rng, 4)
            r = check_projection_bound(a, b, (0, 2), (2, 4))
            assert r.holds

    # The last two have integer items past the second, which are refused,
    # not ignored.
    @pytest.mark.parametrize(
        "s1",
        [(0, 1.5), ("0", "2"), (math.inf, 2), (0.0, 2.0), (0, 2, 99), np.array([0, 2, 7])],
    )
    def test_index_range_must_be_integers(self, s1):
        a = np.diag([1.0, 2.0, 3.0, 4.0])
        with pytest.raises(BadIndices, match="integer pair"):
            check_projection_bound(a, a + 0.01 * np.eye(4), s1, (2, 4))

    def test_range_past_n(self):
        a = np.diag([1.0, 2.0, 3.0, 4.0])
        with pytest.raises(BadIndices, match="not a valid range for n=4"):
            check_projection_bound(a, a + 0.01 * np.eye(4), (0, 2), (2, 5))

    def test_numpy_integer_range(self):
        a = np.diag([1.0, 2.0, 3.0, 4.0])
        b = a + 0.01 * np.eye(4)
        got = check_projection_bound(a, b, (np.int64(0), np.int64(2)), (2, 4))
        assert got == check_projection_bound(a, b, (0, 2), (2, 4))

    def test_zero_gap(self):
        a = np.diag([1.0, 2.0])
        with pytest.raises(ZeroGap):
            check_projection_bound(a, a, (0, 1), (0, 1))


class TestSweep:
    def test_gram_on_identity(self):
        rng = np.random.default_rng(85)
        e = random_symmetric_unit(rng, 4)
        rep = sweep(np.eye(4), e, np.geomspace(1e-8, 1e-4, 5), "gram")
        assert len(rep.grid) == 5
        assert all(r.holds for _, r in rep.grid)

    def test_spectrum_slope_near_one(self):
        rng = np.random.default_rng(86)
        m = random_spd(rng, 4, 10.0)
        e = random_symmetric_unit(rng, 4)
        rep = sweep(m, e, np.geomspace(1e-6, 1e-3, 8), "spectrum")
        assert rep.slope == pytest.approx(1.0, abs=0.1)

    def test_all_gates_fail_is_not_fatal(self):
        # woodbury requires ||M^-1|| <= 1/(2 eps); huge epsilons all violate it
        rep = sweep(np.eye(2), np.eye(2), [10.0, 20.0], "woodbury")
        assert len(rep.grid) == 0
        assert len(rep.errors) == 2
        assert rep.slope is None

    @pytest.mark.parametrize("name", ["woodbury", "kappa_growth"])
    def test_zero_epsilon_point_is_recorded(self, name):
        rep = sweep(np.diag([2.0, 3.0]), np.eye(2), [0.0, 1e-3], name)
        assert [eps for eps, _ in rep.grid] == [1e-3]
        assert rep.errors == (
            (0.0, "OutOfValidityRange: epsilon must be positive, got 0.0"),
        )

    @pytest.mark.parametrize("name", sorted(SWEEPABLE))
    def test_negative_epsilon_is_left_out_of_the_fit(self, name):
        # each bound decides its own epsilon domain; the fit takes eps > 0 only
        rng = np.random.default_rng(87)
        m = random_spd(rng, 4, 10.0)
        e = random_symmetric_unit(rng, 4)
        rep = sweep(m, e, [-1e-3, 1e-4, 1e-3], name)
        assert sorted([eps for eps, _ in rep.grid] + [eps for eps, _ in rep.errors]) == [
            -1e-3, 1e-4, 1e-3
        ]
        assert rep.slope == sweep(m, e, [1e-4, 1e-3], name).slope

    def test_non_library_error_propagates(self, monkeypatch):
        # only SympspecError is a recorded per-point failure; anything else is a bug
        def broken(m, mp, kind):
            raise TypeError("not a domain error")

        monkeypatch.setitem(SWEEPABLE, "spectrum", (False, broken))
        with pytest.raises(TypeError, match="not a domain error"):
            sweep(np.eye(2), np.eye(2), [1e-3], "spectrum")

    def test_sweepable_names_and_order(self):
        # the `checkers` benchmark picks its sweep bound by index into this
        # tuple, so a renamed, added or reordered bound changes its workload
        assert tuple(SWEEPABLE) == (
            "spectrum", "bhatia_jain", "s_stability", "gram", "sqrt_lemma",
            "inv_lemma", "woodbury", "kappa_growth", "eigvec",
        )

    @pytest.mark.parametrize("name", sorted(SWEEPABLE))
    def test_rejects_shape_mismatch(self, name):
        # checked before the loop: spectrum, bhatia_jain, sqrt_lemma and
        # inv_lemma would otherwise form M + eps E and fail inside numpy
        with pytest.raises(DimensionMismatch):
            sweep(np.eye(4), np.eye(2), [1e-4, 1e-3], name)

    @pytest.mark.parametrize("name", sorted(SWEEPABLE))
    def test_rejects_non_square_m(self, name):
        # M is gated before its shape is compared with E's
        with pytest.raises(NotSquare, match=r"got shape \(2, 3\)"):
            sweep(np.ones((2, 3)), np.eye(2), [1e-4, 1e-3], name)

    @pytest.mark.parametrize("grid", [[1e-3, math.inf], [1e-3, math.nan], [math.nan, 1e-3]])
    def test_rejects_non_finite_grid(self, grid):
        # before the loop, so no point is recorded as a failure
        with pytest.raises(OutOfValidityRange, match="epsilon must be finite"):
            sweep(np.eye(2), np.eye(2), grid, "spectrum")

    def test_rejects_bad_grid(self):
        with pytest.raises(OutOfValidityRange):
            sweep(np.eye(2), np.eye(2), [1e-3, 1e-4], "gram")
        with pytest.raises(OutOfValidityRange):
            sweep(np.eye(2), np.eye(2), [1e-3], "nope")
