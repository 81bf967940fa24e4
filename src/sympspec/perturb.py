"""Executable perturbation bounds for symplectic spectra and diagonalizers.

Each checker evaluates one inequality on concrete matrices and returns a
BoundReport with both sides, whether the preconditions were met, and whether
the inequality held. Theorem-backed bounds are expected to hold whenever
their preconditions do; the scaling counterexample instead *fires* when the
spectrum moves more than a fixed multiple of the perturbation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .densemat import (
    NormKind,
    as_matrix,
    condition_number,
    identity_norm,
    norm,
    psd_sqrt,
    singular_values,
    spd_inverse,
    sym_eig,
    _extremes,
    _index,
    _norms,
    _reuses_solves,
    _spd,
    _spd_inverse,
    _square,
    _symmetric_pair,
    _unscale,
    TOL_PD,
)
from .errors import (
    BadIndices,
    DegenerateSpectrum,
    DimensionMismatch,
    NonFinite,
    NotInvertible,
    OutOfValidityRange,
    PreconditionViolated,
    SympspecError,
    ZeroGap,
)
from .symplectic import (
    standard_form,
    _gauge_align,
    _scaled_spd,
    _spectrum_pair,
    _williamson_core,
)

HOLDS_SLACK = 1e-12          # slack in the holds comparison, times max(1, rhs)
SLOPE_FLOOR = 1e-14          # grid points below this lhs are left out of fits
COUNTEREXAMPLE_SCAN_CAP = 10_000_000   # x0 beyond this x is reported as None

# The fixed direction used by the scaling counterexample; its two singular
# values coincide at sqrt(29).
COUNTEREXAMPLE_E = np.array([[2.0, -5.0], [-5.0, -2.0]])


@dataclass(frozen=True)
class BoundReport:
    """One evaluated inequality: lhs <= rhs (or, for counterexamples, rhs > lhs)."""

    lhs: float
    rhs: float
    norm_kind: NormKind
    preconditions_met: bool
    holds: bool
    margin: float
    label: str
    details: dict = field(default_factory=dict)

    @classmethod
    def from_sides(cls, lhs, rhs, norm_kind, preconditions_met, label, details=None):
        lhs = float(lhs)
        rhs = float(rhs)
        return cls(
            lhs=lhs,
            rhs=rhs,
            norm_kind=norm_kind,
            preconditions_met=bool(preconditions_met),
            holds=bool(lhs <= rhs + HOLDS_SLACK * max(1.0, rhs)),
            margin=rhs - lhs,
            label=label,
            details=details or {},
        )


@dataclass(frozen=True)
class SweepReport:
    """One bound evaluated across an increasing epsilon grid."""

    description: str
    grid: tuple
    slope: float | None
    errors: tuple = ()


@dataclass(frozen=True)
class DegenerateDemoReport:
    """Distances for the near-degenerate pair of 4x4 matrices."""

    epsilon: float
    s_dist_canonical: float
    s_dist_aligned_over_gauge_family: float
    gram_dist: float
    commutator_norm: float


@dataclass(frozen=True)
class PerturbationCase:
    """A perturbation M + epsilon * E with E normalized to unit operator norm."""

    m: np.ndarray
    e: np.ndarray
    epsilon: float
    # _scaled_spd's tuples for M and M + epsilon E, whose spectra the checks
    # solved, and M's (lambda_min, lambda_max); the stability checkers start there.
    _scaled: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m, e = _symmetric_pair(self.m, self.e)
        _require_positive_epsilon(self.epsilon)
        # The case keeps M, so it keeps its own copy, never the caller's array.
        m = m.copy()
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "e", _unit_direction(e))
        object.__setattr__(self, "epsilon", float(self.epsilon))
        # Each read of a spectrum at its matrix's own scale is a gate too.
        scaled = _scaled_spd(m, "M")
        extremes = _extremes(scaled[3], scaled[2], "M")
        scaled_eps = _scaled_spd(self.perturbed(), "M + epsilon E")
        _extremes(scaled_eps[3], scaled_eps[2], "M + epsilon E")
        object.__setattr__(self, "_scaled", (scaled, scaled_eps, extremes))

    def perturbed(self) -> np.ndarray:
        return _perturbed(self.m, self.e, self.epsilon)


def _finite_sum(a, factor: float, b, what: str) -> np.ndarray:
    # a + factor * b, raising NonFinite where an entry passes the largest
    # float, as is_symplectic does for its product, instead of warning and
    # returning inf.
    with np.errstate(over="ignore"):
        total = a + factor * b
    if not np.isfinite(total).all():
        raise NonFinite(f"{what} has an entry past the largest float")
    return total


def _perturbed(m, e, epsilon: float) -> np.ndarray:
    # M + epsilon E, for PerturbationCase, the checkers that move M and sweep.
    return _finite_sum(m, epsilon, e, "M + epsilon E")


def _require_finite(name: str, value) -> None:
    # Scalars are checked before numpy sees them: inf * 0 would warn and
    # then fail later as NonFinite, or pass as a meaningless result.
    if not math.isfinite(value):
        raise OutOfValidityRange(f"{name} must be finite, got {value}")


def _require_positive_epsilon(epsilon):
    # NaN fails too; the bounds divide by epsilon.
    if not epsilon > 0.0:
        raise OutOfValidityRange(f"epsilon must be positive, got {epsilon}")
    _require_finite("epsilon", epsilon)


def _unit_direction(e):
    # E scaled to unit operator norm; a zero E has no direction.
    e_norm = norm(e, NormKind.OPERATOR)
    if e_norm == 0.0:
        raise OutOfValidityRange("E must be nonzero")
    return e / e_norm


def bound_spectrum(m, mp, kind: NormKind = NormKind.OPERATOR) -> BoundReport:
    """Condition-number bound on the symplectic spectrum shift.

    ||diag(d,d) - diag(d',d')||  <=  sqrt(kappa(M) kappa(M')) ||M - M'||
    in any of the implemented unitarily invariant norms.
    """
    return _spectrum_bound(*_symmetric_pair(m, mp), kind)[0]


def _spectrum_bound(a, b, kind):
    # bound_spectrum's report on a gated symmetric pair, ||a||_op and
    # ||b||_op, and ||a - b||.
    d, dp, na, nb, root_kappa = _spectrum_pair(a, b)
    lhs = norm(np.diag(np.concatenate([d, d]) - np.concatenate([dp, dp])), kind)
    diff = norm(a - b, kind)
    return BoundReport.from_sides(lhs, root_kappa * diff, kind, True, "spectrum"), na, nb, diff


def bound_bhatia_jain(m, mp) -> BoundReport:
    """Square-root-type spectrum bound, for comparison with ``bound_spectrum``.

    ||diag(d,d) - diag(d',d')||_op <= (||M||^1/2 + ||M'||^1/2) ||M - M'||^1/2.
    The report carries the condition-number bound's rhs in its details.
    """
    a, b = _symmetric_pair(m, mp)
    spectrum, na, nb, diff = _spectrum_bound(a, b, NormKind.OPERATOR)
    rhs = (math.sqrt(na) + math.sqrt(nb)) * math.sqrt(diff)
    return BoundReport.from_sides(
        spectrum.lhs,
        rhs,
        NormKind.OPERATOR,
        True,
        "bhatia_jain",
        details={"spectrum_rhs": spectrum.rhs},
    )


def counterexample_scaling(x: float, epsilon: float, c: float) -> BoundReport:
    """No matrix-independent Lipschitz constant exists for the spectrum map.

    For M = diag(x, 1) and the fixed trace-free direction E, the spectrum
    shift |sqrt(x) - sqrt(x - 2 eps (x-1) - 29 eps^2)| eventually
    exceeds c * ||M - M_eps|| = c * eps * sqrt(29) for every fixed c. Here
    ``holds`` means the counterexample fires, i.e. rhs > lhs. The details
    carry the smallest integer x0 at which the firing inequality is met.
    """
    if not x >= 1.0:
        raise OutOfValidityRange(f"x must be >= 1, got {x}")
    if not 0.0 < epsilon < 0.1:
        raise OutOfValidityRange(f"epsilon must lie in (0, 1/10), got {epsilon}")
    if not c > 0.0:
        raise OutOfValidityRange(f"c must be positive, got {c}")
    _require_finite("x", x)
    _require_finite("c", c)
    d0 = math.sqrt(x)
    # shifted >= 1 - 29 eps^2 > 0.7 for x >= 1 and eps < 1/10.
    shifted = x - 2.0 * epsilon * (x - 1.0) - 29.0 * epsilon * epsilon
    de = math.sqrt(shifted)
    lhs = c * epsilon * math.sqrt(29.0)
    rhs = abs(d0 - de)

    x0 = _counterexample_x0(epsilon, c)
    return BoundReport(
        lhs=lhs,
        rhs=rhs,
        norm_kind=NormKind.OPERATOR,
        preconditions_met=True,
        holds=bool(rhs > lhs),
        margin=rhs - lhs,
        label="counterexample_scaling",
        details={"d_unperturbed": d0, "d_perturbed": de, "x0": x0},
    )


def _counterexample_x0(epsilon: float, c: float) -> int | None:
    # Smallest integer x >= 1 meeting the firing inequality, or None past
    # COUNTEREXAMPLE_SCAN_CAP. The inequality sqrt(x) - c eps sqrt(29) >
    # sqrt(shifted) squares to 2 sqrt(29 x) c eps <= 29 eps^2 (1 + c^2) +
    # 2 eps (x - 1) only where sqrt(x) > c eps sqrt(29). In s = sqrt(x) the
    # square reads f(s) >= 0 with f(s) = s^2 - sqrt(29) c s + 29 eps (1 + c^2)
    # / 2 - 1. When x = 1 does not fire, 1 lies between the roots of f or
    # below c eps sqrt(29), which for eps < 1/10 lies below the larger root
    # s+; so x0 is the first integer past s+, and the float inequality
    # itself decides, walking up from just below s+^2. As s+ >= sqrt(29) c/2,
    # sqrt(29) c > 2 sqrt(cap) puts x0 past the cap without a search; such a
    # c (above 1174) cannot fire at x = 1, and its c * c may overflow.
    if math.sqrt(29.0) * c > 2.0 * math.sqrt(COUNTEREXAMPLE_SCAN_CAP):
        return None

    def fires(x: float) -> bool:
        if not math.sqrt(x) > math.sqrt(29.0) * c * epsilon:
            return False
        left = 2.0 * math.sqrt(29.0 * x) * c * epsilon
        return left <= 29.0 * epsilon * epsilon * (1.0 + c * c) + 2.0 * epsilon * (x - 1.0)

    if fires(1.0):
        return 1
    q = 29.0 * epsilon * (1.0 + c * c) / 2.0 - 1.0
    s_plus = (math.sqrt(29.0) * c + math.sqrt(max(29.0 * c * c - 4.0 * q, 0.0))) / 2.0
    x = max(2, int(min(s_plus * s_plus, COUNTEREXAMPLE_SCAN_CAP)) - 2)
    while x <= COUNTEREXAMPLE_SCAN_CAP:
        if fires(float(x)):
            return x
        x += 1
    return None


def _signed_spectral_gap(d: np.ndarray) -> float:
    # Minimum distance between distinct eigenvalues of i sigma M, i.e. over
    # the signed set {+-d_j}; for a single mode this is 2 d_1.
    gaps = [2.0 * float(np.min(d))]
    if d.size > 1:
        sorted_d = np.sort(d)
        gaps.append(float(np.min(np.diff(sorted_d))))
    return min(gaps)


def _factor_pair(case: PerturbationCase):
    # williamson's S and d for M and for M + eps E, without its residual
    # solves, then M's smallest and largest eigenvalues: all from the case.
    scaled, scaled_eps, (lam_min, lam_max) = case._scaled
    (s, d), (s_eps, d_eps) = map(_williamson_core, (scaled, scaled_eps))
    return (s, _unscale(d, scaled[2])), (s_eps, _unscale(d_eps, scaled_eps[2])), lam_min, lam_max


def bound_S(case: PerturbationCase) -> BoundReport:
    """Gap-dependent stability of the diagonalizing symplectic matrix.

    After per-mode gauge alignment,
    ||S - S_eps||_op <= 4 (sqrt(kappa(M)) + sqrt(n^3 ||M|| / ||M^-1||) / (2 delta))
                        * ||M^{-1/2}|| * sqrt(eps)
    with delta the smallest gap of the signed symplectic spectrum. Requires a
    nondegenerate spectrum; the gate eps < min(1/(2||M^-1||), ||M||) is
    recorded in ``preconditions_met``.
    """
    (s, d), (s_eps, d_eps), lam_min, lam_max = _factor_pair(case)
    lhs = _gauge_align(s, d, s_eps, d_eps).distance
    kappa = lam_max / lam_min
    n = len(d)
    delta = _signed_spectral_gap(d)
    inv_root_norm = 1.0 / math.sqrt(lam_min)
    rhs = (
        4.0
        * (math.sqrt(kappa) + math.sqrt(n**3 * lam_max * lam_min) / (2.0 * delta))
        * inv_root_norm
        * math.sqrt(case.epsilon)
    )
    gate = min(lam_min / 2.0, lam_max)
    return BoundReport.from_sides(
        lhs,
        rhs,
        NormKind.OPERATOR,
        case.epsilon < gate,
        "s_stability",
        details={"delta": delta, "epsilon_gate": gate},
    )


def bound_gram(case: PerturbationCase) -> BoundReport:
    """Gap-free stability of the gauge-invariant Gram factor S^{-T} S^{-1}.

    ||S^{-T}S^{-1} - S_eps^{-T}S_eps^{-1}||_op
        <= 9 pi n^3 kappa(M)^2 ||M^-1||^{1/4} eps^{1/4}.
    The epsilon gates (both the printed ones and the proof-consistent
    1/(2||M^-1||)) are evaluated and recorded; out-of-range epsilons are
    flagged non-binding rather than rejected.
    """
    (s, d), (s_eps, _), lam_min, lam_max = _factor_pair(case)
    gram = spd_inverse(s @ s.T)
    gram_eps = spd_inverse(s_eps @ s_eps.T)
    lhs = norm(gram - gram_eps, NormKind.OPERATOR)
    kappa = lam_max / lam_min
    inv_norm = 1.0 / lam_min
    n = len(d)
    rhs = 9.0 * math.pi * n**3 * kappa**2 * inv_norm**0.25 * case.epsilon**0.25
    gates = {
        "norm_over_kappa_43": lam_max / (6.0 * kappa) ** (4.0 / 3.0),
        "half_over_norm": 1.0 / (2.0 * lam_max),
        "norm": lam_max,
        "half_over_inverse_norm": 1.0 / (2.0 * inv_norm),
    }
    in_range = all(case.epsilon < g for g in gates.values())
    return BoundReport.from_sides(
        lhs,
        rhs,
        NormKind.OPERATOR,
        in_range,
        "gram_stability",
        details={"epsilon_gates": gates, "epsilon_in_range": in_range},
    )


def _min_opnorm_over_rotations(s, sp, angles):
    # min over the angle grid of ||S - S' R(theta1, theta2)||_op for the
    # per-mode rotation family of a two-mode system, as lambda_max(D^T D) of
    # each D = S - S' R, stacked: 60 power steps from a deterministic start,
    # plenty of accuracy for a grid scan. theta1 runs along axis 0, theta2
    # along axis 1. Blocks of 30 theta1 rows keep the stacks a few MB; each
    # grid point's arithmetic does not depend on the block it falls in.
    c = np.cos(angles)
    sn = np.sin(angles)
    c2, s2 = c[None, :, None], sn[None, :, None]
    best = math.inf
    for lo in range(0, angles.shape[0], 30):
        c1, s1 = c[lo:lo + 30, None, None], sn[lo:lo + 30, None, None]
        d = np.empty((c1.shape[0], angles.shape[0], 4, 4))
        d[..., 0] = s[:, 0] - (c1 * sp[:, 0] + s1 * sp[:, 2])
        d[..., 2] = s[:, 2] - (-s1 * sp[:, 0] + c1 * sp[:, 2])
        d[..., 1] = s[:, 1] - (c2 * sp[:, 1] + s2 * sp[:, 3])
        d[..., 3] = s[:, 3] - (-s2 * sp[:, 1] + c2 * sp[:, 3])
        d = d.reshape(-1, 4, 4)
        g = np.matmul(d.transpose(0, 2, 1), d)
        v = np.ones((g.shape[0], 4, 1))
        dead = np.zeros(g.shape[0], dtype=bool)  # ||G v|| = 0 reached; reported as 0
        for _ in range(60):
            w = np.matmul(g, v)
            nw = np.sqrt(np.matmul(w.transpose(0, 2, 1), w)[:, 0, 0])
            dead |= nw == 0.0
            np.divide(w, nw[:, None, None], out=v, where=~dead[:, None, None])
        best = min(best, float(np.min(np.where(dead, 0.0, nw))))
    return math.sqrt(best)


def degenerate_demo(epsilon: float) -> DegenerateDemoReport:
    """Two nearby 4x4 matrices whose diagonalizers stay apart as eps -> 0.

    One matrix carries off-diagonal eps couplings, the other the same
    spectrum on the diagonal; their commutant structure is eps-independent,
    so no gauge choice brings the diagonalizers together, while the
    gauge-invariant Gram factors do converge. The gauge family is scanned on
    a 1-degree grid of per-mode rotation pairs.
    """
    if not 0.0 < epsilon < 1.0:
        raise OutOfValidityRange(f"epsilon must lie in (0, 1), got {epsilon}")
    block = np.array([[1.0, epsilon], [epsilon, 1.0]])
    m = np.block(
        [[block, np.zeros((2, 2))], [np.zeros((2, 2)), block]]
    )
    mp = np.diag([1.0 + epsilon, 1.0 - epsilon, 1.0 + epsilon, 1.0 - epsilon])

    s = _williamson_core(_scaled_spd(m))[0]
    s_p = _williamson_core(_scaled_spd(mp))[0]
    s_dist = norm(s - s_p, NormKind.OPERATOR)

    angles = np.arange(360) * (2.0 * math.pi / 360.0)
    aligned_dist = float(_min_opnorm_over_rotations(s, s_p, angles))

    gram = spd_inverse(s @ s.T)
    gram_p = spd_inverse(s_p @ s_p.T)
    gram_dist = norm(gram - gram_p, NormKind.OPERATOR)

    sigma = standard_form(2)
    commutator = sigma @ m @ sigma @ mp - sigma @ mp @ sigma @ m
    return DegenerateDemoReport(
        epsilon=float(epsilon),
        s_dist_canonical=s_dist,
        s_dist_aligned_over_gauge_family=aligned_dist,
        gram_dist=gram_dist,
        commutator_norm=norm(commutator, NormKind.OPERATOR),
    )


def check_sqrt_lemma(a, b, kind: NormKind = NormKind.OPERATOR) -> BoundReport:
    """Hoelder-type square-root bound for PSD matrices.

    ||A^{1/2} - B^{1/2}|| <= ||A - B||_op^{1/2} * ||I|| in each implemented
    unitarily invariant norm.
    """
    a, b = _symmetric_pair(a, b)
    lhs = norm(psd_sqrt(a) - psd_sqrt(b), kind)
    diff = norm(a - b, NormKind.OPERATOR)
    rhs = math.sqrt(diff) * identity_norm(a.shape[0], kind)
    return BoundReport.from_sides(lhs, rhs, kind, True, "sqrt_lemma")


def check_inv_lemma(a, b, kind: NormKind = NormKind.OPERATOR) -> BoundReport:
    """Resolvent-style inverse bound for positive definite matrices.

    ||A^-1 - B^-1|| <= ||A^-1|| ||B^-1|| ||A - B||.
    """
    a, b = _symmetric_pair(a, b)
    ia, na = _inverse_and_norm(a)
    ib, nb = _inverse_and_norm(b)
    lhs = norm(ia - ib, kind)
    if kind is not NormKind.OPERATOR:
        na, nb = norm(ia, kind), norm(ib, kind)
    rhs = na * nb * norm(_finite_sum(a, -1.0, b, "A - B"), kind)
    return BoundReport.from_sides(lhs, rhs, kind, True, "inv_lemma")


def _inverse_and_norm(a) -> tuple[np.ndarray, float]:
    # spd_inverse(a) and ||a^-1||_op = 4^-j / lambda_min(a / 4^j), read off
    # the spectrum the inverse was built from.
    inverse, vals, exp = _spd_inverse(a)
    return inverse, float(_unscale(1.0 / vals[:1], -exp)[0])


def check_woodbury_norm(m, e, epsilon: float) -> BoundReport:
    """Inverse-norm growth under a small perturbation.

    If ||M^-1||_op <= 1/(2 eps) then ||(M + eps E)^-1||_op <= 2 ||M^-1||_op,
    with E normalized to unit operator norm.
    """
    mat = _square(m)
    pert = _square(e)
    if mat.shape != pert.shape:
        raise DimensionMismatch(f"shapes {mat.shape} and {pert.shape} differ")
    _require_positive_epsilon(epsilon)
    pert = _unit_direction(pert)
    s = singular_values(mat)
    if s[-1] <= TOL_PD * s[0]:
        raise NotInvertible(f"smallest singular value {s[-1]:.6e} is negligible")
    inv_norm = 1.0 / float(s[-1])
    if inv_norm > 1.0 / (2.0 * epsilon):
        raise PreconditionViolated(
            f"||M^-1|| = {inv_norm:.6e} exceeds 1/(2 eps) = {1.0 / (2.0 * epsilon):.6e}"
        )
    s_pert = singular_values(_perturbed(mat, pert, epsilon))
    if s_pert[-1] <= TOL_PD * s_pert[0]:
        raise NotInvertible("perturbed matrix is numerically singular")
    lhs = 1.0 / float(s_pert[-1])
    rhs = 2.0 * inv_norm
    return BoundReport.from_sides(lhs, rhs, NormKind.OPERATOR, True, "woodbury")


def check_kappa_growth(m, e, epsilon: float) -> BoundReport:
    """Condition-number growth under a small symmetric perturbation.

    If ||M^-1||_op <= 1/(2 eps) and eps < ||M||_op then
    kappa(M + eps E) <= 4 kappa(M), with E normalized to unit operator norm.
    """
    mat, pert = _symmetric_pair(m, e)
    _require_positive_epsilon(epsilon)
    pert = _unit_direction(pert)
    _, exp, spec = _spd(mat, "M")
    lam_min, lam_max = _extremes(spec, exp, "M")
    if 1.0 / lam_min > 1.0 / (2.0 * epsilon):
        raise PreconditionViolated(
            f"||M^-1|| = {1.0 / lam_min:.6e} exceeds 1/(2 eps)"
        )
    # eps < ||M|| follows: the gate above leaves eps <= lam_min / 2 < lam_max.
    lhs = condition_number(_perturbed(mat, pert, epsilon))
    rhs = 4.0 * (lam_max / lam_min)
    return BoundReport.from_sides(lhs, rhs, NormKind.OPERATOR, True, "kappa_growth")


def check_eigvec_bound(a, b, epsilon: float) -> BoundReport:
    """First-order eigenvector stability for a simple symmetric spectrum.

    For each i, ||x_i - x_i(eps)||_2 <= 2 n eps / g after sign alignment,
    where g is the smallest eigenvalue gap of A and ||B||_op <= 1. The
    report carries the worst mode.
    """
    mat, pert = _symmetric_pair(a, b)
    if mat.size == 0:
        raise OutOfValidityRange("matrices must not be empty")
    # epsilon = 0 is the unperturbed case, where both sides are 0.
    if not epsilon >= 0.0:
        raise OutOfValidityRange(f"epsilon must not be negative, got {epsilon}")
    _require_finite("epsilon", epsilon)
    if norm(pert, NormKind.OPERATOR) > 1.0 + 1e-9:
        raise PreconditionViolated("||B||_op must not exceed 1")
    spec = sym_eig(mat)
    n = mat.shape[0]
    vals = spec.eigenvalues
    scale = float(np.max(np.abs(vals)))
    gap = math.inf
    if n > 1:
        gap = float(np.min(_finite_sum(vals[1:], -1.0, vals[:-1], "eigenvalue gap")))
    if not gap > 1e-12 * scale:
        raise DegenerateSpectrum(f"eigenvalue gap {gap:.3e} is negligible")
    spec_eps = sym_eig(_perturbed(mat, pert, epsilon))
    shifts = np.empty(n)
    for i in range(n):
        v = spec.eigenvectors[:, i]
        w = spec_eps.eigenvectors[:, i]
        if float(v @ w) < 0.0:
            w = -w
        shifts[i] = float(np.sqrt(np.sum((v - w) ** 2)))
    lhs = float(np.max(shifts))
    rhs = 2.0 * n * epsilon / gap
    return BoundReport.from_sides(
        lhs,
        rhs,
        NormKind.OPERATOR,
        True,
        "eigvec_stability",
        details={"gap": gap, "per_vector": shifts.tolist()},
    )


def check_projection_bound(a, b, s1_range, s2_range) -> BoundReport:
    """Spectral projection overlap bound for separated eigenvalue subsets.

    With E the spectral projection of A onto the eigenvalues indexed by
    ``s1_range`` (half-open, into the ascending spectrum), F likewise for B,
    and delta = dist(S1, S2) > 0:  ||E F|| <= pi / (2 delta) * ||A - B||.
    All three norms are checked; the report carries the kind with the worst
    margin.
    """
    mat_a, mat_b = _symmetric_pair(a, b)
    spec_a = sym_eig(mat_a)
    spec_b = sym_eig(mat_b)
    n = mat_a.shape[0]
    i1 = _validate_range(s1_range, n, "s1_range")
    i2 = _validate_range(s2_range, n, "s2_range")
    vals1 = spec_a.eigenvalues[i1]
    vals2 = spec_b.eigenvalues[i2]
    distances = _finite_sum(vals1[:, None], -1.0, vals2, "eigenvalue distance")
    delta = float(np.min(np.abs(distances)))
    if delta <= 0.0:
        raise ZeroGap("eigenvalue subsets touch; dist(S1, S2) must be positive")
    proj_a = spec_a.eigenvectors[:, i1] @ spec_a.eigenvectors[:, i1].T
    proj_b = spec_b.eigenvectors[:, i2] @ spec_b.eigenvectors[:, i2].T
    overlap = proj_a @ proj_b
    diff = _finite_sum(mat_a, -1.0, mat_b, "A - B")
    per_kind = {}
    worst = None
    for kind, lhs_k, diff_k in zip(NormKind, _norms(overlap, NormKind), _norms(diff, NormKind)):
        rhs_k = math.pi / (2.0 * delta) * diff_k
        per_kind[kind.value] = (lhs_k, rhs_k)
        if worst is None or rhs_k - lhs_k < worst[2] - worst[1]:
            worst = (kind, lhs_k, rhs_k)
    kind, lhs, rhs = worst
    return BoundReport.from_sides(
        lhs,
        rhs,
        kind,
        True,
        "projection_overlap",
        details={"delta": delta, "per_kind": per_kind},
    )


def _validate_range(idx_range, n: int, name: str) -> slice:
    try:
        items = len(idx_range)
        start, stop = _index(idx_range[0]), _index(idx_range[1])
    except (TypeError, IndexError) as exc:
        raise BadIndices(f"{name} must be an integer pair (start, stop): {exc}") from exc
    if items != 2:
        raise BadIndices(f"{name} must be an integer pair (start, stop), got {items} items")
    if not (0 <= start < stop <= n):
        raise BadIndices(f"{name}=({start}, {stop}) is not a valid range for n={n}")
    return slice(start, stop)


# Bounds a sweep can drive: name -> (moves, call). A bound that moves M
# (moves=True) is called as call(m, e, eps) with the direction E; the others
# compare M with a second matrix and are called as call(m, mp, kind), which
# sweep forms as mp = M + eps E. Each call looks its checker up as a module
# global when it runs, so a checker rebound on this module is the one called.
SWEEPABLE = {
    "spectrum": (False, lambda m, mp, kind: bound_spectrum(m, mp, kind)),
    "bhatia_jain": (False, lambda m, mp, kind: bound_bhatia_jain(m, mp)),
    "s_stability": (True, lambda m, e, eps: bound_S(PerturbationCase(m, e, eps))),
    "gram": (True, lambda m, e, eps: bound_gram(PerturbationCase(m, e, eps))),
    "sqrt_lemma": (False, lambda m, mp, kind: check_sqrt_lemma(m, mp, kind)),
    "inv_lemma": (False, lambda m, mp, kind: check_inv_lemma(m, mp, kind)),
    "woodbury": (True, lambda m, e, eps: check_woodbury_norm(m, e, eps)),
    "kappa_growth": (True, lambda m, e, eps: check_kappa_growth(m, e, eps)),
    "eigvec": (True, lambda m, e, eps: check_eigvec_bound(m, e, eps)),
}


@_reuses_solves
def sweep(m, e, eps_grid, bound: str, kind: NormKind = NormKind.OPERATOR) -> SweepReport:
    """Evaluate one named bound over a strictly increasing epsilon grid.

    Per-point failures are recorded, not fatal; each bound decides its own
    epsilon domain. The report includes the least-squares slope of log(lhs)
    against log(eps) over the points with eps > 0 whose lhs is above the
    numerical floor. Only "spectrum", "sqrt_lemma" and "inv_lemma" read
    ``kind``; the other bounds report the norm they are stated in.
    """
    if bound not in SWEEPABLE:
        raise OutOfValidityRange(
            f"unknown bound {bound!r}; choose from {sorted(SWEEPABLE)}"
        )
    grid = [float(x) for x in eps_grid]
    for eps in grid:
        _require_finite("epsilon", eps)
    if any(b <= a for a, b in zip(grid, grid[1:])) or not grid:
        raise OutOfValidityRange("epsilon grid must be nonempty and strictly increasing")
    mat = _square(m)
    pert = as_matrix(e)
    if mat.shape != pert.shape:
        raise DimensionMismatch(f"shapes {mat.shape} and {pert.shape} differ")
    pert = _unit_direction(pert)

    moves, call = SWEEPABLE[bound]
    points = []
    failures = []
    for eps in grid:
        try:
            report = call(mat, pert, eps) if moves else call(mat, _perturbed(mat, pert, eps), kind)
            points.append((eps, report))
        except SympspecError as exc:  # recorded, not fatal; anything else is a bug
            failures.append((eps, f"{type(exc).__name__}: {exc}"))
    fit = [
        (math.log(eps), math.log(r.lhs))
        for eps, r in points
        if eps > 0.0 and r.lhs > SLOPE_FLOOR
    ]
    slope = None
    if len(fit) >= 2:
        xs = np.array([p[0] for p in fit])
        ys = np.array([p[1] for p in fit])
        xc = xs - xs.mean()
        slope = float((xc @ (ys - ys.mean())) / (xc @ xc))
    return SweepReport(
        description=f"{bound} over {len(grid)} epsilons",
        grid=tuple(points),
        slope=slope,
        errors=tuple(failures),
    )
