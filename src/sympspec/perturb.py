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
    _require_square,
    _require_symmetric,
    _reuses_solves,
    _spd_spectrum,
    TOL_PD,
)
from .errors import (
    BadIndices,
    DegenerateSpectrum,
    DimensionMismatch,
    NotInvertible,
    OutOfValidityRange,
    PreconditionViolated,
    SympspecError,
    ZeroGap,
)
from .symplectic import (
    gauge_align,
    standard_form,
    symplectic_spectrum,
    williamson,
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

    def __post_init__(self):
        m, e = _symmetric_pair(self.m, self.e)
        _require_positive_epsilon(self.epsilon)
        e = _unit_direction(e)
        _spd_spectrum(m, "M")
        _spd_spectrum(m + self.epsilon * e, "M + epsilon E")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "e", e)
        object.__setattr__(self, "epsilon", float(self.epsilon))

    def perturbed(self) -> np.ndarray:
        return self.m + self.epsilon * self.e


def _symmetric_pair(m, mp):
    # Two square, symmetric (symmetrized) matrices of the same shape.
    a = _require_symmetric(_require_square(as_matrix(m)))
    b = _require_symmetric(_require_square(as_matrix(mp)))
    if a.shape != b.shape:
        raise DimensionMismatch(f"shapes {a.shape} and {b.shape} differ")
    return a, b


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


@_reuses_solves
def bound_spectrum(m, mp, kind: NormKind = NormKind.OPERATOR) -> BoundReport:
    """Condition-number bound on the symplectic spectrum shift.

    ||diag(d,d) - diag(d',d')||  <=  sqrt(kappa(M) kappa(M')) ||M - M'||
    in any of the implemented unitarily invariant norms.
    """
    a, b = _symmetric_pair(m, mp)
    d = symplectic_spectrum(a)
    dp = symplectic_spectrum(b)
    lhs = norm(np.diag(np.concatenate([d, d]) - np.concatenate([dp, dp])), kind)
    rhs = math.sqrt(condition_number(a) * condition_number(b)) * norm(a - b, kind)
    return BoundReport.from_sides(lhs, rhs, kind, True, "spectrum")


@_reuses_solves
def bound_bhatia_jain(m, mp) -> BoundReport:
    """Square-root-type spectrum bound, for comparison with ``bound_spectrum``.

    ||diag(d,d) - diag(d',d')||_op <= (||M||^1/2 + ||M'||^1/2) ||M - M'||^1/2.
    The report carries the condition-number bound's rhs in its details.
    """
    a, b = _symmetric_pair(m, mp)
    spectrum = bound_spectrum(a, b, NormKind.OPERATOR)
    na = norm(a, NormKind.OPERATOR)
    nb = norm(b, NormKind.OPERATOR)
    rhs = (math.sqrt(na) + math.sqrt(nb)) * math.sqrt(norm(a - b, NormKind.OPERATOR))
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
    shifted = x - 2.0 * epsilon * (x - 1.0) - 29.0 * epsilon * epsilon
    if shifted <= 0.0:
        raise OutOfValidityRange("perturbed spectrum collapsed; x too small")
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
    # Smallest integer x >= 1 meeting the firing inequality
    # 2 sqrt(29 x) c eps <= 29 eps^2 (1 + c^2) + 2 eps (x - 1), or None past
    # COUNTEREXAMPLE_SCAN_CAP. In s = sqrt(x) it reads f(s) >= 0 with
    # f(s) = s^2 - sqrt(29) c s + 29 eps (1 + c^2) / 2 - 1. When x = 1 does
    # not fire, 1 lies between the roots of f, so x0 is the first integer
    # past the larger root s+; the float inequality itself decides, walking
    # up from just below s+^2.
    def fires(x: float) -> bool:
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
    # Williamson factorizations of M and of M + eps E, then M's smallest and
    # largest eigenvalues (a repeat of the M solve inside williamson).
    fac = williamson(case.m)
    fac_eps = williamson(case.perturbed())
    vals = sym_eig(case.m).eigenvalues
    return fac, fac_eps, float(vals[0]), float(vals[-1])


@_reuses_solves
def bound_S(case: PerturbationCase) -> BoundReport:
    """Gap-dependent stability of the diagonalizing symplectic matrix.

    After per-mode gauge alignment,
    ||S - S_eps||_op <= 4 (sqrt(kappa(M)) + sqrt(n^3 ||M|| / ||M^-1||) / (2 delta))
                        * ||M^{-1/2}|| * sqrt(eps)
    with delta the smallest gap of the signed symplectic spectrum. Requires a
    nondegenerate spectrum; the gate eps < min(1/(2||M^-1||), ||M||) is
    recorded in ``preconditions_met``.
    """
    fac, fac_eps, lam_min, lam_max = _factor_pair(case)
    lhs = gauge_align(fac, fac_eps).distance
    kappa = lam_max / lam_min
    n = fac.n_modes
    delta = _signed_spectral_gap(fac.d)
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


@_reuses_solves
def bound_gram(case: PerturbationCase) -> BoundReport:
    """Gap-free stability of the gauge-invariant Gram factor S^{-T} S^{-1}.

    ||S^{-T}S^{-1} - S_eps^{-T}S_eps^{-1}||_op
        <= 9 pi n^3 kappa(M)^2 ||M^-1||^{1/4} eps^{1/4}.
    The epsilon gates (both the printed ones and the proof-consistent
    1/(2||M^-1||)) are evaluated and recorded; out-of-range epsilons are
    flagged non-binding rather than rejected.
    """
    fac, fac_eps, lam_min, lam_max = _factor_pair(case)
    gram = spd_inverse(fac.S @ fac.S.T)
    gram_eps = spd_inverse(fac_eps.S @ fac_eps.S.T)
    lhs = norm(gram - gram_eps, NormKind.OPERATOR)
    kappa = lam_max / lam_min
    inv_norm = 1.0 / lam_min
    n = fac.n_modes
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

    fac = williamson(m)
    fac_p = williamson(mp)
    s_dist = norm(fac.S - fac_p.S, NormKind.OPERATOR)

    angles = np.arange(360) * (2.0 * math.pi / 360.0)
    aligned_dist = float(_min_opnorm_over_rotations(fac.S, fac_p.S, angles))

    gram = spd_inverse(fac.S @ fac.S.T)
    gram_p = spd_inverse(fac_p.S @ fac_p.S.T)
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
    ia = spd_inverse(a)
    ib = spd_inverse(b)
    lhs = norm(ia - ib, kind)
    rhs = norm(ia, kind) * norm(ib, kind) * norm(a - b, kind)
    return BoundReport.from_sides(lhs, rhs, kind, True, "inv_lemma")


def check_woodbury_norm(m, e, epsilon: float) -> BoundReport:
    """Inverse-norm growth under a small perturbation.

    If ||M^-1||_op <= 1/(2 eps) then ||(M + eps E)^-1||_op <= 2 ||M^-1||_op,
    with E normalized to unit operator norm.
    """
    mat = _require_square(as_matrix(m))
    pert = _require_square(as_matrix(e))
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
    s_pert = singular_values(mat + epsilon * pert)
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
    vals = _spd_spectrum(mat, "M").eigenvalues
    lam_min, lam_max = float(vals[0]), float(vals[-1])
    if 1.0 / lam_min > 1.0 / (2.0 * epsilon):
        raise PreconditionViolated(
            f"||M^-1|| = {1.0 / lam_min:.6e} exceeds 1/(2 eps)"
        )
    if not epsilon < lam_max:
        raise PreconditionViolated(f"eps = {epsilon} is not below ||M|| = {lam_max}")
    lhs = condition_number(mat + epsilon * pert)
    rhs = 4.0 * lam_max / lam_min
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
    scale = float(np.max(np.abs(spec.eigenvalues)))
    gap = float(np.min(np.diff(spec.eigenvalues))) if n > 1 else math.inf
    if not gap > 1e-12 * scale:
        raise DegenerateSpectrum(f"eigenvalue gap {gap:.3e} is negligible")
    spec_eps = sym_eig(mat + epsilon * pert)
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


@_reuses_solves
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
    delta = float(np.min(np.abs(np.subtract.outer(vals1, vals2))))
    if delta <= 0.0:
        raise ZeroGap("eigenvalue subsets touch; dist(S1, S2) must be positive")
    proj_a = spec_a.eigenvectors[:, i1] @ spec_a.eigenvectors[:, i1].T
    proj_b = spec_b.eigenvectors[:, i2] @ spec_b.eigenvectors[:, i2].T
    overlap = proj_a @ proj_b
    diff = mat_a - mat_b
    per_kind = {}
    worst = None
    for kind in NormKind:
        lhs_k = norm(overlap, kind)
        rhs_k = math.pi / (2.0 * delta) * norm(diff, kind)
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
        start, stop = int(idx_range[0]), int(idx_range[1])
    except (TypeError, ValueError, IndexError) as exc:
        raise BadIndices(f"{name} must be an index pair (start, stop)") from exc
    if not (0 <= start < stop <= n):
        raise BadIndices(f"{name}=({start}, {stop}) is not a valid range for n={n}")
    return slice(start, stop)


# Bounds a sweep can drive: name -> callable(m, e_unit, epsilon, kind).
SWEEPABLE = {
    "spectrum": lambda m, e, eps, kind: bound_spectrum(m, m + eps * e, kind),
    "bhatia_jain": lambda m, e, eps, kind: bound_bhatia_jain(m, m + eps * e),
    "s_stability": lambda m, e, eps, kind: bound_S(PerturbationCase(m, e, eps)),
    "gram": lambda m, e, eps, kind: bound_gram(PerturbationCase(m, e, eps)),
    "sqrt_lemma": lambda m, e, eps, kind: check_sqrt_lemma(m, m + eps * e, kind),
    "inv_lemma": lambda m, e, eps, kind: check_inv_lemma(m, m + eps * e, kind),
    "woodbury": lambda m, e, eps, kind: check_woodbury_norm(m, e, eps),
    "kappa_growth": lambda m, e, eps, kind: check_kappa_growth(m, e, eps),
    "eigvec": lambda m, e, eps, kind: check_eigvec_bound(m, e, eps),
}


@_reuses_solves
def sweep(m, e, eps_grid, bound: str, kind: NormKind = NormKind.OPERATOR) -> SweepReport:
    """Evaluate one named bound over a strictly increasing epsilon grid.

    Per-point failures are recorded, not fatal. The report includes the
    least-squares slope of log(lhs) against log(eps) over the points whose
    lhs is above the numerical floor.
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
    mat = as_matrix(m)
    pert = as_matrix(e)
    if mat.shape != pert.shape:
        raise DimensionMismatch(f"shapes {mat.shape} and {pert.shape} differ")
    pert = _unit_direction(pert)

    fn = SWEEPABLE[bound]
    points = []
    failures = []
    for eps in grid:
        try:
            points.append((eps, fn(mat, pert, eps, kind)))
        except SympspecError as exc:  # recorded, not fatal; anything else is a bug
            failures.append((eps, f"{type(exc).__name__}: {exc}"))
    fit = [(math.log(eps), math.log(r.lhs)) for eps, r in points if r.lhs > SLOPE_FLOOR]
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
