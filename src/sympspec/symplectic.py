"""Symplectic form, symplectic spectra, Williamson factorization, gauge alignment.

Conventions: the phase-space ordering is (q_1..q_n, p_1..p_n) and the
symplectic form is ``sigma = [[0, I], [-I, 0]]``. A factorization
``S^T M S = diag(d, d)`` with symplectic S and descending positive d is
computed entirely in real arithmetic from the antisymmetric kernel
``B = M^{-1/2} sigma M^{-1/2}``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .densemat import (
    NormKind,
    Spectrum,
    norm,
    psd_sqrt,
    singular_values,
    sym_eig,
    _extremes,
    _reuses_solves,
    _spd,
    _square,
    _symmetric,
    _unscale,
)
from .errors import (
    DegenerateSpectrum,
    DimensionMismatch,
    InvariantViolation,
    NonFinite,
    OddDimension,
    PairingFailure,
    ZeroModes,
)

RESIDUAL_TOL = 1e-8       # factorization residual promise
GROUP_TOL = 1e-8          # relative eigenvalue grouping
SEED_MIN_NORM = 1e-6      # reject seeds this close to the span already chosen
PAIR_TOL = 1e-8           # |d_eig * ||B x|| - 1| beyond this signals breakdown
GAP_TOL_FACTOR = 1e-8     # nondegeneracy gate for gauge alignment, times d_1
INVARIANT_TOL = 100.0     # spectrum invariants' tolerance, times 2n * eps * kappa(M)

_EPS = float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class WilliamsonFactorization:
    """Result of ``williamson``: S^T M S = diag(d, d) with S symplectic.

    ``d`` descends; ``residual_diag`` is the achieved operator-norm residual
    of the diagonalization and ``residual_symp`` that of S^T sigma S - sigma.
    """

    n_modes: int
    S: np.ndarray
    d: np.ndarray
    residual_diag: float
    residual_symp: float


@dataclass(frozen=True)
class GaugeAlignment:
    """Per-mode rotations bringing one diagonalizer onto another."""

    angles: np.ndarray
    aligned_S: np.ndarray
    distance: float


def standard_form(n: int) -> np.ndarray:
    """The 2n-by-2n symplectic form [[0, I], [-I, 0]]."""
    if n < 1:
        raise ZeroModes(f"need at least one mode, got n={n}")
    # -eye, not a diagonal of -1.0: its off-diagonal entries are -0.0.
    eye = np.eye(n)
    s = np.zeros((2 * n, 2 * n))
    s[:n, n:] = eye
    s[n:, :n] = -eye
    return s


def _even_dim(m: np.ndarray) -> int:
    if m.shape[0] % 2 != 0:
        raise OddDimension(f"dimension {m.shape[0]} is odd")
    if m.shape[0] == 0:
        raise ZeroModes("need at least one mode, got n=0")
    return m.shape[0] // 2


def _scaled_spd(m: np.ndarray, name: str = "") -> tuple[np.ndarray, int, int, Spectrum]:
    # (M / 4^j, n, 2j, spectrum of M / 4^j) for a gated symmetric positive
    # definite M of dimension 2n, from densemat._spd. S is the same at
    # M / 4^j, and the symplectic spectrum is d / 4^j exactly, since M^{1/2}
    # scales by 2^-j.
    n = _even_dim(m)
    mat, exp, spec = _spd(m, name)
    return mat, n, exp, spec


def is_symplectic(s, tol: float = RESIDUAL_TOL) -> bool:
    """True iff ||S^T sigma S - sigma|| <= tol in operator norm.

    The product S^T sigma S rounds at about 2^-52 ||S||^2, so once S has
    entries of about 1e4 no S passes tol = 1e-8, symplectic or not; a
    rescale cannot help, since the test is on that product. Where the
    product overflows, the residual is not finite and the answer is False.
    """
    m = _square(s)
    resid = _symplectic_residual(m, _even_dim(m))
    return resid < math.inf and resid <= tol


def _symplectic_residual(s: np.ndarray, n: int) -> float:
    # ||S^T sigma S - sigma||_op of a gated S of dimension 2n; inf past the float range.
    sigma = standard_form(n)
    with np.errstate(over="ignore", invalid="ignore"):
        resid = s.T @ sigma @ s - sigma
    return norm(resid, NormKind.OPERATOR) if np.isfinite(resid).all() else math.inf


def symplectic_spectrum(m) -> np.ndarray:
    """Descending symplectic eigenvalues of a positive definite matrix.

    Computed as the singular values of M^{1/2} sigma M^{1/2}, which come in
    coincident pairs; each pair is collapsed to its mean. Raises
    InvariantViolation when the result breaks the interval, determinant or
    trace invariant of M (README, Numerical notes).
    """
    return _symplectic_spectrum(_symmetric(m))[0]


@_reuses_solves
def _symplectic_spectrum(m: np.ndarray) -> tuple[np.ndarray, Spectrum, int]:
    # symplectic_spectrum of a gated symmetric M, the spectrum of M / 4^j
    # that its positive-definiteness check solved, and 2j; densemat._extremes
    # reads lambda_min(M) and lambda_max(M) off the last two. psd_sqrt
    # solves the same matrix again.
    mat, n, exp, spec = _scaled_spd(m)
    # At the scale of M / 4^j no pair sum below overflows.
    root = psd_sqrt(mat)
    sigma = standard_form(n)
    s = singular_values(root @ sigma @ root)
    d = (s[0::2] + s[1::2]) / 2.0
    _check_invariants(d, spec)
    return _unscale(d, exp), spec, exp


def _spectrum_pair(a, b):
    # The symplectic spectra d and d' of a gated symmetric pair, ||a||_op,
    # ||b||_op and sqrt(kappa(a) kappa(b)), the last three read off the
    # spectra that _symplectic_spectrum hands over: the start of
    # perturb.bound_spectrum and of gaussian.entropy_difference_bound.
    d, spec_a, exp_a = _symplectic_spectrum(a)
    dp, spec_b, exp_b = _symplectic_spectrum(b)
    lo_a, na = _extremes(spec_a, exp_a)
    lo_b, nb = _extremes(spec_b, exp_b)
    return d, dp, na, nb, math.sqrt((na / lo_a) * (nb / lo_b))


def _check_invariants(d: np.ndarray, spec: Spectrum) -> None:
    # Raise InvariantViolation unless the symplectic spectrum d of a positive
    # definite M meets three facts about M's ascending spectrum lambda in
    # spec, both at the scale M / 4^j; no solve.
    # - interval: lambda_min <= d_j <= lambda_max, from lambda_min I <= M <=
    #   lambda_max I, Loewner monotonicity and d(cI) = c (Bhatia & Jain,
    #   J. Math. Phys. 56, 2015);
    # - determinant: prod d_j^2 = det M = prod lambda_i, since det S = 1;
    # - trace: 2 sum d_j <= tr M, the S = I case of min tr(S^T M S) = 2 sum d_j
    #   over symplectic S (Hiroshima, Phys. Rev. A 73, 2006).
    # Each defect is relative (the determinant's is a difference of logs)
    # and fails past tol = INVARIANT_TOL * 2n * eps * kappa(M), a measured
    # tolerance, not a proved one.
    # Python floats: n is small, and a call stays a few microseconds.
    lam = spec.eigenvalues.tolist()
    ds = d.tolist()
    lo, hi = lam[0], lam[-1]
    tol = INVARIANT_TOL * len(lam) * _EPS * (hi / lo)
    d_min, d_max = min(ds), max(ds)
    defect = max((lo - d_min) / lo, (d_max - hi) / hi)
    # not (defect <= tol), so that a NaN fails too
    if not (d_min > 0.0 and defect <= tol):
        why = "" if d_min > 0.0 else " (smallest d not positive)"
        raise InvariantViolation(
            f"interval invariant broken{why}: defect {defect:.3e}, tolerance {tol:.3e}"
        )
    # Logs of values divided by the power of two below lambda_max, which is
    # exact, stay below log(2 kappa) in magnitude, so they round to far
    # below tol whatever the scale of M.
    e = math.frexp(hi)[1]
    defect = abs(
        2.0 * math.fsum(math.log(math.ldexp(x, -e)) for x in ds)
        - math.fsum(math.log(math.ldexp(x, -e)) for x in lam)
    )
    if not defect <= tol:
        raise InvariantViolation(
            f"determinant invariant broken: defect {defect:.3e}, tolerance {tol:.3e}"
        )
    defect = 2.0 * math.fsum(ds) / math.fsum(lam) - 1.0
    if not defect <= tol:
        raise InvariantViolation(
            f"trace invariant broken: defect {defect:.3e}, tolerance {tol:.3e}"
        )


def _group_by_relative_gap(vals: np.ndarray, rel_tol: float) -> list[list[int]]:
    # Chain adjacent (sorted) values whose relative difference is below tol.
    groups: list[list[int]] = [[0]]
    for k in range(1, len(vals)):
        ref = max(abs(vals[k]), abs(vals[k - 1]))
        if abs(vals[k] - vals[k - 1]) <= rel_tol * ref:
            groups[-1].append(k)
        else:
            groups.append([k])
    return groups


def _extract_mode_pairs(b: np.ndarray) -> tuple[list, list, list]:
    """Pair an orthonormal basis (x_j, y_j) with B x_j = -y_j / d_j.

    The eigenstructure of the antisymmetric B is read off the symmetric
    doubled embedding H = [[0, B^T], [B, 0]] = [[0, -B], [B, 0]], whose
    eigenvalues are +-1/d_j (each twice). Working on H rather than on -B^2
    keeps the error of the extracted basis proportional to the relative
    spread of the d_j instead of its square, which is what makes large
    symplectic condition numbers survive the residual contract.

    Within each positive eigenvalue group, candidate seeds are canonical
    basis vectors embedded as (0, e_i) and projected into the eigenspace,
    taken in index order; chosen mode planes are projected out of
    subsequent seeds. This keeps the result deterministic and well-defined
    for degenerate symplectic spectra.

    A group's scan ends early once no later seed can be taken. After each
    accepted mode, rest = basis - W (W^T basis), with W the chosen vectors.
    A later seed's projected vector is rest times a row of the orthonormal
    basis, and such a row has norm at most 1, so its norm is at most
    ||rest||_F. Once ||rest||_F <= SEED_MIN_NORM / 2, every later seed would
    be rejected: the halved bound leaves a margin far above the rounding of
    either product. The scan stops with the same modes, defects and
    exceptions as a full one.
    """
    dim = b.shape[0]
    h = np.zeros((2 * dim, 2 * dim))
    # B is exactly antisymmetric, so B^T holds the values of -B. Where B
    # holds +0.0, -B would hold -0.0 and B^T holds +0.0: with B^T, H is
    # bit-symmetric, and sym_eig skips the midpoint, whose bits these are.
    h[:dim, dim:] = b.T
    h[dim:, :dim] = b
    spec = sym_eig(h)
    lam, vecs = spec.eigenvalues, spec.eigenvectors
    pos = lam > 0.0
    if int(np.sum(pos)) != dim:
        raise PairingFailure(
            f"expected {dim} positive doubled eigenvalues, got {int(np.sum(pos))}"
        )
    lam_pos = lam[pos]
    vecs_pos = vecs[:, pos]

    xs: list[np.ndarray] = []
    ys: list[np.ndarray] = []
    ds: list[float] = []
    pair_defect = 0.0
    chosen_w = np.zeros((2 * dim, 0))   # chosen eigenvectors + their J-images
    chosen_xy = np.zeros((dim, 0))
    for group in _group_by_relative_gap(lam_pos, GROUP_TOL):
        basis = vecs_pos[:, group]
        lam_group = float(np.mean(lam_pos[group]))
        d_eig = 1.0 / lam_group
        for i in range(dim):
            # Project the embedded seed (0, e_i) into the eigenspace, then
            # out of every mode plane already taken (none subtracts +0.0).
            w = basis @ basis[dim + i, :]
            w = w - chosen_w @ (chosen_w.T @ w)
            r = float(np.sqrt(w @ w))
            if r < SEED_MIN_NORM:
                continue
            w = w / r
            u, v = w[:dim], w[dim:]
            un, vn = float(np.sqrt(u @ u)), float(np.sqrt(v @ v))
            if min(un, vn) < 0.1:
                raise PairingFailure(
                    f"unbalanced eigenvector halves ({un:.3e}, {vn:.3e})"
                )
            x = v / vn
            bx = b @ x
            pair_defect = max(pair_defect, abs(d_eig * float(np.sqrt(bx @ bx)) - 1.0))
            y = u / un
            # y is orthogonal to x and to earlier pairs up to rounding;
            # re-project to keep the assembled basis orthonormal.
            y = y - x * (x @ y)
            y = y - chosen_xy @ (chosen_xy.T @ y)
            y = y / float(np.sqrt(y @ y))
            xs.append(x)
            ys.append(y)
            ds.append(d_eig)
            # J(u, v) = (-v, u) spans the rest of this mode's plane in H.
            jw = np.concatenate([-w[dim:], w[:dim]])
            chosen_w = np.column_stack([chosen_w, w, jw])
            chosen_xy = np.column_stack([chosen_xy, x, y])
            rest = basis - chosen_w @ (chosen_w.T @ basis)
            if np.linalg.norm(rest) <= SEED_MIN_NORM / 2.0:
                break
    if pair_defect > PAIR_TOL:
        raise PairingFailure(
            f"pair consistency defect {pair_defect:.3e} exceeds {PAIR_TOL:.1e}"
        )
    return xs, ys, ds


def _orthogonality_defect(k: np.ndarray) -> float:
    # ||K^T K - I||_op, read off the eigenvalues of K^T K as the largest
    # distance from 1. K^T K is mostly diagonal to Jacobi's stopping
    # tolerance already, so its solve mostly ends at the first off-norm
    # test, where a solve of K^T K - I rotates its rounding noise to
    # convergence. numpy forms K^T K by a symmetric rank-k update, so it is
    # bit-symmetric and takes no midpoint.
    vals = sym_eig(k.T @ k).eigenvalues
    return max(float(vals[-1]) - 1.0, 1.0 - float(vals[0]))


def _williamson_core(scaled) -> tuple[np.ndarray, np.ndarray]:
    # Every step of williamson up to S and d / 4^j, without its two residual
    # solves, from the tuple _scaled_spd returns for M; callers that read
    # only these skip those solves, and scale d back with _unscale(d, 2j).
    _, n, _, spec = scaled
    vals, vecs = spec.eigenvalues, spec.eigenvectors
    inv_root = (vecs / np.sqrt(vals)) @ vecs.T
    inv_root = (inv_root + inv_root.T) / 2.0

    sigma = standard_form(n)
    b = inv_root @ sigma @ inv_root
    b = (b - b.T) / 2.0

    xs, ys, ds = _extract_mode_pairs(b)
    if len(ds) != n:
        raise PairingFailure(f"extracted {len(ds)} modes, expected {n}")

    # d already descends: the groups ascend in 1/d and are GROUP_TOL apart.
    d = np.asarray(ds)
    _check_invariants(d, spec)
    k = np.column_stack(xs + ys)
    ortho_defect = _orthogonality_defect(k)
    if ortho_defect > RESIDUAL_TOL:
        raise PairingFailure(f"assembled basis is not orthogonal: defect {ortho_defect:.3e}")

    s = inv_root @ (k * np.sqrt(np.concatenate([d, d])))
    return s, d


def williamson(m) -> WilliamsonFactorization:
    """Williamson factorization S^T M S = diag(d, d) of a positive definite M.

    The symplectic S is built as M^{-1/2} K diag(d, d)^{1/2} where K is an
    orthogonal basis paired from the eigenspaces of the antisymmetric kernel
    B = M^{-1/2} sigma M^{-1/2} (via its symmetric doubled embedding). The
    gauge (choice of K on degenerate eigenspaces) is fixed deterministically
    by canonical-basis seeds. d passes the invariant checks of
    ``symplectic_spectrum`` before S is formed.
    """
    return _williamson(m)[0]


def _williamson(m) -> tuple[WilliamsonFactorization, bool]:
    # williamson(m) and whether it keeps the residual promise, residual_diag
    # <= RESIDUAL_TOL * ||M||_op and residual_symp <= RESIDUAL_TOL, judged at
    # M / 4^j against the lambda_max its gate solved: no solve, no overflow.
    mat, n, exp, spec = scaled = _scaled_spd(_symmetric(m))
    s, d = _williamson_core(scaled)
    residual_diag = norm(s.T @ mat @ s - np.diag(np.concatenate([d, d])), NormKind.OPERATOR)
    residual_symp = _symplectic_residual(s, n)
    ok = residual_diag <= RESIDUAL_TOL * _extremes(spec, 0)[1] and residual_symp <= RESIDUAL_TOL
    return WilliamsonFactorization(
        n, s, _unscale(d, exp), math.ldexp(residual_diag, exp), residual_symp
    ), ok


def symplectic_inverse(s) -> np.ndarray:
    """Inverse of a symplectic matrix via S^{-1} = -sigma S^T sigma."""
    m = _square(s)
    n = _even_dim(m)
    sigma = standard_form(n)
    return -sigma @ m.T @ sigma


def gauge_align(
    ref: WilliamsonFactorization, other: WilliamsonFactorization
) -> GaugeAlignment:
    """Rotate each mode plane of ``other.S`` to best match ``ref.S``.

    Requires a nondegenerate reference spectrum, where the residual gauge
    freedom is exactly one planar rotation per mode; each angle minimizes the
    Frobenius distance of the mode's column pair (closed-form Procrustes).
    """
    if ref.S.shape != other.S.shape:
        raise DimensionMismatch(
            f"shape {ref.S.shape} vs {other.S.shape}"
        )
    for fac in (ref, other):
        if fac.S.shape != (2 * fac.n_modes,) * 2 or np.shape(fac.d) != (fac.n_modes,):
            raise DimensionMismatch(
                f"{fac.n_modes} modes with S of shape {fac.S.shape} "
                f"and d of shape {np.shape(fac.d)}"
            )
    return _gauge_align(ref.S, ref.d, other.S, other.d)


def _gauge_align(ref_s, ref_d, other_s, other_d) -> GaugeAlignment:
    # gauge_align on two consistent (S, d) pairs of one dimension.
    n = len(ref_d)
    if n > 1:
        # Monotone rounding puts the least pair gap between sorted neighbours.
        min_gap = float(np.min(np.diff(np.sort(ref_d))))
        if min_gap <= GAP_TOL_FACTOR * float(ref_d[0]):
            raise DegenerateSpectrum(
                f"spectral gap {min_gap:.3e} below "
                f"{GAP_TOL_FACTOR:.1e} * {ref_d[0]:.6e}"
            )
    angles = np.zeros(n)
    aligned = other_s.copy()
    for j in range(n):
        a = ref_s[:, j]
        bcol = ref_s[:, n + j]
        u = aligned[:, j].copy()
        w = aligned[:, n + j].copy()
        p = float(a @ u + bcol @ w)
        q = float(a @ w - bcol @ u)
        theta = float(np.arctan2(q, p))
        angles[j] = theta
        c, sn = np.cos(theta), np.sin(theta)
        aligned[:, j] = c * u + sn * w
        aligned[:, n + j] = -sn * u + c * w
    distance = norm(ref_s - aligned, NormKind.OPERATOR)

    # The rotations commute with diag(d, d), so the aligned S still
    # diagonalizes the matrix `other` came from; verify against the
    # reconstruction rather than trust it.
    d_full = np.concatenate([other_d, other_d])
    other_inv = symplectic_inverse(other_s)
    m_other = other_inv.T @ np.diag(d_full) @ other_inv
    x = aligned.T @ m_other @ aligned - np.diag(d_full)
    # ||X||_op <= ||X||_F and ||M||_op >= ||M||_F / sqrt(2n) (Golub & Van
    # Loan, Matrix Computations, 2.3), so the Frobenius bound below, with a
    # factor 2 to spare for rounding, accepts without two solves. Where it
    # does not, or a norm leaves the normal float range, the operator norms
    # decide as they would alone.
    try:
        bound = RESIDUAL_TOL * norm(m_other, NormKind.FROBENIUS) / (2.0 * math.sqrt(2 * n))
        accepted = bound >= sys.float_info.min and norm(x, NormKind.FROBENIUS) <= bound
    except NonFinite:
        accepted = False
    if not accepted:
        resid = norm(x, NormKind.OPERATOR)
        if resid > RESIDUAL_TOL * norm(m_other, NormKind.OPERATOR):
            raise PairingFailure(
                f"alignment broke the factorization: residual {resid:.3e}"
            )
    return GaugeAlignment(angles=angles, aligned_S=aligned, distance=distance)
