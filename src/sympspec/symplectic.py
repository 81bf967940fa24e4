"""Symplectic form, symplectic spectra, Williamson factorization, gauge alignment.

Conventions: the phase-space ordering is (q_1..q_n, p_1..p_n) and the
symplectic form is ``sigma = [[0, I], [-I, 0]]``. A factorization
``S^T M S = diag(d, d)`` with symplectic S and descending positive d is
computed entirely in real arithmetic from the antisymmetric kernel
``B = M^{-1/2} sigma M^{-1/2}``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .densemat import (
    NormKind,
    as_matrix,
    norm,
    psd_sqrt,
    singular_values,
    sym_eig,
    _binary_exponent,
    _require_square,
    _require_symmetric,
    _reuses_solves,
    _spd_spectrum,
    _unscale,
)
from .errors import (
    DegenerateSpectrum,
    DimensionMismatch,
    OddDimension,
    PairingFailure,
    ZeroModes,
)

RESIDUAL_TOL = 1e-8       # factorization residual promise
GROUP_TOL = 1e-8          # relative eigenvalue grouping
SEED_MIN_NORM = 1e-6      # reject seeds this close to the span already chosen
PAIR_TOL = 1e-8           # |d_eig * ||B x|| - 1| beyond this signals breakdown
GAP_TOL_FACTOR = 1e-8     # nondegeneracy gate for gauge alignment, times d_1


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
    return m.shape[0] // 2


def _scaled_even(m) -> tuple[np.ndarray, int, int]:
    # (M / 4^j, n, 2j) for a symmetric M of even dimension 2n. j is 0 unless
    # M's entries are extreme; the symplectic spectrum of M / 4^j is d / 4^j
    # exactly, since M^{1/2} scales by 2^-j.
    mat = _require_symmetric(_require_square(as_matrix(m)))
    n = _even_dim(mat)
    exp = _binary_exponent(mat, even=True)
    if exp:
        mat = np.ldexp(mat, -exp)
    return mat, n, exp


def is_symplectic(s, tol: float = RESIDUAL_TOL) -> bool:
    """True iff ||S^T sigma S - sigma|| <= tol in operator norm.

    The product S^T sigma S rounds at about 2^-52 ||S||^2, so once S has
    entries of about 1e4 no S passes tol = 1e-8, symplectic or not; a
    rescale cannot help, since the test is on that product. Where the
    product overflows, the residual is not finite and the answer is False.
    """
    m = _require_square(as_matrix(s))
    n = _even_dim(m)
    sigma = standard_form(n)
    with np.errstate(over="ignore", invalid="ignore"):
        resid = m.T @ sigma @ m - sigma
    if not np.isfinite(resid).all():
        return False
    return norm(resid, NormKind.OPERATOR) <= tol


@_reuses_solves
def symplectic_spectrum(m) -> np.ndarray:
    """Descending symplectic eigenvalues of a positive definite matrix.

    Computed as the singular values of M^{1/2} sigma M^{1/2}, which come in
    coincident pairs; each pair is collapsed to its mean.
    """
    mat, n, exp = _scaled_even(m)
    # At the scale of M / 4^j no pair sum below overflows.
    _spd_spectrum(mat)
    root = psd_sqrt(mat)
    sigma = standard_form(n)
    s = singular_values(root @ sigma @ root)
    return _unscale((s[0::2] + s[1::2]) / 2.0, exp)


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


def _extract_mode_pairs(b: np.ndarray, seed_order) -> tuple[list, list, list]:
    """Pair an orthonormal basis (x_j, y_j) with B x_j = -y_j / d_j.

    The eigenstructure of the antisymmetric B is read off the symmetric
    doubled embedding H = [[0, -B], [B, 0]], whose eigenvalues are +-1/d_j
    (each twice). Working on H rather than on -B^2 keeps the error of the
    extracted basis proportional to the relative spread of the d_j instead
    of its square, which is what makes large symplectic condition numbers
    survive the residual contract.

    Within each positive eigenvalue group, candidate seeds are canonical
    basis vectors embedded as (0, e_i) and projected into the eigenspace,
    taken in ``seed_order``; chosen mode planes are projected out of
    subsequent seeds. This keeps the result deterministic and well-defined
    for degenerate symplectic spectra.
    """
    dim = b.shape[0]
    h = np.zeros((2 * dim, 2 * dim))
    h[:dim, dim:] = -b
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
        for i in seed_order:
            # Project the embedded seed (0, e_i) into the eigenspace, then
            # out of every mode plane already taken.
            w = basis @ basis[dim + i, :]
            if chosen_w.shape[1]:
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
            if chosen_xy.shape[1]:
                y = y - chosen_xy @ (chosen_xy.T @ y)
            y = y / float(np.sqrt(y @ y))
            xs.append(x)
            ys.append(y)
            ds.append(d_eig)
            # J(u, v) = (-v, u) spans the rest of this mode's plane in H.
            jw = np.concatenate([-w[dim:], w[:dim]])
            chosen_w = np.column_stack([chosen_w, w, jw])
            chosen_xy = np.column_stack([chosen_xy, x, y])
    if pair_defect > PAIR_TOL:
        raise PairingFailure(
            f"pair consistency defect {pair_defect:.3e} exceeds {PAIR_TOL:.1e}"
        )
    return xs, ys, ds


def williamson(m, _seed_order=None) -> WilliamsonFactorization:
    """Williamson factorization S^T M S = diag(d, d) of a positive definite M.

    The symplectic S is built as M^{-1/2} K diag(d, d)^{1/2} where K is an
    orthogonal basis paired from the eigenspaces of the antisymmetric kernel
    B = M^{-1/2} sigma M^{-1/2} (via its symmetric doubled embedding). The
    gauge (choice of K on degenerate eigenspaces) is fixed deterministically
    by canonical-basis seeds.
    """
    mat, n, exp = _scaled_even(m)
    # S is the same at M / 4^j, while d and residual_diag scale back by 4^j.
    spec = _spd_spectrum(mat)
    vals, vecs = spec.eigenvalues, spec.eigenvectors
    inv_root = (vecs / np.sqrt(vals)) @ vecs.T
    inv_root = (inv_root + inv_root.T) / 2.0

    sigma = standard_form(n)
    b = inv_root @ sigma @ inv_root
    b = (b - b.T) / 2.0

    seed_order = range(2 * n) if _seed_order is None else _seed_order
    xs, ys, ds = _extract_mode_pairs(b, seed_order)
    if len(ds) != n:
        raise PairingFailure(f"extracted {len(ds)} modes, expected {n}")

    # Descending d; the stable sort keeps the seed gauge on ties.
    order = np.argsort(-np.asarray(ds), kind="stable")
    d = np.asarray(ds)[order]
    k = np.column_stack([xs[i] for i in order] + [ys[i] for i in order])
    ortho_defect = norm(k.T @ k - np.eye(2 * n), NormKind.OPERATOR)
    if ortho_defect > RESIDUAL_TOL:
        raise PairingFailure(
            f"assembled basis is not orthogonal: defect {ortho_defect:.3e}"
        )

    d_full = np.concatenate([d, d])
    s = inv_root @ (k * np.sqrt(d_full))
    residual_diag = norm(s.T @ mat @ s - np.diag(d_full), NormKind.OPERATOR)
    residual_symp = norm(s.T @ sigma @ s - sigma, NormKind.OPERATOR)
    return WilliamsonFactorization(
        n_modes=n,
        S=s,
        d=_unscale(d, exp),
        residual_diag=math.ldexp(residual_diag, exp),
        residual_symp=residual_symp,
    )


def symplectic_inverse(s) -> np.ndarray:
    """Inverse of a symplectic matrix via S^{-1} = -sigma S^T sigma."""
    m = _require_square(as_matrix(s))
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
    n = ref.n_modes
    if n > 1:
        gaps = np.abs(np.subtract.outer(ref.d, ref.d))
        min_gap = float(np.min(gaps[~np.eye(n, dtype=bool)]))
        if min_gap <= GAP_TOL_FACTOR * float(ref.d[0]):
            raise DegenerateSpectrum(
                f"spectral gap {min_gap:.3e} below "
                f"{GAP_TOL_FACTOR:.1e} * {ref.d[0]:.6e}"
            )
    angles = np.zeros(n)
    aligned = other.S.copy()
    for j in range(n):
        a = ref.S[:, j]
        bcol = ref.S[:, n + j]
        u = aligned[:, j].copy()
        w = aligned[:, n + j].copy()
        p = float(a @ u + bcol @ w)
        q = float(a @ w - bcol @ u)
        theta = float(np.arctan2(q, p))
        angles[j] = theta
        c, sn = np.cos(theta), np.sin(theta)
        aligned[:, j] = c * u + sn * w
        aligned[:, n + j] = -sn * u + c * w
    distance = norm(ref.S - aligned, NormKind.OPERATOR)

    # The rotations commute with diag(d, d), so the aligned S still
    # diagonalizes the matrix `other` came from; verify against the
    # reconstruction rather than trust it.
    d_full = np.concatenate([other.d, other.d])
    other_inv = symplectic_inverse(other.S)
    m_other = other_inv.T @ np.diag(d_full) @ other_inv
    resid = norm(aligned.T @ m_other @ aligned - np.diag(d_full), NormKind.OPERATOR)
    if resid > RESIDUAL_TOL * norm(m_other, NormKind.OPERATOR):
        raise PairingFailure(
            f"alignment broke the factorization: residual {resid:.3e}"
        )
    return GaugeAlignment(angles=angles, aligned_S=aligned, distance=distance)
