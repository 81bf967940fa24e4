"""Dense real symmetric-matrix kernels.

Everything downstream (symplectic factorizations, bound checkers, entropy)
is built on the routines here: a cyclic Jacobi eigensolver, PSD square
roots, SPD inverses, singular values, unitarily invariant norms, and
condition numbers. All routines are pure, deterministic, and operate on
plain float64 numpy arrays.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import math
from collections import OrderedDict
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    ConvergenceFailure,
    NonFinite,
    NotPositiveDefinite,
    NotPSD,
    NotSquare,
    NotSymmetric,
)

# Relative tolerances; "relative" means scaled by the magnitude of the input.
TOL_SYM = 1e-12    # symmetry gate
TOL_PSD = 1e-10    # eigenvalue floor for PSD inputs (more negative -> error)
TOL_PD = 1e-12     # strict positivity gate

JACOBI_OFF_TOL = 1e-14   # off-diagonal Frobenius target, relative to ||A||_F
JACOBI_MAX_SWEEPS = 100

# Spectra one call's memo keeps: the largest working set, one s_stability
# sweep point, reuses 7 while making 8 new; a long sweep holds no more.
SOLVE_MEMO_CAPACITY = 16

# No sum or difference of two floats at most this large overflows.
_HALF_MAX = float(np.finfo(np.float64).max) / 2.0
# Every finite float is below 2 ** _MAX_EXP.
_MAX_EXP = int(np.finfo(np.float64).maxexp)

# The memo of the outermost _reuses_solves call running in this context, or
# None outside any; sym_eig does no memo work when it is None.
_solve_memo: contextvars.ContextVar = contextvars.ContextVar(
    "sympspec_solve_memo", default=None
)


class NormKind(Enum):
    """The three unitarily invariant norms implemented here."""

    OPERATOR = "operator"    # largest singular value
    FROBENIUS = "frobenius"  # root sum of squared entries
    TRACE = "trace"          # sum of singular values


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition of a symmetric matrix.

    ``eigenvalues`` ascend; column ``i`` of ``eigenvectors`` belongs to
    ``eigenvalues[i]``. Columns are orthonormal and sign-fixed so that the
    largest-magnitude component of each eigenvector is positive.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _jacobi_kernel_loop(a, v, off_tol, max_sweeps):
    # Cyclic Jacobi with a skip threshold. Mutates `a` toward diagonal form
    # and accumulates rotations into `v`. Returns (converged, sweeps_used).
    # This is the reference kernel, kept for the tests: _jacobi_kernel must
    # reproduce its bits.
    n = a.shape[0]
    skip = off_tol / (2.0 * n)
    for sweep in range(max_sweeps):
        off2 = 0.0
        for i in range(n - 1):
            for j in range(i + 1, n):
                off2 += 2.0 * a[i, j] * a[i, j]
        if np.sqrt(off2) <= off_tol:
            return True, sweep
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= skip:
                    continue
                tau = (a[q, q] - a[p, p]) / (2.0 * apq)
                if tau >= 0.0:
                    t = 1.0 / (tau + np.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + np.sqrt(1.0 + tau * tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                app = a[p, p]
                aqq = a[q, q]
                for k in range(n):
                    akp = a[k, p]
                    akq = a[k, q]
                    a[k, p] = c * akp - s * akq
                    a[k, q] = s * akp + c * akq
                for k in range(n):
                    apk = a[p, k]
                    aqk = a[q, k]
                    a[p, k] = c * apk - s * aqk
                    a[q, k] = s * apk + c * aqk
                # the rotation annihilates (p, q); assign the closed forms
                a[p, q] = 0.0
                a[q, p] = 0.0
                a[p, p] = app - t * apq
                a[q, q] = aqq + t * apq
                for k in range(n):
                    vkp = v[k, p]
                    vkq = v[k, q]
                    v[k, p] = c * vkp - s * vkq
                    v[k, q] = s * vkp + c * vkq
    off2 = 0.0
    for i in range(n - 1):
        for j in range(i + 1, n):
            off2 += 2.0 * a[i, j] * a[i, j]
    return bool(np.sqrt(off2) <= off_tol), max_sweeps


def _off_norm2_in_order(a, upper):
    # Squared off-diagonal Frobenius norm of a square `a`, given the mask
    # `upper` of its strict upper triangle, with the loop kernel's bits: the
    # mask gathers the terms in its row-major order and add.accumulate sums
    # them left to right, as the loop does (a pairwise np.sum would not).
    # The loop's leading 0.0 + t0 is exact, since every term is >= +0.
    terms = a[upper]
    if not terms.size:
        return 0.0
    return float(np.add.accumulate((2.0 * terms) * terms)[-1])


def _jacobi_kernel(a, v, off_tol, max_sweeps):
    # The loop kernel's rotations in the same cyclic order with the same
    # elementwise IEEE operations, so a, v and the result are bit-identical.
    # Precondition: `a` is exactly symmetric (sym_eig passes the mean of m
    # and m.T).
    # The loop kernel's column update then equals its row update outside
    # rows p and q, so rotating rows p and q of the stacked array [a | v^T]
    # updates a's rows and v's columns at once. The closed forms for (p, q),
    # (p, p) and (q, q) are stored into the new rows, which are then copied
    # into a's columns: the column-p copy sets (q, p) to the 0.0 at (p, q).
    # Neither copy touches another row's diagonal entry, so only the closed
    # forms change the diagonal, and `dg` keeps it as Python floats too.
    # Rows rotate in place through views bound once per call: with the
    # scratch rows t1 = s*w_q and t2 = s*w_p, w_p*c - t1 is c*w_p - s*w_q
    # and w_q*c + t2 is s*w_p + c*w_q, as IEEE products and sums commute.
    # c and s reach the ufuncs as 0-d arrays, which numpy takes faster than
    # Python floats; the products are the same float64 products.
    n = a.shape[0]
    skip = off_tol / (2.0 * n)
    w = np.concatenate((a, v.T), axis=1)
    wa = w[:, :n]
    rows = list(w)
    arows = list(wa)
    acols = list(wa.T)
    item = wa.item
    dg = wa.diagonal().tolist()
    r = np.arange(n)
    upper = np.less.outer(r, r)
    t1 = np.empty(w.shape[1])
    t2 = np.empty(w.shape[1])
    c0 = np.empty(())
    s0 = np.empty(())
    mul = np.multiply
    for sweep in range(max_sweeps):
        if math.sqrt(_off_norm2_in_order(wa, upper)) <= off_tol:
            converged, sweeps = True, sweep
            break
        for p in range(n - 1):
            wp = rows[p]
            ap = arows[p]
            for q in range(p + 1, n):
                apq = item(p, q)
                if abs(apq) <= skip:
                    continue
                app = dg[p]
                aqq = dg[q]
                tau = (aqq - app) / (2.0 * apq)
                if tau >= 0.0:
                    t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                c0[()] = c
                s0[()] = s
                wq = rows[q]
                aq = arows[q]
                mul(wq, s0, t1)
                mul(wp, s0, t2)
                wp *= c0
                wp -= t1
                wq *= c0
                wq += t2
                dg[p] = ap[p] = app - t * apq
                dg[q] = aq[q] = aqq + t * apq
                ap[q] = 0.0
                acols[p][...] = ap
                acols[q][...] = aq
    else:
        converged = bool(math.sqrt(_off_norm2_in_order(wa, upper)) <= off_tol)
        sweeps = max_sweeps
    a[...] = wa
    v[...] = w[:, n:].T
    return converged, sweeps


def as_matrix(a) -> np.ndarray:
    """Coerce to a finite float64 2-D array; raise NonFinite otherwise."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise NotSquare(f"expected a 2-D array, got ndim={m.ndim}")
    if not np.isfinite(m).all():
        raise NonFinite("matrix contains NaN or Inf entries")
    return m


def _require_square(m: np.ndarray) -> np.ndarray:
    if m.shape[0] != m.shape[1]:
        raise NotSquare(f"expected a square matrix, got shape {m.shape}")
    return m


def _midpoint(a, b, amax: float) -> np.ndarray:
    # (a + b) / 2 for entries at most amax in magnitude, finite for finite
    # inputs. Only past _HALF_MAX can the sum overflow; there those entries
    # are halved first, which is exact for normal floats but rounds
    # subnormals, so every sum that stays finite keeps its bits.
    if amax <= _HALF_MAX:
        return (a + b) / 2.0
    with np.errstate(over="ignore"):
        mid = (a + b) / 2.0
    return np.where(np.isfinite(mid), mid, a / 2.0 + b / 2.0)


def _require_symmetric(m: np.ndarray) -> np.ndarray:
    # A fresh symmetric array: a copy of m when m equals m.T bit for bit,
    # which is the midpoint's bits too (every internal caller passes such an
    # m). Bits, not values: -0.0 == +0.0, but their midpoint is +0.0.
    if m.tobytes() == m.T.tobytes():
        return m.copy()
    # Scale by the largest entry magnitude; cheap and never looser than an
    # operator-norm scale. Past _HALF_MAX, m - m.T may overflow to inf,
    # which fails the gate as it should.
    scale = float(np.abs(m).max())
    with np.errstate(over="ignore") if scale > _HALF_MAX else contextlib.nullcontext():
        asym = float(np.abs(m - m.T).max())
    if asym > TOL_SYM * scale:
        raise NotSymmetric(
            f"asymmetry {asym:.3e} exceeds {TOL_SYM:.1e} * {scale:.3e}"
        )
    return _midpoint(m, m.T, scale)


def _reuses_solves(fn):
    # Decorator: every sym_eig call under the outermost decorated call shares
    # one memo, so a matrix solved twice within that call is solved once.
    # Nested decorated calls join the open memo; it is dropped on return.
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if _solve_memo.get() is not None:
            return fn(*args, **kwargs)
        token = _solve_memo.set(OrderedDict())
        try:
            return fn(*args, **kwargs)
        finally:
            _solve_memo.reset(token)

    return wrapper


def _binary_exponent(m: np.ndarray, even: bool = False) -> int:
    # 0 when the largest entry magnitude lies in [2^-256, 2^256] (or m is
    # zero), where sums of squares neither overflow nor underflow; otherwise
    # the power of two (even if asked) whose inverse brings it near 1.
    # Scaling by a power of two is exact, and Jacobi commutes with it bit for bit.
    amax = float(np.abs(m).max()) if m.size else 0.0
    if amax == 0.0 or 2.0 ** -256 <= amax <= 2.0 ** 256:
        return 0
    e = math.frexp(amax)[1]
    return e + (e & 1) if even else e


def _unscale(x, exp: int):
    # np.ldexp(x, exp), undoing a _binary_exponent rescale; x itself when
    # exp is 0. Only exp > 0 can push a result past the largest float; that
    # is caught before the ldexp, so it raises NonFinite instead of
    # returning inf with a RuntimeWarning.
    if exp == 0:
        return x
    if exp > 0 and x.size:
        amax = float(np.abs(x).max())
        if math.frexp(amax)[1] + exp > _MAX_EXP:
            raise NonFinite(
                f"result {amax!r} * 2^{exp} exceeds the largest float"
            )
    return np.ldexp(x, exp)


def sym_eig(a) -> Spectrum:
    """Eigendecomposition of a symmetric matrix by cyclic Jacobi sweeps.

    Deterministic: fixed sweep order, ascending eigenvalues, and a sign
    convention that makes the largest-magnitude component of every
    eigenvector positive (ties broken by lowest index). Within one call of a
    public function that solves the same matrix more than once, repeats
    return copies of the first solve, which are the same bits.
    """
    m = _require_symmetric(_require_square(as_matrix(a)))
    n = m.shape[0]
    if n == 0:
        return Spectrum(eigenvalues=np.zeros(0), eigenvectors=np.zeros((0, 0)))
    memo = _solve_memo.get()
    if memo is not None:
        key = m.tobytes()
        hit = memo.get(key)
        if hit is not None:
            memo.move_to_end(key)
            return Spectrum(eigenvalues=hit[0].copy(), eigenvectors=hit[1].copy())
    # m is a fresh copy, so the kernel may work in it when no rescale is due.
    exp = _binary_exponent(m)
    work = np.ldexp(m, -exp) if exp else m
    vecs = np.eye(n)
    off_tol = JACOBI_OFF_TOL * float(np.sqrt(np.sum(work * work)))
    converged, _ = _jacobi_kernel(work, vecs, off_tol, JACOBI_MAX_SWEEPS)
    if not converged:
        raise ConvergenceFailure(
            f"Jacobi did not converge within {JACOBI_MAX_SWEEPS} sweeps"
        )
    diag = work.diagonal()
    order = diag.argsort(kind="stable")
    vals = _unscale(diag.take(order), exp)
    vecs = vecs.take(order, axis=1)
    # Sign convention: argmax returns the first maximal index; negation is
    # exact.
    lead = np.abs(vecs).argmax(axis=0)
    np.negative(vecs, out=vecs, where=vecs[lead, np.arange(n)] < 0.0)
    if memo is not None:
        memo[key] = (vals.copy(), vecs.copy())
        if len(memo) > SOLVE_MEMO_CAPACITY:
            memo.popitem(last=False)
    return Spectrum(eigenvalues=vals, eigenvectors=vecs)


def _spd_spectrum(a, name: str = "") -> Spectrum:
    # sym_eig(a), raising NotPositiveDefinite unless the smallest eigenvalue
    # clears TOL_PD relative to the largest magnitude; an empty matrix fails.
    spec = sym_eig(a)
    vals = spec.eigenvalues
    if vals.size == 0 or vals[0] <= TOL_PD * float(np.abs(vals).max()):
        smallest = vals[0] if vals.size else float("nan")
        prefix = f"{name}: " if name else ""
        raise NotPositiveDefinite(
            f"{prefix}smallest eigenvalue {smallest:.6e} is not positive"
        )
    return spec


def psd_sqrt(a) -> np.ndarray:
    """Symmetric PSD square root via the Jacobi eigendecomposition.

    Eigenvalues in ``[-TOL_PSD * ||A||, 0)`` are clamped to zero; anything
    more negative raises NotPSD.
    """
    spec = sym_eig(a)
    vals, vecs = spec.eigenvalues, spec.eigenvectors
    scale = float(np.abs(vals).max()) if vals.size else 0.0
    if vals.size and vals[0] < -TOL_PSD * scale:
        raise NotPSD(f"eigenvalue {vals[0]:.6e} below -{TOL_PSD:.1e} * {scale:.6e}")
    root = np.sqrt(vals.clip(0.0))
    r = (vecs * root) @ vecs.T
    return (r + r.T) / 2.0


def spd_inverse(a) -> np.ndarray:
    """Inverse of a symmetric positive definite matrix."""
    # Invert A / 2^k, whose largest entry is near 1, then scale back;
    # _unscale raises NonFinite where A^-1 passes the largest float.
    m = _require_square(as_matrix(a))
    exp = _binary_exponent(m)
    if exp:
        m = np.ldexp(m, -exp)
    spec = _spd_spectrum(m)
    vals, vecs = spec.eigenvalues, spec.eigenvectors
    w = (vecs / vals) @ vecs.T
    return _unscale((w + w.T) / 2.0, -exp)


def singular_values(a) -> np.ndarray:
    """Descending singular values: square roots of the eigenvalues of A^T A."""
    m = _require_square(as_matrix(a))
    exp = _binary_exponent(m)
    if exp:
        m = np.ldexp(m, -exp)
    gram = m.T @ m
    vals = sym_eig((gram + gram.T) / 2.0).eigenvalues
    return _unscale(np.sqrt(vals[::-1].clip(0.0)), exp)


def norm(a, kind: NormKind = NormKind.OPERATOR) -> float:
    """Unitarily invariant norm of a square matrix."""
    m = _require_square(as_matrix(a))
    if kind is NormKind.OPERATOR:
        s = singular_values(m)
        return float(s[0]) if s.size else 0.0
    if kind is not NormKind.FROBENIUS and kind is not NormKind.TRACE:
        raise ValueError(f"unknown norm kind: {kind!r}")
    # Sum at the scale where no square and no sum overflows, then unscale
    # once; the scaled matrix's singular values need no rescale of their own.
    exp = _binary_exponent(m)
    if exp:
        m = np.ldexp(m, -exp)
    if kind is NormKind.FROBENIUS:
        total = np.sqrt((m * m).sum())
    else:
        total = singular_values(m).sum()
    return float(_unscale(total, exp))


def identity_norm(n: int, kind: NormKind) -> float:
    """Norm of the n-by-n identity; shows up on the right of several bounds."""
    if kind is NormKind.OPERATOR:
        return 1.0
    if kind is NormKind.FROBENIUS:
        return float(np.sqrt(n))
    if kind is NormKind.TRACE:
        return float(n)
    raise ValueError(f"unknown norm kind: {kind!r}")


def condition_number(a) -> float:
    """lambda_max / lambda_min of a symmetric positive definite matrix."""
    vals = _spd_spectrum(a).eigenvalues
    return float(vals[-1] / vals[0])
