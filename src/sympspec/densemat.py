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
import operator
from collections import OrderedDict
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    ConvergenceFailure,
    DimensionMismatch,
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

# Spectra one call's memo keeps. The largest working set, measured on
# 12-point sweeps of every SWEEPABLE row, is a gram row's 10 spectra.
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


def _off_norm2_in_order(a, upper):
    # Squared off-diagonal Frobenius norm of a square `a`, given the mask
    # `upper` of its strict upper triangle, with the bits of the per-element
    # loop kernel (tests/jacobi_reference.py): the mask gathers the terms in
    # its row-major order and add.accumulate sums them left to right, as the
    # loop does (a pairwise np.sum would not).
    # The loop's leading 0.0 + t0 is exact, since every term is >= +0.
    terms = a[upper]
    if not terms.size:
        return 0.0
    return float(np.add.accumulate((2.0 * terms) * terms)[-1])


def _jacobi_kernel(a, off_tol, max_sweeps):
    # The rotations of the per-element loop kernel, the reference in
    # tests/jacobi_reference.py, in the same cyclic order with the same
    # elementwise IEEE operations, run on the stack w = [a | I] with `a`
    # left unwritten. Returns (w, converged, sweeps): w[:, :n] and
    # w[:, n:].T are bit for bit the loop kernel's final a and v, started
    # from v = I.
    # Precondition: `a` is exactly symmetric (sym_eig passes the mean of m
    # and m.T).
    # The loop kernel's column update then equals its row update outside
    # rows p and q, so rotating rows p and q of [a | v^T] updates a's rows
    # and v's columns at once. The diagonal lives in `dg`, as Python floats
    # set to the loop kernel's closed forms, and reaches w only on return.
    # After each rotation row q is copied into column q, which later
    # rotations of this pass read in their own rows, and then (p, q) is set
    # to the closed form 0.0; row p is copied into column p once, when the
    # pass over row p ends.
    # So mid-pass only the diagonal and the entries (q, p) below it are
    # stale. A rotation of rows p and q reads them only into (p, p),
    # (q, q), (p, q) and (q, p): the diagonal is rewritten from dg on
    # return, (p, q) is zeroed and (q, p) is refreshed when the pass ends.
    # Every other read, the skip test and the off-norms included, sees
    # current entries. A stale diagonal entry stays finite: each rotation
    # adds to it at most the magnitude of one current entry, (q, p) of
    # row q or (p, q) of row p, since |c| and |s| are at most 1.
    # Row p lives for its whole pass in bp, the first row of the contiguous
    # block pq = [bp; bq], and goes back into w when the pass ends; no
    # other write of the pass reaches row p of w except (p, q) by the
    # column-q copy, whose closed form 0.0 bp holds. Each rotation copies
    # row q into bq and rotates both rows with four ufunc calls: with
    # sc = s*pq taken before pq *= c, bp - sc[1] is c*w_p - s*w_q and
    # bq + sc[0] is s*w_p + c*w_q, as IEEE products and sums commute; the
    # last call writes row q straight back into w.
    # c and s reach the ufuncs as 0-d arrays, which numpy takes faster than
    # Python floats; the products are the same float64 products.
    n = a.shape[0]
    skip = off_tol / (2.0 * n)
    w = np.zeros((n, 2 * n))
    wa = w[:, :n]
    wa[...] = a
    # v = I: entry (i, n + i) of the C-contiguous w
    w.ravel()[n :: 2 * n + 1] = 1.0
    rows = list(w)
    arows = list(wa)
    acols = list(wa.T)
    dg = wa.diagonal().tolist()
    r = np.arange(n)
    upper = r[:, None] < r
    pq = np.empty((2, 2 * n))
    sc = np.empty((2, 2 * n))
    bp, bq = pq
    sp, sq = sc
    ap = bp[:n]
    item = bp.item
    c0 = np.empty(())
    s0 = np.empty(())
    mul = np.multiply
    add = np.add
    for sweep in range(max_sweeps):
        if math.sqrt(_off_norm2_in_order(wa, upper)) <= off_tol:
            converged, sweeps = True, sweep
            break
        for p in range(n - 1):
            wp = rows[p]
            bp[...] = wp
            for q in range(p + 1, n):
                apq = item(q)
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
                bq[...] = rows[q]
                mul(pq, s0, sc)
                pq *= c0
                bp -= sq
                add(bq, sp, rows[q])
                dg[p] = app - t * apq
                dg[q] = aqq + t * apq
                acols[q][...] = arows[q]
                ap[q] = 0.0
            wp[...] = bp
            acols[p][...] = ap
    else:
        converged = bool(math.sqrt(_off_norm2_in_order(wa, upper)) <= off_tol)
        sweeps = max_sweeps
    # the diagonal of wa: entry (i, i) of the C-contiguous w
    w.ravel()[: 2 * n * n : 2 * n + 1] = dg
    return w, converged, sweeps


def _as_real(a) -> np.ndarray:
    # a as a float64 array, uncopied when it is one. Complex entries, and
    # entries numpy cannot read as floats (ragged rows, text, objects), are
    # NonFinite: casting complex to float would drop the imaginary part.
    if type(a) is np.ndarray and a.dtype == np.float64:
        return a
    try:
        raw = np.asarray(a)
        if raw.dtype.kind != "c":
            return raw.astype(np.float64, copy=False)
    except (TypeError, ValueError, OverflowError) as exc:
        raise NonFinite(f"entries are not real numbers: {exc}") from exc
    raise NonFinite("entries are complex")


def as_matrix(a) -> np.ndarray:
    """Coerce to a finite float64 2-D array; raise NonFinite otherwise."""
    m = _as_real(a)
    if m.ndim != 2:
        raise NotSquare(f"expected a 2-D array, got ndim={m.ndim}")
    if not np.logical_and.reduce(np.isfinite(m), axis=None):
        raise NonFinite("matrix contains NaN or Inf entries")
    return m


def _square(a) -> np.ndarray:
    # as_matrix(a), refused unless square.
    m = as_matrix(a)
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


def _symmetric(a) -> np.ndarray:
    # The gate of every symmetric input, run once by the public entry that
    # takes it (sym_eig gates the matrix of each solve again): _square(a),
    # refused past TOL_SYM. m itself, uncopied, when m equals m.T bit for
    # bit, which is the midpoint's bits too; else the midpoint, a fresh
    # array. Bits, not values: -0.0 == +0.0, but their midpoint is +0.0. No
    # caller writes the result; one that keeps it copies it.
    m = _square(a)
    if m.tobytes() == m.T.tobytes():
        return m
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


def _symmetric_pair(m, mp):
    # Two gated symmetric matrices of the same shape: the one gate of every
    # two-matrix checker, whose bodies gate no more.
    a = _symmetric(m)
    b = _symmetric(mp)
    if a.shape != b.shape:
        raise DimensionMismatch(f"shapes {a.shape} and {b.shape} differ")
    return a, b


def _index(i) -> int:
    # operator.index(i), refusing bools: True in a NumPy-style mask is no index.
    if isinstance(i, bool):
        raise TypeError(f"{i!r} is a bool, not an index")
    return operator.index(i)


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


def _rescaled(m: np.ndarray) -> tuple[np.ndarray, int]:
    # (m / 2^e, e). e is 0, and m comes back uncopied, when the largest entry
    # magnitude lies in [2^-256, 2^256] (or m is zero), where sums of squares
    # neither overflow nor underflow; otherwise e is the even exponent that
    # brings it into [1/4, 1). Scaling by a power of two is exact, and Jacobi
    # commutes with it bit for bit.
    amax = float(np.maximum.reduce(np.abs(m), axis=None)) if m.size else 0.0
    if amax == 0.0 or 2.0 ** -256 <= amax <= 2.0 ** 256:
        return m, 0
    e = 2 * math.ceil(math.frexp(amax)[1] / 2)
    return np.ldexp(m, -e), e


def _times_two_to(x: float, exp: int, spec: str) -> str:
    # x * 2^exp formatted by spec, or "y * 2^k" with 1 <= |y| < 2 where the
    # product is no nonzero float: one value, one text, whatever the scale.
    y, e = math.frexp(x)
    if -1074 < e + exp <= _MAX_EXP:
        return format(math.ldexp(x, exp), spec)
    return f"{format(2.0 * y, spec)} * 2^{e + exp - 1}"


def _unscale(x, exp: int):
    # np.ldexp(x, exp), undoing a _rescaled rescale; x itself when exp is 0.
    # A result past the largest float raises NonFinite before the ldexp,
    # which would return inf with a RuntimeWarning.
    if exp == 0:
        return x
    if exp > 0 and x.size:
        amax = float(np.abs(x).max())
        if math.frexp(amax)[1] + exp > _MAX_EXP:
            raise NonFinite(f"result {_times_two_to(amax, exp, '')} exceeds the largest float")
    return np.ldexp(x, exp)


def sym_eig(a) -> Spectrum:
    """Eigendecomposition of a symmetric matrix by cyclic Jacobi sweeps.

    Deterministic: fixed sweep order, ascending eigenvalues, and a sign
    convention that makes the largest-magnitude component of every
    eigenvector positive (ties broken by lowest index). Within one call of
    ``symplectic_spectrum``'s body or of ``perturb.sweep``, the two that
    solve a matrix more than once, repeats return copies of the first
    solve, which are the same bits.
    """
    # The kernel and everything below leave m unwritten, so a bit-symmetric
    # input is solved uncopied, in whatever layout it comes.
    m = _symmetric(a)
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
    work, exp = _rescaled(m)
    # np.sum's pairwise order over the C-order squares, in one ufunc call
    off_tol = JACOBI_OFF_TOL * math.sqrt(np.add.reduce((work * work).ravel()))
    w, converged, _ = _jacobi_kernel(work, off_tol, JACOBI_MAX_SWEEPS)
    if not converged:
        raise ConvergenceFailure(
            f"Jacobi did not converge within {JACOBI_MAX_SWEEPS} sweeps"
        )
    diag = w.diagonal()
    order = diag.argsort(kind="stable")
    vals = _unscale(diag.take(order), exp)
    vecs = w[:, n:].T.take(order, axis=1)
    # Sign convention: argmax returns the first maximal index; negation is
    # exact.
    lead = np.abs(vecs).argmax(axis=0)
    np.negative(vecs, out=vecs, where=vecs[lead, np.arange(n)] < 0.0)
    if memo is not None:
        memo[key] = (vals.copy(), vecs.copy())
        if len(memo) > SOLVE_MEMO_CAPACITY:
            memo.popitem(last=False)
    return Spectrum(eigenvalues=vals, eigenvectors=vecs)


def _spd(m: np.ndarray, name: str = "") -> tuple[np.ndarray, int, Spectrum]:
    # (M / 4^j, 2j, spectrum of M / 4^j) for a validated symmetric M: the one
    # route by which positive definite inputs are scaled, solved and gated.
    # j is 0 unless M's largest entry leaves [2^-256, 2^256]. The message of
    # NotPositiveDefinite names M's own smallest eigenvalue after name.
    mat, exp = _rescaled(m)
    spec = sym_eig(mat)
    _require_positive_definite(spec.eigenvalues, name, exp)
    return mat, exp, spec


def _require_positive_definite(vals, name: str = "", exp: int = 0) -> None:
    # The gate of _spd and _extremes on the ascending eigenvalues of
    # M / 2^exp: the smallest must clear TOL_PD relative to the largest
    # magnitude, which is at one end of the ascending vals. Only the message
    # reads exp, to name M's own eigenvalue.
    if vals.size == 0 or vals[0] <= TOL_PD * max(abs(float(vals[0])), abs(float(vals[-1]))):
        smallest = float(vals[0]) if vals.size else math.nan
        prefix = f"{name}: " if name else ""
        shown = _times_two_to(smallest, exp, ".6e")
        raise NotPositiveDefinite(f"{prefix}smallest eigenvalue {shown} is not positive")


def psd_sqrt(a) -> np.ndarray:
    """Symmetric PSD square root via the Jacobi eigendecomposition.

    Eigenvalues in ``[-TOL_PSD * ||A||, 0)`` are clamped to zero; anything
    more negative raises NotPSD.
    """
    spec = sym_eig(a)
    vals, vecs = spec.eigenvalues, spec.eigenvectors
    # the largest magnitude is at one end of the ascending vals
    scale = max(abs(float(vals[0])), abs(float(vals[-1]))) if vals.size else 0.0
    if vals.size and vals[0] < -TOL_PSD * scale:
        raise NotPSD(f"eigenvalue {vals[0]:.6e} below -{TOL_PSD:.1e} * {scale:.6e}")
    root = np.sqrt(vals.clip(0.0))
    r = (vecs * root) @ vecs.T
    return (r + r.T) / 2.0


def _spd_inverse(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    # (M^-1, the ascending eigenvalues of M / 4^j it was built from, 2j) for
    # a gated symmetric M, inverted at M / 4^j, whose largest entry is near 1;
    # _unscale raises NonFinite where M^-1 passes the largest float.
    _, exp, spec = _spd(m)
    vals, vecs = spec.eigenvalues, spec.eigenvectors
    w = (vecs / vals) @ vecs.T
    return _unscale((w + w.T) / 2.0, -exp), vals, exp


def spd_inverse(a) -> np.ndarray:
    """Inverse of a symmetric positive definite matrix."""
    return _spd_inverse(_symmetric(a))[0]


def singular_values(a) -> np.ndarray:
    """Descending singular values: square roots of the eigenvalues of A^T A."""
    m, exp = _rescaled(_square(a))
    return _unscale(_singular_values(m), exp)


def _singular_values(m: np.ndarray) -> np.ndarray:
    # singular_values of a gated square m at a scale where no square and no
    # sum overflows or underflows, as _rescaled leaves it.
    # numpy forms m.T @ m by a symmetric rank-k update: bit-symmetric.
    vals = sym_eig(m.T @ m).eigenvalues
    return np.sqrt(vals[::-1].clip(0.0))


def norm(a, kind: NormKind = NormKind.OPERATOR) -> float:
    """Unitarily invariant norm of a square matrix."""
    return _norms(a, (kind,))[0]


def _norms(a, kinds) -> list[float]:
    # [norm(a, kind) for kind in kinds], from at most one singular-value
    # solve. Each total is taken at the scale where no square and no sum
    # overflows and unscaled once; the scaled matrix's singular values need
    # no rescale of their own.
    m, exp = _rescaled(_square(a))
    s = None
    out = []
    for kind in kinds:
        if kind is NormKind.FROBENIUS:
            total = np.sqrt((m * m).sum())
        elif kind is NormKind.OPERATOR or kind is NormKind.TRACE:
            if s is None:
                s = _singular_values(m)
            total = s.sum() if kind is NormKind.TRACE else (s[0] if s.size else 0.0)
        else:
            raise ValueError(f"unknown norm kind: {kind!r}")
        out.append(float(_unscale(total, exp)))
    return out


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
    _, exp, spec = _spd(_symmetric(a))
    lam_min, lam_max = _extremes(spec, exp)
    return lam_max / lam_min


def _extremes(spec: Spectrum, exp: int, name: str = "") -> tuple[float, float]:
    # lambda_min and lambda_max of the positive definite a off spec, the
    # spectrum of a / 2^exp, with the bits and errors of a solve of a: NonFinite
    # past the largest float, NotPositiveDefinite after name at lambda_min = 0.
    vals = _unscale(spec.eigenvalues, exp)
    _require_positive_definite(vals, name)
    return float(vals[0]), float(vals[-1])
