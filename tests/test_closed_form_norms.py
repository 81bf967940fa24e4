"""Operator norms of positive definite matrices read off spectra the
checkers already solve: ||M||_op as lambda_max(M), ||M^-1||_op as
1 / lambda_min(M).

The closed forms must agree with the solved norms within 1e-13 relative.
The references here solve each of these norms as the largest singular value
of a new matrix, as the checkers did before; the checkers' lhs bits and
``holds`` must equal theirs.
"""

import numpy as np
import pytest

from conftest import as_hex, random_spd, random_symmetric_unit
from sympspec import gaussian, perturb
from sympspec.densemat import NormKind, condition_number, norm, spd_inverse, sym_eig
from sympspec.errors import SympspecError
from sympspec.gaussian import entropy_difference_bound
from sympspec.perturb import bound_bhatia_jain, check_inv_lemma
from sympspec.symplectic import symplectic_spectrum

_SCALES = (1.0, 2.0**300, 2.0**-300, 3.0 * 2.0**301)


def _corpus():
    # Criterion 1's draw: 2n cycling through 2..20, kappa up to 1e6.
    rng = np.random.default_rng(1700)
    mats = []
    for i in range(40):
        dim = 2 + 2 * (i % 10)
        kappa = 10.0 ** rng.uniform(0.0, 6.0)
        scale = 10.0 ** rng.uniform(-1.0, 1.0)
        mats.append(random_spd(rng, dim, kappa, scale))
    return mats


_CORPUS = _corpus()


def _pair(i):
    # M, and M moved by a hundredth of its smallest eigenvalue, which keeps
    # the pair positive definite.
    m = _CORPUS[i]
    e = random_symmetric_unit(np.random.default_rng(1800 + i), m.shape[0])
    lam_min = float(np.linalg.eigvalsh(m)[0])
    return m, m + 1e-2 * lam_min * e


def _rel(got, want):
    return abs(got - want) / abs(want)


@pytest.mark.parametrize("i", range(len(_CORPUS)))
def test_closed_forms_match_solved_norms(i):
    for scale in _SCALES:
        m = _CORPUS[i] * scale
        vals = sym_eig(m).eigenvalues
        op_norm = norm(m, NormKind.OPERATOR)
        assert _rel(float(vals[-1]), op_norm) <= 1e-13
        assert _rel(perturb._kappa_and_norm(m)[1], op_norm) <= 1e-13
        inv_norm = norm(spd_inverse(m), NormKind.OPERATOR)
        assert _rel(1.0 / float(vals[0]), inv_norm) <= 1e-13
        assert _rel(perturb._inverse_and_norm(m)[1], inv_norm) <= 1e-13


def _inverse_and_solved_norm(a):
    inverse = spd_inverse(a)
    return inverse, norm(inverse, NormKind.OPERATOR)


def _sides(call):
    # (lhs bits, holds, rhs) of the report, or the exception's type and
    # message and None.
    try:
        report = call()
    except SympspecError as exc:
        return type(exc).__name__, str(exc), None
    return as_hex(report.lhs), report.holds, report.rhs


def _reference(call):
    # The report's sides with every norm solved afresh, and how often the
    # checker read kappa and ||M|| through the patched name.
    reads = []

    def kappa_and_solved_norm(a, spec=None):
        # Solves a afresh; the spectrum a checker hands over goes unread.
        reads.append(a)
        return condition_number(a), norm(a, NormKind.OPERATOR)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(perturb, "_kappa_and_norm", kappa_and_solved_norm)
        mp.setattr(gaussian, "_kappa_and_norm", kappa_and_solved_norm)
        mp.setattr(perturb, "_inverse_and_norm", _inverse_and_solved_norm)
        return _sides(call), len(reads)


def _assert_same(call, kappa_reads=0):
    got, (want, reads) = _sides(call), _reference(call)
    assert got[:2] == want[:2]
    if want[2] is not None:
        assert _rel(got[2], want[2]) <= 1e-13
        # A kappa read past the patched name would be compared with itself.
        assert reads == kappa_reads


@pytest.mark.parametrize("i", range(len(_CORPUS)))
def test_checkers_keep_lhs_and_holds_of_solved_norms(i):
    m, mp = _pair(i)
    # A covariance matrix with the symplectic spectrum of M scaled to a
    # smallest value of 1.5, inside the physical set.
    to_cov = 1.5 / float(symplectic_spectrum(m)[-1])
    cov, cov2 = m * to_cov, mp * to_cov
    for scale in _SCALES:
        a, b = m * scale, mp * scale
        _assert_same(lambda: bound_bhatia_jain(a, b), kappa_reads=2)
        for kind in NormKind:
            _assert_same(lambda: check_inv_lemma(a, b, kind))
        # The Frobenius and trace kinds still solve their norms.
        ia, ib = spd_inverse(a), spd_inverse(b)
        for kind in (NormKind.FROBENIUS, NormKind.TRACE):
            solved = norm(ia, kind) * norm(ib, kind) * norm(a - b, kind)
            assert check_inv_lemma(a, b, kind).rhs == solved
        _assert_same(lambda: entropy_difference_bound(cov * scale, cov2 * scale), kappa_reads=2)
