"""Operator norms of positive definite matrices read off spectra the
checkers already solve: ||M||_op as lambda_max(M), ||M^-1||_op as
1 / lambda_min(M).

The closed forms must agree with the solved norms within 1e-13 relative.
The references here build each report from the public functions, with every
condition number and norm solved from the matrix itself, as the checkers did
before; the checkers' lhs bits and ``holds`` must equal theirs.
"""

import math

import numpy as np
import pytest

from conftest import as_hex, random_spd, random_symmetric_unit
from sympspec import perturb
from sympspec.densemat import (
    NormKind,
    condition_number,
    norm,
    spd_inverse,
    sym_eig,
    _extremes,
)
from sympspec.errors import SympspecError
from sympspec.gaussian import entanglement_entropy, entropy_difference_bound
from sympspec.perturb import BoundReport, bound_bhatia_jain, check_inv_lemma
from sympspec.symplectic import symplectic_spectrum, _symplectic_spectrum

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
        assert _rel(_extremes(*_symplectic_spectrum(m)[1:])[1], op_norm) <= 1e-13
        inv_norm = norm(spd_inverse(m), NormKind.OPERATOR)
        assert _rel(1.0 / float(vals[0]), inv_norm) <= 1e-13
        assert _rel(perturb._inverse_and_norm(m)[1], inv_norm) <= 1e-13


def _sides(call):
    # (lhs bits, holds, rhs) of the report, or the exception's type and
    # message and None.
    try:
        report = call()
    except SympspecError as exc:
        return type(exc).__name__, str(exc), None
    return as_hex(report.lhs), report.holds, report.rhs


def _solved_bhatia_jain(a, b):
    # bound_bhatia_jain's sides with ||M||_op, ||M'||_op and ||M - M'||_op
    # solved.
    d, dp = symplectic_spectrum(a), symplectic_spectrum(b)
    lhs = norm(np.diag(np.concatenate([d, d]) - np.concatenate([dp, dp])))
    rhs = (math.sqrt(norm(a)) + math.sqrt(norm(b))) * math.sqrt(norm(a - b))
    return BoundReport.from_sides(lhs, rhs, NormKind.OPERATOR, True, "bhatia_jain")


def _solved_inv_lemma(a, b, kind):
    # check_inv_lemma's sides with ||A^-1|| and ||B^-1|| solved in every kind.
    ia, ib = spd_inverse(a), spd_inverse(b)
    rhs = norm(ia, kind) * norm(ib, kind) * norm(a - b, kind)
    return BoundReport.from_sides(norm(ia - ib, kind), rhs, kind, True, "inv_lemma")


def _solved_entropy_difference(g, g2):
    # entropy_difference_bound's sides with kappa(g), kappa(g') and ||g||_op
    # solved.
    h, h2 = entanglement_entropy(g).entropy, entanglement_entropy(g2).entropy
    kappa_term = math.sqrt(condition_number(g) * condition_number(g2))
    rhs = kappa_term * (1.0 + math.log(norm(g))) * norm(g - g2, NormKind.TRACE)
    return BoundReport.from_sides(abs(h - h2), rhs, NormKind.TRACE, True, "entropy_difference")


def _assert_same(call, reference):
    got, want = _sides(call), _sides(reference)
    assert got[:2] == want[:2]
    if want[2] is not None:
        assert _rel(got[2], want[2]) <= 1e-13


@pytest.mark.parametrize("i", range(len(_CORPUS)))
def test_checkers_keep_lhs_and_holds_of_solved_norms(i):
    m, mp = _pair(i)
    # A covariance matrix with the symplectic spectrum of M scaled to a
    # smallest value of 1.5, inside the physical set.
    to_cov = 1.5 / float(symplectic_spectrum(m)[-1])
    cov, cov2 = m * to_cov, mp * to_cov
    for scale in _SCALES:
        a, b = m * scale, mp * scale
        _assert_same(lambda: bound_bhatia_jain(a, b), lambda: _solved_bhatia_jain(a, b))
        for kind in NormKind:
            _assert_same(lambda: check_inv_lemma(a, b, kind), lambda: _solved_inv_lemma(a, b, kind))
        # The Frobenius and trace kinds still solve their norms.
        ia, ib = spd_inverse(a), spd_inverse(b)
        for kind in (NormKind.FROBENIUS, NormKind.TRACE):
            solved = norm(ia, kind) * norm(ib, kind) * norm(a - b, kind)
            assert check_inv_lemma(a, b, kind).rhs == solved
        g, g2 = cov * scale, cov2 * scale
        _assert_same(lambda: entropy_difference_bound(g, g2), lambda: _solved_entropy_difference(g, g2))
