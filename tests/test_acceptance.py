"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; the whole suite is seeded and runs in well under five minutes.
"""

import math
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    eigvals_oracle,
    random_orthogonal,
    random_spd,
    random_spd_generic,
    random_symmetric_unit,
    random_symplectic,
    williamson_form,
)
from sympspec.densemat import NormKind, norm, psd_sqrt, singular_values
from sympspec.gaussian import entanglement_entropy, entropy_difference_bound, validate_covariance
from sympspec.perturb import (
    COUNTEREXAMPLE_E,
    PerturbationCase,
    bound_S,
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
)
from sympspec.symplectic import standard_form, symplectic_spectrum, williamson

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"

ALL_KINDS = (NormKind.OPERATOR, NormKind.FROBENIUS, NormKind.TRACE)

# Regression floor for the aligned diagonalizer distance in the degenerate
# demo, pinned from the eps=1e-3 scan (observed 0.765366864730, the grid
# quantization of 2 sin(pi/8)).
DEGENERATE_S_FLOOR = 0.76


def _report(num, desc, fn):
    try:
        fn()
    except BaseException:
        print(f"FAIL criterion {num}: {desc}")
        raise
    print(f"PASS criterion {num}: {desc}")


@pytest.fixture(scope="module")
def corpus():
    """500 seeded SPD matrices, 2n in {2,...,20}, condition numbers up to 1e6."""
    rng = np.random.default_rng(2024)
    sizes = list(range(2, 21, 2))
    mats = []
    for i in range(500):
        dim = sizes[i % len(sizes)]
        kappa = 10.0 ** rng.uniform(0.0, 6.0)
        scale = 10.0 ** rng.uniform(-1.0, 1.0)
        mats.append((random_spd(rng, dim, kappa, scale), kappa))
    return mats


def test_criterion_1_williamson_correctness(corpus):
    def check():
        start = time.perf_counter()
        for m, _ in corpus:
            fac = williamson(m)
            scale = norm(m, NormKind.OPERATOR)
            assert fac.residual_diag <= 1e-8 * scale
            assert fac.residual_symp <= 1e-8
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.1f}s"

    _report(1, "Williamson residuals on 500 matrices, cond up to 1e6, <60s", check)


@pytest.mark.parametrize("dim", [4, 10, 20])
def test_criterion_1_residuals_at_kappa_1e8(dim):
    # The measured frontier of criterion 1's promise (README, Numerical
    # notes): it holds in every case up to kappa = 1e9 (worst residual_symp
    # 6.6e-10 here), and at 1e10 some cases break it without raising.
    for seed in range(1000, 1006):
        m = random_spd(np.random.default_rng(seed), dim, 1e8)
        fac = williamson(m)
        assert fac.residual_diag <= 1e-8 * norm(m, NormKind.OPERATOR)
        assert fac.residual_symp <= 1e-8


@pytest.mark.parametrize("dim", [30, 40])
def test_criterion_1_larger_mode_counts(dim):
    # Criterion 1's promise past the corpus's 2n <= 20: two seeded matrices
    # per condition number. Oracle 2 bounds d at these sizes 5x or more
    # above the worst errors measured on them, 1.5e-10 for williamson and
    # 1.2e-7 for symplectic_spectrum (README, Numerical notes).
    rng = np.random.default_rng(3000 + dim)
    for kappa in (1e2, 1e4, 1e6):
        for _ in range(2):
            m = random_spd(rng, dim, kappa, 10.0 ** rng.uniform(-1.0, 1.0))
            fac = williamson(m)
            assert fac.residual_diag <= 1e-8 * norm(m, NormKind.OPERATOR)
            assert fac.residual_symp <= 1e-8
            ref = eigvals_oracle(m)
            assert np.max(np.abs(fac.d - ref) / ref) <= 1e-9
            assert np.max(np.abs(symplectic_spectrum(m) - ref) / ref) <= 1e-6


def test_criterion_2_spectrum_oracle(corpus):
    def check():
        for m, _ in corpus:
            n = m.shape[0] // 2
            root = psd_sqrt(m)
            s = singular_values(root @ standard_form(n) @ root)
            collapsed = (s[0::2] + s[1::2]) / 2.0
            d = symplectic_spectrum(m)
            np.testing.assert_allclose(d, collapsed, rtol=1e-10)
        # Single-mode closed form sqrt(det M), against an exact rational
        # determinant. In float64 the comparison only carries meaning while
        # eps * kappa stays below the tolerance, so it runs on the 2x2
        # members with kappa <= 1e4 plus a dedicated generic 2x2 set.
        pairs = [m for m, kappa in corpus if m.shape[0] == 2 and kappa <= 1e4]
        rng = np.random.default_rng(77)
        pairs.extend(random_spd_generic(rng, 2) for _ in range(100))
        assert len(pairs) > 100
        for m in pairs:
            det = Fraction(m[0, 0]) * Fraction(m[1, 1]) - Fraction(m[0, 1]) ** 2
            ref = math.sqrt(float(det))
            d = symplectic_spectrum(m)[0]
            assert abs(d - ref) <= 1e-12 * ref

    _report(2, "spectrum equals singular-value oracle (1e-10) and sqrt(det) at n=1", check)


def test_criterion_3_spectrum_bound():
    def check():
        rng = np.random.default_rng(31)
        for _ in range(1000):
            dim = 2 * int(rng.integers(1, 5))
            m = random_spd_generic(rng, dim)
            mp = random_spd_generic(rng, dim)
            for kind in ALL_KINDS:
                rep = bound_spectrum(m, mp, kind)
                assert rep.holds, f"violated for kind={kind}"
        for t in (0.5,):
            for kind in ALL_KINDS:
                rep = bound_spectrum(np.eye(2), (1.0 + t) * np.eye(2), kind)
                assert abs(rep.lhs - rep.rhs) <= 1e-12

    _report(3, "spectrum bound holds on 1000 pairs x 3 norms, equality at scaling", check)


def test_criterion_4_counterexample_reproduction():
    def check():
        eps = 0.05
        for x in range(33, 101):
            rep = counterexample_scaling(float(x), eps, 1.0)
            assert rep.holds, f"did not fire at x={x}"
            m = np.diag([float(x), 1.0])
            d0 = symplectic_spectrum(m)[0]
            de = symplectic_spectrum(m + eps * COUNTEREXAMPLE_E)[0]
            ref0 = math.sqrt(x)
            refe = math.sqrt(x - 2 * eps * (x - 1) - 29 * eps * eps)
            assert abs(d0 - ref0) <= 1e-12 * ref0
            assert abs(de - refe) <= 1e-12 * refe

    _report(4, "scaling counterexample fires for x in [33,100], spectra to 1e-12", check)


def test_criterion_5_diagonalizer_bound():
    def check():
        rng = np.random.default_rng(55)
        for trial in range(200):
            n = 1 + trial % 3
            # well-gapped spectrum: relative gaps of at least ~30%
            d = np.sort(1.5 ** np.arange(n) * rng.uniform(0.95, 1.05, n))[::-1]
            scale = 10.0 ** rng.uniform(-1.0, 1.0)
            m = scale * williamson_form(rng, d)
            e = random_symmetric_unit(rng, 2 * n)
            lam = np.linalg.eigvalsh(m)
            gate = min(lam[0] / 2.0, lam[-1])
            eps = gate / 100.0
            rep = bound_S(PerturbationCase(m, e, eps))
            assert rep.preconditions_met
            assert rep.holds, f"trial {trial}: lhs={rep.lhs} rhs={rep.rhs}"
            grid = np.geomspace(eps / math.sqrt(10.0), eps * math.sqrt(10.0), 6)
            swp = sweep(m, e, grid, "s_stability")
            assert len(swp.grid) == 6
            assert swp.slope is not None
            assert 0.5 <= swp.slope <= 1.1, f"trial {trial}: slope {swp.slope}"

    _report(5, "aligned diagonalizer bound holds on 200 cases; slope in [0.5,1.1]", check)


def test_criterion_6_gram_bound():
    def check():
        rng = np.random.default_rng(66)
        for trial in range(200):
            n = 1 + trial % 3
            if trial % 4 == 0:
                # degenerate spectra on purpose, including the identity
                m = np.eye(2 * n) * (1.0 if trial % 8 == 0 else 2.5)
            else:
                d = np.sort(rng.uniform(1.0, 4.0, n))[::-1]
                m = williamson_form(rng, d)
            e = random_symmetric_unit(rng, 2 * n)
            lam = np.linalg.eigvalsh(m)
            kappa = lam[-1] / lam[0]
            gates = (
                lam[-1] / (6.0 * kappa) ** (4.0 / 3.0),
                1.0 / (2.0 * lam[-1]),
                lam[-1],
                lam[0] / 2.0,
            )
            eps = min(gates) * rng.uniform(0.05, 0.9)
            rep = bound_gram(PerturbationCase(m, e, eps))
            assert rep.preconditions_met
            assert rep.holds, f"trial {trial}: lhs={rep.lhs} rhs={rep.rhs}"

    _report(6, "Gram-factor bound holds on 200 cases incl. degenerate spectra", check)


def test_criterion_7_degenerate_demo():
    def check():
        eps_grid = (1e-2, 1e-3, 1e-4, 1e-5)
        reports = [degenerate_demo(e) for e in eps_grid]
        grams = [r.gram_dist for r in reports]
        # The two Gram factors coincide identically for this pair, so the
        # decrease check is monotone up to floating-point noise around zero.
        for a, b in zip(grams, grams[1:]):
            assert b <= a + 1e-12
        assert grams[-1] <= 1e-10
        for r in reports:
            assert r.s_dist_aligned_over_gauge_family >= DEGENERATE_S_FLOOR
            assert r.commutator_norm > 0.0

    _report(7, "degenerate demo: gram -> 0 while aligned S distance stays above floor", check)


def test_criterion_8_lemma_suites():
    def check():
        rng = np.random.default_rng(88)
        for trial in range(1000):
            dim = 2 + trial % 4
            kind = ALL_KINDS[trial % 3]
            a = random_spd_generic(rng, dim)
            b = random_spd_generic(rng, dim)
            if trial % 5 == 0:
                g = rng.standard_normal((dim, max(1, dim - 1)))
                a = g @ g.T  # exactly singular PSD member
            assert check_sqrt_lemma(a, b, kind).holds

        for trial in range(1000):
            dim = 2 + trial % 4
            kind = ALL_KINDS[trial % 3]
            a = random_spd_generic(rng, dim)
            b = random_spd_generic(rng, dim)
            assert check_inv_lemma(a, b, kind).holds

        for trial in range(1000):
            dim = 2 + trial % 4
            m = rng.standard_normal((dim, dim))
            e = rng.standard_normal((dim, dim))
            smin = singular_values(m)[-1]
            if smin < 1e-6:
                m = m + np.eye(dim)
                smin = singular_values(m)[-1]
            eps = 0.5 * smin * rng.uniform(0.1, 1.0)
            assert check_woodbury_norm(m, e, eps).holds

        for trial in range(1000):
            dim = 2 + trial % 4
            m = random_spd_generic(rng, dim)
            e = random_symmetric_unit(rng, dim)
            lam = np.linalg.eigvalsh(m)
            eps = min(lam[0] / 2.0, lam[-1]) * rng.uniform(0.05, 0.95)
            assert check_kappa_growth(m, e, eps).holds

        for trial in range(1000):
            dim = 3 + trial % 3
            lam = np.cumsum(rng.uniform(0.5, 1.5, dim))
            q = random_orthogonal(rng, dim)
            a = (q * lam) @ q.T
            a = (a + a.T) / 2.0
            k = 1 + trial % (dim - 1)
            gap = lam[k] - lam[k - 1]
            b = a + (0.2 * gap) * random_symmetric_unit(rng, dim)
            assert check_projection_bound(a, b, (0, k), (k, dim)).holds

        for trial in range(500):
            dim = 3 + trial % 3
            lam = np.cumsum(rng.uniform(0.5, 1.5, dim))
            q = random_orthogonal(rng, dim)
            a = (q * lam) @ q.T
            a = (a + a.T) / 2.0
            b = random_symmetric_unit(rng, dim)
            gap = float(np.min(np.diff(np.linalg.eigvalsh(a))))
            assert check_eigvec_bound(a, b, gap / 100.0).holds

    _report(8, "appendix lemma suites hold on 1000 (500 for eigvec) seeded trials", check)


def test_criterion_9_entropy():
    def check():
        assert entanglement_entropy(np.eye(2)).entropy == 0.0
        assert entanglement_entropy(np.eye(8)).entropy == 0.0
        h3 = entanglement_entropy(np.diag([3.0, 3.0])).entropy
        assert abs(h3 - 2.0 * math.log(2.0)) <= 1e-12

        rng = np.random.default_rng(99)
        cov = williamson_form(rng, [2.2, 1.4])
        h0 = entanglement_entropy(cov).entropy
        for _ in range(100):
            s = random_symplectic(rng, 2)
            conj = s.T @ cov @ s
            h1 = entanglement_entropy((conj + conj.T) / 2.0).entropy
            assert abs(h1 - h0) <= 1e-8

        count = 0
        while count < 500:
            n = 1 + count % 3
            d = np.sort(rng.uniform(1.6, 5.0, n))[::-1]
            cov = williamson_form(rng, d)
            pert = random_symmetric_unit(rng, 2 * n)
            cov2 = cov + pert * rng.uniform(1e-4, 1e-2)
            if validate_covariance(cov2).min_d < 1.5 or validate_covariance(cov).min_d < 1.5:
                continue
            rep = entropy_difference_bound(cov, cov2)
            assert rep.holds, f"pair {count}: lhs={rep.lhs} rhs={rep.rhs}"
            count += 1

    _report(9, "entropy values, symplectic invariance, continuity bound on 500 pairs", check)


def test_criterion_10_cli_determinism():
    def check():
        cases = [
            (["spectrum", str(DATA / "m91.txt")], GOLDEN / "spectrum_m91.txt"),
            (
                ["counterexample", "--x", "33", "--eps", "0.05", "--c", "1"],
                GOLDEN / "counterexample_x33.txt",
            ),
            (
                [
                    "--format",
                    "csv",
                    "--seed",
                    "0",
                    "sweep",
                    "gram",
                    "-m",
                    str(DATA / "spd4.txt"),
                    "--eps",
                    "1e-6:1e-3:4",
                ],
                GOLDEN / "sweep_gram_spd4.csv",
            ),
        ]
        for argv, golden in cases:
            proc = subprocess.run(
                [sys.executable, "-m", "sympspec.cli", *argv],
                capture_output=True,
                check=False,
            )
            assert proc.returncode == 0, proc.stderr.decode()
            assert proc.stdout == golden.read_bytes(), f"golden mismatch for {argv}"

    _report(10, "CLI byte-identical to golden files at seed 0", check)
