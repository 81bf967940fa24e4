"""Every symplectic spectrum the library returns meets three invariants of M.

For a positive definite M with ascending eigenvalues lambda, the symplectic
spectrum d lies in [lambda_min, lambda_max], has prod d_j^2 = det M, and
has 2 sum d_j <= tr M. ``symplectic._check_invariants`` tests them on every
``symplectic_spectrum`` and ``williamson`` result, within
INVARIANT_TOL * 2n * eps * kappa(M), and raises InvariantViolation.

The partial transpose TVT of a two-mode squeezed vacuum V, with
T = diag(1, 1, 1, -1), has kappa = e^{4r} and the exact spectrum
(e^{2r}, e^{-2r}). The Gram route of ``symplectic_spectrum`` loses d_min
there from r = 3 on, and ``williamson`` until its pairing breaks at r = 5.
"""

import math
import subprocess
import sys

import numpy as np
import pytest

from sympspec.densemat import Spectrum
from sympspec.errors import InvariantViolation, PairingFailure
from sympspec.symplectic import (
    INVARIANT_TOL,
    _check_invariants,
    symplectic_spectrum,
    williamson,
)

EPS = float(np.finfo(np.float64).eps)


def partial_transpose(r):
    # T V T for the two-mode squeezed vacuum V in (q1, q2, p1, p2) order.
    c, s = math.cosh(2.0 * r), math.sinh(2.0 * r)
    v = np.array(
        [[c, s, 0.0, 0.0], [s, c, 0.0, 0.0], [0.0, 0.0, c, -s], [0.0, 0.0, -s, c]]
    )
    t = np.diag([1.0, 1.0, 1.0, -1.0])
    return t @ v @ t


def exact_spectrum(r):
    return np.array([math.exp(2.0 * r), math.exp(-2.0 * r)])


def test_symplectic_spectrum_of_partial_transpose():
    d = symplectic_spectrum(partial_transpose(2.0))
    np.testing.assert_allclose(d, exact_spectrum(2.0), rtol=1e-6, atol=0.0)


@pytest.mark.parametrize(
    "r, invariant",
    # Measured: at r = 3 d_min sits 6.9e-8 below lambda_min against an
    # allowance of 1.5e-8; at r = 4 the log-determinant is off by 1.4e-3
    # against 7.9e-7; at r = 5 d_min is 0.
    [(3.0, "interval"), (4.0, "determinant"), (5.0, "interval"), (6.0, "determinant")],
)
def test_symplectic_spectrum_invariant_fails_on_partial_transpose(r, invariant):
    with pytest.raises(InvariantViolation, match=f"^{invariant} invariant broken"):
        symplectic_spectrum(partial_transpose(r))


@pytest.mark.parametrize("r", [2.0, 3.0, 4.0])
def test_williamson_of_partial_transpose(r):
    # The doubled solve keeps d within 8.6e-10 relative up to r = 4.
    d = williamson(partial_transpose(r)).d
    np.testing.assert_allclose(d, exact_spectrum(r), rtol=1e-9, atol=0.0)


@pytest.mark.parametrize("r", [5.0, 6.0])
def test_williamson_pairing_fails_on_partial_transpose(r):
    with pytest.raises(PairingFailure):
        williamson(partial_transpose(r))


def _spectrum(vals):
    vals = np.array(vals, dtype=float)
    return Spectrum(eigenvalues=vals, eigenvectors=np.eye(vals.size))


def _tol(spec):
    vals = spec.eigenvalues
    return INVARIANT_TOL * vals.size * EPS * float(vals[-1] / vals[0])


# lambda = (1, 1, 16, 64) and d = (32, 1) meet all three invariants: d_min
# is lambda_min, prod d^2 = 1024 = det M, and 2 sum d = 66 <= 82. Moving a
# factor f between d_max and d_min keeps the determinant and the trace.
PAIR_SPEC = _spectrum([1.0, 1.0, 16.0, 64.0])


def test_interval_invariant_fires_past_tol():
    tol = _tol(PAIR_SPEC)
    _check_invariants(np.array([32.0 / (1.0 - tol / 2.0), 1.0 - tol / 2.0]), PAIR_SPEC)
    with pytest.raises(InvariantViolation, match="^interval invariant broken: "):
        _check_invariants(np.array([32.0 / (1.0 - 2.0 * tol), 1.0 - 2.0 * tol]), PAIR_SPEC)
    with pytest.raises(InvariantViolation, match="^interval invariant broken: "):
        _check_invariants(np.array([64.0 * (1.0 + 2.0 * tol), 1.0]), PAIR_SPEC)
    with pytest.raises(InvariantViolation, match=r"^interval invariant broken \(smallest d"):
        _check_invariants(np.array([32.0, 0.0]), PAIR_SPEC)


def test_determinant_invariant_fires_past_tol():
    # d_max * e^x moves 2 sum log d by 2x and stays inside the interval.
    tol = _tol(PAIR_SPEC)
    _check_invariants(np.array([32.0 * math.exp(tol / 4.0), 1.0]), PAIR_SPEC)
    with pytest.raises(InvariantViolation, match="^determinant invariant broken: "):
        _check_invariants(np.array([32.0 * math.exp(tol), 1.0]), PAIR_SPEC)


def _trace_family(total):
    # d = (x, 10, 100 / x) with prod d = 1000 and sum d = total.
    s = total - 10.0
    x = (s + math.sqrt(s * s - 400.0)) / 2.0
    return np.array([x, 10.0, 100.0 / x])


def test_trace_invariant_fires_past_tol():
    # lambda = (1, 10, 10, 10, 10, 100): det M = 1e6 and tr M = 141. The
    # family keeps prod d^2 = det M and d inside [1, 100], so only the
    # trace invariant sees 2 sum d pass tr M.
    spec = _spectrum([1.0, 10.0, 10.0, 10.0, 10.0, 100.0])
    tol = _tol(spec)
    _check_invariants(_trace_family(70.5 * (1.0 + tol / 2.0)), spec)
    with pytest.raises(InvariantViolation, match="^trace invariant broken: "):
        _check_invariants(_trace_family(70.5 * (1.0 + 2.0 * tol)), spec)


def test_cli_spectrum_invariant_error(tmp_path):
    # The CLI printed 0 here with exit code 0 before the checks.
    path = tmp_path / "pt5.txt"
    path.write_text(
        "\n".join(" ".join(repr(float(x)) for x in row) for row in partial_transpose(5.0))
        + "\n"
    )
    proc = subprocess.run(
        [sys.executable, "-m", "sympspec.cli", "spectrum", str(path)],
        capture_output=True,
        check=False,
    )
    assert proc.returncode == 1
    assert proc.stdout == b""
    lines = proc.stderr.decode().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: interval invariant broken")
