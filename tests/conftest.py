"""Shared random-matrix generators for the test suite.

Everything is driven by explicitly seeded numpy generators so the suite is
deterministic run to run.
"""

import numpy as np
import pytest

from sympspec import densemat
from sympspec.symplectic import standard_form, williamson


@pytest.fixture(autouse=True)
def no_leaked_solve_memo():
    """Every test starts and ends outside any eigensolve memo scope."""
    assert densemat._solve_memo.get() is None
    yield
    assert densemat._solve_memo.get() is None


@pytest.fixture
def kernel_runs(monkeypatch):
    """Count Jacobi kernel runs; each entry is the memo size at that run."""
    runs = []
    kernel = densemat._jacobi_kernel

    def counting(*args):
        memo = densemat._solve_memo.get()
        runs.append(None if memo is None else len(memo))
        return kernel(*args)

    monkeypatch.setattr(densemat, "_jacobi_kernel", counting)
    return runs


@pytest.fixture
def gate_runs(monkeypatch):
    """Count input gates: every as_matrix call reaches densemat._as_real."""
    runs = []
    as_real = densemat._as_real

    def counting(a):
        runs.append(None)
        return as_real(a)

    monkeypatch.setattr(densemat, "_as_real", counting)
    return runs


def random_orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def random_spd(rng, dim, kappa, scale=1.0):
    """SPD matrix with eigenvalues geomspaced to an exact condition number."""
    lam = np.geomspace(1.0, kappa, dim) * scale
    q = random_orthogonal(rng, dim)
    m = (q * lam) @ q.T
    return (m + m.T) / 2.0


def random_spd_generic(rng, dim, max_log_kappa=3.0):
    kappa = 10.0 ** rng.uniform(0.0, max_log_kappa)
    scale = 10.0 ** rng.uniform(-1.0, 1.0)
    return random_spd(rng, dim, kappa, scale)


def random_symmetric_unit(rng, dim):
    g = rng.standard_normal((dim, dim))
    g = (g + g.T) / 2.0
    return g / np.linalg.norm(g, 2)


def random_symplectic(rng, n_modes):
    """A random symplectic matrix, as the diagonalizer of a random SPD matrix."""
    return williamson(random_spd_generic(rng, 2 * n_modes)).S


def squeezed_states(count=600, seed=2033):
    """Covariance matrices M = S diag(d, d) S^T of physical squeezed states.

    Per state n ~ U{1..4}, r_k ~ U(0, 6) and d_k ~ U(1, 3); S = O_1 diag(e^r,
    e^-r) O_2, each orthosymplectic O_j = [[X, -Y], [Y, X]] from a random
    unitary X + iY. kappa(M) runs up to about 3e10.
    """
    rng = np.random.default_rng(seed)
    states = []
    for _ in range(count):
        n = int(rng.integers(1, 5))
        r = rng.uniform(0.0, 6.0, n)
        d = rng.uniform(1.0, 3.0, n)
        o1, o2 = (_orthosymplectic(_random_unitary(rng, n)) for _ in range(2))
        s = o1 @ np.diag(np.exp(np.concatenate([r, -r]))) @ o2
        m = s @ np.diag(np.concatenate([d, d])) @ s.T
        states.append((m + m.T) / 2.0)
    return states


def _random_unitary(rng, n):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z / np.sqrt(2.0))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _orthosymplectic(u):
    return np.block([[u.real, -u.imag], [u.imag, u.real]])


def williamson_form(rng, d_values):
    """SPD matrix with prescribed symplectic spectrum d_values."""
    n = len(d_values)
    s = random_symplectic(rng, n)
    d_full = np.concatenate([d_values, d_values])
    s_inv = np.linalg.inv(s)
    m = s_inv.T @ np.diag(d_full) @ s_inv
    return (m + m.T) / 2.0


def eigvals_oracle(m):
    """Descending d of M as the positive eigenvalues of i sigma M, which are
    +-d_j; numpy's LAPACK finds them without the Jacobi kernel."""
    ev = np.linalg.eigvals(1j * standard_form(m.shape[0] // 2) @ m).real
    return np.sort(ev[ev > 0.0])[::-1]


def as_hex(obj):
    """Every float as its exact hex form, recursively; arrays by element."""
    if isinstance(obj, (float, np.floating)):
        return float(obj).hex()
    if isinstance(obj, np.ndarray):
        return [as_hex(x) for x in obj.tolist()]
    if isinstance(obj, dict):
        return {k: as_hex(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [as_hex(x) for x in obj]
    if hasattr(obj, "__dataclass_fields__"):
        return {k: as_hex(getattr(obj, k)) for k in obj.__dataclass_fields__}
    return obj
