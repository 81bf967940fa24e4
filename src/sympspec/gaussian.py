"""Gaussian-state utilities built on the symplectic spectrum.

Covariance matrices live in the (q_1..q_n, p_1..p_n) ordering used by
``standard_form``. A covariance matrix is physical iff all its symplectic
eigenvalues are at least 1 (vacuum normalization); pure states are exactly
the symplectic covariance matrices, where every symplectic eigenvalue is 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .densemat import NormKind, norm, _as_real, _index, _symmetric, _symmetric_pair
from .errors import BadIndices, InvalidCovariance, NonFinite, NotInterior
from .symplectic import symplectic_spectrum, _spectrum_pair, _symplectic_spectrum

if TYPE_CHECKING:
    from .perturb import BoundReport

HEISENBERG_TOL = 1e-10   # validity: min symplectic eigenvalue >= 1 - this
PURITY_TOL = 1e-8        # pure: every symplectic eigenvalue within this of 1
INTERIOR_TOL = 1e-6      # entropy-difference bound needs min_d >= 1 + this


@dataclass(frozen=True)
class CovarianceValidity:
    valid: bool
    min_d: float


@dataclass(frozen=True)
class GaussianState:
    """Covariance matrix, mean vector, and validity metadata."""

    cov: np.ndarray
    mean: np.ndarray
    n_modes: int
    valid: bool
    min_d: float

    @classmethod
    def create(cls, cov, mean=None) -> "GaussianState":
        c = _symmetric(cov)
        n = c.shape[0] // 2
        check = _validity(c)
        m = np.zeros(2 * n) if mean is None else _as_real(mean)
        if m.shape != (2 * n,):
            raise BadIndices(f"mean must have length {2 * n}, got shape {m.shape}")
        if not np.isfinite(m).all():
            raise NonFinite("mean contains NaN or Inf entries")
        # The state keeps its own copies of the covariance and the mean, never
        # the caller's arrays.
        return cls(cov=c.copy(), mean=m.copy(), n_modes=n, valid=check.valid, min_d=check.min_d)


def validate_covariance(cov) -> CovarianceValidity:
    """Check the uncertainty bound: every symplectic eigenvalue >= 1."""
    return _validity(_symmetric(cov))


def _validity(c: np.ndarray) -> CovarianceValidity:
    # validate_covariance of a gated symmetric covariance.
    min_d = float(_symplectic_spectrum(c)[0][-1])
    return CovarianceValidity(valid=bool(min_d >= 1.0 - HEISENBERG_TOL), min_d=min_d)


def is_pure(cov) -> bool:
    """True iff all symplectic eigenvalues equal 1 (cov itself symplectic)."""
    d = symplectic_spectrum(cov)
    return bool(np.max(np.abs(d - 1.0)) <= PURITY_TOL)


def reduced_state(cov, modes) -> np.ndarray:
    """Covariance of a subset of modes (both q and p rows/columns kept).

    ``modes`` are 0-based mode indices into a 2N-dimensional covariance in
    (q_1..q_N, p_1..p_N) ordering; the result keeps them in ascending order.
    """
    c = _symmetric(cov)
    if c.shape[0] % 2 != 0:
        raise BadIndices(f"covariance dimension {c.shape[0]} is odd")
    n = c.shape[0] // 2
    try:
        requested = [_index(i) for i in modes]
    except TypeError as exc:
        raise BadIndices(f"mode indices must be integers: {exc}") from exc
    idx = sorted(set(requested))
    if not idx:
        raise BadIndices("modes must be a nonempty index set")
    if idx[0] < 0 or idx[-1] >= n:
        raise BadIndices(f"mode indices {idx} out of range for n={n}")
    if len(idx) != len(requested):
        raise BadIndices("duplicate mode indices")
    keep = idx + [i + n for i in idx]
    return c[np.ix_(keep, keep)]


@dataclass(frozen=True)
class EntropyReport:
    """Entanglement entropy in nats with its per-mode decomposition."""

    entropy: float
    per_mode_terms: np.ndarray
    min_symplectic_eigenvalue: float


def entanglement_entropy(cov) -> EntropyReport:
    """Entropy sum_k g((d_k+1)/2) - g((d_k-1)/2) with g(x) = x log x, in nats.

    A symplectic eigenvalue of exactly 1 contributes exactly zero; eigenvalues
    within the validity tolerance below 1 are treated as 1.
    """
    return _entropy(symplectic_spectrum(cov))


def _entropy(d) -> EntropyReport:
    # entanglement_entropy's report on the symplectic spectrum d.
    min_d = float(d[-1])
    if min_d < 1.0 - HEISENBERG_TOL:
        raise InvalidCovariance(
            f"min symplectic eigenvalue {min_d:.12g} violates the uncertainty bound"
        )
    # With b = (d - 1) / 2, g(b + 1) - g(b) = log1p(b) + b log1p(1 / b): no
    # product of the form x log x, so no overflow for any finite d.
    terms = np.zeros(d.size)
    for k, dk in enumerate(d):
        if dk > 1.0:
            b = (dk - 1.0) / 2.0
            terms[k] = math.log1p(b) + b * math.log1p(1.0 / b)
    return EntropyReport(
        entropy=float(np.sum(terms)),
        per_mode_terms=terms,
        min_symplectic_eigenvalue=min_d,
    )


def entropy_difference_bound(cov, cov2) -> BoundReport:
    """Trace-norm continuity bound on the entropy difference.

    |H(g) - H(g')| <= sqrt(kappa(g) kappa(g'))
                      * (1 + log(max(||g||, (||g^-1||^-1 - 1) / 2)))
                      * ||g - g'||_1
    for covariance matrices strictly inside the physical set (min_d above
    1 + INTERIOR_TOL). The bound degrades near the boundary, so the report
    flags rather than asserts ``holds``.
    """
    a, b = _symmetric_pair(cov, cov2)
    d, dp, norm_a, _, kappa_term = _spectrum_pair(a, b)
    ha, hb = _entropy(d), _entropy(dp)
    for name, rep in (("first", ha), ("second", hb)):
        if rep.min_symplectic_eigenvalue < 1.0 + INTERIOR_TOL:
            raise NotInterior(
                f"{name} covariance has min_d = "
                f"{rep.min_symplectic_eigenvalue:.12g}, not interior"
            )
    lhs = abs(ha.entropy - hb.entropy)
    # The max in the bound is ||g||: (||g^-1||^-1 - 1) / 2 never exceeds it.
    rhs = kappa_term * (1.0 + math.log(norm_a)) * norm(a - b, NormKind.TRACE)
    # Imported here, not at load: a cold entropy command never loads perturb.
    from .perturb import BoundReport

    return BoundReport.from_sides(
        lhs,
        rhs,
        NormKind.TRACE,
        True,
        "entropy_difference",
        details={
            "entropy_first": ha.entropy,
            "entropy_second": hb.entropy,
            "min_d_first": ha.min_symplectic_eigenvalue,
            "min_d_second": hb.min_symplectic_eigenvalue,
        },
    )
