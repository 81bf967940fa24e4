"""The S- and Gram-stability checkers skip the solves whose results they do
not read, with every output bit and every decision kept.

The references here factorize through public ``williamson`` and decide the
gauge gate with its two operator-norm solves alone; the library's outputs,
or its exception types and messages, must equal theirs.
"""

import dataclasses

import numpy as np
import pytest

from conftest import as_hex, random_spd, random_spd_generic, random_symmetric_unit, williamson_form
from sympspec import perturb
from sympspec.densemat import NormKind, norm, _unscale
from sympspec.errors import DegenerateSpectrum, PairingFailure, SympspecError
from sympspec.perturb import PerturbationCase, bound_S, bound_gram, degenerate_demo, sweep
from sympspec.symplectic import (
    GAP_TOL_FACTOR,
    RESIDUAL_TOL,
    GaugeAlignment,
    gauge_align,
    symplectic_inverse,
    williamson,
    _scaled_spd,
    _williamson_core,
)


def _exact_gauge_align(ref_s, ref_d, other_s, other_d):
    # gauge_align with its reconstruction gate decided by operator norms only.
    n = len(ref_d)
    if n > 1:
        min_gap = float(np.min(np.diff(np.sort(ref_d))))
        if min_gap <= GAP_TOL_FACTOR * float(ref_d[0]):
            raise DegenerateSpectrum(
                f"spectral gap {min_gap:.3e} below "
                f"{GAP_TOL_FACTOR:.1e} * {ref_d[0]:.6e}"
            )
    angles = np.zeros(n)
    aligned = other_s.copy()
    for j in range(n):
        a, bcol = ref_s[:, j], ref_s[:, n + j]
        u, w = aligned[:, j].copy(), aligned[:, n + j].copy()
        theta = float(np.arctan2(float(a @ w - bcol @ u), float(a @ u + bcol @ w)))
        angles[j] = theta
        c, sn = np.cos(theta), np.sin(theta)
        aligned[:, j] = c * u + sn * w
        aligned[:, n + j] = -sn * u + c * w
    distance = norm(ref_s - aligned, NormKind.OPERATOR)
    d_full = np.concatenate([other_d, other_d])
    other_inv = symplectic_inverse(other_s)
    m_other = other_inv.T @ np.diag(d_full) @ other_inv
    resid = norm(aligned.T @ m_other @ aligned - np.diag(d_full), NormKind.OPERATOR)
    if resid > RESIDUAL_TOL * norm(m_other, NormKind.OPERATOR):
        raise PairingFailure(f"alignment broke the factorization: residual {resid:.3e}")
    return GaugeAlignment(angles=angles, aligned_S=aligned, distance=distance)


def _public_core(scaled):
    # _williamson_core's (S, d / 4^j) from public williamson on M / 4^j,
    # whatever spectrum the tuple carries.
    fac = williamson(scaled[0])
    return fac.S, fac.d


def _outcome(call):
    # Every output bit as hex, or the exception's type and message.
    try:
        return as_hex(call())
    except SympspecError as exc:
        return type(exc).__name__, str(exc)


def _reference(call):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(perturb, "_williamson_core", _public_core)
        mp.setattr(perturb, "_gauge_align", _exact_gauge_align)
        return _outcome(call)


_SCALES = (1.0, 2.0**300, 3.0 * 2.0**301, 2.0**-300, 5.0 * 2.0**-303)


@pytest.mark.parametrize("dim", range(2, 21, 2))
def test_core_matches_williamson_bitwise(dim):
    rng = np.random.default_rng(1500 + dim)
    base = random_spd_generic(rng, dim, max_log_kappa=6.0)
    for scale in _SCALES:
        m = base * scale
        scaled = _scaled_spd(m)
        s, d = _williamson_core(scaled)
        exp = scaled[2]
        fac = williamson(m)
        assert s.tobytes() == fac.S.tobytes()
        assert _unscale(d, exp).tobytes() == fac.d.tobytes()


def _stability_cases():
    cases = []
    for dim, kappa, seed in ((2, 5.0, 1), (4, 10.0, 2), (6, 1e3, 3), (8, 1e2, 4)):
        rng = np.random.default_rng(1600 + seed)
        m, e = random_spd(rng, dim, kappa), random_symmetric_unit(rng, dim)
        cases += [(m * scale, e, eps) for scale in _SCALES[:4] for eps in (1e-6, 1e-3)]
    # A degenerate and a nearly degenerate spectrum: bound_S refuses the
    # first, and bound_gram takes both.
    rng = np.random.default_rng(1610)
    cases.append((np.eye(4), random_symmetric_unit(rng, 4), 1e-4))
    cases.append((williamson_form(rng, [2.0, 2.0 + 1e-9]), random_symmetric_unit(rng, 4), 1e-4))
    return cases


@pytest.mark.parametrize("case", range(len(_stability_cases())))
def test_stability_checkers_match_reference(case):
    m, e, eps = _stability_cases()[case]
    calls = [
        lambda: bound_S(PerturbationCase(m, e, eps)),
        lambda: bound_gram(PerturbationCase(m, e, eps)),
        lambda: sweep(m, e, [eps / 4.0, eps / 2.0, eps], "s_stability"),
        lambda: sweep(m, e, [eps / 4.0, eps / 2.0, eps], "gram"),
    ]
    for call in calls:
        assert _outcome(call) == _reference(call)


@pytest.mark.parametrize("eps", [1e-3, 0.25])
def test_degenerate_demo_matches_reference(eps):
    assert _outcome(lambda: degenerate_demo(eps)) == _reference(lambda: degenerate_demo(eps))


def _gate_cases():
    # (ref, other, scale the column pairs of these modes). Scaling every mode
    # meets the gate at ||X||_F / ||X||_op = ||d|| / max d; scaling one mode
    # of a nearly flat spectrum at 2n = 20, where ||M||_F / ||M||_op is near
    # sqrt(20), puts the bound's factor 2 sqrt(2n) to the test.
    rng = np.random.default_rng(1700)
    cases = []
    for dim, kappa in ((4, 10.0), (6, 1e2), (8, 1e3)):
        m, e = random_spd(rng, dim, kappa), random_symmetric_unit(rng, dim)
        cases.append((m, m + 1e-4 * e, slice(None)))
    d = 1.0 + 0.01 * np.arange(10)
    m = np.diag(np.concatenate([d, d]))
    cases.append((m, m + 1e-4 * random_symmetric_unit(rng, 20), [9, 19]))
    return cases


@pytest.mark.parametrize("case", range(4))
def test_gauge_gate_matches_exact_gate_on_both_sides(case, kernel_runs):
    # Column pairs of other.S scaled by 1 + delta rebuild (1 + delta)^4 times
    # their part of M, so the reconstruction residual grows as 4 delta d_j:
    # the Frobenius bound accepts for small delta (one solve, for distance),
    # and past it the operator norms decide (three solves), first passing,
    # then raising.
    m, mp, modes = _gate_cases()[case]
    ref, fac = williamson(m), williamson(mp)
    regimes = []
    for delta in 10.0 ** np.arange(-12.0, -5.95, 0.1):
        s = fac.S.copy()
        s[:, modes] *= 1.0 + delta
        other = dataclasses.replace(fac, S=s)
        del kernel_runs[:]
        got = _outcome(lambda: gauge_align(ref, other))
        runs = len(kernel_runs)
        assert got == _outcome(lambda: _exact_gauge_align(ref.S, ref.d, other.S, other.d))
        if isinstance(got, tuple):
            assert got[0] == "PairingFailure" and runs == 3
            regimes.append("raises")
        else:
            assert runs in (1, 3)
            regimes.append("bound" if runs == 1 else "exact")
    assert regimes[0] == "bound" and regimes[-1] == "raises"
    assert "exact" in regimes
    assert regimes == sorted(regimes, key=["bound", "exact", "raises"].index)


@pytest.mark.parametrize("exp", [1023, -1000])
def test_gauge_gate_out_of_normal_range_falls_back(exp, kernel_runs):
    # At 2^1023 the Frobenius norm of the rebuilt M passes the largest float,
    # and at 2^-1000 the bound is subnormal: the operator norms decide, and
    # they accept.
    j = np.zeros((4, 4))
    j[0, 2] = j[2, 0] = j[1, 3] = j[3, 1] = 0.5
    m = (np.eye(4) + j + np.diag([0.3, 0.0, 0.3, 0.0])) * 2.0**exp
    fac = williamson(m)
    del kernel_runs[:]
    got = _outcome(lambda: gauge_align(fac, fac))
    assert len(kernel_runs) == 3
    assert not isinstance(got, tuple)
    assert got == _outcome(lambda: _exact_gauge_align(fac.S, fac.d, fac.S, fac.d))
