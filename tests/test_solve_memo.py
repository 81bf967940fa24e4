"""The call-scoped eigensolve memo: fewer Jacobi runs, the same bits."""

import io
import math
from pathlib import Path

import numpy as np
import pytest

from conftest import as_hex, random_spd, random_symmetric_unit, williamson_form
from sympspec import cli, densemat, perturb
from sympspec.densemat import (
    NormKind,
    Spectrum,
    condition_number,
    norm,
    psd_sqrt,
    singular_values,
    spd_inverse,
    sym_eig,
    _extremes,
    _reuses_solves,
)
from sympspec.errors import ConvergenceFailure, NonFinite, NotPositiveDefinite, SympspecError
from sympspec.gaussian import (
    GaussianState,
    entanglement_entropy,
    entropy_difference_bound,
    is_pure,
    validate_covariance,
)
from sympspec.perturb import (
    SWEEPABLE,
    PerturbationCase,
    bound_S,
    bound_bhatia_jain,
    bound_gram,
    bound_spectrum,
    check_eigvec_bound,
    check_inv_lemma,
    check_kappa_growth,
    check_projection_bound,
    check_sqrt_lemma,
    check_woodbury_norm,
    degenerate_demo,
    sweep,
)
from sympspec.symplectic import (
    gauge_align,
    is_symplectic,
    symplectic_spectrum,
    williamson,
    _symplectic_spectrum,
)


_DATA = Path(__file__).parent / "data"
_M, _MP, _E = (cli.load_matrix(_DATA / f"{name}.txt") for name in ("spd4", "spd4p", "e4"))
_EPS = 1e-3
_G, _G2 = np.diag([2.0, 1.5, 2.0, 1.5]), np.diag([2.0, 1.6, 2.0, 1.6])
# Built here, so that only the runs of the calls that take them count.
_FAC, _FAC_P = williamson(_M), williamson(_MP)
_FRO, _TR = NormKind.FROBENIUS, NormKind.TRACE

_GRID = [1e-4, 2e-4, 5e-4, 1e-3]

# Jacobi kernel runs each public call makes on the 4x4 test data, with the
# memo and with SOLVE_MEMO_CAPACITY = 0: the cost a change to the solve path
# has to keep, or to lower on purpose. The second count is what the calls
# have to meet once the memo is gone. "sweep" is the s_stability row.
_KERNEL_RUNS = {
    "williamson": (5, 5, lambda: williamson(_M)),
    "symplectic_spectrum": (2, 3, lambda: symplectic_spectrum(_M)),
    "bound_spectrum": (6, 8, lambda: bound_spectrum(_M, _MP, NormKind.OPERATOR)),
    "bound_spectrum.frobenius": (4, 6, lambda: bound_spectrum(_M, _MP, _FRO)),
    "bound_spectrum.trace": (6, 8, lambda: bound_spectrum(_M, _MP, _TR)),
    "bound_bhatia_jain": (6, 8, lambda: bound_bhatia_jain(_M, _MP)),
    "bound_S": (8, 8, lambda: bound_S(PerturbationCase(_M, _E, _EPS))),
    "bound_gram": (10, 10, lambda: bound_gram(PerturbationCase(_M, _E, _EPS))),
    "check_sqrt_lemma": (4, 4, lambda: check_sqrt_lemma(_M, _MP)),
    "check_sqrt_lemma.frobenius": (3, 3, lambda: check_sqrt_lemma(_M, _MP, _FRO)),
    "check_sqrt_lemma.trace": (4, 4, lambda: check_sqrt_lemma(_M, _MP, _TR)),
    "check_inv_lemma": (4, 4, lambda: check_inv_lemma(_M, _MP)),
    "check_inv_lemma.frobenius": (2, 2, lambda: check_inv_lemma(_M, _MP, _FRO)),
    # Two of these six solve the trace norms of A^-1 and B^-1 (ROADMAP).
    "check_inv_lemma.trace": (6, 6, lambda: check_inv_lemma(_M, _MP, _TR)),
    "check_woodbury_norm": (3, 3, lambda: check_woodbury_norm(_M, _E, _EPS)),
    "check_kappa_growth": (3, 3, lambda: check_kappa_growth(_M, _E, _EPS)),
    "check_eigvec_bound": (3, 3, lambda: check_eigvec_bound(_M, _E, _EPS)),
    "check_projection_bound": (4, 4, lambda: check_projection_bound(_M, _MP, (0, 2), (2, 4))),
    "entanglement_entropy": (2, 3, lambda: entanglement_entropy(_G)),
    "entropy_difference_bound": (5, 7, lambda: entropy_difference_bound(_G, _G2)),
    "sweep": (21, 33, lambda: sweep(_M, _E, _GRID, "s_stability")),
    "sweep.spectrum": (19, 33, lambda: sweep(_M, _E, _GRID, "spectrum")),
    "sweep.bhatia_jain": (19, 33, lambda: sweep(_M, _E, _GRID, "bhatia_jain")),
    "sweep.gram": (26, 41, lambda: sweep(_M, _E, _GRID, "gram")),
    "sweep.sqrt_lemma": (14, 17, lambda: sweep(_M, _E, _GRID, "sqrt_lemma")),
    "sweep.inv_lemma": (14, 17, lambda: sweep(_M, _E, _GRID, "inv_lemma")),
    "sweep.woodbury": (7, 13, lambda: sweep(_M, _E, _GRID, "woodbury")),
    "sweep.kappa_growth": (7, 13, lambda: sweep(_M, _E, _GRID, "kappa_growth")),
    "sweep.eigvec": (7, 13, lambda: sweep(_M, _E, _GRID, "eigvec")),
    "norm.operator": (1, 1, lambda: norm(_M)),
    "norm.frobenius": (0, 0, lambda: norm(_M, _FRO)),
    "norm.trace": (1, 1, lambda: norm(_M, _TR)),
    "sym_eig": (1, 1, lambda: sym_eig(_M)),
    "psd_sqrt": (1, 1, lambda: psd_sqrt(_M)),
    "spd_inverse": (1, 1, lambda: spd_inverse(_M)),
    "singular_values": (1, 1, lambda: singular_values(_M)),
    "condition_number": (1, 1, lambda: condition_number(_M)),
    "is_symplectic": (1, 1, lambda: is_symplectic(_FAC.S)),
    "gauge_align": (1, 1, lambda: gauge_align(_FAC, _FAC_P)),
    "validate_covariance": (2, 3, lambda: validate_covariance(_G)),
    "is_pure": (2, 3, lambda: is_pure(_G)),
    "GaussianState.create": (2, 3, lambda: GaussianState.create(_G)),
    "PerturbationCase": (3, 3, lambda: PerturbationCase(_M, _E, _EPS)),
    "degenerate_demo": (11, 11, lambda: degenerate_demo(_EPS)),
}


# as_matrix runs (counted at densemat._as_real) that each _KERNEL_RUNS call
# makes on the same data. Each public entry gates its matrices once, the
# private bodies it feeds gate no more, and sym_eig gates the matrix of
# every solve again, a memo hit included. A body that gates again, or an
# entry that gates twice, moves its row.
_GATE_RUNS = {
    "williamson": 8, "symplectic_spectrum": 5,
    "bound_spectrum": 14, "bound_spectrum.frobenius": 12, "bound_spectrum.trace": 14,
    "bound_bhatia_jain": 14, "bound_S": 15, "bound_gram": 16,
    "check_sqrt_lemma": 8, "check_sqrt_lemma.frobenius": 7, "check_sqrt_lemma.trace": 8,
    "check_inv_lemma": 8, "check_inv_lemma.frobenius": 8, "check_inv_lemma.trace": 12,
    "check_woodbury_norm": 8, "check_kappa_growth": 7, "check_eigvec_bound": 6,
    "check_projection_bound": 8, "entanglement_entropy": 5, "entropy_difference_bound": 12,
    "sweep": 64, "sweep.spectrum": 60, "sweep.bhatia_jain": 60, "sweep.gram": 68,
    "sweep.sqrt_lemma": 36, "sweep.inv_lemma": 36, "sweep.woodbury": 36,
    "sweep.kappa_growth": 32, "sweep.eigvec": 28,
    "norm.operator": 2, "norm.frobenius": 1, "norm.trace": 2,
    "sym_eig": 1, "psd_sqrt": 1, "spd_inverse": 2, "singular_values": 2, "condition_number": 2,
    "is_symplectic": 3, "gauge_align": 5, "validate_covariance": 5, "is_pure": 5,
    "GaussianState.create": 5, "PerturbationCase": 6, "degenerate_demo": 16,
}


# The calls that read kappa and ||M|| off _symplectic_spectrum's hand-over,
# and the stability checkers that factorize from a PerturbationCase's
# spectra, on the same data times 2^300, a sweep's grid and epsilon
# included. Every solve runs on M / 4^150, and the hand-over carries the
# exponent, so the counts equal the scale-1 counts above.
_BIG = 2.0**300
_KERNEL_RUNS_RESCALED = {
    "bound_S": (8, lambda: bound_S(PerturbationCase(_M * _BIG, _E, _EPS * _BIG))),
    "bound_gram": (10, lambda: bound_gram(PerturbationCase(_M * _BIG, _E, _EPS * _BIG))),
    "bound_spectrum": (6, lambda: bound_spectrum(_M * _BIG, _MP * _BIG, NormKind.OPERATOR)),
    "bound_spectrum.frobenius": (4, lambda: bound_spectrum(_M * _BIG, _MP * _BIG, _FRO)),
    "bound_spectrum.trace": (6, lambda: bound_spectrum(_M * _BIG, _MP * _BIG, _TR)),
    "bound_bhatia_jain": (6, lambda: bound_bhatia_jain(_M * _BIG, _MP * _BIG)),
    "entropy_difference_bound": (5, lambda: entropy_difference_bound(_G * _BIG, _G2 * _BIG)),
    "sweep.spectrum": (19, lambda: sweep(_M * _BIG, _E, [x * _BIG for x in _GRID], "spectrum")),
    "sweep.bhatia_jain": (
        19, lambda: sweep(_M * _BIG, _E, [x * _BIG for x in _GRID], "bhatia_jain")
    ),
}


@pytest.mark.parametrize("name", list(_KERNEL_RUNS))
def test_kernel_runs_per_public_call(kernel_runs, name):
    expected, _, call = _KERNEL_RUNS[name]
    call()
    assert len(kernel_runs) == expected


@pytest.mark.parametrize("name", list(_GATE_RUNS))
def test_gate_runs_per_public_call(gate_runs, name):
    assert list(_GATE_RUNS) == list(_KERNEL_RUNS)
    _KERNEL_RUNS[name][2]()
    assert len(gate_runs) == _GATE_RUNS[name]


@pytest.mark.parametrize("name", list(_KERNEL_RUNS))
def test_kernel_runs_without_the_memo(kernel_runs, monkeypatch, name):
    _, expected, call = _KERNEL_RUNS[name]
    monkeypatch.setattr(densemat, "SOLVE_MEMO_CAPACITY", 0)
    call()
    assert len(kernel_runs) == expected


@pytest.mark.parametrize("name", list(_KERNEL_RUNS_RESCALED))
def test_kernel_runs_after_a_rescale(kernel_runs, name):
    expected, call = _KERNEL_RUNS_RESCALED[name]
    assert expected == _KERNEL_RUNS[name][0]
    call()
    assert len(kernel_runs) == expected


def _outcome(call):
    # The call's result in hex, or the type of the exception it raised.
    try:
        return as_hex(call())
    except SympspecError as exc:
        return type(exc).__name__


def _solved_extremes(m):
    # lambda_min(M) and lambda_max(M) from a solve of M itself, after
    # condition_number's positive-definiteness gate.
    condition_number(m)
    vals = sym_eig(m).eigenvalues
    return float(vals[0]), float(vals[-1])


def _fresh_extremes(m):
    return _outcome(lambda: _solved_extremes(m))


def _handed_over_extremes(m):
    return _outcome(lambda: _extremes(*_symplectic_spectrum(m)[1:]))


_HANDOVER_SCALES = (
    1.0, 2.0**300, 2.0**-300, 3.0 * 2.0**301, 2.0**-1000, 2.0**-1040, 2.0**1000, 2.0**1020,
)


@pytest.mark.parametrize("scale", _HANDOVER_SCALES, ids=float.hex)
def test_handed_over_spectrum_gives_the_bits_of_a_fresh_solve(scale):
    # _symplectic_spectrum and PerturbationCase solve M / 4^j; read with the
    # exponent 2j, that spectrum gives lambda_min(M) and lambda_max(M) bit
    # for bit, and so does every reader of them. M' is M with its rows and
    # columns reversed: the same eigenvalues, solved afresh.
    rng = np.random.default_rng(2101)
    for i in range(12):
        kappa = 10.0 ** rng.uniform(0.0, 6.0)
        top = 10.0 ** rng.uniform(-1.0, 0.5)
        m = random_spd(rng, 2 + 2 * (i % 4), kappa, top / kappa) * scale
        mp = m[::-1, ::-1].copy()
        want = _fresh_extremes(m)
        assert not isinstance(want, str)
        assert _handed_over_extremes(m) == want
        (lo, hi), (lo_p, hi_p) = _solved_extremes(m), _solved_extremes(mp)
        kappa_m, kappa_p = hi / lo, hi_p / lo_p
        assert as_hex(condition_number(m)) == as_hex(kappa_m)
        report, na, nb, diff = perturb._spectrum_bound(m, mp, NormKind.OPERATOR)
        assert as_hex([na, nb, report.rhs]) == as_hex([hi, hi_p, math.sqrt(kappa_m * kappa_p) * diff])
        eye = np.eye(m.shape[0])
        assert as_hex(check_kappa_growth(m, eye, lo / 4.0).rhs) == as_hex(4.0 * kappa_m)
        case = PerturbationCase(m, eye, lo / 4.0)
        assert as_hex(perturb._factor_pair(case)[2:]) == as_hex([lo, hi])
        # A covariance is interior only with every d above 1, and d >= lambda_min.
        if min(lo, lo_p) > 2.0:
            rhs = math.sqrt(kappa_m * kappa_p) * (1.0 + math.log(hi)) * norm(m - mp, NormKind.TRACE)
            assert as_hex(entropy_difference_bound(m, mp).rhs) == as_hex(rhs)


_EDGES = {
    # Entries below 2^1023, lambda_max = 7.3 * 2^1022 past the largest float.
    "NonFinite": (
        (np.full((4, 4), 1.8) + 0.1 * np.eye(4)) * 2.0**1022,
        "result 1.8250000000000002 * 2^1024 exceeds the largest float",
    ),
    # Solved at M / 4^j the spectrum passes the positive-definiteness gate,
    # but M's smallest eigenvalue, about 0.497 * 2^-1074, rounds to 0.
    "NotPositiveDefinite": (
        np.kron(np.eye(2), np.array([[100.0, 99.0], [99.0, 99.0]]) * 2.0**-1074),
        "smallest eigenvalue 0.000000e+00 is not positive",
    ),
}


@pytest.mark.parametrize("error", list(_EDGES))
def test_handed_over_spectrum_raises_as_a_fresh_solve(error):
    # Every reader of kappa(M) or lambda_max(M) raises one error with one
    # text, whichever exponent its solve was rescaled by. A lambda_min that
    # rounds to 0 raises before check_kappa_growth divides by it.
    m, text = _EDGES[error]
    assert _fresh_extremes(m) == error
    assert _handed_over_extremes(m) == error
    calls = [
        lambda: condition_number(m),
        lambda: _extremes(*_symplectic_spectrum(m)[1:]),
        lambda: check_kappa_growth(m, np.eye(4), 1e-3),
        lambda: bound_spectrum(m, m),
        lambda: PerturbationCase(m, np.eye(4), 1e-3),
        lambda: bound_gram(PerturbationCase(m, np.eye(4), 1e-3)),
    ]
    # At the NotPositiveDefinite edge every d is far below 1, so
    # entropy_difference_bound raises InvalidCovariance before its reader.
    if error == "NonFinite":
        calls += [lambda: sym_eig(m), lambda: entropy_difference_bound(m, m)]
    for call in calls:
        with pytest.raises(SympspecError) as raised:
            call()
        assert type(raised.value).__name__ == error
        assert text in str(raised.value)


def test_a_value_past_the_largest_float_is_written_with_one_mantissa():
    # The inverse of the NotPositiveDefinite edge, built at A * 4^533, passes
    # the largest float; its text reads y * 2^k with 1 <= y < 2, whatever
    # exponent the rescale used.
    m = _EDGES["NotPositiveDefinite"][0]
    for call in (lambda: spd_inverse(m), lambda: check_inv_lemma(m, m)):
        with pytest.raises(NonFinite) as raised:
            call()
        assert str(raised.value) == "result 1.0101010101010086 * 2^1074 exceeds the largest float"


def _two_mode_pair():
    m = williamson_form(np.random.default_rng(501), [3.0, 1.5])
    e = random_symmetric_unit(np.random.default_rng(502), 4)
    return m, e, 1e-4


def test_symplectic_spectrum_solves_m_once(kernel_runs, monkeypatch):
    calls = []
    real = densemat.sym_eig
    monkeypatch.setattr(densemat, "sym_eig", lambda a: calls.append(1) or real(a))
    symplectic_spectrum(random_spd(np.random.default_rng(503), 4, 50.0))
    assert len(calls) == 3
    assert len(kernel_runs) == 2


def test_sweep_solves_fewer_than_separate_calls(kernel_runs):
    m, e, eps = _two_mode_pair()
    grid = [eps / 8.0, eps / 4.0, eps / 2.0, eps]
    report = sweep(m, e, grid, "s_stability")
    swept = len(kernel_runs)
    del kernel_runs[:]
    separate = [(x, bound_S(PerturbationCase(m, e, x))) for x in grid]
    assert swept < len(kernel_runs)
    assert not report.errors
    assert as_hex(list(report.grid)) == as_hex(separate)


def test_back_to_back_calls_solve_again(kernel_runs):
    m = random_spd(np.random.default_rng(504), 4, 10.0)
    first = symplectic_spectrum(m)
    second = symplectic_spectrum(m)
    assert len(kernel_runs) == 4
    assert first.tobytes() == second.tobytes()


def test_williamson_runs_outside_any_memo(kernel_runs):
    williamson(random_spd(np.random.default_rng(505), 4, 10.0))
    assert kernel_runs == [None] * 5


def test_mutating_a_returned_spectrum_leaves_later_hits_intact(kernel_runs):
    m = random_spd(np.random.default_rng(506), 4, 10.0)
    fresh = sym_eig(m)

    @_reuses_solves
    def solve_and_spoil_three_times():
        out = []
        for _ in range(3):
            spec = sym_eig(m)
            out.append(Spectrum(spec.eigenvalues.copy(), spec.eigenvectors.copy()))
            spec.eigenvalues[:] = 0.0
            spec.eigenvectors[:] = 0.0
        return out

    del kernel_runs[:]
    for spec in solve_and_spoil_three_times():
        assert spec.eigenvalues.tobytes() == fresh.eigenvalues.tobytes()
        assert spec.eigenvectors.tobytes() == fresh.eigenvectors.tobytes()
    assert len(kernel_runs) == 1


def test_convergence_failure_is_not_stored(kernel_runs, monkeypatch):
    m = random_spd(np.random.default_rng(507), 6, 10.0)
    counting = densemat._jacobi_kernel
    failures = [1]

    def fails_once(a, off_tol, max_sweeps):
        if failures:
            failures.pop()
            return counting(a, off_tol, 1)
        return counting(a, off_tol, max_sweeps)

    monkeypatch.setattr(densemat, "_jacobi_kernel", fails_once)

    @_reuses_solves
    def fail_then_solve():
        with pytest.raises(ConvergenceFailure):
            sym_eig(m)
        return sym_eig(m)

    spec = fail_then_solve()
    assert len(kernel_runs) == 2
    monkeypatch.setattr(densemat, "_jacobi_kernel", counting)
    assert spec.eigenvalues.tobytes() == sym_eig(m).eigenvalues.tobytes()


def test_long_sweep_keeps_memo_within_capacity(kernel_runs):
    m = random_spd(np.random.default_rng(508), 4, 10.0)
    e = random_symmetric_unit(np.random.default_rng(509), 4)
    report = sweep(m, e, np.geomspace(1e-6, 1e-3, 200), "spectrum")
    assert len(report.grid) == 200
    assert max(kernel_runs) == densemat.SOLVE_MEMO_CAPACITY


@pytest.mark.parametrize("bound", list(SWEEPABLE))
def test_memo_capacity_keeps_every_hit(kernel_runs, monkeypatch, bound):
    # 12-point sweeps at 2n = 4 and 8 in two norms: SOLVE_MEMO_CAPACITY
    # spectra must hold each row's working set, which is 10 for gram.
    m8 = random_spd(np.random.default_rng(511), 8, 50.0)
    e8 = random_symmetric_unit(np.random.default_rng(512), 8)
    grid = np.geomspace(1e-5, 1e-3, 12)

    def runs():
        del kernel_runs[:]
        for m, e in ((_M, _E), (m8, e8)):
            for kind in (NormKind.OPERATOR, NormKind.TRACE):
                assert not sweep(m, e, grid, bound, kind).errors
        return len(kernel_runs)

    at_capacity = runs()
    monkeypatch.setattr(densemat, "SOLVE_MEMO_CAPACITY", 10**6)
    assert runs() == at_capacity


def test_memo_scope_closes_when_the_call_raises():
    with pytest.raises(NotPositiveDefinite):
        bound_spectrum(np.diag([1.0, -1.0]), np.eye(2))
    assert densemat._solve_memo.get() is None


def _decorated_outputs(tmp_path):
    m, e, eps = _two_mode_pair()
    mp = m + eps * e
    case = PerturbationCase(m, e, eps)
    g = williamson_form(np.random.default_rng(510), [2.0, 1.3])
    g2 = williamson_form(np.random.default_rng(510), [2.0, 1.3 + 1e-3])
    for name, mat in (("m", m), ("e", e)):
        (tmp_path / f"{name}.txt").write_text(cli.format_matrix(mat))
    out = io.StringIO()
    code = cli.run(
        ["check", "s-stability", "-m", str(tmp_path / "m.txt"),
         "-e", str(tmp_path / "e.txt"), "--eps", repr(eps)],
        out=out,
    )
    return [
        symplectic_spectrum(m),
        [bound_spectrum(m, mp, kind) for kind in NormKind],
        bound_bhatia_jain(m, mp),
        bound_S(case),
        bound_gram(case),
        check_projection_bound(m, mp, (0, 2), (2, 4)),
        [sweep(m, e, [eps / 2.0, eps], bound) for bound in ("s_stability", "gram", "spectrum")],
        entropy_difference_bound(g, g2),
        (code, out.getvalue()),
    ]


def test_outputs_equal_forced_miss_bitwise(kernel_runs, tmp_path, monkeypatch):
    with_memo = as_hex(_decorated_outputs(tmp_path))
    runs_with_memo = len(kernel_runs)
    del kernel_runs[:]
    monkeypatch.setattr(densemat, "SOLVE_MEMO_CAPACITY", 0)
    all_miss = as_hex(_decorated_outputs(tmp_path))
    assert runs_with_memo < len(kernel_runs)
    assert with_memo == all_miss
