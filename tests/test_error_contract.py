"""The error contract, by derandomized property tests.

Every public function either returns a value or raises a SympspecError on
any input: empty, odd, non-square and mismatched shapes; entries near
2^+-1000, subnormal, NaN or infinite; indefinite and near-degenerate
spectra; and epsilons that are zero, negative, NaN or huge. No warning
escapes either, since the suite turns warnings into errors. `cli.run` lets
no exception out, and when it exits 1 it prints one `error:` line and
nothing on stdout.
"""

import contextlib
import io
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sympspec import cli, densemat, gaussian, perturb, symplectic
from sympspec.densemat import NormKind
from sympspec.errors import (
    BadIndices,
    NonFinite,
    NotPositiveDefinite,
    NotSymmetric,
    SympspecError,
    ZeroModes,
)

CONTRACT = settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=20,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

SPECIALS = (
    0.0, -0.0, 5e-324, -5e-324, 2.0**-1000, 2.0**1000, -(2.0**1000),
    1.7e308, -1.7e308, math.nan, math.inf, -math.inf,
)

KINDS = st.sampled_from(list(NormKind))
RANGES = st.tuples(st.integers(-1, 7), st.integers(-1, 7))
EPSILONS = st.one_of(
    st.sampled_from((0.0, -0.0, -1e-3, -1.0, 5e-324, 0.5, 1.0, 1e300, math.nan, math.inf, -math.inf)),
    st.floats(min_value=1e-9, max_value=0.2),
)


def _orthosymplectic(rng, n):
    # [[X, -Y], [Y, X]] for a random unitary X + iY is orthogonal and symplectic.
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, _ = np.linalg.qr(z)
    return np.block([[q.real, -q.imag], [q.imag, q.real]])


@st.composite
def matrices(draw):
    """Structured and unstructured real matrices, mostly small and square."""
    kind = draw(st.sampled_from(("raw", "spd", "indefinite", "degenerate", "special")))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if kind == "raw":
        rows = draw(st.integers(0, 5))
        cols = draw(st.one_of(st.just(rows), st.integers(0, 5)))
        entries = st.one_of(st.sampled_from(SPECIALS), st.floats(width=64))
        flat = draw(st.lists(entries, min_size=rows * cols, max_size=rows * cols))
        return np.array(flat, dtype=np.float64).reshape(rows, cols)
    dim = draw(st.integers(1, 6))
    if kind == "degenerate":
        n = max(1, dim // 2)
        gap = draw(st.sampled_from((0.0, 1e-15, 1e-9, 1e-6)))
        d = 1.0 + np.arange(n) * gap
        s = _orthosymplectic(rng, n) * np.concatenate([np.full(n, 2.0), np.full(n, 0.5)])
        m = s @ np.diag(np.concatenate([d, d])) @ s.T
    else:
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        lam = np.geomspace(1.0, 10.0 ** draw(st.floats(0.0, 14.0)), dim)
        if kind == "indefinite":
            lam[0] = -lam[0]
        m = (q * lam) @ q.T
    m = (m + m.T) / 2.0
    with np.errstate(all="ignore"):
        m = np.ldexp(m, draw(st.one_of(st.just(0), st.integers(-1100, 1060))))
    if kind == "special":
        i, j = draw(st.integers(0, dim - 1)), draw(st.integers(0, dim - 1))
        m[i, j] = draw(st.sampled_from(SPECIALS))
        if draw(st.booleans()):
            m[j, i] = m[i, j]
    return m


@st.composite
def pairs(draw):
    """(M, second): mostly a nearby symmetric matrix, else an independent draw."""
    m = draw(matrices())
    if not draw(st.integers(0, 3)) or m.shape[0] != m.shape[1]:
        return m, draw(matrices())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = rng.standard_normal(m.shape)
    with np.errstate(all="ignore"):
        return m, m + draw(EPSILONS) * (g + g.T) / 2.0


def _grid(draw):
    # Mostly increasing and finite, so that the points themselves run.
    grid = draw(st.lists(st.one_of(st.floats(1e-9, 0.2), EPSILONS), max_size=3))
    return sorted(set(grid)) if draw(st.integers(0, 3)) else grid


# name -> call(draw): draws its arguments and makes one call.
LIBRARY_CALLS = {
    "sym_eig": lambda draw: densemat.sym_eig(draw(matrices())),
    "psd_sqrt": lambda draw: densemat.psd_sqrt(draw(matrices())),
    "spd_inverse": lambda draw: densemat.spd_inverse(draw(matrices())),
    "singular_values": lambda draw: densemat.singular_values(draw(matrices())),
    "norm": lambda draw: densemat.norm(draw(matrices()), draw(KINDS)),
    "condition_number": lambda draw: densemat.condition_number(draw(matrices())),
    "standard_form": lambda draw: symplectic.standard_form(draw(st.integers(-2, 4))),
    "is_symplectic": lambda draw: symplectic.is_symplectic(draw(matrices())),
    "symplectic_inverse": lambda draw: symplectic.symplectic_inverse(draw(matrices())),
    "symplectic_spectrum": lambda draw: symplectic.symplectic_spectrum(draw(matrices())),
    "williamson": lambda draw: symplectic.williamson(draw(matrices())),
    "gauge_align": lambda draw: symplectic.gauge_align(
        *map(symplectic.williamson, draw(pairs()))
    ),
    "validate_covariance": lambda draw: gaussian.validate_covariance(draw(matrices())),
    "is_pure": lambda draw: gaussian.is_pure(draw(matrices())),
    "reduced_state": lambda draw: gaussian.reduced_state(
        draw(matrices()), draw(st.lists(st.integers(-1, 3), max_size=3))
    ),
    "entanglement_entropy": lambda draw: gaussian.entanglement_entropy(draw(matrices())),
    "entropy_difference_bound": lambda draw: gaussian.entropy_difference_bound(*draw(pairs())),
    "GaussianState.create": lambda draw: gaussian.GaussianState.create(
        draw(matrices()), draw(st.one_of(st.none(), matrices().map(np.ravel)))
    ),
    "bound_spectrum": lambda draw: perturb.bound_spectrum(*draw(pairs()), draw(KINDS)),
    "bound_bhatia_jain": lambda draw: perturb.bound_bhatia_jain(*draw(pairs())),
    "bound_S": lambda draw: perturb.bound_S(perturb.PerturbationCase(*draw(pairs()), draw(EPSILONS))),
    "bound_gram": lambda draw: perturb.bound_gram(
        perturb.PerturbationCase(*draw(pairs()), draw(EPSILONS))
    ),
    "check_sqrt_lemma": lambda draw: perturb.check_sqrt_lemma(*draw(pairs()), draw(KINDS)),
    "check_inv_lemma": lambda draw: perturb.check_inv_lemma(*draw(pairs()), draw(KINDS)),
    "check_woodbury_norm": lambda draw: perturb.check_woodbury_norm(*draw(pairs()), draw(EPSILONS)),
    "check_kappa_growth": lambda draw: perturb.check_kappa_growth(*draw(pairs()), draw(EPSILONS)),
    "check_eigvec_bound": lambda draw: perturb.check_eigvec_bound(*draw(pairs()), draw(EPSILONS)),
    "check_projection_bound": lambda draw: perturb.check_projection_bound(
        *draw(pairs()), draw(RANGES), draw(RANGES)
    ),
    "counterexample_scaling": lambda draw: perturb.counterexample_scaling(
        draw(st.one_of(st.sampled_from(SPECIALS), st.floats(0.5, 1e6))),
        draw(EPSILONS),
        draw(st.one_of(st.sampled_from(SPECIALS), st.floats(1e-3, 2e3))),
    ),
    # Each valid epsilon costs about a second, so only invalid ones are drawn.
    "degenerate_demo": lambda draw: perturb.degenerate_demo(
        draw(st.sampled_from((0.0, -0.0, -1e-3, 1.0, 2.0, 1e300, math.nan, math.inf, -math.inf)))
    ),
}


@pytest.mark.parametrize("name", sorted(LIBRARY_CALLS))
@CONTRACT
@given(data=st.data())
def test_library_call_returns_or_raises_typed(name, data):
    with contextlib.suppress(SympspecError):
        LIBRARY_CALLS[name](data.draw)


@pytest.mark.parametrize("bound", sorted(perturb.SWEEPABLE))
@CONTRACT
@given(data=st.data())
def test_sweep_returns_or_raises_typed(bound, data):
    m, e = data.draw(pairs())
    with contextlib.suppress(SympspecError):
        perturb.sweep(m, e, _grid(data.draw), bound, data.draw(KINDS))


# Inputs whose M + eps E, or A - B, passes the largest float although every
# entry is finite. Each was an overflow warning before the checkers formed
# these sums in one place.
_H = 1.7e308
_I2 = np.eye(2)
_OPPOSED = (np.array([[_H, 0.9 * _H], [0.9 * _H, _H]]), np.array([[_H, -0.9 * _H], [-0.9 * _H, _H]]))
OVERFLOWING_SUMS = {
    "check_woodbury_norm": lambda: perturb.check_woodbury_norm(_H * _I2, _I2, 5e307),
    "check_kappa_growth": lambda: perturb.check_kappa_growth(_H * _I2, _I2, 5e307),
    "PerturbationCase": lambda: perturb.PerturbationCase(_H * _I2, _I2, 5e307),
    "check_eigvec_bound": lambda: perturb.check_eigvec_bound(np.diag([_H, _H / 2.0]), _I2, 5e307),
    "check_inv_lemma": lambda: perturb.check_inv_lemma(*_OPPOSED),
}


# Inputs whose eigenvalue differences, or A - B, pass the largest float.
# Neither checker needs a definite input, so no solve raises first.
_SPLIT = np.array([[0.0, _H], [_H, 0.0]])    # eigenvalues -H and H
OVERFLOWING_DIFFERENCES = {
    "check_projection_bound distance": lambda: perturb.check_projection_bound(
        _SPLIT, -_SPLIT, (0, 1), (1, 2)
    ),
    "check_projection_bound A - B": lambda: perturb.check_projection_bound(
        np.diag([_H, 0.0]), np.diag([-_H, 0.0]), (1, 2), (1, 2)
    ),
    "check_eigvec_bound gap": lambda: perturb.check_eigvec_bound(_SPLIT, 0.5 * _I2, 1e-3),
}


@pytest.mark.parametrize("name", sorted(OVERFLOWING_SUMS) + sorted(OVERFLOWING_DIFFERENCES))
def test_overflowing_sum_raises_non_finite(name):
    with pytest.raises(NonFinite, match="past the largest float"):
        {**OVERFLOWING_SUMS, **OVERFLOWING_DIFFERENCES}[name]()


def test_sweep_records_an_overflowing_gap_as_non_finite():
    report = perturb.sweep(_SPLIT, _I2, [1e-3], "eigvec")
    assert report.grid == ()
    assert report.errors[0][1] == "NonFinite: eigenvalue gap has an entry past the largest float"


@pytest.mark.parametrize("bound", sorted(perturb.SWEEPABLE))
def test_sweep_records_an_overflowing_sum_as_non_finite(bound):
    # eigvec needs a simple spectrum; every other row takes H * I.
    m = np.diag([_H, _H / 2.0]) if bound == "eigvec" else _H * _I2
    report = perturb.sweep(m, _I2, [5e307], bound)
    assert report.grid == ()
    assert [msg.split(":")[0] for _, msg in report.errors] == ["NonFinite"]


def _sweep_error(m, eye):
    # Raises the error a spectrum sweep records at its one point.
    ((_, error),) = perturb.sweep(m, eye, [1e-3], "spectrum").errors
    kind, _, message = error.partition(": ")
    assert kind == "NotPositiveDefinite"
    raise NotPositiveDefinite(message)


# Every public entry that gates on positive definiteness, on one indefinite
# M; some solve M itself and some M rescaled by a power of two.
POSITIVE_DEFINITE_GATES = {
    "symplectic_spectrum": lambda m, eye: symplectic.symplectic_spectrum(m),
    "williamson": lambda m, eye: symplectic.williamson(m),
    "bound_spectrum": lambda m, eye: perturb.bound_spectrum(m, m),
    "bound_bhatia_jain": lambda m, eye: perturb.bound_bhatia_jain(m, m),
    "entropy_difference_bound": lambda m, eye: gaussian.entropy_difference_bound(m, m),
    "entanglement_entropy": lambda m, eye: gaussian.entanglement_entropy(m),
    "validate_covariance": lambda m, eye: gaussian.validate_covariance(m),
    "GaussianState.create": lambda m, eye: gaussian.GaussianState.create(m),
    "spd_inverse": lambda m, eye: densemat.spd_inverse(m),
    "check_inv_lemma": lambda m, eye: perturb.check_inv_lemma(m, m),
    "sweep.spectrum": _sweep_error,
    "condition_number": lambda m, eye: densemat.condition_number(m),
    "check_kappa_growth": lambda m, eye: perturb.check_kappa_growth(m, eye, 1e-3),
    "PerturbationCase": lambda m, eye: perturb.PerturbationCase(m, eye, 1e-3),
}


@pytest.mark.parametrize("exp, smallest", [(600, "-4.149516e+180"), (-600, "-2.409920e-181")])
@pytest.mark.parametrize("name", list(POSITIVE_DEFINITE_GATES))
def test_not_positive_definite_names_the_inputs_own_eigenvalue(name, exp, smallest):
    m = np.diag([1.0, -1.0, 1.0, 1.0]) * 2.0**exp
    with pytest.raises(NotPositiveDefinite, match=re.escape(f"smallest eigenvalue {smallest} is not")):
        POSITIVE_DEFINITE_GATES[name](m, np.eye(4))


@pytest.mark.parametrize("call", [
    densemat.spd_inverse,
    symplectic.williamson,
    densemat.condition_number,
    pytest.param(lambda m: perturb.check_kappa_growth(m, _I2, 1e-3), id="check_kappa_growth"),
])
def test_smallest_eigenvalue_past_the_largest_float_is_named_without_overflow(call):
    # The eigenvalues are 0 and -3.4e308; the gate runs on M / 2^1024, so it
    # raises NotPositiveDefinite before -3.4e308 is scaled back past the
    # largest float, where NonFinite would be raised.
    m = np.array([[-_H, _H], [_H, -_H]])
    with pytest.raises(NotPositiveDefinite, match=r"eigenvalue -1\.\d{6}e\+00 \* 2\^1024 is not"):
        call(m)


# Every public entry that reads a 2n x 2n matrix as n modes, on n = 0.
_Z = np.zeros((0, 0))
ZERO_MODE_CALLS = {
    "symplectic_spectrum": lambda: symplectic.symplectic_spectrum(_Z),
    "williamson": lambda: symplectic.williamson(_Z),
    "is_symplectic": lambda: symplectic.is_symplectic(_Z),
    "symplectic_inverse": lambda: symplectic.symplectic_inverse(_Z),
    "entanglement_entropy": lambda: gaussian.entanglement_entropy(_Z),
    "validate_covariance": lambda: gaussian.validate_covariance(_Z),
    "is_pure": lambda: gaussian.is_pure(_Z),
    "GaussianState.create": lambda: gaussian.GaussianState.create(_Z),
    "bound_spectrum": lambda: perturb.bound_spectrum(_Z, _Z),
    "bound_bhatia_jain": lambda: perturb.bound_bhatia_jain(_Z, _Z),
    "entropy_difference_bound": lambda: gaussian.entropy_difference_bound(_Z, _Z),
}


@pytest.mark.parametrize("name", list(ZERO_MODE_CALLS))
def test_zero_modes_raise_zero_modes(name):
    with pytest.raises(ZeroModes, match="need at least one mode, got n=0"):
        ZERO_MODE_CALLS[name]()


# A bool is an int to operator.index, but [True, False] is a NumPy-style mask.
BOOL_INDEX_CALLS = {
    "reduced_state": lambda: gaussian.reduced_state(np.eye(4), [True, False]),
    "reduced_state True": lambda: gaussian.reduced_state(np.eye(4), [True]),
    "check_projection_bound s1": lambda: perturb.check_projection_bound(
        np.diag([1.0, 2.0, 3.0, 4.0]), np.diag([1.0, 2.0, 3.0, 4.1]), (False, True), (2, 4)
    ),
    "check_projection_bound s2": lambda: perturb.check_projection_bound(
        np.diag([1.0, 2.0, 3.0, 4.0]), np.diag([1.0, 2.0, 3.0, 4.1]), (0, 1), (True, 4)
    ),
}


@pytest.mark.parametrize("name", list(BOOL_INDEX_CALLS))
def test_bool_indices_raise_bad_indices(name):
    with pytest.raises(BadIndices, match="is a bool, not an index"):
        BOOL_INDEX_CALLS[name]()


# Which gate fires first: every public matrix entry, at each matrix
# argument, on twelve inputs that each carry one fault, beside valid
# arguments. "-" is a call that returns; sweep records the errors of its
# points and returns.
_DATA = Path(__file__).parent / "data"
_M4, _MP4, _E4 = (cli.load_matrix(_DATA / f"{name}.txt") for name in ("spd4", "spd4p", "e4"))
_G4, _G4P = np.diag([2.0, 1.5, 2.0, 1.5]), np.diag([2.0, 1.6, 2.0, 1.6])
_ASYM = _M4.copy()
_ASYM[0, 1] += 1e-6
_NAN = _M4.copy()
_NAN[0, 0] = math.nan
SINGLE_FAULTS = {
    "complex": _M4.astype(complex),
    "ragged": [[1.0, 0.0], [0.0]],
    "nan": _NAN,
    "1-D": np.ones(4),
    "2x3": np.ones((2, 3)),
    "asym": _ASYM,
    "asym600": np.ldexp(_ASYM, 600),
    "odd": np.diag([1.0, 2.0, 3.0]),
    "0x0": np.zeros((0, 0)),
    "indef": np.diag([1.0, -1.0, 1.0, 1.0]),
    "pd600": np.ldexp(_M4, 600),
    "2x2": np.diag([2.0, 3.0]),
}
# name -> (call, valid arguments); the row name[i] puts each fault at argument i.
MATRIX_ENTRIES = {
    "sym_eig": (densemat.sym_eig, [_M4]),
    "psd_sqrt": (densemat.psd_sqrt, [_M4]),
    "spd_inverse": (densemat.spd_inverse, [_M4]),
    "singular_values": (densemat.singular_values, [_M4]),
    "norm": (densemat.norm, [_M4]),
    "condition_number": (densemat.condition_number, [_M4]),
    "is_symplectic": (symplectic.is_symplectic, [_M4]),
    "symplectic_inverse": (symplectic.symplectic_inverse, [_M4]),
    "symplectic_spectrum": (symplectic.symplectic_spectrum, [_M4]),
    "williamson": (symplectic.williamson, [_M4]),
    "validate_covariance": (gaussian.validate_covariance, [_G4]),
    "is_pure": (gaussian.is_pure, [_G4]),
    "reduced_state": (lambda c: gaussian.reduced_state(c, [0]), [_G4]),
    "entanglement_entropy": (gaussian.entanglement_entropy, [_G4]),
    "GaussianState.create": (gaussian.GaussianState.create, [_G4]),
    "entropy_difference_bound": (gaussian.entropy_difference_bound, [_G4, _G4P]),
    "bound_spectrum": (perturb.bound_spectrum, [_M4, _MP4]),
    "bound_bhatia_jain": (perturb.bound_bhatia_jain, [_M4, _MP4]),
    "PerturbationCase": (lambda m, e: perturb.PerturbationCase(m, e, 1e-3), [_M4, _E4]),
    "check_sqrt_lemma": (perturb.check_sqrt_lemma, [_M4, _MP4]),
    "check_inv_lemma": (perturb.check_inv_lemma, [_M4, _MP4]),
    "check_woodbury_norm": (lambda m, e: perturb.check_woodbury_norm(m, e, 1e-3), [_M4, _E4]),
    "check_kappa_growth": (lambda m, e: perturb.check_kappa_growth(m, e, 1e-3), [_M4, _E4]),
    "check_eigvec_bound": (lambda a, b: perturb.check_eigvec_bound(a, b, 1e-3), [_M4, _E4]),
    "check_projection_bound": (
        lambda a, b: perturb.check_projection_bound(a, b, (0, 2), (2, 4)), [_M4, _MP4]
    ),
    "sweep": (lambda m, e: perturb.sweep(m, e, [1e-3], "spectrum"), [_M4, _E4]),
}
FIRST_GATE_CODES = {
    "NF": "NonFinite", "SQ": "NotSquare", "SY": "NotSymmetric", "OD": "OddDimension",
    "ZM": "ZeroModes", "PD": "NotPositiveDefinite", "PSD": "NotPSD",
    "DM": "DimensionMismatch", "BI": "BadIndices", "DS": "DegenerateSpectrum",
    "PV": "PreconditionViolated", "-": "-",
}
FIRST_GATE = """
entry                        complex ragged nan 1-D 2x3 asym asym600 odd 0x0 indef pd600 2x2
sym_eig[0]                   NF NF NF SQ SQ SY SY -  -  -   -  -
psd_sqrt[0]                  NF NF NF SQ SQ SY SY -  -  PSD -  -
spd_inverse[0]               NF NF NF SQ SQ SY SY -  PD PD  -  -
singular_values[0]           NF NF NF SQ SQ -  -  -  -  -   -  -
norm[0]                      NF NF NF SQ SQ -  -  -  -  -   -  -
condition_number[0]          NF NF NF SQ SQ SY SY -  PD PD  -  -
is_symplectic[0]             NF NF NF SQ SQ -  -  OD ZM -   -  -
symplectic_inverse[0]        NF NF NF SQ SQ -  -  OD ZM -   -  -
symplectic_spectrum[0]       NF NF NF SQ SQ SY SY OD ZM PD  -  -
williamson[0]                NF NF NF SQ SQ SY SY OD ZM PD  -  -
validate_covariance[0]       NF NF NF SQ SQ SY SY OD ZM PD  -  -
is_pure[0]                   NF NF NF SQ SQ SY SY OD ZM PD  -  -
reduced_state[0]             NF NF NF SQ SQ SY SY BI BI -   -  -
entanglement_entropy[0]      NF NF NF SQ SQ SY SY OD ZM PD  -  -
GaussianState.create[0]      NF NF NF SQ SQ SY SY OD ZM PD  -  -
entropy_difference_bound[0]  NF NF NF SQ SQ SY SY DM DM PD  -  DM
entropy_difference_bound[1]  NF NF NF SQ SQ SY SY DM DM PD  -  DM
bound_spectrum[0]            NF NF NF SQ SQ SY SY DM DM PD  -  DM
bound_spectrum[1]            NF NF NF SQ SQ SY SY DM DM PD  -  DM
bound_bhatia_jain[0]         NF NF NF SQ SQ SY SY DM DM PD  -  DM
bound_bhatia_jain[1]         NF NF NF SQ SQ SY SY DM DM PD  -  DM
PerturbationCase[0]          NF NF NF SQ SQ SY SY DM DM PD  -  DM
PerturbationCase[1]          NF NF NF SQ SQ SY SY DM DM -   -  DM
check_sqrt_lemma[0]          NF NF NF SQ SQ SY SY DM DM PSD -  DM
check_sqrt_lemma[1]          NF NF NF SQ SQ SY SY DM DM PSD -  DM
check_inv_lemma[0]           NF NF NF SQ SQ SY SY DM DM PD  -  DM
check_inv_lemma[1]           NF NF NF SQ SQ SY SY DM DM PD  -  DM
check_woodbury_norm[0]       NF NF NF SQ SQ -  -  DM DM -   -  DM
check_woodbury_norm[1]       NF NF NF SQ SQ -  -  DM DM -   -  DM
check_kappa_growth[0]        NF NF NF SQ SQ SY SY DM DM PD  -  DM
check_kappa_growth[1]        NF NF NF SQ SQ SY SY DM DM -   -  DM
check_eigvec_bound[0]        NF NF NF SQ SQ SY SY DM DM DS  -  DM
check_eigvec_bound[1]        NF NF NF SQ SQ SY SY DM DM -   PV DM
check_projection_bound[0]    NF NF NF SQ SQ SY SY DM DM -   -  DM
check_projection_bound[1]    NF NF NF SQ SQ SY SY DM DM -   -  DM
sweep[0]                     NF NF NF SQ SQ -  -  DM DM -   -  DM
sweep[1]                     NF NF NF SQ DM -  -  DM DM -   -  DM
"""
_HEADER, *_ROWS = FIRST_GATE.strip().splitlines()
FIRST_GATE_ROWS = {row.split()[0]: [FIRST_GATE_CODES[c] for c in row.split()[1:]] for row in _ROWS}
assert _HEADER.split()[1:] == list(SINGLE_FAULTS)
assert {row.split("[")[0] for row in FIRST_GATE_ROWS} == set(MATRIX_ENTRIES)


@pytest.mark.parametrize("row", list(FIRST_GATE_ROWS))
def test_first_gate_on_single_faults(row):
    name, _, pos = row[:-1].partition("[")
    call, valid = MATRIX_ENTRIES[name]
    got = []
    for fault, bad in SINGLE_FAULTS.items():
        args = list(valid)
        args[int(pos)] = bad
        try:
            call(*args)
            got.append("-")
        except SympspecError as exc:
            got.append(type(exc).__name__)
            # The asymmetry named is the input's own, 1e-6 * 2^600, not that
            # of a rescaled copy.
            if fault == "asym600" and isinstance(exc, NotSymmetric):
                assert str(exc) == "asymmetry 4.150e+174 exceeds 1.0e-12 * 1.245e+181"
    assert got == FIRST_GATE_ROWS[row]


def test_first_gate_of_the_entropy_bound_on_two_faults():
    # Both symplectic spectra are solved before either entropy is read: the
    # second covariance's indefiniteness is named before the first's d < 1.
    with pytest.raises(NotPositiveDefinite, match=r"^smallest eigenvalue -1\.000000e\+00 is not positive$"):
        gaussian.entropy_difference_bound(0.5 * np.eye(4), np.diag([1.0, -1.0, 1.0, 1.0]))


MALFORMED_FILES = ("", "\n", "1 2\n3\n", "# 2 2\n1 0\n", "x y\n", "# a b\n1\n", "1 nan\n")


def _cli_argv(draw, write):
    # One syntactically valid command line, with its matrix files written.
    command = draw(st.sampled_from(("spectrum", "decompose", "entropy", "check", "sweep",
                                    "counterexample", "demo-degenerate")))
    argv = [
        "--format", draw(st.sampled_from(("text", "csv", "json"))),
        "--norm", draw(st.sampled_from(("op", "fro", "trace"))),
    ]
    if draw(st.booleans()):
        argv.append("--bits")
    if command in ("spectrum", "decompose", "entropy"):
        return argv + [command, write("m")]
    if command == "counterexample":
        x, c = (repr(draw(st.one_of(st.sampled_from(SPECIALS), st.floats(0.5, 1e4)))) for _ in "xc")
        return argv + [command, f"--x={x}", f"--eps={draw(EPSILONS)!r}", f"--c={c}"]
    if command == "demo-degenerate":
        return argv + [command, "--eps=" + draw(st.sampled_from(("0", "-1e-3", "1", "nan", "inf")))]
    if command == "sweep":
        bound = draw(st.sampled_from([b for b, (how, _) in cli._BOUNDS.items()
                                      if how in perturb.SWEEPABLE]))
        argv += [command, bound, "-m", write("m")]
        if draw(st.booleans()):
            argv += ["-e", write("e")]
        grid = ",".join(repr(x) for x in _grid(draw))
        spec = draw(st.sampled_from((grid, "1e-6:1e-3:3", "1e-3:1e-6:3", "0:1e-3:2", "1e-4:1e-3:0")))
        return argv + ["--eps=" + spec]
    bound = draw(st.sampled_from(sorted(cli._BOUNDS)))
    argv += [command, bound, "-m", write("m")]
    flag_values = {
        "-p": lambda: write("p"),
        "-e": lambda: write("e"),
        "--eps": lambda: repr(draw(EPSILONS)),
        "--s1": lambda: draw(st.sampled_from(("0:1", "0:2", "1:3", "2:1", "0:9", "a:b"))),
        "--s2": lambda: draw(st.sampled_from(("1:2", "2:4", "0:1", "3:3", "0:2:1"))),
    }
    for flag in cli._BOUNDS[bound][1]:
        if draw(st.integers(0, 9)):   # now and then a required flag is left out
            value = flag_values[flag]()
            argv += [f"{flag}={value}"] if flag.startswith("--") else [flag, value]
    return argv


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@settings(CONTRACT, max_examples=300)
@given(data=st.data())
def test_cli_exits_0_or_1_with_one_error_line(data, workdir):
    m, second = data.draw(pairs())
    mats = {"m": m, "p": second, "e": data.draw(matrices())}

    def write(name):
        path = workdir / f"{name}.txt"
        if data.draw(st.integers(0, 9)) == 0:
            return str(workdir / "missing.txt")
        if data.draw(st.integers(0, 9)) == 0:
            path.write_text(data.draw(st.sampled_from(MALFORMED_FILES)))
        else:
            path.write_text(cli.format_matrix(mats[name]))
        return str(path)

    argv = _cli_argv(data.draw, write)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.run(argv, out=out)
    assert code in (0, 1), (argv, code, err.getvalue())
    if code == 1:
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
