"""Seeded inputs, operations and output checks for each benchmark workload.

A workload is a list of rounds; a round is a list of ``Op``. The harness in
``run.py`` runs whole rounds until its time is up, so every run sees the same
mix of op kinds. Inputs come only from ``numpy.random.default_rng(seed)``;
the library receives nothing but the generated matrices and scalars.

Each ``Op`` carries its own check. Checks run after the timed loop and raise
``CheckFailed`` when an output breaks its contract or disagrees with an
independent numpy oracle. A check may return a relative error, which feeds
the ``accuracy_digits`` metric.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from sympspec import cli, gaussian, perturb, symplectic
from sympspec.densemat import NormKind

RESIDUAL_CONTRACT = 1e-8     # williamson's promise, relative to ||M||_op
ORACLE_RTOL = 1e-8           # symplectic spectrum against the numpy oracle
ENTROPY_RTOL = 1e-9          # entropy against its closed form from known d

# How many distinct rounds of inputs a seed generates; a long run cycles
# through them again. Each is sized to outlast a 30 s run on 2 cores.
ROUNDS = {"factorize": 24, "checkers": 40, "cli_cold": 36}


class CheckFailed(Exception):
    """An op returned, but its output broke a contract or missed its oracle."""


@dataclass
class Op:
    """One timed call into the library plus the check of its output.

    ``call`` is what the timed loop runs. ``first_call`` is what set-up runs
    once per op kind in a fresh interpreter; for the CLI ops it is the
    in-process ``cli.run`` rather than a subprocess. ``check`` receives the
    output of ``call`` and returns a relative error, or None.
    """

    kind: str
    dim: int
    call: Callable[[], object]
    check: Callable[[object], float | None]
    first_call: Callable[[], object] | None = None
    argv: list | None = None    # CLI ops: the arguments after ``sympspec``


@dataclass
class Workload:
    name: str
    rounds: list[list[Op]]
    input_digest: str
    # Extra files an op needs on disk (the CLI matrix files): path -> text.
    files: dict = field(default_factory=dict)


# ---------------------------------------------------------------- generators


def _orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _spd(rng, dim, kappa, scale):
    """SPD matrix with eigenvalues geomspaced to an exact condition number."""
    lam = np.geomspace(1.0, kappa, dim) * scale
    q = _orthogonal(rng, dim)
    m = (q * lam) @ q.T
    return (m + m.T) / 2.0


def _unit_symmetric(rng, dim):
    g = rng.standard_normal((dim, dim))
    g = (g + g.T) / 2.0
    return g / np.linalg.norm(g, 2)


def _sigma(n):
    eye, zero = np.eye(n), np.zeros((n, n))
    return np.block([[zero, eye], [-eye, zero]])


def _symplectic(rng, n):
    """A well-conditioned symplectic matrix built from its generators.

    diag(A, A^-T) with A = Q diag(s) and the shear [[I, B], [0, I]] with
    symmetric B are both symplectic, so their product is too. No library
    call is involved.
    """
    a = _orthogonal(rng, n) * 10.0 ** rng.uniform(-0.3, 0.3, n)
    b = rng.standard_normal((n, n)) * 0.3
    b = (b + b.T) / 2.0
    zero, eye = np.zeros((n, n)), np.eye(n)
    scale = np.block([[a, zero], [zero, np.linalg.inv(a).T]])
    shear = np.block([[eye, b], [zero, eye]])
    return scale @ shear


def _covariance(rng, n, d):
    """Covariance S diag(d, d) S^T whose symplectic spectrum is d."""
    s = _symplectic(rng, n)
    g = (s * np.concatenate([d, d])) @ s.T
    return (g + g.T) / 2.0


def symplectic_spectrum_oracle(m):
    """Descending symplectic eigenvalues from numpy: singular values of
    M^{1/2} sigma M^{1/2}, collapsed in pairs."""
    w, v = np.linalg.eigh(m)
    root = (v * np.sqrt(w)) @ v.T
    s = np.linalg.svd(root @ _sigma(m.shape[0] // 2) @ root, compute_uv=False)
    return (s[0::2] + s[1::2]) / 2.0


def _entropy_closed_form(d):
    def g(x):
        return 0.0 if x <= 0.0 else x * math.log(x)

    return sum(g((x + 1.0) / 2.0) - g((x - 1.0) / 2.0) for x in d if x > 1.0)


STRATA = 8   # rounds per block of the stratified draws below


def _stratified(rng, n_rounds, n_slots, lo, hi):
    """Draws U(lo, hi) for each round and slot, stratified over rounds.

    Within each block of STRATA consecutive rounds, every slot (a size)
    gets one draw from each of STRATA equal strata, in a random order. A
    run covers the first block or more, so each size sees the whole range
    and its latency median moves less from seed to seed.
    """
    out = np.empty((n_rounds, n_slots))
    for b in range(0, n_rounds, STRATA):
        u = (np.arange(STRATA)[:, None] + rng.uniform(0.0, 1.0, (STRATA, n_slots))) / STRATA
        block = np.stack([rng.permutation(u[:, s]) for s in range(n_slots)], axis=1)
        out[b:b + STRATA] = lo + (hi - lo) * block[: n_rounds - b]
    return out


def _digest(h, *arrays):
    for a in arrays:
        h.update(np.ascontiguousarray(np.asarray(a, dtype=np.float64)).tobytes())


# ---------------------------------------------------------------- checks


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


def _check_bound(report, binding=True):
    _require(
        math.isfinite(report.lhs) and math.isfinite(report.rhs),
        f"{report.label}: non-finite sides lhs={report.lhs} rhs={report.rhs}",
    )
    if binding:
        _require(
            report.holds or not report.preconditions_met,
            f"{report.label}: theorem violated, lhs={report.lhs!r} > rhs={report.rhs!r}",
        )


# ---------------------------------------------------------------- factorize

# One op per 2n in {2..20} plus a second 2x2: with 11 ops a round, the
# median and p85 fall inside one size class (2n=10 and 2n=18). With 10 they
# would sit on the boundary between two classes and jump between their
# extremes from run to run.
FACTORIZE_DIMS = (2,) + tuple(range(2, 21, 2))


def _factorize_op(m):
    dim = m.shape[0]
    scale = float(np.linalg.norm(m, 2))
    oracle = symplectic_spectrum_oracle(m)

    def check(fac):
        resid = max(fac.residual_diag / scale, fac.residual_symp)
        _require(
            fac.residual_diag <= RESIDUAL_CONTRACT * scale
            and fac.residual_symp <= RESIDUAL_CONTRACT,
            f"williamson dim={dim}: residuals {fac.residual_diag:.3e}, "
            f"{fac.residual_symp:.3e} break the 1e-8 contract",
        )
        _require(fac.S.shape == (dim, dim), f"S has shape {fac.S.shape}")
        err = float(np.max(np.abs(fac.d - oracle) / oracle))
        _require(err <= ORACLE_RTOL, f"williamson dim={dim}: d off the oracle by {err:.3e}")
        return resid

    return Op("williamson", dim, lambda: symplectic.williamson(m), check)


def factorize(seed: int, n_rounds: int) -> Workload:
    """Acceptance criterion 1's corpus: 2n in {2..20}, kappa = 10^U(0,6),
    scale 10^U(-1,1). One op is one ``williamson(M)``."""
    rng = np.random.default_rng(seed)
    h = hashlib.sha256(b"factorize")
    log_kappa = _stratified(rng, n_rounds, len(FACTORIZE_DIMS), 0.0, 6.0)
    log_scale = _stratified(rng, n_rounds, len(FACTORIZE_DIMS), -1.0, 1.0)
    rounds = []
    for r in range(n_rounds):
        ops = []
        for dim, lk, ls in zip(FACTORIZE_DIMS, log_kappa[r], log_scale[r]):
            m = _spd(rng, dim, 10.0**lk, 10.0**ls)
            _digest(h, m)
            ops.append(_factorize_op(m))
        rounds.append(ops)
    return Workload("factorize", rounds, h.hexdigest())


# ---------------------------------------------------------------- checkers

CHECKER_DIMS = (2, 4, 6, 8)
SWEEP_BOUNDS = tuple(perturb.SWEEPABLE)
KINDS = (NormKind.OPERATOR, NormKind.FROBENIUS, NormKind.TRACE)
CAP_HITTING = (1e-4, 1000.0)     # (eps, c) whose x0 lies beyond the scan cap


def counterexample_x0_oracle(epsilon, c, cap=perturb.COUNTEREXAMPLE_SCAN_CAP):
    """Smallest integer x >= 1 meeting the firing inequality, from the root
    of the quadratic in sqrt(x); None beyond ``cap``."""

    def fires(x):
        lhs = 2.0 * math.sqrt(29.0 * x) * c * epsilon
        return lhs <= 29.0 * epsilon * epsilon * (1.0 + c * c) + 2.0 * epsilon * (x - 1.0)

    if fires(1.0):
        return 1
    # fires(1) fails, so x = 1 lies between the roots: the answer is just
    # past the larger root s+ of s^2 - sqrt(29) c s + 29 eps (1+c^2)/2 - 1.
    q = 29.0 * epsilon * (1.0 + c * c) / 2.0 - 1.0
    s_plus = (math.sqrt(29.0) * c + math.sqrt(29.0 * c * c - 4.0 * q)) / 2.0
    x = max(1, int(s_plus * s_plus) - 2)
    while not fires(float(x)):
        x += 1
    return x if x <= cap else None


def _counterexample_op(x, epsilon, c, dim):
    def check(rep):
        x0 = counterexample_x0_oracle(epsilon, c)
        _require(rep.details["x0"] == x0, f"counterexample x0={rep.details['x0']}, oracle {x0}")
        lhs = c * epsilon * math.sqrt(29.0)
        rhs = abs(math.sqrt(x) - math.sqrt(x - 2.0 * epsilon * (x - 1.0) - 29.0 * epsilon**2))
        _require(
            abs(rep.lhs - lhs) <= 1e-12 * lhs and abs(rep.rhs - rhs) <= 1e-9 * max(rhs, 1e-300),
            "counterexample sides off their closed forms",
        )
        _require(rep.holds == (rhs > lhs), "counterexample fired flag is wrong")
        return None

    return Op(
        "counterexample_scaling",
        dim,
        lambda: perturb.counterexample_scaling(x, epsilon, c),
        check,
    )


def _spectrum_bound_op(m, mp, kind, d, dp):
    dim = m.shape[0]
    diff = np.concatenate([d - dp, d - dp])
    oracle = {
        NormKind.OPERATOR: float(np.max(np.abs(diff))),
        NormKind.FROBENIUS: float(np.sqrt(np.sum(diff * diff))),
        NormKind.TRACE: float(np.sum(np.abs(diff))),
    }[kind]
    tol = 1e-9 * float(np.max(d)) * dim

    def check(rep):
        _check_bound(rep)
        _require(
            abs(rep.lhs - oracle) <= tol,
            f"bound_spectrum {kind.value} dim={dim}: lhs {rep.lhs!r} vs oracle {oracle!r}",
        )
        return None

    return Op(
        f"bound_spectrum.{kind.value}",
        dim,
        lambda: perturb.bound_spectrum(m, mp, kind),
        check,
    )


def _bound_op(kind, dim, call, binding=True):
    def check(rep):
        _check_bound(rep, binding)
        return None

    return Op(kind, dim, call, check)


def _entropy_op(g, d):
    dim = g.shape[0]
    h_ref = _entropy_closed_form(d)
    d_min = float(np.min(d))

    def check(rep):
        err_h = abs(rep.entropy - h_ref) / h_ref
        err_d = abs(rep.min_symplectic_eigenvalue - d_min) / d_min
        _require(
            err_h <= ENTROPY_RTOL and err_d <= ENTROPY_RTOL,
            f"entropy dim={dim}: relative errors {err_h:.3e} (H), {err_d:.3e} (min d)",
        )
        return max(err_h, err_d)

    return Op("entanglement_entropy", dim, lambda: gaussian.entanglement_entropy(g), check)


def _entropy_difference_op(g, g2, d, d2):
    dim = g.shape[0]
    h1, h2 = _entropy_closed_form(d), _entropy_closed_form(d2)

    def check(rep):
        # The bound is informational (its label never signals a bug), so
        # check the two entropies it is built from instead of ``holds``.
        _check_bound(rep, binding=False)
        err = max(
            abs(rep.details["entropy_first"] - h1) / h1,
            abs(rep.details["entropy_second"] - h2) / h2,
        )
        _require(err <= ENTROPY_RTOL, f"entropy_difference dim={dim}: entropy error {err:.3e}")
        return err

    return Op(
        "entropy_difference_bound",
        dim,
        lambda: gaussian.entropy_difference_bound(g, g2),
        check,
    )


def _sweep_op(m, e, grid, bound):
    dim = m.shape[0]

    def check(rep):
        _require(not rep.errors, f"sweep {bound} dim={dim}: failed points {rep.errors}")
        _require(len(rep.grid) == len(grid), f"sweep {bound}: {len(rep.grid)} points")
        for _, point in rep.grid:
            _check_bound(point)
        return None

    return Op(
        "sweep",
        dim,
        lambda: perturb.sweep(m, e, grid, bound),
        check,
    )


def _checker_ops(rng, dim, log_kappa, round_index, cap_hitting):
    n = dim // 2
    m = _spd(rng, dim, 10.0**log_kappa, 10.0 ** rng.uniform(-1.0, 1.0))
    e = _unit_symmetric(rng, dim)
    lam_min = float(np.linalg.eigvalsh(m)[0])
    # eps below lambda_min / 2 meets every checker's gate and keeps the
    # lower and upper halves of the spectra apart for the projection bound.
    eps = lam_min * 10.0 ** rng.uniform(-4.0, -2.0)
    mp = m + eps * e
    d = rng.uniform(1.1, 3.0, n)
    d2 = d * (1.0 + 10.0 ** rng.uniform(-4.0, -2.0, n))
    g = _covariance(rng, n, d)
    g2 = _covariance(rng, n, d2)
    x = 10.0 ** rng.uniform(1.0, 3.0)
    ce_eps = rng.uniform(0.01, 0.09)
    grid = list(np.geomspace(eps / 8.0, eps, 4))
    bound = SWEEP_BOUNDS[(round_index * len(CHECKER_DIMS) + n - 1) % len(SWEEP_BOUNDS)]
    inputs = (m, e, [eps], d, d2, g, g2, [x, ce_eps])

    d_m = symplectic_spectrum_oracle(m)
    d_mp = symplectic_spectrum_oracle(mp)
    ops = [_spectrum_bound_op(m, mp, kind, d_m, d_mp) for kind in KINDS]
    ops += [
        _bound_op("bound_bhatia_jain", dim, lambda: perturb.bound_bhatia_jain(m, mp)),
        _bound_op("bound_S", dim, lambda: perturb.bound_S(perturb.PerturbationCase(m, e, eps))),
        _bound_op("bound_gram", dim, lambda: perturb.bound_gram(perturb.PerturbationCase(m, e, eps))),
        _bound_op("check_sqrt_lemma", dim, lambda: perturb.check_sqrt_lemma(m, mp)),
        _bound_op("check_inv_lemma", dim, lambda: perturb.check_inv_lemma(m, mp)),
        _bound_op("check_woodbury_norm", dim, lambda: perturb.check_woodbury_norm(m, e, eps)),
        _bound_op("check_kappa_growth", dim, lambda: perturb.check_kappa_growth(m, e, eps)),
        _bound_op("check_eigvec_bound", dim, lambda: perturb.check_eigvec_bound(m, e, eps)),
        _bound_op(
            "check_projection_bound",
            dim,
            lambda: perturb.check_projection_bound(m, mp, (0, n), (n, dim)),
        ),
        _entropy_op(g, d),
        _entropy_difference_op(g, g2, d, d2),
        _counterexample_op(x, ce_eps, 1.0, dim),
        _sweep_op(m, e, grid, bound),
    ]
    if cap_hitting:
        ops.append(_counterexample_op(x, *CAP_HITTING, dim))
    return ops, inputs


def checkers(seed: int, n_rounds: int) -> Workload:
    """Every public checker on small matrices (2n in {2,4,6,8}, kappa <= 1e3),
    valid covariances for the entropy functions, and the counterexample with
    one cap-hitting c per round."""
    rng = np.random.default_rng(seed)
    h = hashlib.sha256(b"checkers")
    log_kappa = _stratified(rng, n_rounds, len(CHECKER_DIMS), 0.5, 3.0)
    rounds = []
    for r in range(n_rounds):
        ops = []
        for dim, lk in zip(CHECKER_DIMS, log_kappa[r]):
            dim_ops, inputs = _checker_ops(rng, dim, lk, r, cap_hitting=dim == CHECKER_DIMS[-1])
            _digest(h, *inputs)
            ops += dim_ops
        rounds.append(ops)
    return Workload("checkers", rounds, h.hexdigest())


# ---------------------------------------------------------------- cli_cold

CLI_FORMATS = ("text", "csv", "json")
CLI_CHECK_BOUNDS = ("spectrum", "sqrt", "inv", "bhatia-jain")
CLI_SWEEP_BOUNDS = ("spectrum", "sqrt", "inv", "woodbury", "kappa-growth", "eigvec")
CLI_DIM = 4


def cli_env(root):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _matrix_text(m):
    # The CLI's file format, written with 17 significant digits so the
    # file holds exactly the generated matrix.
    return "".join(" ".join("%.17g" % x for x in row) + "\n" for row in m)


def cli_in_process(argv):
    """Exit code and stdout bytes of ``cli.run`` in this interpreter."""
    out = io.StringIO()
    code = cli.run(list(argv), out=out)
    return code, out.getvalue().encode("utf-8")


def _decompose_residual(stdout, m):
    """Worst relative residual printed by ``decompose`` (text or JSON)."""
    text = stdout.decode("utf-8")
    if text.startswith("{"):
        rep = json.loads(text)
        diag, symp = rep["residual_diag"], rep["residual_symp"]
    else:
        fields = dict(
            line.split("=", 1) for line in text.splitlines() if line.startswith("residual_")
        )
        diag, symp = float(fields["residual_diag"]), float(fields["residual_symp"])
    return max(diag / float(np.linalg.norm(m, 2)), symp)


def cli_cold(seed: int, n_rounds: int, root: str, workdir: str) -> Workload:
    """Each op is one cold ``python -m sympspec.cli`` process. A round runs
    the six commands in one output format, on its own matrices, read from
    the files listed in ``Workload.files``; the format cycles over rounds.
    Short rounds give the median over rounds in ``ops_per_s`` more rounds."""
    rng = np.random.default_rng(seed)
    h = hashlib.sha256(b"cli_cold")
    env = cli_env(root)
    files = {}
    rounds = []
    for r in range(n_rounds):
        fmt = CLI_FORMATS[r % len(CLI_FORMATS)]
        m = _spd(rng, CLI_DIM, 10.0 ** rng.uniform(0.5, 3.0), 10.0 ** rng.uniform(-1.0, 1.0))
        e = _unit_symmetric(rng, CLI_DIM)
        eps = float(np.linalg.eigvalsh(m)[0]) * 10.0 ** rng.uniform(-4.0, -2.0)
        g = _covariance(rng, CLI_DIM // 2, rng.uniform(1.1, 3.0, CLI_DIM // 2))
        x, ce_eps = 10.0 ** rng.uniform(1.0, 3.0), rng.uniform(0.01, 0.09)
        paths = {}
        for name, mat in (("m", m), ("mp", m + eps * e), ("e", e), ("g", g)):
            paths[name] = os.path.join(workdir, f"in{r}_{name}.txt")
            files[paths[name]] = _matrix_text(mat)
            _digest(h, mat)
        _digest(h, [x, ce_eps, eps])
        commands = {
            "spectrum": ["spectrum", paths["m"]],
            "decompose": ["decompose", paths["m"]],
            "check": [
                "check", CLI_CHECK_BOUNDS[r % len(CLI_CHECK_BOUNDS)],
                "-m", paths["m"], "-p", paths["mp"],
            ],
            "sweep": [
                "sweep", CLI_SWEEP_BOUNDS[r % len(CLI_SWEEP_BOUNDS)],
                "-m", paths["m"], "-e", paths["e"], "--eps", f"{eps / 8.0!r}:{eps!r}:4",
            ],
            "entropy": ["entropy", paths["g"]],
            "counterexample": [
                "counterexample", "--x", repr(x), "--eps", repr(ce_eps), "--c", "1",
            ],
        }
        rounds.append([
            _cli_op(command, fmt, ["--format", fmt] + args, env, root,
                    m if command == "decompose" else None)
            for command, args in commands.items()
        ])
    return Workload("cli_cold", rounds, h.hexdigest(), files)


def cold_cli_argv(argv):
    return [sys.executable, "-m", "sympspec.cli"] + list(argv)


def run_child(cmd, env, root):
    proc = subprocess.run(cmd, env=env, cwd=root, capture_output=True, timeout=120)
    return proc.returncode, proc.stdout


def _cli_op(command, fmt, argv, env, root, decompose_matrix):
    expected = {}

    def warm():
        return cli_in_process(argv)

    def check(result):
        if not expected:
            expected["v"] = warm()
        code, stdout = result
        want_code, want_out = expected["v"]
        _require(want_code == 0, f"cli {command} --format {fmt}: in-process exit {want_code}")
        _require(code == want_code, f"cli {command} --format {fmt}: exit {code}, expected {want_code}")
        _require(stdout == want_out, f"cli {command} --format {fmt}: stdout differs from cli.run")
        if decompose_matrix is not None:
            return _decompose_residual(stdout, decompose_matrix)
        return None

    return Op(
        f"cli.{command}",
        CLI_DIM,
        lambda: run_child(cold_cli_argv(argv), env, root),
        check,
        first_call=warm,
        argv=argv,
    )


def build(name: str, seed: int, root: str, workdir: str, n_rounds: int | None = None) -> Workload:
    """The workload's rounds for ``seed``; ``n_rounds`` defaults to ROUNDS."""
    n_rounds = ROUNDS[name] if n_rounds is None else n_rounds
    if name == "cli_cold":
        return cli_cold(seed, n_rounds, root, workdir)
    return {"factorize": factorize, "checkers": checkers}[name](seed, n_rounds)
