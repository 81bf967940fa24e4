"""Command-line front end: matrix file I/O and report emission.

Matrix files are whitespace-separated floats, one row per line, with an
optional first line ``# rows cols``. All floats are printed with 17
significant digits so that text output round-trips exactly; identical
inputs and seed produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .densemat import NormKind, as_matrix
from .errors import (
    ParseError,
    RaggedRows,
    SympspecError,
    UnknownCommand,
)
from .gaussian import entanglement_entropy, entropy_difference_bound
from .perturb import (
    BoundReport,
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
    counterexample_scaling,
    degenerate_demo,
    sweep,
)
from .symplectic import RESIDUAL_TOL, symplectic_spectrum, williamson

_NORM_BY_FLAG = {
    "op": NormKind.OPERATOR,
    "fro": NormKind.FROBENIUS,
    "trace": NormKind.TRACE,
}

# Reports whose ``holds`` flag is informational rather than a theorem claim;
# these never trigger the exit-2 "library bug" signal.
_NON_BINDING_LABELS = {"counterexample_scaling", "entropy_difference"}

_UNSET = object()

# Every bound the CLI offers: its perturb.SWEEPABLE name (None when only
# `check` runs it), the flags `check` needs after -m in the order they are
# required, and the checker, called with M, those flags' values and the norm.
_BOUNDS = {
    "spectrum": (
        "spectrum", ("-p",),
        lambda m, p, kind: bound_spectrum(m, p, kind),
    ),
    "bhatia-jain": (
        "bhatia_jain", ("-p",),
        lambda m, p, kind: bound_bhatia_jain(m, p),
    ),
    "s-stability": (
        "s_stability", ("--eps", "-e"),
        lambda m, eps, e, kind: bound_S(PerturbationCase(m, e, eps)),
    ),
    "gram": (
        "gram", ("--eps", "-e"),
        lambda m, eps, e, kind: bound_gram(PerturbationCase(m, e, eps)),
    ),
    "sqrt": (
        "sqrt_lemma", ("-p",),
        lambda m, p, kind: check_sqrt_lemma(m, p, kind),
    ),
    "inv": (
        "inv_lemma", ("-p",),
        lambda m, p, kind: check_inv_lemma(m, p, kind),
    ),
    "woodbury": (
        "woodbury", ("--eps", "-e"),
        lambda m, eps, e, kind: check_woodbury_norm(m, e, eps),
    ),
    "kappa-growth": (
        "kappa_growth", ("--eps", "-e"),
        lambda m, eps, e, kind: check_kappa_growth(m, e, eps),
    ),
    "eigvec": (
        "eigvec", ("-p", "--eps"),
        lambda m, p, eps, kind: check_eigvec_bound(m, p, eps),
    ),
    "projection": (
        None, ("-p", "--s1", "--s2"),
        lambda m, p, s1, s2, kind: check_projection_bound(m, p, s1, s2),
    ),
    "entropy-diff": (
        None, ("-p",),
        lambda m, p, kind: entropy_difference_bound(m, p),
    ),
}


def load_matrix(path) -> np.ndarray:
    """Read and parse a matrix file; ParseError if it cannot be read."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    return parse_matrix(text)


def fmt_float(x) -> str:
    return "%.17g" % float(x)


def parse_matrix(text: str) -> np.ndarray:
    """Parse the matrix text format; raises ParseError with a line number."""
    rows = []
    declared = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            if lineno != 1 or declared is not None:
                raise ParseError("unexpected comment line", line=lineno)
            parts = line[1:].split()
            if len(parts) != 2:
                raise ParseError("header must be '# rows cols'", line=lineno)
            try:
                declared = (int(parts[0]), int(parts[1]))
            except ValueError as exc:
                raise ParseError("header must be '# rows cols'", line=lineno) from exc
            continue
        try:
            row = [float(tok) for tok in line.split()]
        except ValueError as exc:
            raise ParseError(f"bad float: {exc}", line=lineno) from exc
        if rows and len(row) != len(rows[0][1]):
            raise RaggedRows(
                f"row has {len(row)} entries, previous rows have {len(rows[0][1])}",
                line=lineno,
            )
        rows.append((lineno, row))
    if not rows:
        raise ParseError("no matrix rows found", line=1)
    m = np.array([r for _, r in rows], dtype=np.float64)
    if declared is not None and m.shape != declared:
        raise ParseError(
            f"header declares {declared[0]}x{declared[1]}, found "
            f"{m.shape[0]}x{m.shape[1]}",
            line=1,
        )
    return as_matrix(m)


def format_matrix(m) -> str:
    """Serialize a matrix; parse_matrix(format_matrix(m)) recovers m exactly."""
    mat = np.asarray(m, dtype=np.float64)
    return "\n".join(" ".join(fmt_float(x) for x in row) for row in mat) + "\n"


def _json_value(obj) -> str:
    import json as _json

    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        return fmt_float(x) if np.isfinite(x) else "null"
    if isinstance(obj, str):
        return _json.dumps(obj)
    if isinstance(obj, dict):
        items = ", ".join(f"{_json.dumps(str(k))}: {_json_value(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ", ".join(_json_value(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _report_dict(epsilon, report: BoundReport) -> dict:
    return {
        "epsilon": None if epsilon is None else float(epsilon),
        "lhs": report.lhs,
        "rhs": report.rhs,
        "norm": report.norm_kind.value,
        "holds": report.holds,
        "preconditions_met": report.preconditions_met,
        "margin": report.margin,
        "label": report.label,
        "details": report.details,
    }


CSV_HEADER = "epsilon,lhs,rhs,norm,holds,preconditions_met,label"


def emit_report(reports, fmt: str, slope=_UNSET) -> str:
    """Serialize (epsilon, BoundReport) pairs as text, CSV, or JSON."""
    if fmt == "csv":
        lines = [CSV_HEADER]
        for eps, r in reports:
            lines.append(
                ",".join(
                    [
                        "" if eps is None else fmt_float(eps),
                        fmt_float(r.lhs),
                        fmt_float(r.rhs),
                        r.norm_kind.value,
                        "true" if r.holds else "false",
                        "true" if r.preconditions_met else "false",
                        r.label,
                    ]
                )
            )
        if slope is not _UNSET:
            lines.append("# slope=" + ("nan" if slope is None else fmt_float(slope)))
        return "\n".join(lines) + "\n"
    if fmt == "json":
        body = [_report_dict(eps, r) for eps, r in reports]
        if slope is not _UNSET:
            return _json_value({"points": body, "slope": slope}) + "\n"
        return _json_value(body) + "\n"
    if fmt == "text":
        lines = []
        for eps, r in reports:
            parts = [f"label={r.label}"]
            if eps is not None:
                parts.append(f"epsilon={fmt_float(eps)}")
            parts.extend(
                [
                    f"lhs={fmt_float(r.lhs)}",
                    f"rhs={fmt_float(r.rhs)}",
                    f"norm={r.norm_kind.value}",
                    f"holds={'true' if r.holds else 'false'}",
                    f"preconditions_met={'true' if r.preconditions_met else 'false'}",
                ]
            )
            lines.append(" ".join(parts))
        if slope is not _UNSET:
            lines.append("slope=" + ("nan" if slope is None else fmt_float(slope)))
        return "\n".join(lines) + "\n"
    raise UnknownCommand(f"unknown output format {fmt!r}")


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; exit 2 is reserved here for
    # theorem violations, so surface parse problems as package errors instead.
    def error(self, message):
        raise UnknownCommand(message)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="sympspec", description=__doc__, add_help=True)
    p.add_argument("--norm", choices=sorted(_NORM_BY_FLAG), default="op")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", dest="fmt", choices=["text", "csv", "json"], default="text")
    p.add_argument("--bits", action="store_true")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="symplectic eigenvalues of an SPD matrix")
    sp.add_argument("matrix")

    dc = sub.add_parser("decompose", help="Williamson factorization S, d, residuals")
    dc.add_argument("matrix")

    ck = sub.add_parser("check", help="evaluate one named bound")
    ck.add_argument("bound", choices=list(_BOUNDS))
    ck.add_argument("-m", "--matrix", required=True)
    ck.add_argument("-p", "--second")
    ck.add_argument("-e", "--perturbation")
    ck.add_argument("--eps", type=float)
    ck.add_argument("--s1")
    ck.add_argument("--s2")

    sw = sub.add_parser("sweep", help="evaluate one bound across an epsilon grid")
    sw.add_argument("bound", choices=[name for name, row in _BOUNDS.items() if row[0]])
    sw.add_argument("-m", "--matrix", required=True)
    sw.add_argument("-e", "--perturbation")
    sw.add_argument("--eps", required=True, help="a:b:k geometric grid or comma list")

    en = sub.add_parser("entropy", help="entanglement entropy of a covariance matrix")
    en.add_argument("matrix")

    ce = sub.add_parser("counterexample", help="scaling counterexample for diag(x, 1)")
    ce.add_argument("--x", type=float, required=True)
    ce.add_argument("--eps", type=float, required=True)
    ce.add_argument("--c", type=float, required=True)

    dd = sub.add_parser("demo-degenerate", help="near-degenerate 4x4 stability demo")
    dd.add_argument("--eps", type=float, required=True)
    return p


def _parse_eps_grid(spec: str):
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ParseError("--eps grid must be start:stop:count")
        try:
            start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError as exc:
            raise ParseError(f"bad --eps grid: {exc}") from exc
        if count < 1 or not 0.0 < start < stop < math.inf:
            raise ParseError("--eps grid needs 0 < start < stop < inf and count >= 1")
        return np.geomspace(start, stop, count)
    try:
        return [float(tok) for tok in spec.split(",") if tok]
    except ValueError as exc:
        raise ParseError(f"bad --eps list: {exc}") from exc


def _parse_index_range(spec: str, flag: str):
    try:
        start, stop = spec.split(":")
        return int(start), int(stop)
    except (ValueError, AttributeError) as exc:
        raise ParseError(f"{flag} must be start:stop") from exc


# How `check` reads each flag of _BOUNDS: its argparse destination and parser.
_CHECK_FLAGS = {
    "-p": ("second", load_matrix),
    "-e": ("perturbation", load_matrix),
    "--eps": ("eps", float),
    "--s1": ("s1", lambda spec: _parse_index_range(spec, "--s1")),
    "--s2": ("s2", lambda spec: _parse_index_range(spec, "--s2")),
}


def _check_flag(args, flag: str):
    dest, parse = _CHECK_FLAGS[flag]
    value = getattr(args, dest)
    if value is None:
        raise ParseError(f"check {args.bound} requires {flag}")
    return parse(value)


def _cmd_spectrum(args, out) -> int:
    d = symplectic_spectrum(load_matrix(args.matrix))
    if args.fmt == "json":
        out.write(_json_value(list(d)) + "\n")
    elif args.fmt == "csv":
        out.write("d\n" + "\n".join(fmt_float(x) for x in d) + "\n")
    else:
        out.write("\n".join(fmt_float(x) for x in d) + "\n")
    return 0


def _cmd_decompose(args, out) -> int:
    fac = williamson(load_matrix(args.matrix))
    scale = max(1.0, float(np.max(np.abs(fac.d))))
    ok = fac.residual_diag <= RESIDUAL_TOL * scale and fac.residual_symp <= RESIDUAL_TOL
    if args.fmt == "json":
        out.write(
            _json_value(
                {
                    "n_modes": fac.n_modes,
                    "d": list(fac.d),
                    "S": [list(row) for row in fac.S],
                    "residual_diag": fac.residual_diag,
                    "residual_symp": fac.residual_symp,
                    "residuals_ok": ok,
                }
            )
            + "\n"
        )
    else:
        out.write(f"n_modes={fac.n_modes}\n")
        out.write("d: " + " ".join(fmt_float(x) for x in fac.d) + "\n")
        out.write("S:\n" + format_matrix(fac.S))
        out.write(f"residual_diag={fmt_float(fac.residual_diag)}\n")
        out.write(f"residual_symp={fmt_float(fac.residual_symp)}\n")
        out.write(f"residuals_ok={'true' if ok else 'false'}\n")
    return 0


def _violates(report: BoundReport) -> bool:
    return (
        report.preconditions_met
        and not report.holds
        and report.label not in _NON_BINDING_LABELS
    )


def _cmd_check(args, out) -> int:
    _, flags, checker = _BOUNDS[args.bound]
    m = load_matrix(args.matrix)
    values = [_check_flag(args, flag) for flag in flags]
    report = checker(m, *values, _NORM_BY_FLAG[args.norm])
    eps = args.eps if "--eps" in flags else None
    out.write(emit_report([(eps, report)], args.fmt))
    return 2 if _violates(report) else 0


def _cmd_sweep(args, out) -> int:
    m = load_matrix(args.matrix)
    if args.perturbation is not None:
        e = load_matrix(args.perturbation)
    else:
        rng = np.random.default_rng(args.seed)
        g = rng.standard_normal(m.shape)
        e = (g + g.T) / 2.0
    grid = _parse_eps_grid(args.eps)
    report = sweep(m, e, grid, _BOUNDS[args.bound][0], _NORM_BY_FLAG[args.norm])
    out.write(emit_report(list(report.grid), args.fmt, slope=report.slope))
    for eps, message in report.errors:
        sys.stderr.write(f"epsilon={fmt_float(eps)}: {message}\n")
    return 2 if any(_violates(r) for _, r in report.grid) else 0


def _cmd_entropy(args, out) -> int:
    rep = entanglement_entropy(load_matrix(args.matrix))
    scale = 1.0 / np.log(2.0) if args.bits else 1.0
    h = rep.entropy * scale
    terms = [t * scale for t in rep.per_mode_terms]
    unit = "bits" if args.bits else "nats"
    if args.fmt == "json":
        out.write(
            _json_value(
                {
                    "entropy": h,
                    "per_mode_terms": terms,
                    "min_symplectic_eigenvalue": rep.min_symplectic_eigenvalue,
                    "unit": unit,
                }
            )
            + "\n"
        )
    elif args.fmt == "csv":
        out.write("mode,term\n")
        for k, t in enumerate(terms, start=1):
            out.write(f"{k},{fmt_float(t)}\n")
        out.write(f"# H={fmt_float(h)} unit={unit}\n")
    else:
        out.write(fmt_float(h) + "\n")
        for k, t in enumerate(terms, start=1):
            out.write(f"mode {k} {fmt_float(t)}\n")
    return 0


def _cmd_counterexample(args, out) -> int:
    report = counterexample_scaling(args.x, args.eps, args.c)
    if args.fmt == "text":
        out.write(
            "fires={} lhs={} rhs={} x0={}\n".format(
                "true" if report.holds else "false",
                fmt_float(report.lhs),
                fmt_float(report.rhs),
                report.details["x0"],
            )
        )
    else:
        out.write(emit_report([(args.eps, report)], args.fmt))
    return 0


def _cmd_demo_degenerate(args, out) -> int:
    rep = degenerate_demo(args.eps)
    fields = {
        "epsilon": rep.epsilon,
        "s_dist_canonical": rep.s_dist_canonical,
        "s_dist_aligned_over_gauge_family": rep.s_dist_aligned_over_gauge_family,
        "gram_dist": rep.gram_dist,
        "commutator_norm": rep.commutator_norm,
    }
    if args.fmt == "json":
        out.write(_json_value(fields) + "\n")
    else:
        for key, val in fields.items():
            out.write(f"{key}={fmt_float(val)}\n")
    return 0


_COMMANDS = {
    "spectrum": _cmd_spectrum,
    "decompose": _cmd_decompose,
    "check": _cmd_check,
    "sweep": _cmd_sweep,
    "entropy": _cmd_entropy,
    "counterexample": _cmd_counterexample,
    "demo-degenerate": _cmd_demo_degenerate,
}


def run(argv=None, out=None) -> int:
    """Parse arguments, execute one command, and return the exit code.

    0 on success, 1 on input or domain errors, 2 when a precondition-met
    theorem bound fails to hold (which would signal a library bug).
    """
    out = sys.stdout if out is None else out
    try:
        args = build_parser().parse_args(argv)
        return _COMMANDS[args.command](args, out)
    except SympspecError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


def main(argv=None) -> None:
    sys.exit(run(argv))


if __name__ == "__main__":
    main()
