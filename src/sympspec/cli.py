"""Command-line front end: matrix file I/O and report emission.

Matrix files are whitespace-separated floats, one row per line, with an
optional first line ``# rows cols``. All floats are printed with 17
significant digits so that text output round-trips exactly; identical
inputs and seed produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
from typing import TYPE_CHECKING

import numpy as np

from .densemat import NormKind, as_matrix
from .errors import (
    ParseError,
    RaggedRows,
    SympspecError,
    UnknownCommand,
)

# Each command imports the modules it runs when it runs, so that a cold
# process loads only those: spectrum and decompose load neither perturb nor
# gaussian. BoundReport is imported here for the annotations alone.
if TYPE_CHECKING:
    from .perturb import BoundReport

_NORM_BY_FLAG = {
    "op": NormKind.OPERATOR,
    "fro": NormKind.FROBENIUS,
    "trace": NormKind.TRACE,
}

# Reports whose ``holds`` flag is informational rather than a theorem claim;
# these never trigger the exit-2 "library bug" signal.
_NON_BINDING_LABELS = {"entropy_difference"}

_UNSET = object()

_EPS_GRID_MAX_POINTS = 1_000_000   # most points of an --eps a:b:count grid, 8 MB


def _projection(m, p, s1, s2):
    from .perturb import check_projection_bound

    return check_projection_bound(m, p, s1, s2)


def _entropy_diff(m, p):
    from .gaussian import entropy_difference_bound

    return entropy_difference_bound(m, p)


# Every bound the CLI offers -> (how, flags). `how` is the bound's
# perturb.SWEEPABLE name, a str, or, for a bound only `check` runs, its
# checker, called with M and the flags' values. `flags` are what `check` needs
# after -m, in the order they are required.
_BOUNDS = {
    "spectrum": ("spectrum", ("-p",)),
    "bhatia-jain": ("bhatia_jain", ("-p",)),
    "s-stability": ("s_stability", ("--eps", "-e")),
    "gram": ("gram", ("--eps", "-e")),
    "sqrt": ("sqrt_lemma", ("-p",)),
    "inv": ("inv_lemma", ("-p",)),
    "woodbury": ("woodbury", ("--eps", "-e")),
    "kappa-growth": ("kappa_growth", ("--eps", "-e")),
    "eigvec": ("eigvec", ("-p", "--eps")),
    "projection": (_projection, ("-p", "--s1", "--s2")),
    "entropy-diff": (_entropy_diff, ("-p",)),
}


def load_matrix(path) -> np.ndarray:
    """Read and parse a matrix file; ParseError if it cannot be read."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
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
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        return fmt_float(x) if np.isfinite(x) else "null"
    if isinstance(obj, (str, dict)):
        import json  # to quote strings alone, so that a text report loads none

        if isinstance(obj, str):
            return json.dumps(obj)
        items = ", ".join(f"{json.dumps(str(k))}: {_json_value(v)}" for k, v in obj.items())
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


def _render(fmt: str, json, text, csv=None) -> str:
    """One report in the chosen format: the JSON value, the CSV lines, or the
    text lines. A report without CSV lines prints its text lines for CSV."""
    if fmt == "json":
        return _json_value(json) + "\n"
    if fmt == "csv" and csv is not None:
        return "\n".join(csv) + "\n"
    if fmt in ("text", "csv"):
        return "\n".join(text) + "\n"
    raise UnknownCommand(f"unknown output format {fmt!r}")


CSV_HEADER = "epsilon,lhs,rhs,norm,holds,preconditions_met,label"


def _report_forms(reports, slope=_UNSET):
    """The JSON value, text lines and CSV lines of (epsilon, BoundReport) pairs."""
    body, text, csv = [], [], [CSV_HEADER]
    for eps, r in reports:
        body.append(_report_dict(eps, r))
        # (name, value) in text order; CSV moves the label to the end
        fields = [
            ("label", r.label),
            ("epsilon", "" if eps is None else fmt_float(eps)),
            ("lhs", fmt_float(r.lhs)),
            ("rhs", fmt_float(r.rhs)),
            ("norm", r.norm_kind.value),
            ("holds", _json_value(r.holds)),
            ("preconditions_met", _json_value(r.preconditions_met)),
        ]
        text.append(" ".join(f"{k}={v}" for k, v in fields if eps is not None or k != "epsilon"))
        csv.append(",".join(v for _, v in fields[1:] + fields[:1]))
    if slope is _UNSET:
        return body, text, csv
    shown = "nan" if slope is None else fmt_float(slope)
    return {"points": body, "slope": slope}, text + ["slope=" + shown], csv + ["# slope=" + shown]


def emit_report(reports, fmt: str, slope=_UNSET) -> str:
    """Serialize (epsilon, BoundReport) pairs as text, CSV, or JSON."""
    return _render(fmt, *_report_forms(reports, slope))


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; exit 2 is reserved here for
    # theorem violations, so surface parse problems as package errors instead.
    def error(self, message):
        raise UnknownCommand(message)


def _seed(text: str) -> int:
    # numpy's default_rng takes non-negative seeds only
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must not be negative, got {seed}")
    return seed


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="sympspec", description=__doc__, add_help=True)
    p.add_argument("--norm", choices=sorted(_NORM_BY_FLAG), default="op")
    p.add_argument("--seed", type=_seed, default=0)
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
    sweepable = [name for name, (how, _) in _BOUNDS.items() if isinstance(how, str)]
    sw.add_argument("bound", choices=sweepable)
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
        if count > _EPS_GRID_MAX_POINTS:
            raise ParseError(f"--eps grid count {count} exceeds {_EPS_GRID_MAX_POINTS}")
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
    from .symplectic import symplectic_spectrum

    d = symplectic_spectrum(load_matrix(args.matrix))
    text = [fmt_float(x) for x in d]
    out.write(_render(args.fmt, list(d), text, csv=["d"] + text))
    return 0


def _cmd_decompose(args, out) -> int:
    from .symplectic import _williamson

    fac, ok = _williamson(load_matrix(args.matrix))
    report = {
        "n_modes": fac.n_modes,
        "d": list(fac.d),
        "S": [list(row) for row in fac.S],
        "residual_diag": fac.residual_diag,
        "residual_symp": fac.residual_symp,
        "residuals_ok": ok,
    }
    text = [
        f"n_modes={fac.n_modes}",
        "d: " + " ".join(fmt_float(x) for x in fac.d),
        "S:",
        format_matrix(fac.S).rstrip("\n"),
        f"residual_diag={fmt_float(fac.residual_diag)}",
        f"residual_symp={fmt_float(fac.residual_symp)}",
        f"residuals_ok={_json_value(ok)}",
    ]
    out.write(_render(args.fmt, report, text))
    return 0


def _violates(report: BoundReport) -> bool:
    return (
        report.preconditions_met
        and not report.holds
        and report.label not in _NON_BINDING_LABELS
    )


def _cmd_check(args, out) -> int:
    how, flags = _BOUNDS[args.bound]
    m = load_matrix(args.matrix)
    values = {flag: _check_flag(args, flag) for flag in flags}
    if isinstance(how, str):
        from .perturb import SWEEPABLE

        moves, call = SWEEPABLE[how]
        # eigvec takes its direction as -p; every other bound that moves M takes -e
        second = values.get("-e", values.get("-p"))
        report = call(m, second, values["--eps"] if moves else _NORM_BY_FLAG[args.norm])
    else:
        report = how(m, *values.values())
    eps = args.eps if "--eps" in flags else None
    out.write(emit_report([(eps, report)], args.fmt))
    return 2 if _violates(report) else 0


def _cmd_sweep(args, out) -> int:
    from .perturb import sweep

    m = load_matrix(args.matrix)
    if args.perturbation is not None:
        e = load_matrix(args.perturbation)
    else:
        rng = np.random.default_rng(args.seed)
        g = rng.standard_normal((len(m), len(m)))
        e = (g + g.T) / 2.0
    grid = _parse_eps_grid(args.eps)
    report = sweep(m, e, grid, _BOUNDS[args.bound][0], _NORM_BY_FLAG[args.norm])
    out.write(emit_report(list(report.grid), args.fmt, slope=report.slope))
    for eps, message in report.errors:
        sys.stderr.write(f"epsilon={fmt_float(eps)}: {message}\n")
    return 2 if any(_violates(r) for _, r in report.grid) else 0


def _cmd_entropy(args, out) -> int:
    from .gaussian import entanglement_entropy

    rep = entanglement_entropy(load_matrix(args.matrix))
    scale = 1.0 / np.log(2.0) if args.bits else 1.0
    h = rep.entropy * scale
    terms = [t * scale for t in rep.per_mode_terms]
    unit = "bits" if args.bits else "nats"
    report = {
        "entropy": h,
        "per_mode_terms": terms,
        "min_symplectic_eigenvalue": rep.min_symplectic_eigenvalue,
        "unit": unit,
    }
    text = [fmt_float(h)] + [f"mode {k} {fmt_float(t)}" for k, t in enumerate(terms, start=1)]
    csv = (
        ["mode,term"]
        + [f"{k},{fmt_float(t)}" for k, t in enumerate(terms, start=1)]
        + [f"# H={fmt_float(h)} unit={unit}"]
    )
    out.write(_render(args.fmt, report, text, csv))
    return 0


def _cmd_counterexample(args, out) -> int:
    from .perturb import counterexample_scaling

    report = counterexample_scaling(args.x, args.eps, args.c)
    body, _, csv = _report_forms([(args.eps, report)])
    text = "fires={} lhs={} rhs={} x0={}".format(
        _json_value(report.holds),
        fmt_float(report.lhs),
        fmt_float(report.rhs),
        _json_value(report.details["x0"]),
    )
    out.write(_render(args.fmt, body, [text], csv))
    return 0


def _cmd_demo_degenerate(args, out) -> int:
    from .perturb import degenerate_demo

    fields = dataclasses.asdict(degenerate_demo(args.eps))
    text = [f"{key}={fmt_float(val)}" for key, val in fields.items()]
    out.write(_render(args.fmt, fields, text))
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
    """Run one command, write its report, and end the process with its exit code.

    The process ends here: ``run`` is the entry to call in-process. Once
    stdout and stderr are flushed, the process exits at once, without the
    interpreter's teardown (numpy's is most of it), so ``atexit`` handlers
    that other code registered do not run. Where a flush fails (a closed
    pipe), or a trace or profile function is set (coverage, ``trace``,
    ``cProfile``, which report at exit), it exits through ``sys.exit``.
    """
    code = run(argv)
    if sys.gettrace() is None and sys.getprofile() is None:
        try:
            for stream in (sys.stdout, sys.stderr):
                if stream is not None:
                    stream.flush()
        except OSError:
            pass
        else:
            os._exit(code)
    sys.exit(code)


if __name__ == "__main__":
    main()
