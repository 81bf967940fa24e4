"""Matrix file format, report emission, command behavior, golden determinism."""

import io
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sympspec import cli
from sympspec.cli import (
    CSV_HEADER,
    build_parser,
    emit_report,
    fmt_float,
    format_matrix,
    load_matrix,
    parse_matrix,
    run,
)
from sympspec.densemat import NormKind
from sympspec.errors import ParseError, RaggedRows, UnknownCommand
from sympspec.gaussian import entropy_difference_bound
from sympspec.perturb import (
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
    sweep,
)

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"


def _run_text(argv):
    buf = io.StringIO()
    code = run(argv, out=buf)
    return code, buf.getvalue()


class TestParseMatrix:
    def test_standard_form_text(self):
        m = parse_matrix("0 1\n-1 0\n")
        np.testing.assert_array_equal(m, [[0.0, 1.0], [-1.0, 0.0]])

    def test_header(self):
        m = parse_matrix("# 2 2\n1 0\n0 1\n")
        np.testing.assert_array_equal(m, np.eye(2))

    def test_header_mismatch(self):
        with pytest.raises(ParseError):
            parse_matrix("# 3 2\n1 0\n0 1\n")

    def test_ragged(self):
        with pytest.raises(RaggedRows) as err:
            parse_matrix("1 2\n3\n")
        assert err.value.line == 2

    def test_bad_float_has_line_number(self):
        with pytest.raises(ParseError) as err:
            parse_matrix("1 2\n3 x\n")
        assert err.value.line == 2

    def test_empty(self):
        with pytest.raises(ParseError):
            parse_matrix("\n\n")

    @pytest.mark.parametrize(
        "text, message, line",
        [
            ("1 0\n# 2 2\n0 1\n", "unexpected comment line", 2),
            ("# 2 2\n# 2 2\n1 0\n0 1\n", "unexpected comment line", 2),
            ("# 2\n1 0\n0 1\n", "header must be '# rows cols'", 1),
            ("# 2 x\n1 0\n0 1\n", "header must be '# rows cols'", 1),
        ],
    )
    def test_comment_and_header_errors(self, text, message, line):
        with pytest.raises(ParseError, match=message) as err:
            parse_matrix(text)
        assert err.value.line == line

    def test_round_trip_exact(self):
        rng = np.random.default_rng(100)
        m = rng.standard_normal((4, 4)) * 10.0 ** rng.integers(-8, 8)
        again = parse_matrix(format_matrix(m))
        assert np.array_equal(again, m)

    def test_matrix_file_load(self, tmp_path):
        rng = np.random.default_rng(101)
        m = rng.standard_normal((3, 3))
        path = tmp_path / "m.txt"
        path.write_text(format_matrix(m))
        assert np.array_equal(load_matrix(path), m)
        with pytest.raises(ParseError):
            load_matrix(tmp_path / "missing.txt")


class TestEmitReport:
    def _report(self):
        return BoundReport.from_sides(
            1.25, 2.5, NormKind.OPERATOR, True, "spectrum", details={"x0": 3}
        )

    def test_csv_header_only(self):
        assert emit_report([], "csv") == CSV_HEADER + "\n"

    def test_csv_row(self):
        text = emit_report([(0.5, self._report())], "csv")
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert lines[1] == "0.5,1.25,2.5,operator,true,true,spectrum"

    def test_json_round_trip(self):
        rep = self._report()
        parsed = json.loads(emit_report([(0.5, rep)], "json"))
        assert parsed[0]["lhs"] == rep.lhs
        assert parsed[0]["rhs"] == rep.rhs
        assert parsed[0]["holds"] is True
        assert parsed[0]["label"] == "spectrum"
        assert parsed[0]["epsilon"] == 0.5
        assert parsed[0]["details"] == {"x0": 3}

    def test_json_slope_wrapper(self):
        parsed = json.loads(emit_report([(0.5, self._report())], "json", slope=0.97))
        assert parsed["slope"] == 0.97
        assert len(parsed["points"]) == 1

    def test_float_formatting_round_trips(self):
        for x in (0.1, 1e-300, 12345.6789, np.pi):
            assert float(fmt_float(x)) == x


class TestCommands:
    def test_spectrum_text(self):
        code, text = _run_text(["spectrum", str(DATA / "m91.txt")])
        assert code == 0
        assert text == "3\n"

    def test_entropy_vacuum(self):
        code, text = _run_text(["entropy", str(DATA / "i2.txt")])
        assert code == 0
        assert text.splitlines()[0] == "0"

    def test_entropy_bits(self):
        code, text = _run_text(["--bits", "entropy", str(DATA / "gamma3.txt")])
        assert code == 0
        assert float(text.splitlines()[0]) == pytest.approx(2.0, abs=1e-12)

    def test_decompose_reports_residuals(self):
        code, text = _run_text(["decompose", str(DATA / "spd4.txt")])
        assert code == 0
        assert "residuals_ok=true" in text

    def test_check_exit_zero(self):
        code, _ = _run_text(
            ["check", "spectrum", "-m", str(DATA / "m91.txt"), "-p", str(DATA / "i2.txt")]
        )
        assert code == 0

    def test_check_missing_arg(self):
        code, _ = _run_text(["check", "spectrum", "-m", str(DATA / "m91.txt")])
        assert code == 1

    def test_missing_file_is_input_error(self):
        code, _ = _run_text(["spectrum", str(DATA / "missing.txt")])
        assert code == 1

    def test_non_utf8_file_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "bin.txt"
        path.write_bytes(b"\xff1 0\n0 1\n")
        with pytest.raises(ParseError, match="bin.txt"):
            load_matrix(path)
        code, text = _run_text(["spectrum", str(path)])
        assert code == 1
        assert text == ""
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {path}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "seed, message", [("-1", "must not be negative, got -1"), ("x", "invalid int value: 'x'")]
    )
    def test_bad_seed_is_input_error(self, seed, message, capsys):
        argv = ["--seed", seed, "sweep", "gram", "-m", str(DATA / "spd4.txt")]
        code, text = _run_text(argv + ["--eps", "1e-4,1e-3"])
        assert code == 1
        assert text == ""
        assert capsys.readouterr().err == f"error: argument --seed: {message}\n"

    def test_unknown_command(self):
        code, _ = _run_text(["frobnicate"])
        assert code == 1

    @pytest.mark.parametrize(
        "argv", [[], ["--format", "xml", "spectrum", str(DATA / "m91.txt")]]
    )
    def test_parse_problems_are_unknown_command(self, argv):
        with pytest.raises(UnknownCommand):
            build_parser().parse_args(argv)
        code, _ = _run_text(argv)
        assert code == 1

    def test_demo_degenerate(self):
        code, text = _run_text(["demo-degenerate", "--eps", "0.01"])
        assert code == 0
        assert "commutator_norm=" in text

    @pytest.mark.parametrize(
        "x, c, message", [("inf", "1", "x must be finite"), ("33", "inf", "c must be finite")]
    )
    def test_counterexample_non_finite(self, x, c, message, capsys):
        code, text = _run_text(["counterexample", "--x", x, "--eps", "0.05", "--c", c])
        assert code == 1
        assert text == ""
        assert message in capsys.readouterr().err

    def test_counterexample_x0_when_c_eps_sqrt29_passes_one(self):
        # the squared firing inequality alone would already hold at x = 1
        code, text = _run_text(["counterexample", "--x", "1", "--eps", "0.05", "--c", "100"])
        assert code == 0
        assert text.startswith("fires=false ")
        assert text.endswith(" x0=275310\n")

    def test_counterexample_x0_past_scan_cap_is_null(self):
        argv = ["counterexample", "--x", "50", "--eps", "1e-4", "--c", "1000"]
        code, text = _run_text(argv)
        assert code == 0
        assert text.endswith(" x0=null\n")
        code, text = _run_text(["--format", "json"] + argv)
        assert code == 0
        assert '"x0": null' in text
        assert json.loads(text)[0]["details"]["x0"] is None

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_counterexample_huge_c_is_null(self, fmt):
        # c * c overflows past c = 1.3e154; x0 lies past the scan cap anyway
        argv = ["--format", fmt, "counterexample", "--x", "33", "--eps", "0.05", "--c", "1e300"]
        code, text = _run_text(argv)
        assert code == 0
        if fmt == "json":
            assert json.loads(text)[0]["details"]["x0"] is None
        else:
            assert text.endswith(" x0=null\n")

    def test_counterexample_json(self):
        code, text = _run_text(
            ["--format", "json", "counterexample", "--x", "33", "--eps", "0.05", "--c", "1"]
        )
        assert code == 0
        parsed = json.loads(text)
        assert parsed[0]["holds"] is True
        assert parsed[0]["details"]["x0"] == 29

    def test_sweep_with_explicit_grid(self):
        code, text = _run_text(
            [
                "--format",
                "csv",
                "sweep",
                "sqrt",
                "-m",
                str(DATA / "spd4.txt"),
                "--eps",
                "1e-4,1e-3,1e-2",
            ]
        )
        assert code == 0
        assert text.startswith(CSV_HEADER)
        assert "# slope=" in text

    def test_exit_two_reserved_for_binding_theorem_violations(self):
        from sympspec.cli import _violates

        broken = BoundReport(
            lhs=2.0,
            rhs=1.0,
            norm_kind=NormKind.OPERATOR,
            preconditions_met=True,
            holds=False,
            margin=-1.0,
            label="spectrum",
        )
        assert _violates(broken)
        gated = BoundReport(
            lhs=2.0,
            rhs=1.0,
            norm_kind=NormKind.OPERATOR,
            preconditions_met=False,
            holds=False,
            margin=-1.0,
            label="spectrum",
        )
        assert not _violates(gated)
        informational = BoundReport(
            lhs=2.0,
            rhs=1.0,
            norm_kind=NormKind.OPERATOR,
            preconditions_met=True,
            holds=False,
            margin=-1.0,
            label="entropy_difference",
        )
        assert not _violates(informational)

    def test_in_process_determinism(self):
        argv = [
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
        ]
        _, first = _run_text(argv)
        _, second = _run_text(argv)
        assert first == second


# Each `check` bound: the flags it needs after -m in the order the CLI
# requires them, and the library call the CLI must reproduce.
CHECK_CALLS = {
    "spectrum": (("-p",), lambda m, p, kind: bound_spectrum(m, p, kind)),
    "bhatia-jain": (("-p",), lambda m, p, kind: bound_bhatia_jain(m, p)),
    "s-stability": (
        ("--eps", "-e"),
        lambda m, eps, e, kind: bound_S(PerturbationCase(m, e, eps)),
    ),
    "gram": (
        ("--eps", "-e"),
        lambda m, eps, e, kind: bound_gram(PerturbationCase(m, e, eps)),
    ),
    "sqrt": (("-p",), lambda m, p, kind: check_sqrt_lemma(m, p, kind)),
    "inv": (("-p",), lambda m, p, kind: check_inv_lemma(m, p, kind)),
    "woodbury": (("--eps", "-e"), lambda m, eps, e, kind: check_woodbury_norm(m, e, eps)),
    "kappa-growth": (
        ("--eps", "-e"),
        lambda m, eps, e, kind: check_kappa_growth(m, e, eps),
    ),
    "eigvec": (("-p", "--eps"), lambda m, p, eps, kind: check_eigvec_bound(m, p, eps)),
    "projection": (
        ("-p", "--s1", "--s2"),
        lambda m, p, s1, s2, kind: check_projection_bound(m, p, s1, s2),
    ),
    "entropy-diff": (("-p",), lambda m, p, kind: entropy_difference_bound(m, p)),
}

# `sweep` bound name -> the perturb.sweep name it runs.
SWEEP_CALLS = {
    "spectrum": "spectrum",
    "bhatia-jain": "bhatia_jain",
    "s-stability": "s_stability",
    "gram": "gram",
    "sqrt": "sqrt_lemma",
    "inv": "inv_lemma",
    "woodbury": "woodbury",
    "kappa-growth": "kappa_growth",
    "eigvec": "eigvec",
}

NORM_FLAGS = {"op": NormKind.OPERATOR, "fro": NormKind.FROBENIUS, "trace": NormKind.TRACE}


class TestBoundParity:
    """Every named bound through the CLI prints what the library call gives."""

    @pytest.fixture
    def files(self, tmp_path):
        m = parse_matrix((DATA / "spd4.txt").read_text())
        e = np.array(
            [
                [0.5, -1.0, 0.25, 0.0],
                [-1.0, -0.5, 0.0, 0.75],
                [0.25, 0.0, 1.0, -0.25],
                [0.0, 0.75, -0.25, -1.0],
            ]
        )
        mats = {
            "m": m,
            "p": m + 1e-3 * e,
            "e": e,
            "b": e / (2.0 * np.linalg.norm(e, 2)),
            "cov": 2.0 * m,
            "cov2": 2.0 * (m + 1e-3 * e),
        }
        paths = {}
        for name, mat in mats.items():
            paths[name] = tmp_path / f"{name}.txt"
            paths[name].write_text(format_matrix(mat))
        # the matrices as the CLI reads them
        return {n: (str(paths[n]), parse_matrix(paths[n].read_text())) for n in mats}

    @staticmethod
    def _flags(name, files):
        # (argv text, library value) of every flag `check name` may take
        m = files["cov" if name == "entropy-diff" else "m"]
        p = files["cov2" if name == "entropy-diff" else "b" if name == "eigvec" else "p"]
        return m, {
            "-p": p,
            "-e": files["e"],
            "--eps": ("1e-3", 1e-3),
            "--s1": ("0:2", (0, 2)),
            "--s2": ("2:4", (2, 4)),
        }

    @pytest.mark.parametrize("name", sorted(CHECK_CALLS))
    def test_check_matches_library(self, name, files):
        flags, call = CHECK_CALLS[name]
        m, values = self._flags(name, files)
        argv = ["check", name, "-m", m[0]]
        for flag in flags:
            argv += [flag, values[flag][0]]
        eps = 1e-3 if "--eps" in flags else None
        for fmt in ("text", "csv", "json"):
            for norm_flag, kind in NORM_FLAGS.items():
                code, text = _run_text(["--format", fmt, "--norm", norm_flag] + argv)
                report = call(m[1], *(values[flag][1] for flag in flags), kind)
                assert code == 0
                assert text == emit_report([(eps, report)], fmt)

    @pytest.mark.parametrize("name", sorted(CHECK_CALLS))
    def test_check_missing_flag(self, name, files, capsys):
        flags, _ = CHECK_CALLS[name]
        m, values = self._flags(name, files)
        for missing in flags:
            argv = ["check", name, "-m", m[0]]
            for flag in flags:
                if flag != missing:
                    argv += [flag, values[flag][0]]
            code, text = _run_text(argv)
            assert code == 1
            assert text == ""
            assert capsys.readouterr().err == f"error: check {name} requires {missing}\n"

    @pytest.mark.parametrize("name", sorted(SWEEP_CALLS))
    def test_sweep_matches_library(self, name, files):
        m, e = files["m"], files["e"]
        argv = ["sweep", name, "-m", m[0], "-e", e[0], "--eps", "1e-4,1e-3"]
        for fmt in ("text", "csv", "json"):
            for norm_flag, kind in NORM_FLAGS.items():
                code, text = _run_text(["--format", fmt, "--norm", norm_flag] + argv)
                report = sweep(m[1], e[1], [1e-4, 1e-3], SWEEP_CALLS[name], kind)
                assert not report.errors
                assert code == 0
                assert text == emit_report(list(report.grid), fmt, slope=report.slope)

    @pytest.mark.parametrize("name", sorted(SWEEP_CALLS))
    def test_sweep_shape_mismatch(self, name, files, tmp_path, capsys):
        # E of another shape than M: an input error, before any point runs
        small = tmp_path / "small.txt"
        small.write_text(format_matrix(np.eye(2)))
        argv = ["sweep", name, "-m", files["m"][0], "-e", str(small)]
        code, text = _run_text(argv + ["--eps", "1e-4,1e-3"])
        assert code == 1
        assert text == ""
        assert capsys.readouterr().err == "error: shapes (4, 4) and (2, 2) differ\n"

    @pytest.mark.parametrize("name", sorted(SWEEP_CALLS))
    def test_sweep_non_square_without_direction(self, name, tmp_path, capsys):
        # The seeded direction is drawn for M's row count, and sweep gates M,
        # so the error is the one the same M gives with -e.
        path = tmp_path / "ns.txt"
        path.write_text(format_matrix(np.arange(6.0).reshape(2, 3)))
        code, text = _run_text(["sweep", name, "-m", str(path), "--eps", "1e-3,2e-3"])
        assert code == 1
        assert text == ""
        assert capsys.readouterr().err == (
            "error: expected a square matrix, got shape (2, 3)\n"
        )

    def test_eigvec_negative_epsilon(self, files, capsys):
        # exit 2 is kept for a bound that fails with its preconditions met
        argv = ["check", "eigvec", "-m", files["m"][0], "-p", files["b"][0]]
        code, text = _run_text(argv + ["--eps", "-1"])
        assert code == 1
        assert text == ""
        assert "epsilon must not be negative" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["woodbury", "kappa-growth"])
    @pytest.mark.parametrize("eps", ["0", "-1"])
    def test_nonpositive_epsilon(self, name, eps, files, capsys):
        argv = ["check", name, "-m", files["m"][0], "-e", files["e"][0]]
        code, text = _run_text(argv + ["--eps", eps])
        assert code == 1
        assert text == ""
        assert "epsilon must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name", sorted(name for name, (flags, _) in CHECK_CALLS.items() if "--eps" in flags)
    )
    def test_infinite_epsilon(self, name, files, capsys):
        flags, _ = CHECK_CALLS[name]
        m, values = self._flags(name, files)
        argv = ["check", name, "-m", m[0]]
        for flag in flags:
            argv += [flag, "inf" if flag == "--eps" else values[flag][0]]
        code, text = _run_text(argv)
        assert code == 1
        assert text == ""
        assert "epsilon must be finite, got inf" in capsys.readouterr().err

    @pytest.mark.parametrize("eps", ["1e-3,inf", "nan,1e-3", "1e-3:inf:4", "nan:1e-3:4"])
    def test_sweep_non_finite_grid(self, eps, files, capsys):
        # rejected before any point runs, and before numpy sees the value
        argv = ["sweep", "spectrum", "-m", files["m"][0], "-e", files["e"][0]]
        code, text = _run_text(argv + ["--eps", eps])
        assert code == 1
        assert text == ""
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("eps", ["1e-4:1e-3", "1e-4:1e-3:x", "1e-4,oops"])
    def test_sweep_bad_grid(self, eps, files, capsys):
        argv = ["sweep", "spectrum", "-m", files["m"][0], "-e", files["e"][0]]
        code, text = _run_text(argv + ["--eps", eps])
        assert code == 1
        assert text == ""
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_sweep_huge_grid_count(self, files, capsys):
        # rejected before numpy is asked for 10^15 points (7.11 PiB), which
        # would raise MemoryError out of run
        argv = ["sweep", "gram", "-m", files["m"][0], "-e", files["e"][0]]
        code, text = _run_text(argv + ["--eps", "1e-6:1e-3:1000000000000000"])
        assert code == 1
        assert text == ""
        assert capsys.readouterr().err == (
            "error: --eps grid count 1000000000000000 exceeds 1000000\n"
        )

    def test_grid_count_limit_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(cli, "_EPS_GRID_MAX_POINTS", 3)
        assert len(cli._parse_eps_grid("1e-6:1e-3:3")) == 3
        with pytest.raises(ParseError, match="count 4 exceeds 3"):
            cli._parse_eps_grid("1e-6:1e-3:4")

    def test_check_bad_index_range(self, files, capsys):
        argv = ["check", "projection", "-m", files["m"][0], "-p", files["p"][0]]
        code, text = _run_text(argv + ["--s1", "0:2:1", "--s2", "2:4"])
        assert code == 1
        assert text == ""
        assert capsys.readouterr().err == "error: --s1 must be start:stop\n"

    @pytest.mark.parametrize("name", ["spectrum", "bhatia-jain", "sqrt", "inv"])
    def test_sweep_negative_epsilon(self, name, files):
        # the negative point is printed and left out of the slope fit
        m, e = files["m"], files["e"]
        argv = ["sweep", name, "-m", m[0], "-e", e[0], "--eps=-1e-3,1e-4,1e-3"]
        code, text = _run_text(argv)
        report = sweep(m[1], e[1], [-1e-3, 1e-4, 1e-3], SWEEP_CALLS[name])
        assert code == 0
        assert text.count("label=") == 3
        assert text == emit_report(list(report.grid), "text", slope=report.slope)

    @pytest.mark.parametrize("name", ["woodbury", "kappa-growth"])
    def test_sweep_records_zero_epsilon(self, name, files, capsys):
        argv = ["--format", "csv", "sweep", name, "-m", files["m"][0], "-e", files["e"][0]]
        code, text = _run_text(argv + ["--eps", "0,1e-3"])
        assert code == 0
        # header, the 1e-3 point, slope
        assert [line.split(",")[0] for line in text.splitlines()[1:-1]] == ["0.001"]
        assert capsys.readouterr().err == (
            "epsilon=0: OutOfValidityRange: epsilon must be positive, got 0.0\n"
        )


def _run_cli_subprocess(argv):
    return subprocess.run(
        [sys.executable, "-m", "sympspec.cli", *argv],
        capture_output=True,
        check=False,
    )


class TestGoldenFiles:
    def test_spectrum_golden(self):
        proc = _run_cli_subprocess(["spectrum", str(DATA / "m91.txt")])
        assert proc.returncode == 0
        assert proc.stdout == (GOLDEN / "spectrum_m91.txt").read_bytes()

    def test_counterexample_golden(self):
        proc = _run_cli_subprocess(
            ["counterexample", "--x", "33", "--eps", "0.05", "--c", "1"]
        )
        assert proc.returncode == 0
        assert proc.stdout == (GOLDEN / "counterexample_x33.txt").read_bytes()

    def test_sweep_golden(self):
        proc = _run_cli_subprocess(
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
            ]
        )
        assert proc.returncode == 0
        assert proc.stdout == (GOLDEN / "sweep_gram_spd4.csv").read_bytes()
