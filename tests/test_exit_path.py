"""How a ``sympspec`` process ends: ``cli.main`` run in child processes.

``main`` flushes stdout and stderr and ends the process without the
interpreter's teardown, unless a flush fails or a trace or profile function
is set. These tests check that no byte and no exit code is lost on the way.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from sympspec import cli, perturb

_DATA = Path(__file__).parent / "data"
# The children import the sympspec that this process imported.
_SRC = Path(cli.__file__).parent.parent


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(_SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # A block-buffered stdout, as a shell pipe gives. With PYTHONUNBUFFERED
    # every write goes through at once, and a lost flush would not show.
    env.pop("PYTHONUNBUFFERED", None)
    return env


def _child(args, **kwargs):
    return subprocess.run(
        [sys.executable, *args], env=_env(), capture_output=True, timeout=120, **kwargs
    )


def _cli(*argv):
    return _child(["-m", "sympspec.cli", *argv])


def test_a_long_report_arrives_whole_through_a_pipe(capsys):
    # 2000 points, about 170 KB of CSV: more than a pipe holds, so the child
    # blocks on its writes while this process reads. The points past
    # lambda_min / 2 fail their precondition and go to stderr.
    argv = ["--format", "csv", "sweep", "woodbury", "-m", str(_DATA / "spd4.txt"),
            "-e", str(_DATA / "e4.txt"), "--eps", "1e-6:1:2000"]
    code = cli.run(argv)
    expected = capsys.readouterr()
    proc = _cli(*argv)
    assert len(proc.stdout) > 65536
    assert "PreconditionViolated" in expected.err
    assert proc.returncode == code == 0
    assert proc.stdout == expected.out.encode("utf-8")
    assert proc.stderr == expected.err.encode("utf-8")


def _failing_sqrt_lemma(a, b, kind):
    return perturb.BoundReport.from_sides(2.0, 1.0, kind, True, "sqrt_lemma")


# A child that rebinds check_sqrt_lemma to a report that fails, so that
# `check sqrt` exits 2; SWEEPABLE looks the checker up when it runs.
_REBOUND = """
import sys
from sympspec import cli, perturb
def _failing_sqrt_lemma(a, b, kind):
    return perturb.BoundReport.from_sides(2.0, 1.0, kind, True, "sqrt_lemma")
perturb.check_sqrt_lemma = _failing_sqrt_lemma
cli.main(sys.argv[1:])
"""


@pytest.mark.parametrize(
    "argv, code",
    [
        (["spectrum", str(_DATA / "m91.txt")], 0),
        (["spectrum", str(_DATA / "missing.txt")], 1),
        (["check", "sqrt", "-m", str(_DATA / "spd4.txt"), "-p", str(_DATA / "spd4p.txt")], 2),
    ],
)
def test_exit_codes_pass_through_main(argv, code, capsys, monkeypatch):
    if code == 2:
        monkeypatch.setattr(perturb, "check_sqrt_lemma", _failing_sqrt_lemma)
        proc = _child(["-c", _REBOUND, *argv])
    else:
        proc = _cli(*argv)
    assert cli.run(argv) == code
    expected = capsys.readouterr()
    assert proc.returncode == code
    assert proc.stdout == expected.out.encode("utf-8")
    assert proc.stderr == expected.err.encode("utf-8")


# A child that registers an atexit handler, sets the hook named by its first
# argument, and runs one command through main.
_ATEXIT = """
import atexit, sys
atexit.register(print, "atexit ran")
hook = sys.argv.pop(1)
if hook == "profile":
    sys.setprofile(lambda frame, event, arg: None)
elif hook == "trace":
    sys.settrace(lambda frame, event, arg: None)
from sympspec import cli
cli.main(sys.argv[1:])
"""


@pytest.mark.parametrize("hook, runs", [("none", False), ("profile", True), ("trace", True)])
def test_atexit_handlers_run_only_under_a_trace_or_profile_function(hook, runs):
    proc = _child(["-c", _ATEXIT, hook, "spectrum", str(_DATA / "m91.txt")])
    assert proc.returncode == 0
    assert proc.stdout == b"3\n" + (b"atexit ran\n" if runs else b"")


def test_cprofile_prints_its_report():
    proc = _child(["-m", "cProfile", "-m", "sympspec.cli", "spectrum", str(_DATA / "m91.txt")])
    assert proc.returncode == 0
    assert proc.stdout.startswith(b"3\n")
    assert b"function calls" in proc.stdout


def test_a_failed_flush_exits_through_the_interpreter():
    # The reading end of stdout's pipe is closed before the child runs: its
    # report waits in the buffer, and the flush raises BrokenPipeError. The
    # interpreter's own flush at exit then fails too, and reports it.
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "sympspec.cli", "spectrum", str(_DATA / "m91.txt")],
            env=_env(), stdout=write, stderr=subprocess.PIPE, timeout=120,
        )
    finally:
        os.close(write)
    assert proc.returncode == 120
    assert proc.stderr.startswith(b"Exception ignored in: <_io.TextIOWrapper name='<stdout>'")
    assert proc.stderr.endswith(b"BrokenPipeError: [Errno 32] Broken pipe\n")
