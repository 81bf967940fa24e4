"""Every CLI report, pinned byte for byte.

Each call below runs through ``cli.run`` in this process. Its stdout, its
stderr and its exit code are hashed together, and the hashes are compared
with ``golden/cli_calls.sha256``: one line per call, the hash and then the
call's arguments with matrix paths relative to ``tests/``. The calls cover
every command in every ``--format``, with and without ``--bits``, and
``check`` and ``sweep`` for every bound, on the matrices in ``data/``.

To rewrite the golden file after an intended change of output, run
``PYTHONPATH=src python tests/test_cli_golden.py > tests/golden/cli_calls.sha256``
and say in the change why the bytes moved.
"""

import contextlib
import hashlib
import io
import sys
from pathlib import Path

from sympspec.cli import _BOUNDS, run
from sympspec.perturb import SWEEPABLE

TESTS = Path(__file__).parent
GOLDEN = TESTS / "golden" / "cli_calls.sha256"

FORMATS = ("text", "csv", "json")

# The matrices of one size: M, a second matrix P near M, a direction E with
# ||E||_op <= 1 (eigvec takes it as its -p), and the --s1/--s2 index ranges.
SETUPS = (
    {"-m": "data/m91.txt", "-p": "data/gamma3.txt", "-e": "data/i2.txt",
     "--s1": "0:1", "--s2": "1:2"},
    {"-m": "data/spd4.txt", "-p": "data/spd4p.txt", "-e": "data/e4.txt",
     "--s1": "0:2", "--s2": "2:4"},
)


def _check_argv(name, setup):
    argv = ["check", name, "-m", setup["-m"]]
    for flag in _BOUNDS[name][1]:
        if flag == "--eps":
            value = "0.001"
        elif flag == "-p" and name == "eigvec":
            value = setup["-e"]
        else:
            value = setup[flag]
        argv += [flag, value]
    return argv


def calls():
    """The argument lists of every pinned call, paths relative to tests/."""
    commands = []
    for matrix in ("gamma3", "i2", "m91", "spd4"):
        for command in ("spectrum", "decompose", "entropy"):
            commands.append([command, f"data/{matrix}.txt"])
    for x in ("1", "33", "1000"):
        commands.append(["counterexample", "--x", x, "--eps", "0.05", "--c", "1"])
    commands.append(["demo-degenerate", "--eps", "0.01"])
    for setup in SETUPS:
        for name in _BOUNDS:
            commands.append(_check_argv(name, setup))
        for name, (how, _) in _BOUNDS.items():
            if how in SWEEPABLE:
                commands.append(
                    ["sweep", name, "-m", setup["-m"], "-e", setup["-e"],
                     "--eps", "1e-4:1e-2:3"]
                )
    # a seeded direction, a list grid, failed points and a missing flag
    commands.append(["--seed", "3", "sweep", "gram", "-m", "data/spd4.txt",
                     "--eps", "1e-6,1e-3"])
    commands.append(["sweep", "woodbury", "-m", "data/m91.txt", "-e", "data/i2.txt",
                     "--eps", "0.01,0.6,0.7"])
    commands.append(["check", "s-stability", "-m", "data/spd4.txt", "--eps", "0.001"])
    return [
        ["--format", fmt] + bits + argv
        for argv in commands
        for fmt in FORMATS
        for bits in ([], ["--bits"])
    ]


def digest(argv) -> str:
    """sha256 over the call's stdout, stderr and exit code."""
    full = [str(TESTS / a) if a.startswith("data/") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run(full, out=out)
    h = hashlib.sha256()
    for part in (out.getvalue(), err.getvalue(), str(code)):
        h.update(part.encode("utf-8") + b"\0")
    return h.hexdigest()


def _golden_lines():
    return [f"{digest(argv)}  {' '.join(argv)}" for argv in calls()]


def test_every_cli_call_matches_golden():
    want = GOLDEN.read_text(encoding="utf-8").splitlines()
    got = _golden_lines()
    assert [line.split("  ", 1)[1] for line in want] == [
        line.split("  ", 1)[1] for line in got
    ], "the list of pinned calls changed"
    changed = [g.split("  ", 1)[1] for w, g in zip(want, got) if w != g]
    assert not changed, f"{len(changed)} calls print other bytes: {changed[:5]}"


if __name__ == "__main__":
    sys.stdout.write("\n".join(_golden_lines()) + "\n")
