"""What a cold process loads, and the package's lazily resolved exports."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sympspec
from sympspec import cli, symplectic
from sympspec.errors import UnknownCommand
from sympspec.perturb import SWEEPABLE

_DATA = Path(__file__).parent / "data"
_SRC = Path(__file__).parent.parent / "src"

# The sympspec.* modules that a fresh interpreter holds after it runs each
# statement: a bare package import, then the six commands the benchmark's
# cold CLI workload runs, each through cli.run in its own process, and
# whether it holds json. A text report loads no json; a JSON report does.
_CORE = {"sympspec", "sympspec.densemat", "sympspec.errors"}
_CLI = _CORE | {"sympspec.cli", "sympspec.symplectic"}
_LOADED = {
    "import": (None, _CORE, False),
    "spectrum": (["spectrum", "spd4"], _CLI, False),
    "decompose": (["decompose", "spd4"], _CLI, False),
    "decompose.json": (["--format", "json", "decompose", "spd4"], _CLI, True),
    "check": (
        ["check", "sqrt", "-m", "spd4", "-p", "spd4p"], _CLI | {"sympspec.perturb"}, False
    ),
    "sweep": (
        ["sweep", "woodbury", "-m", "spd4", "-e", "e4", "--eps", "1e-4:1e-3:3"],
        _CLI | {"sympspec.perturb"},
        False,
    ),
    "entropy": (["entropy", "gamma3"], _CLI | {"sympspec.gaussian"}, False),
    "counterexample": (
        ["counterexample", "--x", "100", "--eps", "0.05", "--c", "1"],
        _CLI | {"sympspec.perturb"},
        False,
    ),
}

# The child takes the command as its arguments, none for the bare import,
# and loads json only after it has looked.
_CHILD = """
import io, sys
argv = sys.argv[1:] or None
code = None
if argv is None:
    import sympspec
else:
    from sympspec import cli
    code = cli.run(argv, out=io.StringIO())
has_json = "json" in sys.modules
import json
print(json.dumps([code, has_json, sorted(m for m in sys.modules if m.split(".")[0] == "sympspec")]))
"""


def _data_path(arg):
    path = _DATA / f"{arg}.txt"
    return str(path) if path.is_file() else arg


@pytest.mark.parametrize("name", list(_LOADED))
def test_cold_process_loads_only_what_it_runs(name):
    argv, want, want_json = _LOADED[name]
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, *[_data_path(arg) for arg in argv or ()]],
        env=dict(os.environ, PYTHONPATH=str(_SRC)),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    code, has_json, loaded = json.loads(proc.stdout)
    assert code in (None, 0), proc.stderr
    assert set(loaded) == want
    assert has_json is want_json


def test_every_export_is_its_defining_modules_object():
    for name in sympspec.__all__:
        obj = getattr(sympspec, name)
        assert getattr(sys.modules[obj.__module__], name) is obj, name


def test_dir_and_star_import_give_every_export():
    assert set(sympspec.__all__) <= set(dir(sympspec))
    namespace = {}
    exec("from sympspec import *", namespace)
    assert set(sympspec.__all__) <= set(namespace)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        sympspec.no_such_name
    assert not hasattr(sympspec, "SWEEPABLE")


def test_lazy_exports_are_looked_up_on_every_access(monkeypatch):
    # A tracer rebinds public functions on their modules and puts them back;
    # a name the package kept would miss both.
    replacement = object()
    monkeypatch.setattr(symplectic, "williamson", replacement)
    assert sympspec.williamson is replacement
    monkeypatch.undo()
    assert sympspec.williamson is symplectic.williamson
    assert "williamson" not in vars(sympspec)
    # densemat's names are bound in the package, where a tracer wraps them.
    assert "sym_eig" in vars(sympspec)


def _sweep_accepts(bound):
    try:
        cli.build_parser().parse_args(["sweep", bound, "-m", "m.txt", "--eps", "1"])
    except UnknownCommand:
        return False
    return True


def test_sweep_choices_are_the_sweepable_bounds():
    # build_parser reads them off _BOUNDS without loading perturb.
    sweepable = [name for name, (how, _) in cli._BOUNDS.items() if how in SWEEPABLE]
    assert [name for name in cli._BOUNDS if _sweep_accepts(name)] == sweepable
