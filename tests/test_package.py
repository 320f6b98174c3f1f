"""The package declares only what exists: console scripts and the
modules its docstring lists. Set-up imports no more of numpy than it
needs."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import bbqec

tomllib = pytest.importorskip("tomllib")

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def _documented_modules():
    """The first word of each indented line after ``Modules:``."""
    lines = bbqec.__doc__.split("Modules:", 1)[1].splitlines()
    return [ln.split()[0] for ln in lines if ln.startswith("    ") and ln.strip()]


def test_every_console_script_resolves():
    with PYPROJECT.open("rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    for name, target in scripts.items():
        assert callable(pkgutil.resolve_name(target)), name


def test_every_documented_module_imports():
    modules = _documented_modules()
    assert "noise" in modules
    for name in modules:
        importlib.import_module(f"bbqec.{name}")


# Builds every benchmark code with its logicals and both circuits, and runs
# the distance search, in a fresh interpreter. np.unique and np.setdiff1d
# import numpy.ma lazily, which adds about 2 MB to the resident set.
_SET_UP = """
import sys
from bbqec import circuit, codes
for cid in ("18-4-4-pruned", "18-6-3", "36-4-6", "144-12-12"):
    code = codes.build_named_code(cid, trust_table_distance=True)
    codes.logical_operator_set_for(code)
    for basis in ("Z", "X"):
        circuit.build_syndrome_circuit(code, 7, basis=basis)
assert codes.compute_distance(codes.build_named_code("36-4-6")).value == 6
assert "numpy.ma" not in sys.modules, "set-up imported numpy.ma"
"""


def test_set_up_does_not_import_numpy_ma():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    subprocess.run(
        [sys.executable, "-c", _SET_UP],
        env={**os.environ, "PYTHONPATH": path},
        check=True,
        timeout=120,
    )
