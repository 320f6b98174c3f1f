"""The package declares only what exists: console scripts and the
modules its docstring lists."""

import importlib
import pkgutil
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
