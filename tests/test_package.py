"""The package declares only what exists: console scripts, the modules
its docstring lists and every module's ``__all__``, which names every
public function and class the module defines. It imports only its
declared dependencies, scripts use only its public names, and every
package name the benchmark reads exists. Set-up imports no more of numpy
than it needs."""

import ast
import importlib
import os
import pkgutil
import re
import subprocess
import sys
import tomllib
from collections import Counter
from pathlib import Path

import pytest

import bbqec

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"


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


def test_every_exported_name_exists():
    for info in pkgutil.iter_modules(bbqec.__path__):
        module = importlib.import_module(f"bbqec.{info.name}")
        # without __all__ there would be nothing to check
        assert hasattr(module, "__all__"), f"bbqec.{info.name} declares no __all__"
        missing = [n for n in module.__all__ if not hasattr(module, n)]
        assert not missing, f"bbqec.{info.name}.__all__ names missing {missing}"


def test_every_public_function_and_class_is_exported():
    for path in sorted((ROOT / "src" / "bbqec").glob("*.py")):
        module = importlib.import_module(f"bbqec.{path.stem}")
        defined = [
            node.name for node in ast.parse(path.read_text()).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")
        ]
        unexported = [name for name in defined if name not in module.__all__]
        assert not unexported, f"bbqec.{path.stem}.__all__ leaves out {unexported}"


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _private_uses(tree: ast.AST) -> list[str]:
    """Private names a script imports from ``bbqec`` or reads off a name
    bound to a ``bbqec`` module."""
    bound: set[str] = set()
    found: list[str] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "bbqec":
                    found += [p for p in alias.name.split(".") if _is_private(p)]
                    bound.add(alias.asname or "bbqec")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "bbqec":
            found += [p for p in node.module.split(".") if _is_private(p)]
            for alias in node.names:
                if _is_private(alias.name):
                    found.append(alias.name)
                bound.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and _is_private(node.attr)
            and isinstance(node.value, (ast.Name, ast.Attribute))
            and ast.unparse(node.value).split(".")[0] in bound
        ):
            found.append(ast.unparse(node))
    return found


@pytest.mark.parametrize("script", sorted((ROOT / "scripts").glob("*.py")), ids=lambda p: p.name)
def test_scripts_use_only_public_names(script):
    assert _private_uses(ast.parse(script.read_text())) == []


def test_private_use_check_sees_imports_and_attributes():
    source = (
        "import bbqec.circuit as c\n"
        "from bbqec import noise\n"
        "from bbqec.circuit import _TERM_GROUPS, arrangements\n"
        "c._term_maps(code)\n"
        "noise._Program\n"
        "noise.__name__\n"
        "other._private\n"
    )
    found = sorted(_private_uses(ast.parse(source)))
    assert found == ["_TERM_GROUPS", "c._term_maps", "noise._Program"]


def _package_reads(tree: ast.AST) -> set[str]:
    """Dotted names a module reads from ``bbqec``: what it imports, and
    every attribute chain on a name bound to one of those, by an import
    or by a plain or tuple assignment from such a chain."""
    bound: dict[str, str] = {}
    found: set[str] = set()

    def resolve(node):
        if isinstance(node, ast.Name):
            return bound.get(node.id)
        if isinstance(node, ast.Attribute) and (base := resolve(node.value)):
            return f"{base}.{node.attr}"
        return None

    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "bbqec":
                    found.add(alias.name)
                    # "import bbqec.gf2" binds bbqec; "as g" binds g to bbqec.gf2
                    if alias.asname:
                        bound[alias.asname] = alias.name
                    else:
                        bound["bbqec"] = "bbqec"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "bbqec":
            for alias in node.names:
                found.add(f"{node.module}.{alias.name}")
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
            pairs = [(target, value)]
            if isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple):
                pairs = zip(target.elts, value.elts)
            for name, source in pairs:
                if isinstance(name, ast.Name) and (path := resolve(source)):
                    bound[name.id] = path
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and (path := resolve(node)):
            found.add(path)
    return found


def test_every_package_name_the_benchmark_reads_exists():
    """The benchmark may not change with the package, so a name it reads
    is deleted only after the benchmark stops reading it."""
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        for name in sorted(_package_reads(ast.parse(path.read_text()))):
            try:
                pkgutil.resolve_name(name)
            except (ImportError, AttributeError):
                pytest.fail(f"{path.name} reads {name}, which does not exist")


def test_package_read_check_sees_imports_attributes_and_assignments():
    source = (
        "import bbqec\n"
        "import bbqec.gf2\n"
        "import bbqec.noise as bn\n"
        "from bbqec import codes\n"
        "from bbqec.circuit import Circuit as C\n"
        "import numpy as np\n"
        "gf2, tab = bbqec.gf2, bbqec.tableau.StabilizerTableau\n"
        "alias = codes.CssCode\n"
        "gf2.BinaryMatrix\n"
        "tab.h\n"
        "bn.NoiseModel.device_rates()\n"
        "alias.n\n"
        "C.table\n"
        "np.zeros\n"
        "other.attr\n"
        "x, y = 1, np.eye\n"
    )
    assert _package_reads(ast.parse(source)) == {
        "bbqec", "bbqec.gf2", "bbqec.noise", "bbqec.codes", "bbqec.circuit.Circuit",
        "bbqec.tableau", "bbqec.tableau.StabilizerTableau", "bbqec.tableau.StabilizerTableau.h",
        "bbqec.gf2.BinaryMatrix", "bbqec.noise.NoiseModel", "bbqec.noise.NoiseModel.device_rates",
        "bbqec.codes.CssCode", "bbqec.codes.CssCode.n", "bbqec.circuit.Circuit.table",
    }


def _names_used(tree: ast.AST) -> Counter:
    """How often each name is read as a bare name or an attribute."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    )


def _unused_private_definitions(sources: dict[str, str]) -> list[str]:
    """Top-level private functions and classes, and private methods, of
    the modules in ``sources`` (name -> text) that no code in them uses
    outside their own definition."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    used = sum(map(_names_used, trees.values()), Counter())
    found = []
    for module, tree in trees.items():
        defs = [(node, "") for node in tree.body] + [
            (item, f"{node.name}.")
            for node in tree.body if isinstance(node, ast.ClassDef)
            for item in node.body if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        for node, owner in defs:
            kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            if isinstance(node, kinds) and _is_private(node.name):
                if used[node.name] == _names_used(node)[node.name]:
                    found.append(f"{module}.{owner}{node.name}")
    return found


def test_every_private_definition_is_used_in_the_package():
    """A private helper that only tests reach is a leftover."""
    sources = {p.stem: p.read_text() for p in sorted((ROOT / "src" / "bbqec").glob("*.py"))}
    assert _unused_private_definitions(sources) == []


def test_unused_private_check_sees_functions_classes_and_methods():
    source = (
        "def _used(): return 1\n"
        "def _unused(): return _used()\n"
        "def _recursive(n): return _recursive(n - 1)\n"
        "class _Left: pass\n"
        "class Shape:\n"
        "    def _helper(self): return self._called()\n"
        "    def _called(self): return 0\n"
        "    def __len__(self): return 0\n"
        "def public(): return _other.x\n"
    )
    other = "from .m import _used\n_other = 1\n"
    found = _unused_private_definitions({"m": source, "o": other})
    assert found == ["m._unused", "m._recursive", "m._Left", "m.Shape._helper"]


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


def _imported_packages(tree: ast.AST) -> set[str]:
    """Top-level packages of the absolute imports in a module."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def test_package_imports_only_declared_dependencies():
    with PYPROJECT.open("rb") as fh:
        declared = tomllib.load(fh)["project"]["dependencies"]
    # a requirement's name ends at its first version or marker character
    allowed = {re.split(r"[^A-Za-z0-9_.-]", req, maxsplit=1)[0].lower() for req in declared}
    allowed |= set(sys.stdlib_module_names) | {"bbqec"}
    for path in sorted((ROOT / "src" / "bbqec").glob("*.py")):
        undeclared = _imported_packages(ast.parse(path.read_text())) - allowed
        assert not undeclared, f"{path.name} imports undeclared {sorted(undeclared)}"


def test_import_guard_sees_every_absolute_import():
    source = "import scipy.sparse\nfrom numpy import linalg\nfrom . import gf2\nimport os, json\n"
    assert _imported_packages(ast.parse(source)) == {"scipy", "numpy", "os", "json"}


def _package_imports(tree: ast.AST) -> list[str]:
    """The import statements of a module that import from ``bbqec``:
    every relative import, and the absolute ones of ``bbqec``."""
    def ours(name):
        return name.split(".")[0] == "bbqec"

    return [
        ast.unparse(node)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level or ours(node.module))
        or isinstance(node, ast.Import) and any(ours(alias.name) for alias in node.names)
    ]


def test_the_tableau_oracle_imports_nothing_from_the_package():
    """The tableau checks the package's circuits and fault-effect table,
    so it shares no code with what it checks."""
    tree = ast.parse((ROOT / "src" / "bbqec" / "tableau.py").read_text())
    assert _package_imports(tree) == []


def test_the_dem_imports_only_gf2_and_codes_and_gf2_nothing():
    """A decoder reads a DEM without the noise stack, and the packed-row
    scans it shares with ``noise`` live in ``gf2``, at the bottom."""
    src = ROOT / "src" / "bbqec"
    assert _package_imports(ast.parse((src / "dem.py").read_text())) == [
        "from . import gf2", "from .codes import _as_int",
    ]
    assert _package_imports(ast.parse((src / "gf2.py").read_text())) == []


def test_package_import_check_sees_relative_and_absolute_imports():
    source = (
        "from . import gf2\n"
        "from .codes import CssCode\n"
        "import bbqec.noise as bn\n"
        "from bbqec import circuit\n"
        "import numpy as np, os\n"
        "from typing import Sequence\n"
        "def f():\n"
        "    from .. import other\n"
    )
    assert _package_imports(ast.parse(source)) == [
        "from . import gf2", "from .codes import CssCode", "import bbqec.noise as bn",
        "from bbqec import circuit", "from .. import other",
    ]
