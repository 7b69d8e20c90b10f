"""The package root defines no names of its own beyond ``__version__``: each
public name is imported from the module that defines it, and importing one
module loads only what that module needs."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mathsim"


def new_modules(statement: str) -> list[str]:
    """The modules that ``statement`` adds to ``sys.modules`` in a fresh interpreter."""
    code = f"import sys; before = set(sys.modules); {statement}; print(*sorted(set(sys.modules) - before))"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_package_import_loads_no_submodule_and_no_numpy():
    loaded = new_modules("import mathsim")
    assert "mathsim" in loaded
    assert [m for m in loaded if m.startswith("mathsim.") or m.split(".")[0] == "numpy"] == []


def test_parser_import_loads_no_numpy():
    loaded = new_modules("import mathsim.mathml")
    assert "mathsim.mathml" in loaded
    assert [m for m in loaded if m.split(".")[0] == "numpy"] == []


def root_imports(path: Path) -> list[str]:
    """The names ``path`` imports from the package root: ``from mathsim import ...``,
    or ``from . import ...`` in a module of the package itself."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (
            (node.level == 0 and node.module == "mathsim")
            or (node.level == 1 and node.module is None and path.parent == PACKAGE)
        ):
            names += [alias.name for alias in node.names]
    return names


def test_package_root_imports_are_modules():
    for path in [*PACKAGE.glob("*.py"), *(ROOT / "tests").glob("*.py")]:
        for name in root_imports(path):
            assert (PACKAGE / f"{name}.py").is_file(), f"{path.name} imports {name} from the package root"


def declared_python_floor() -> tuple[int, int]:
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', pyproject, re.M).groups()
    return int(major), int(minor)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_source_parses_at_the_declared_python_floor(path):
    # The suite runs on a newer Python than pyproject.toml promises; syntax
    # newer than the floor (except*, PEP 695 type parameters) must fail here.
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
              feature_version=declared_python_floor())
